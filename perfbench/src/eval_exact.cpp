// eval_exact: repeated in-process estimate_gain calls on one built
// instance — the ROADMAP recipe (dregular:8, uniform:0.45,0.555,
// threshold:1, n=4000, 400 replications, default exact tally, 1 thread).
// The tally DP does most of the work here.
//
// The instance is the recipe's (instance seed 9), so P^D has one stored
// value; the workload seed drives every call's replication seed.

#include <cmath>
#include <memory>
#include <optional>

#include "common.hpp"
#include "layers.hpp"
#include "ld/cli/specs.hpp"

namespace perfbench {

namespace {

namespace election = ld::election;

struct Recipe {
    std::string graph = "dregular:8";
    std::string competencies = "uniform:0.45,0.555";
    std::string mechanism = "threshold:1";
    std::size_t n = 4000;
    double alpha = 0.05;
    std::uint64_t instance_seed = 9;
    std::size_t replications = 400;
    std::size_t warmup_replications = 64;
};

Recipe recipe(bool tiny) {
    Recipe r;
    if (tiny) {
        r.n = 400;
        r.replications = 40;
        r.warmup_replications = 4;
    }
    return r;
}

election::EvalOptions eval_options(const Recipe& r) {
    election::EvalOptions eval;  // default tally route, whatever it is
    eval.replications = r.replications;
    eval.threads = 1;
    return eval;
}

/// Stream ids for derive_seed.
constexpr std::uint64_t kCallStream = 1;
constexpr std::uint64_t kWarmupStream = 2;

}  // namespace

json::Value make_reference_eval_exact(const Options& options) {
    const Recipe r = recipe(options.tiny);
    ld::rng::Rng rng(r.instance_seed);
    Tracer off(false);
    const auto instance =
        traced_instance(off, r.graph, r.competencies, r.n, r.alpha, rng, 0, 0);
    const auto mechanism = ld::cli::make_mechanism(r.mechanism);
    election::EvalOptions eval = eval_options(r);
    eval.replications = r.replications * 100;
    eval.threads = 4;
    ld::rng::Rng reference_rng(20250601);
    const auto report = election::estimate_gain(*mechanism, instance, reference_rng, eval);
    json::Object ref;
    ref.emplace("pd", json::Value(report.pd));
    ref.emplace("pm", json::Value(report.pm.value));
    ref.emplace("pm_se", json::Value(report.pm.std_error));
    ref.emplace("replications", json::Value(static_cast<double>(eval.replications)));
    return json::Value(std::move(ref));
}

Result run_eval_exact(const Options& options, Tracer& tracer) {
    const Recipe r = recipe(options.tiny);
    const json::Value ref = load_reference(options);
    const double ref_pd = ref.at("pd").as_number();
    const double ref_pm = ref.at("pm").as_number();
    const double ref_se = ref.at("pm_se").as_number();
    const election::EvalOptions eval = eval_options(r);
    Result result;

    // Set-up, five times (median reported): build the instance and the
    // mechanism, then one 64-replication warm-up estimate so engine
    // workspaces and code pages are in place before the first timed call.
    std::vector<double> setup_s;
    std::optional<ld::model::Instance> instance;
    std::unique_ptr<ld::mech::Mechanism> mechanism;
    for (std::uint64_t i = 0; i < 5; ++i) {
        const auto t0 = Clock::now();
        const ScopedSpan setup(tracer, "setup", 0, i + 1);
        ld::rng::Rng rng(r.instance_seed);
        instance.reset();
        instance.emplace(traced_instance(tracer, r.graph, r.competencies, r.n, r.alpha, rng,
                                         setup.id(), i + 1));
        mechanism = ld::cli::make_mechanism(r.mechanism);
        election::EvalOptions warm = eval;
        warm.replications = r.warmup_replications;
        ld::rng::Rng warm_rng(derive_seed(options.seed, kWarmupStream, i));
        election::estimate_gain(*mechanism, *instance, warm_rng, warm);
        setup_s.push_back(seconds_between(t0, Clock::now()));
    }

    // Timed calls: call k draws its replication seed from (seed, k).
    std::size_t reps_done = 0;
    double window_s = 0.0;
    std::vector<double> latency_s;
    std::vector<election::GainReport> reports;
    bool injected = false;
    const auto run_calls = [&](double budget) {
        const auto start = Clock::now();
        while (reports.size() < 3 || seconds_between(start, Clock::now()) < budget) {
            const std::uint64_t k = reports.size();
            const std::uint64_t seed = derive_seed(options.seed, kCallStream, k);
            ld::rng::Rng rng(seed);
            const auto t0 = Clock::now();
            const std::uint64_t span =
                tracer.enabled() ? tracer.open("evaluator.estimate_gain", 0, k + 1) : 0;
            election::GainReport report =
                election::estimate_gain(*mechanism, *instance, rng, eval);
            if (span) tracer.finish(span);
            latency_s.push_back(seconds_between(t0, Clock::now()));
            reps_done += report.pm.replications;
            reports.push_back(report);

            if (options.inject_bad && !injected) {
                report.pm.value += 0.25;
                injected = true;
            }
            const double tol = 5.0 * std::hypot(report.pm.std_error, ref_se) +
                               eval.tally_epsilon / 2.0 + 1e-12;
            result.check(report.pm.replications == r.replications,
                         "eval_exact: replication count");
            result.check(std::abs(report.pd - ref_pd) <= 1e-9,
                         "eval_exact: P^D differs from its stored value");
            result.check(std::abs(report.pm.value - ref_pm) <= tol,
                         "eval_exact: P^M outside its interval around the reference");
            result.check(std::abs(report.gain - (report.pm.value - report.pd)) <= 1e-12,
                         "eval_exact: gain != P^M - P^D");
        }
        window_s = seconds_between(start, Clock::now());
    };

    if (!tracer.enabled()) {
        run_calls(options.seconds);
        result.add("setup_s", median(setup_s), "s");
        // Replications per second of timed wall time; the latencies are
        // medians, so one stalled call moves them little.
        result.add("work_per_s", static_cast<double>(reps_done) / window_s, "1/s");
        result.add("op_p50_ms", 1e3 * median(latency_s), "ms");
        result.add("op_p90_ms", 1e3 * windowed_quantile(latency_s, 0.9), "ms");
        result.note("peak_rss_mb", self_peak_rss_mb(), "MiB");
        result.note("calls", static_cast<double>(latency_s.size()), "count");
        return result;
    }

    // Traced pass: calls under an estimate_gain span, then the first few
    // calls' replications replayed through the public layer functions,
    // each once untraced and once traced (the difference is the tracing
    // overhead), and checked against the call they replay.
    run_calls(options.seconds / 2.0);
    const std::size_t replays = options.tiny ? 2 : 3;
    TraceOverhead overhead;
    double sinks = 0.0;
    for (std::uint64_t k = 0; k < replays; ++k) {
        const ReplayStats stats =
            replay_with_overhead(tracer, *mechanism, *instance,
                                 derive_seed(options.seed, kCallStream, k), eval,
                                 r.replications, k + 1, overhead);
        result.check(std::abs(stats.pm_mean - reports[k].pm.value) <= 1e-12,
                     "eval_exact: replayed P^M differs from estimate_gain");
        result.check(std::abs(stats.pd - reports[k].pd) <= 1e-12,
                     "eval_exact: replayed P^D differs from estimate_gain");
        sinks += stats.sinks_mean;
    }

    const LayerBreakdown layers = layer_breakdown(tracer.spans());
    add_shared_layer_metrics(result, layers, sinks / static_cast<double>(replays),
                             median(latency_s), r.replications, eval.threads,
                             overhead.share());
    result.note("estimate_gain_s", median(latency_s), "s");
    result.note("replayed_layers_s",
                layers.pd_s + static_cast<double>(r.replications) *
                                  (layers.act_s + layers.resolve_s + layers.tally_s),
                "s");
    return result;
}

}  // namespace perfbench
