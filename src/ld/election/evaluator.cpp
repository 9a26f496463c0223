#include "ld/election/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "ld/delegation/realize.hpp"
#include "ld/election/engine.hpp"
#include "ld/election/tally.hpp"
#include "ld/election/workspace.hpp"
#include "prob/normal.hpp"
#include "prob/truncated.hpp"
#include "support/expect.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace ld::election {

using support::expects;

double exact_direct_probability(const model::Instance& instance) {
    return exact_direct_probability_weighted(instance, {});
}

double exact_direct_probability_weighted(
    const model::Instance& instance, std::span<const std::uint64_t> initial_weights) {
    expects(initial_weights.empty() ||
                initial_weights.size() == instance.voter_count(),
            "exact_direct_probability_weighted: one weight per voter required");
    std::span<const std::uint64_t> weights = initial_weights;
    std::vector<std::uint64_t> unit;
    if (weights.empty()) {
        unit.assign(instance.voter_count(), 1);
        weights = unit;
    }
    // The ε = 0 windowed DP: exact, and its window stops at the W/2
    // threshold instead of spanning all W + 1 outcomes.
    prob::ConvolveScratch scratch;
    return prob::truncated_weighted_majority(weights, instance.competencies().values(), 0.0,
                                             scratch)
        .tail;
}

double approx_direct_probability(const model::Instance& instance,
                                 std::span<const std::uint64_t> initial_weights) {
    expects(initial_weights.empty() ||
                initial_weights.size() == instance.voter_count(),
            "approx_direct_probability: one weight per voter required");
    const auto probs = instance.competencies().values();
    const std::size_t n = probs.size();
    if (n == 0) return 0.0;
    // Small juries: the exact DP is cheap and the CLT is not trustworthy.
    if (n <= 64) return exact_direct_probability_weighted(instance, initial_weights);
    double total = 0.0, mean = 0.0, var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double w =
            initial_weights.empty() ? 1.0 : static_cast<double>(initial_weights[i]);
        total += w;
        mean += w * probs[i];
        var += w * w * probs[i] * (1.0 - probs[i]);
    }
    if (var <= 0.0) return mean > total / 2.0 ? 1.0 : 0.0;
    return 1.0 - prob::normal_cdf(total / 2.0 + 0.5, mean, std::sqrt(var));
}

double exact_direct_mean_votes(const model::Instance& instance) {
    return instance.competencies().mean() * static_cast<double>(instance.voter_count());
}

namespace {

/// Validate eval options against the mechanism/instance up front, so a
/// misconfiguration fails before any replication runs instead of
/// mid-estimate (e.g. inner_samples == 0 used to surface only when the
/// first non-functional outcome appeared).
void validate_options(const mech::Mechanism& mechanism, const model::Instance& instance,
                      const EvalOptions& options) {
    expects(options.replications > 0, "estimate: need at least one replication");
    expects(options.threads >= 1, "estimate: need at least one thread");
    expects(options.tally_epsilon >= 0.0 && options.tally_epsilon < 1.0,
            "estimate: tally_epsilon must lie in [0, 1)");
    expects(options.initial_weights.empty() ||
                options.initial_weights.size() == instance.voter_count(),
            "estimate: initial_weights must be empty or one per voter");
    expects(!mechanism.multi_delegation() || options.inner_samples > 0,
            "estimate: inner_samples must be positive for multi-delegation "
            "mechanisms (their P^M has no exact inner step)");
    if (options.certify.enabled() || options.target_std_error > 0.0) {
        expects(options.adaptive_batch > 0, "estimate: adaptive_batch must be positive");
        expects(options.max_replications > 0,
                "estimate: max_replications must be positive");
    }
    if (options.certify.enabled()) {
        expects(options.certify.delta < 1.0, "certify: delta must lie in (0, 1)");
        expects(std::isfinite(options.certify.gamma), "certify: gamma must be finite");
        expects(!options.approximate_tally,
                "certify: the Lemma-4 normal tally has no certified error "
                "bound; use the exact or truncated (tally_epsilon) route");
    }
}

ReplicationEngine& engine_for(const EvalOptions& options) {
    return options.engine ? *options.engine : ReplicationEngine::shared();
}

/// RAII wall-clock accounting for one estimate_* call: on destruction,
/// credits the replication count and elapsed time to the engine counters
/// and records the call's latency in the per-estimate histogram.  The
/// registry references are resolved once (they stay valid across reset()).
class EstimateTimer {
public:
    explicit EstimateTimer(std::size_t replications) : replications_(replications) {}

    /// The replication loop only learns its count at the end; let the
    /// caller correct the initial guess before the destructor credits it.
    void set_replications(std::size_t n) noexcept { replications_ = n; }

    ~EstimateTimer() {
        static support::Counter& replications =
            support::MetricsRegistry::global().counter("engine.replications");
        static support::Counter& replication_ns =
            support::MetricsRegistry::global().counter("engine.replication_ns");
        static support::LatencyHistogram& latency =
            support::MetricsRegistry::global().histogram("estimate.latency");
        replications.add(replications_);
        replication_ns.add(clock_.elapsed_ns());
        latency.record(clock_.elapsed_seconds());
    }

    EstimateTimer(const EstimateTimer&) = delete;
    EstimateTimer& operator=(const EstimateTimer&) = delete;

private:
    std::size_t replications_;
    support::Stopwatch clock_;
};

/// Rebuild `ws.outcome` from one sampled delegation realization, reusing
/// the workspace's buffers (no copy of the initial weights is taken).
void realize_with(const mech::Mechanism& mechanism, const model::Instance& instance,
                  rng::Rng& rng, const EvalOptions& options,
                  ReplicationWorkspace& ws) {
    delegation::realize_into(ws.outcome, ws.resolve, mechanism, instance, rng,
                             options.initial_weights, options.cycle_policy);
}

/// Certified per-sample tally error: each windowed P^M term is within
/// ε/2 of the exact DP, so the sample mean is too (docs/STATISTICS.md §4).
/// The normal route has no certified bound and reports none.
double tally_error_bound(const EvalOptions& options) {
    return options.approximate_tally ? 0.0 : options.tally_epsilon / 2.0;
}

/// `tally_error` widens the interval on both sides, so it covers the
/// exact-tally mean as well as the sampling error.
Estimate finish(const stats::RunningStats& acc, double confidence, double tally_error) {
    Estimate e;
    e.value = acc.mean();
    e.std_error = acc.standard_error();
    e.ci = stats::mean_interval(acc.mean(), acc.standard_error(), confidence);
    e.ci.lo -= tally_error;
    e.ci.hi += tally_error;
    e.replications = acc.count();
    return e;
}

/// One replication's P^M term and the shape of its delegation graph.
struct Replication {
    double pm = 0.0;
    delegation::DelegationStats shape{};
    bool functional = false;
};

/// Realize one delegation graph from `rng` in the worker's workspace —
/// drawing only the listed voters' delegates when the estimate listed
/// them (`listed` not null) — and compute its P^M term: the configured
/// tally route for a functional outcome (the normal approximation, or the
/// windowed DP at `tally_epsilon`, exact at ε = 0), the share of correct
/// sampled votes for a multi-delegation one.
Replication replicate(const mech::Mechanism& mechanism, const model::Instance& instance,
                      const delegation::DelegatorList* listed, rng::Rng& rng,
                      const EvalOptions& options, ReplicationWorkspace& ws) {
    if (listed) {
        delegation::realize_listed_into(ws.outcome, ws.resolve, *listed, instance, rng,
                                        options.cycle_policy);
    } else {
        realize_with(mechanism, instance, rng, options, ws);
    }
    const auto& outcome = ws.outcome;
    const auto& p = instance.competencies();
    Replication r{0.0, outcome.stats(), outcome.functional()};
    if (r.functional) {
        r.pm = options.approximate_tally
                   ? approx_correct_probability(outcome, p, ws.tally)
                   : truncated_correct_probability(outcome, p, options.tally_epsilon,
                                                   ws.tally);
        return r;
    }
    // One topological order per realization, shared by all inner samples
    // (the digraph is fixed within a replication).
    ws.topo_order = outcome.as_digraph().topological_order();
    std::size_t correct = 0;
    for (std::size_t s = 0; s < options.inner_samples; ++s) {
        if (sample_outcome_correct(outcome, p, rng, ws.topo_order, ws.tally)) ++correct;
    }
    r.pm = static_cast<double>(correct) / static_cast<double>(options.inner_samples);
    return r;
}

/// Replication statistics: P^M and the delegation-shape means (the
/// sink-side ones over functional outcomes only).
struct ReplicationStats {
    stats::RunningStats pm;
    stats::RunningStats delegators;
    stats::RunningStats max_weight;
    stats::RunningStats sinks;
    stats::RunningStats longest;

    void add(const Replication& r) {
        pm.add(r.pm);
        delegators.add(static_cast<double>(r.shape.delegator_count));
        if (!r.functional) return;
        max_weight.add(static_cast<double>(r.shape.max_weight));
        sinks.add(static_cast<double>(r.shape.voting_sink_count));
        longest.add(static_cast<double>(r.shape.longest_path));
    }

    void merge(const ReplicationStats& other) {
        pm.merge(other.pm);
        delegators.merge(other.delegators);
        max_weight.merge(other.max_weight);
        sinks.merge(other.sinks);
        longest.merge(other.longest);
    }
};

/// Seed of the i-th replication of a certified run.  The same SplitMix64
/// remix the sweep engine uses for per-cell seeds: one master value
/// (drawn once from the caller's stream) fans out to decorrelated
/// per-index seeds, so replication i's samples depend only on
/// (master, i) — never on which worker ran it or how many workers exist.
std::uint64_t certified_replication_seed(std::uint64_t master, std::size_t index) {
    rng::SplitMix64 mix(master ^ (0x9e3779b97f4a7c15ULL *
                                  (static_cast<std::uint64_t>(index) + 1)));
    return mix.next();
}

/// Split `count` replications into at most `threads` contiguous chunks —
/// chunk t holds count / threads of them, plus one while
/// t < count % threads — and run `chunk(t, first, size, workspace)` for
/// each non-empty one on the engine's pool, with the executing thread's
/// workspace.  A lone chunk runs inline on the calling thread.
template <typename Chunk>
void fan_out(ReplicationEngine& engine, std::size_t threads, std::size_t count,
             const Chunk& chunk) {
    if (std::min(threads, count) <= 1) {
        chunk(0, 0, count, engine.local_workspace());
        return;
    }
    const std::size_t base = count / threads;
    const std::size_t extra = count % threads;
    support::TaskGroup group(engine.pool());
    std::size_t first = 0;
    for (std::size_t t = 0; t < threads && first < count; ++t) {
        const std::size_t size = base + (t < extra ? 1 : 0);
        group.submit([&engine, &chunk, t, first, size] {
            chunk(t, first, size, engine.local_workspace());
        });
        first += size;
    }
    group.wait();
}

struct LoopResult {
    ReplicationStats stats;
    std::optional<stats::CertifiedEstimate> certificate;
};

/// The replication loop.  Replications run in rounds, each fanned out over
/// at most `options.threads` chunks, until the stop rule ends the loop:
///  - a fixed count: one round of `replications`;
///  - an SE target: rounds of `adaptive_batch` until the P^M standard
///    error reaches `target_std_error` (one sample has none) or
///    `max_replications` is hit;
///  - a certificate: rounds of `adaptive_batch` with a confidence-sequence
///    look after each, until the certified interval (statistical
///    half-width plus the ε/2 tally bound) clears `threshold` on either
///    side or `max_replications` is hit.
/// The stop rule also picks the seeding.  Fixed and SE runs split one
/// jumped stream per chunk off the caller's Rng up front (a single chunk
/// draws from it directly) and merge per-chunk partials in chunk order:
/// deterministic for fixed (seed, threads).  Certified runs seed
/// replication i from (master, i), with the master drawn once from the
/// caller's Rng, and fold the samples in index order: the stop point and
/// every report field are identical across thread counts.
/// An unweighted estimate of a mechanism that fixes its delegators lists
/// them once, before any replication, and every worker draws from that
/// one list.
LoopResult run_replications(const mech::Mechanism& mechanism,
                            const model::Instance& instance, rng::Rng& rng,
                            const EvalOptions& options, double threshold) {
    static support::Counter& rounds_counter =
        support::MetricsRegistry::global().counter("eval.adaptive_batches");
    static support::Counter& looks_counter =
        support::MetricsRegistry::global().counter("cert.boundary_evals");
    static support::Gauge& stop_gauge =
        support::MetricsRegistry::global().gauge("cert.stop_reason");
    static support::Gauge& width_gauge =
        support::MetricsRegistry::global().gauge("cert.final_half_width_ppm");

    EstimateTimer timer(0);
    ReplicationEngine& engine = engine_for(options);
    const auto listed = options.initial_weights.empty()
                            ? delegation::DelegatorList::of(mechanism, instance)
                            : nullptr;
    const CertifySpec& spec = options.certify;
    const bool certify = spec.enabled();
    const bool target_se = !certify && options.target_std_error > 0.0;
    const std::size_t cap =
        certify || target_se ? options.max_replications : options.replications;
    const std::size_t batch =
        certify || target_se ? std::min(options.adaptive_batch, cap) : cap;
    const std::size_t threads = std::min(options.threads, batch);

    const std::uint64_t master = certify ? rng.next() : 0;
    std::vector<rng::Rng> streams;
    if (!certify && threads > 1) {
        for (std::size_t t = 0; t < threads; ++t) streams.push_back(rng.split());
    }
    std::vector<ReplicationStats> partials(certify ? 0 : threads);
    std::vector<Replication> samples(certify ? batch : 0);
    std::optional<stats::ConfidenceSequence> cs;
    stats::CertifiedEstimate cert;
    if (certify) cs.emplace(spec.boundary, spec.delta);
    // Each windowed-tally sample is within ε/2 of its exact value, so the
    // sample mean is within ε/2 of the exact-tally sample mean; widening
    // the statistical interval by ε/2 per side covers it (ε = 0: exact).
    cert.delta = spec.delta;
    cert.numerical_error = tally_error_bound(options);

    // One chunk of a round: certified samples land in `samples` at their
    // index, fixed and SE chunks merge into their stream's partial.
    std::size_t done = 0;
    const auto run_chunk = [&](std::size_t t, std::size_t first, std::size_t size,
                               ReplicationWorkspace& ws) {
        if (certify) {
            for (std::size_t i = first; i < first + size; ++i) {
                rng::Rng rep_rng(certified_replication_seed(master, done + i));
                samples[i] =
                    replicate(mechanism, instance, listed.get(), rep_rng, options, ws);
            }
            return;
        }
        rng::Rng& stream = streams.empty() ? rng : streams[t];
        ReplicationStats acc;
        for (std::size_t r = 0; r < size; ++r) {
            acc.add(replicate(mechanism, instance, listed.get(), stream, options, ws));
        }
        partials[t].merge(acc);
    };
    LoopResult result;
    while (true) {
        const std::size_t round = std::min(batch, cap - done);
        fan_out(engine, threads, round, run_chunk);
        done += round;
        if (certify) {
            for (std::size_t k = 0; k < round; ++k) {
                // Truncated-tally midpoints can poke ε/2 past [0, 1];
                // clamping moves a sample by at most its own numerical
                // error, which the ε/2 widening already budgets for.
                samples[k].pm = std::clamp(samples[k].pm, 0.0, 1.0);
                cs->add(samples[k].pm);
                result.stats.add(samples[k]);
            }
            // The empirical-Bernstein half-width divides by t − 1; defer
            // the first look until two observations exist (batch == cap == 1).
            if (spec.boundary != stats::CsBoundary::EmpiricalBernstein ||
                cs->count() >= 2) {
                const stats::Interval iv = cs->look();
                looks_counter.add(1);
                cert.lo = std::clamp(iv.lo - cert.numerical_error, 0.0, 1.0);
                cert.hi = std::clamp(iv.hi + cert.numerical_error, 0.0, 1.0);
                if (cert.lo >= threshold) {
                    cert.stop = stats::CertStop::DecidedAbove;
                    break;
                }
                if (cert.hi < threshold) {
                    cert.stop = stats::CertStop::DecidedBelow;
                    break;
                }
            }
        } else {
            result.stats = ReplicationStats{};
            for (const auto& partial : partials) result.stats.merge(partial);
            if (target_se) {
                rounds_counter.add(1);
                if (result.stats.pm.count() >= 2 &&
                    result.stats.pm.standard_error() <= options.target_std_error) {
                    break;
                }
            }
        }
        if (done >= cap) break;
    }
    timer.set_replications(done);
    if (certify) {
        cert.replications = done;
        cert.looks = cs->looks();
        stop_gauge.set(static_cast<std::int64_t>(cert.stop));
        width_gauge.set(static_cast<std::int64_t>(std::llround(cert.half_width() * 1e6)));
        result.certificate = cert;
    }
    return result;
}

}  // namespace

Estimate estimate_correct_probability(const mech::Mechanism& mechanism,
                                      const model::Instance& instance, rng::Rng& rng,
                                      const EvalOptions& options) {
    validate_options(mechanism, instance, options);
    // No gain baseline here: a certificate decides P^M ≥ γ directly.
    const auto run =
        run_replications(mechanism, instance, rng, options, options.certify.gamma);
    Estimate e = finish(run.stats.pm, options.confidence, tally_error_bound(options));
    e.certified = run.certificate;
    return e;
}

Estimate estimate_correct_probability_naive(const mech::Mechanism& mechanism,
                                            const model::Instance& instance,
                                            rng::Rng& rng, const EvalOptions& options) {
    validate_options(mechanism, instance, options);
    const EstimateTimer timer(options.replications);
    stats::RunningStats acc;
    const auto& p = instance.competencies();
    ReplicationWorkspace& ws = engine_for(options).local_workspace();
    for (std::size_t r = 0; r < options.replications; ++r) {
        realize_with(mechanism, instance, rng, options, ws);
        acc.add(sample_outcome_correct(ws.outcome, p, rng) ? 1.0 : 0.0);
    }
    return finish(acc, options.confidence, 0.0);  // votes sampled, no tally
}

GainReport estimate_gain(const mech::Mechanism& mechanism,
                         const model::Instance& instance, rng::Rng& rng,
                         const EvalOptions& options) {
    validate_options(mechanism, instance, options);
    GainReport report;
    report.pd = options.approximate_tally
                    ? approx_direct_probability(instance, options.initial_weights)
                    : exact_direct_probability_weighted(instance, options.initial_weights);
    // A certificate decides "gain ≥ γ" on the P^M scale: P^D is exact, so
    // the claim is equivalent to P^M ≥ P^D + γ.
    const auto run = run_replications(mechanism, instance, rng, options,
                                      report.pd + options.certify.gamma);
    const ReplicationStats& acc = run.stats;
    report.pm = finish(acc.pm, options.confidence, tally_error_bound(options));
    report.pm.certified = run.certificate;
    if (run.certificate) {
        report.certified_gain = stats::Interval{run.certificate->lo - report.pd,
                                                run.certificate->hi - report.pd};
    }
    report.gain = report.pm.value - report.pd;
    report.gain_ci = {report.pm.ci.lo - report.pd, report.pm.ci.hi - report.pd};
    report.mean_delegators = acc.delegators.mean();
    report.mean_max_weight = acc.max_weight.mean();
    report.mean_sinks = acc.sinks.mean();
    report.mean_longest_path = acc.longest.mean();
    return report;
}

VarianceReport estimate_variance(const mech::Mechanism& mechanism,
                                 const model::Instance& instance, rng::Rng& rng,
                                 const EvalOptions& options) {
    validate_options(mechanism, instance, options);
    expects(options.replications > 1, "estimate_variance: need >= 2 replications");
    const EstimateTimer timer(options.replications);
    VarianceReport report;
    report.direct_variance = instance.competencies().outcome_variance();

    stats::RunningStats cond_var, cond_mean;
    const auto& p = instance.competencies();
    ReplicationWorkspace& ws = engine_for(options).local_workspace();
    for (std::size_t r = 0; r < options.replications; ++r) {
        realize_with(mechanism, instance, rng, options, ws);
        expects(ws.outcome.functional(),
                "estimate_variance: multi-delegation outcomes unsupported");
        cond_var.add(conditional_vote_variance(ws.outcome, p));
        cond_mean.add(conditional_vote_mean(ws.outcome, p));
    }
    report.mean_conditional_variance = cond_var.mean();
    report.variance_of_conditional_mean = cond_mean.variance();
    report.total_variance =
        report.mean_conditional_variance + report.variance_of_conditional_mean;
    report.mean_conditional_mean = cond_mean.mean();
    return report;
}

}  // namespace ld::election
