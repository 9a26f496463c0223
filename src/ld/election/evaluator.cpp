#include "ld/election/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

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

    /// Adaptive mode only learns the replication count at the end; let the
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

/// P^M of one functional realization on the configured tally route: the
/// normal approximation, or the windowed DP at `tally_epsilon` (exact at
/// ε = 0).
double tally_functional(const delegation::DelegationOutcome& outcome,
                        const model::CompetencyVector& p, const EvalOptions& options,
                        TallyScratch& scratch) {
    return options.approximate_tally
               ? approx_correct_probability(outcome, p, scratch)
               : truncated_correct_probability(outcome, p, options.tally_epsilon, scratch);
}

/// Per-replication statistics accumulated by one worker.
struct ReplicationStats {
    stats::RunningStats pm;
    stats::RunningStats delegators;
    stats::RunningStats max_weight;
    stats::RunningStats sinks;
    stats::RunningStats longest;

    void merge(const ReplicationStats& other) {
        pm.merge(other.pm);
        delegators.merge(other.delegators);
        max_weight.merge(other.max_weight);
        sinks.merge(other.sinks);
        longest.merge(other.longest);
    }
};

/// Run `count` replications sequentially with the given generator,
/// recycling the worker's workspace between replications.
ReplicationStats run_replications(const mech::Mechanism& mechanism,
                                  const model::Instance& instance, rng::Rng& rng,
                                  const EvalOptions& options, std::size_t count,
                                  ReplicationWorkspace& ws) {
    ReplicationStats acc;
    const auto& p = instance.competencies();
    for (std::size_t r = 0; r < count; ++r) {
        realize_with(mechanism, instance, rng, options, ws);
        const auto& outcome = ws.outcome;
        double pm_r;
        if (outcome.functional()) {
            pm_r = tally_functional(outcome, p, options, ws.tally);
            const auto& st = outcome.stats();
            acc.max_weight.add(static_cast<double>(st.max_weight));
            acc.sinks.add(static_cast<double>(st.voting_sink_count));
            acc.longest.add(static_cast<double>(st.longest_path));
        } else {
            expects(options.inner_samples > 0, "estimate: need inner samples");
            // One topological order per realization, shared by all inner
            // samples (the digraph is fixed within a replication).
            ws.topo_order = outcome.as_digraph().topological_order();
            std::size_t correct = 0;
            for (std::size_t s = 0; s < options.inner_samples; ++s) {
                if (sample_outcome_correct(outcome, p, rng, ws.topo_order, ws.tally)) {
                    ++correct;
                }
            }
            pm_r = static_cast<double>(correct) /
                   static_cast<double>(options.inner_samples);
        }
        acc.pm.add(pm_r);
        acc.delegators.add(static_cast<double>(outcome.stats().delegator_count));
    }
    return acc;
}

/// Adaptive replication loop: rounds of `options.adaptive_batch`
/// replications, stopping once the merged P^M standard error reaches
/// `options.target_std_error` (needs ≥ 2 reps — one sample has no SE) or
/// `options.max_replications` is hit.  Determinism for fixed
/// (seed, threads): worker streams are split once up front and persist
/// across rounds, each round splits its batch base/extra across workers
/// exactly like the fixed path, per-worker partials accumulate locally,
/// and the stopping statistic is recomputed from a worker-ordered merge —
/// nothing depends on scheduling.
ReplicationStats run_adaptive_replications(const mech::Mechanism& mechanism,
                                           const model::Instance& instance,
                                           rng::Rng& rng, const EvalOptions& options,
                                           std::size_t& replications_done) {
    expects(options.adaptive_batch > 0, "estimate: adaptive_batch must be positive");
    expects(options.max_replications > 0,
            "estimate: max_replications must be positive");
    static support::Counter& rounds_counter =
        support::MetricsRegistry::global().counter("eval.adaptive_batches");
    ReplicationEngine& engine = engine_for(options);
    const std::size_t cap = options.max_replications;
    const std::size_t batch = std::min(options.adaptive_batch, cap);
    const std::size_t threads = std::min(options.threads, batch);

    std::vector<rng::Rng> streams;
    if (threads > 1) {
        streams.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t) streams.push_back(rng.split());
    }
    std::vector<ReplicationStats> partials(threads);
    ReplicationStats merged;
    std::size_t done = 0;
    while (true) {
        const std::size_t round = std::min(batch, cap - done);
        if (threads == 1) {
            partials[0].merge(run_replications(mechanism, instance, rng, options,
                                               round, engine.local_workspace()));
        } else {
            const std::size_t base = round / threads;
            const std::size_t extra = round % threads;
            const auto chunk = [&](std::size_t t, std::size_t count) {
                partials[t].merge(run_replications(mechanism, instance, streams[t],
                                                   options, count,
                                                   engine.local_workspace()));
            };
            if (options.use_thread_pool) {
                support::TaskGroup group(engine.pool());
                for (std::size_t t = 0; t < threads; ++t) {
                    const std::size_t count = base + (t < extra ? 1 : 0);
                    if (count > 0) group.submit([&chunk, t, count] { chunk(t, count); });
                }
                group.wait();
            } else {
                std::vector<std::thread> workers;
                workers.reserve(threads);
                for (std::size_t t = 0; t < threads; ++t) {
                    const std::size_t count = base + (t < extra ? 1 : 0);
                    if (count > 0) workers.emplace_back([&chunk, t, count] { chunk(t, count); });
                }
                for (auto& w : workers) w.join();
            }
        }
        done += round;
        rounds_counter.add(1);
        merged = ReplicationStats{};
        for (const auto& partial : partials) merged.merge(partial);
        if (done >= cap) break;
        if (merged.pm.count() >= 2 &&
            merged.pm.standard_error() <= options.target_std_error) {
            break;
        }
    }
    replications_done = done;
    return merged;
}

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

/// One certified replication's outputs, buffered per index so the caller
/// can fold them in replication order regardless of which worker
/// produced them.
struct CertSample {
    double pm = 0.0;
    double delegators = 0.0;
    double max_weight = 0.0;
    double sinks = 0.0;
    double longest = 0.0;
    bool functional = false;
};

/// Run certified replications for indices [first, first + count), each
/// from its own derived RNG, writing results into out[0..count).
void run_certified_chunk(const mech::Mechanism& mechanism,
                         const model::Instance& instance, const EvalOptions& options,
                         std::uint64_t master, std::size_t first, std::size_t count,
                         ReplicationWorkspace& ws, CertSample* out) {
    const auto& p = instance.competencies();
    const auto record_shape = [](CertSample& s, const auto& st, bool functional) {
        s.delegators = static_cast<double>(st.delegator_count);
        s.max_weight = static_cast<double>(st.max_weight);
        s.sinks = static_cast<double>(st.voting_sink_count);
        s.longest = static_cast<double>(st.longest_path);
        s.functional = functional;
    };
    for (std::size_t r = 0; r < count; ++r) {
        rng::Rng rep_rng(certified_replication_seed(master, first + r));
        realize_with(mechanism, instance, rep_rng, options, ws);
        const auto& outcome = ws.outcome;
        CertSample& s = out[r];
        if (outcome.functional()) {
            s.pm = tally_functional(outcome, p, options, ws.tally);
            record_shape(s, outcome.stats(), true);
        } else {
            ws.topo_order = outcome.as_digraph().topological_order();
            std::size_t correct = 0;
            for (std::size_t i = 0; i < options.inner_samples; ++i) {
                if (sample_outcome_correct(outcome, p, rep_rng, ws.topo_order,
                                           ws.tally)) {
                    ++correct;
                }
            }
            s.pm = static_cast<double>(correct) /
                   static_cast<double>(options.inner_samples);
            record_shape(s, outcome.stats(), false);
            s.functional = false;
        }
    }
}

struct CertifiedRun {
    ReplicationStats stats;             ///< folded in replication-index order
    stats::CertifiedEstimate certificate;
};

/// Certified anytime-valid replication loop: rounds of `adaptive_batch`
/// replications, a confidence-sequence look after each round, stopping
/// when the certified interval (statistical half-width + the ε/2
/// truncated-tally bound) clears `threshold` on either side or
/// `max_replications` is exhausted.
///
/// Determinism contract (stronger than run_adaptive_replications): every
/// replication draws from a seed derived from (master, index) alone, and
/// all folding — Welford accumulators and the confidence sequence — walks
/// the round buffer in index order.  The stop point, certificate, and
/// every report field are therefore bit-identical across *different*
/// thread counts for a fixed seed, not merely for fixed (seed, threads).
CertifiedRun run_certified_replications(const mech::Mechanism& mechanism,
                                        const model::Instance& instance,
                                        rng::Rng& rng, const EvalOptions& options,
                                        double threshold) {
    const CertifySpec& spec = options.certify;
    expects(options.adaptive_batch > 0, "estimate: adaptive_batch must be positive");
    expects(options.max_replications > 0,
            "estimate: max_replications must be positive");
    static support::Counter& looks_counter =
        support::MetricsRegistry::global().counter("cert.boundary_evals");
    static support::Gauge& stop_gauge =
        support::MetricsRegistry::global().gauge("cert.stop_reason");
    static support::Gauge& width_gauge =
        support::MetricsRegistry::global().gauge("cert.final_half_width_ppm");

    ReplicationEngine& engine = engine_for(options);
    const std::uint64_t master = rng.next();
    const std::size_t cap = options.max_replications;
    const std::size_t batch = std::min(options.adaptive_batch, cap);
    // Each windowed-tally sample is within ε/2 of its exact value, so the
    // sample mean is within ε/2 of the exact-tally sample mean; widening
    // the statistical interval by ε/2 per side covers it (ε = 0: exact).
    const double num_err = tally_error_bound(options);

    stats::ConfidenceSequence cs(spec.boundary, spec.delta);
    CertifiedRun run;
    run.certificate.delta = spec.delta;
    run.certificate.numerical_error = num_err;
    std::vector<CertSample> round(batch);

    std::size_t done = 0;
    while (true) {
        const std::size_t round_n = std::min(batch, cap - done);
        const std::size_t threads = std::min(options.threads, round_n);
        if (threads <= 1) {
            run_certified_chunk(mechanism, instance, options, master, done, round_n,
                                engine.local_workspace(), round.data());
        } else {
            const std::size_t base = round_n / threads;
            const std::size_t extra = round_n % threads;
            const auto chunk = [&](std::size_t offset, std::size_t count) {
                run_certified_chunk(mechanism, instance, options, master,
                                    done + offset, count, engine.local_workspace(),
                                    round.data() + offset);
            };
            if (options.use_thread_pool) {
                support::TaskGroup group(engine.pool());
                std::size_t offset = 0;
                for (std::size_t t = 0; t < threads; ++t) {
                    const std::size_t count = base + (t < extra ? 1 : 0);
                    if (count > 0) {
                        group.submit([&chunk, offset, count] { chunk(offset, count); });
                    }
                    offset += count;
                }
                group.wait();
            } else {
                std::vector<std::thread> workers;
                workers.reserve(threads);
                std::size_t offset = 0;
                for (std::size_t t = 0; t < threads; ++t) {
                    const std::size_t count = base + (t < extra ? 1 : 0);
                    if (count > 0) {
                        workers.emplace_back(
                            [&chunk, offset, count] { chunk(offset, count); });
                    }
                    offset += count;
                }
                for (auto& w : workers) w.join();
            }
        }
        for (std::size_t k = 0; k < round_n; ++k) {
            const CertSample& s = round[k];
            // Truncated-tally midpoints can poke ε/2 past [0, 1]; clamping
            // moves a sample by at most its own numerical error, which the
            // ε/2 widening below already budgets for.
            const double pm = std::clamp(s.pm, 0.0, 1.0);
            cs.add(pm);
            run.stats.pm.add(pm);
            run.stats.delegators.add(s.delegators);
            if (s.functional) {
                run.stats.max_weight.add(s.max_weight);
                run.stats.sinks.add(s.sinks);
                run.stats.longest.add(s.longest);
            }
        }
        done += round_n;
        // The empirical-Bernstein half-width divides by t − 1; defer the
        // first look until two observations exist (batch == cap == 1).
        const bool can_look = spec.boundary != stats::CsBoundary::EmpiricalBernstein ||
                              cs.count() >= 2;
        if (can_look) {
            const stats::Interval iv = cs.look();
            looks_counter.add(1);
            run.certificate.lo = std::clamp(iv.lo - num_err, 0.0, 1.0);
            run.certificate.hi = std::clamp(iv.hi + num_err, 0.0, 1.0);
            if (run.certificate.lo >= threshold) {
                run.certificate.stop = stats::CertStop::DecidedAbove;
                break;
            }
            if (run.certificate.hi < threshold) {
                run.certificate.stop = stats::CertStop::DecidedBelow;
                break;
            }
        }
        if (done >= cap) break;
    }
    run.certificate.replications = done;
    run.certificate.looks = cs.looks();
    stop_gauge.set(static_cast<std::int64_t>(run.certificate.stop));
    width_gauge.set(static_cast<std::int64_t>(
        std::llround(run.certificate.half_width() * 1e6)));
    return run;
}

/// Run `options.replications` replications, fanning out to
/// `options.threads` workers with independent jumped RNG streams on the
/// engine's persistent pool (or, legacy path, on freshly spawned threads).
ReplicationStats run_all_replications(const mech::Mechanism& mechanism,
                                      const model::Instance& instance, rng::Rng& rng,
                                      const EvalOptions& options) {
    validate_options(mechanism, instance, options);
    EstimateTimer timer(options.replications);
    if (options.target_std_error > 0.0) {
        std::size_t done = 0;
        auto merged =
            run_adaptive_replications(mechanism, instance, rng, options, done);
        timer.set_replications(done);
        return merged;
    }
    ReplicationEngine& engine = engine_for(options);
    const std::size_t threads =
        std::min(options.threads, options.replications);
    if (threads == 1) {
        return run_replications(mechanism, instance, rng, options,
                                options.replications, engine.local_workspace());
    }
    // Derive one independent stream per worker up front (split mutates the
    // parent, keeping the whole run deterministic for fixed seed+threads).
    std::vector<rng::Rng> streams;
    streams.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) streams.push_back(rng.split());

    std::vector<ReplicationStats> partials(threads);
    const std::size_t base = options.replications / threads;
    const std::size_t extra = options.replications % threads;
    const auto chunk = [&](std::size_t t, std::size_t count) {
        partials[t] = run_replications(mechanism, instance, streams[t], options,
                                       count, engine.local_workspace());
    };
    if (options.use_thread_pool) {
        support::TaskGroup group(engine.pool());
        for (std::size_t t = 0; t < threads; ++t) {
            const std::size_t count = base + (t < extra ? 1 : 0);
            group.submit([&chunk, t, count] { chunk(t, count); });
        }
        group.wait();
    } else {
        std::vector<std::thread> workers;
        workers.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t) {
            const std::size_t count = base + (t < extra ? 1 : 0);
            workers.emplace_back([&chunk, t, count] { chunk(t, count); });
        }
        for (auto& w : workers) w.join();
    }
    ReplicationStats merged;
    for (const auto& partial : partials) merged.merge(partial);
    return merged;
}

}  // namespace

Estimate estimate_correct_probability(const mech::Mechanism& mechanism,
                                      const model::Instance& instance, rng::Rng& rng,
                                      const EvalOptions& options) {
    if (options.certify.enabled()) {
        validate_options(mechanism, instance, options);
        EstimateTimer timer(0);
        // No gain baseline here: the certificate decides P^M ≥ γ directly.
        const auto run = run_certified_replications(mechanism, instance, rng,
                                                    options, options.certify.gamma);
        timer.set_replications(run.certificate.replications);
        Estimate e = finish(run.stats.pm, options.confidence, tally_error_bound(options));
        e.certified = run.certificate;
        return e;
    }
    const auto acc = run_all_replications(mechanism, instance, rng, options);
    return finish(acc.pm, options.confidence, tally_error_bound(options));
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
    GainReport report;
    report.pd = options.approximate_tally
                    ? approx_direct_probability(instance, options.initial_weights)
                    : exact_direct_probability_weighted(instance, options.initial_weights);
    ReplicationStats acc;
    if (options.certify.enabled()) {
        validate_options(mechanism, instance, options);
        EstimateTimer timer(0);
        // Decide "gain ≥ γ" on the P^M scale: P^D is exact, so the claim
        // is equivalent to P^M ≥ P^D + γ.
        const auto run = run_certified_replications(mechanism, instance, rng,
                                                    options,
                                                    report.pd + options.certify.gamma);
        timer.set_replications(run.certificate.replications);
        acc = run.stats;
        report.pm = finish(acc.pm, options.confidence, tally_error_bound(options));
        report.pm.certified = run.certificate;
        report.certified_gain = stats::Interval{run.certificate.lo - report.pd,
                                                run.certificate.hi - report.pd};
    } else {
        acc = run_all_replications(mechanism, instance, rng, options);
        report.pm = finish(acc.pm, options.confidence, tally_error_bound(options));
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
