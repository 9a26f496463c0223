// The evaluator computes the paper's headline quantities:
//
//   P^M(G)        — probability mechanism M decides correctly on G,
//   P^D(G)        — the direct-voting baseline (computed *exactly* via the
//                   Poisson-binomial distribution),
//   gain(M, G)    — P^M − P^D, with confidence intervals,
//   variance diagnostics — the law-of-total-variance decomposition of the
//                   correct-vote count under delegation, the quantity the
//                   paper's DNH conditions "manipulate".
//
// Monte-Carlo design: delegation graphs are random, so we sample R
// realizations; *conditioned on a realization* the correct-decision
// probability has a closed form (weighted Poisson-binomial), which we use
// instead of sampling votes.  This is the exact-inner-step estimator
// ablated in bench_perf_micro; it is unbiased for P^M with strictly smaller
// variance than vote-sampling (Rao–Blackwell).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include <optional>

#include "ld/delegation/delegation_graph.hpp"
#include "ld/election/tally.hpp"
#include "ld/mech/mechanism.hpp"
#include "ld/model/instance.hpp"
#include "rng/rng.hpp"
#include "stats/confidence.hpp"
#include "stats/confidence_sequence.hpp"
#include "stats/running_stats.hpp"

namespace ld::election {

class ReplicationEngine;

/// Certification spec for `--certify γ δ`, the replication loop's third
/// stop rule: run replications until an anytime-valid confidence
/// sequence on the estimated mean decides the claim "gain ≥ γ" (for
/// estimate_gain; "P^M ≥ γ" for estimate_correct_probability) with
/// statistical error ≤ δ, or the replication cap is exhausted.  The
/// certified interval folds in the ε/2 truncated-tally numerical bound,
/// so the reported [lo, hi] covers both error sources
/// (docs/STATISTICS.md).
///
/// This stop rule also seeds the loop differently: replication i draws
/// from a SplitMix64 seed derived from (master, i), with one master drawn
/// from the caller's Rng, and samples fold in index order, so the stop
/// point and interval are bit-identical across thread counts, not just
/// for fixed (seed, threads).
struct CertifySpec {
    /// Gain (resp. P^M) threshold the certificate decides against.
    double gamma = 0.0;
    /// Total statistical error budget in (0, 1); 0 disables certification.
    double delta = 0.0;
    /// Anytime-valid half-width formula (docs/STATISTICS.md §3).
    stats::CsBoundary boundary = stats::CsBoundary::EmpiricalBernstein;

    bool enabled() const noexcept { return delta > 0.0; }
};

/// Knobs for Monte-Carlo evaluation.  estimate_correct_probability and
/// estimate_gain share one replication loop: rounds fanned out over
/// `threads` workers until a stop rule ends it — a fixed count
/// (`replications`, one round), an SE target (`target_std_error`) or a
/// certificate (`certify`).
struct EvalOptions {
    /// Number of delegation-graph realizations under the fixed-count stop
    /// rule (ignored when `target_std_error` or `certify` picks another).
    std::size_t replications = 200;
    /// SE-target stop rule: when > 0, replications run in rounds of
    /// `adaptive_batch` until the P^M standard error falls to this
    /// target or `max_replications` is reached, whichever comes first.
    /// The rule is checked only at round boundaries and each round splits
    /// its work across workers like the fixed count does, so a fixed
    /// (seed, threads) pair is bit-reproducible — the sequence of round
    /// sizes never depends on thread scheduling.
    double target_std_error = 0.0;
    /// Replications per round under the SE-target and certificate stop
    /// rules (the granularity of the stopping check; also the unit the
    /// `eval.adaptive_batches` counter counts for SE targets).
    std::size_t adaptive_batch = 64;
    /// Hard ceiling on replications under the SE-target and certificate
    /// stop rules (the target may be unreachable, e.g. a zero-variance
    /// mechanism needs 2 but a noisy one may never hit 1e-6).
    std::size_t max_replications = 100'000;
    /// ε of the windowed inner tally (`truncated_correct_probability`):
    /// each per-realization P^M term is within a certified ε/2 of the
    /// exact DP, and every reported interval is widened by ε/2 per side
    /// (docs/STATISTICS.md §4).  0 = exact.  Ignored when
    /// `approximate_tally` is set (the normal route is cheaper still).
    double tally_epsilon = kDefaultTallyEpsilon;
    /// Vote-propagation samples per realization for multi-delegation
    /// outcomes (functional outcomes use the exact inner step instead).
    std::size_t inner_samples = 8;
    /// Confidence level for reported intervals.
    double confidence = 0.95;
    /// Per-voter initial vote weights (e.g. DAO token balances); empty
    /// means the model's one-voter-one-vote.  Applies to both P^M and the
    /// exact P^D baseline.
    std::vector<std::uint64_t> initial_weights{};
    /// Cycle handling for realized delegation graphs.  Use Discard for
    /// mechanisms that are not approval-respecting (e.g. NoisyThreshold).
    delegation::CyclePolicy cycle_policy = delegation::CyclePolicy::Throw;
    /// Worker threads for the replication loop (1 = sequential): each
    /// round splits into at most this many contiguous chunks on the
    /// engine's pool.  Under the fixed-count and SE-target rules each
    /// chunk draws from its own jumped RNG stream, so results are
    /// deterministic for a fixed (seed, threads) pair; certified results
    /// do not depend on it.
    std::size_t threads = 1;
    /// Use the Lemma-4 normal approximation for the inner tally instead of
    /// the exact weighted Poisson-binomial DP — O(#sinks) instead of
    /// O(#sinks·n) per realization; Berry–Esseen-size bias.  Intended for
    /// very large instances.
    bool approximate_tally = false;
    /// Execution engine (persistent thread pool + per-worker replication
    /// workspaces).  Null means the process-wide shared engine; pass a
    /// dedicated engine to isolate workspaces (e.g. in tests).
    ReplicationEngine* engine = nullptr;
    /// Certificate stop rule (`--certify γ δ`).  When enabled, overrides
    /// both fixed `replications` and `target_std_error`: replications run
    /// in rounds of `adaptive_batch` up to `max_replications`, and the
    /// confidence sequence decides when to stop.  Incompatible with
    /// `approximate_tally` (its bias has no certified bound).
    CertifySpec certify{};
};

/// A Monte-Carlo estimate with its uncertainty.
struct Estimate {
    double value = 0.0;
    double std_error = 0.0;
    stats::Interval ci{};
    std::size_t replications = 0;
    /// Present when the run was certified (`CertifySpec::enabled()`): the
    /// anytime-valid interval on the estimated mean with the numerical
    /// tally error folded in, plus stop metadata.
    std::optional<stats::CertifiedEstimate> certified{};
};

/// gain(M, G) = P^M − P^D with Monte-Carlo uncertainty (the P^D term is
/// exact, so the interval is inherited from the P^M estimate), plus
/// delegation-shape diagnostics averaged over realizations.
struct GainReport {
    Estimate pm;                    ///< estimated P^M(G)
    double pd = 0.0;                ///< exact P^D(G)
    double gain = 0.0;              ///< pm.value − pd
    stats::Interval gain_ci{};      ///< CI on the gain
    double mean_delegators = 0.0;   ///< E[#delegators]
    double mean_max_weight = 0.0;   ///< E[max sink weight]
    double mean_sinks = 0.0;        ///< E[#voting sinks]
    double mean_longest_path = 0.0; ///< E[longest delegation path]
    /// Certified gain interval (pm.certified shifted by the exact P^D):
    /// present iff `pm.certified` is.  `pm.certified->stop` says whether
    /// the claim "gain ≥ γ" was decided.
    std::optional<stats::Interval> certified_gain{};
};

/// Law-of-total-variance decomposition of the correct-vote count S under a
/// mechanism: Var[S] = E[Var[S | graph]] + Var[E[S | graph]].
struct VarianceReport {
    double direct_variance = 0.0;        ///< Var[S] under direct voting (exact)
    double mean_conditional_variance = 0.0;  ///< E[Var[S | delegation graph]]
    double variance_of_conditional_mean = 0.0;  ///< Var[E[S | delegation graph]]
    double total_variance = 0.0;         ///< their sum
    double mean_conditional_mean = 0.0;  ///< E[S] under the mechanism
};

/// Exact P^D(G) — Poisson-binomial strict-majority probability, by the
/// ε = 0 windowed DP.
double exact_direct_probability(const model::Instance& instance);

/// Exact P^D(G) under per-voter initial weights (weighted Poisson-binomial
/// strict majority, ε = 0 windowed DP); `initial_weights` empty falls back
/// to the unweighted case.
double exact_direct_probability_weighted(
    const model::Instance& instance, std::span<const std::uint64_t> initial_weights);

/// Lemma-4 normal approximation of P^D(G) (O(n) instead of the exact
/// DP); used by the evaluator when `approximate_tally` is set.
double approx_direct_probability(const model::Instance& instance,
                                 std::span<const std::uint64_t> initial_weights = {});

/// Exact expected number of correct votes under direct voting (= Σ p_i).
double exact_direct_mean_votes(const model::Instance& instance);

/// Estimate P^M(G) by sampling delegation graphs.
Estimate estimate_correct_probability(const mech::Mechanism& mechanism,
                                      const model::Instance& instance, rng::Rng& rng,
                                      const EvalOptions& options = {});

/// Full gain report (P^M estimate, exact P^D, diagnostics).
GainReport estimate_gain(const mech::Mechanism& mechanism,
                         const model::Instance& instance, rng::Rng& rng,
                         const EvalOptions& options = {});

/// Variance decomposition of the correct-vote count under the mechanism.
/// Requires a mechanism producing functional outcomes.  Runs
/// `options.replications` on the calling thread; `threads` is ignored.
VarianceReport estimate_variance(const mech::Mechanism& mechanism,
                                 const model::Instance& instance, rng::Rng& rng,
                                 const EvalOptions& options = {});

/// Naive vote-sampling estimator of P^M (no exact inner step): the
/// ablation baseline for the Rao–Blackwellised estimator above.  Runs
/// `options.replications` on the calling thread; `threads` is ignored.
Estimate estimate_correct_probability_naive(const mech::Mechanism& mechanism,
                                            const model::Instance& instance,
                                            rng::Rng& rng,
                                            const EvalOptions& options = {});

}  // namespace ld::election
