// Tallying a realized delegation graph (paper §2.2 "Probability of Correct
// Decision"): sinks vote independently with their competencies, the
// decision is the weighted majority, ties lose (strict majority required).
//
// Routes:
//  * windowed — the correct-decision probability conditioned on the
//               realized delegation graph, via the windowed weighted
//               Poisson-binomial DP (`prob::truncated_weighted_majority`):
//               certified within ε/2 at ε > 0 (the default is
//               `kDefaultTallyEpsilon`), exact at ε = 0.  Removes one layer
//               of Monte-Carlo noise;
//  * normal   — the Lemma-4 normal approximation, for very large n;
//  * sample   — draw one realization of all votes; also the only route for
//               the §6 multi-delegation extension, where a voter's effective
//               vote is the majority of its delegates' realized votes.

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "ld/delegation/delegation_graph.hpp"
#include "ld/model/competency.hpp"
#include "prob/convolve.hpp"
#include "rng/rng.hpp"

namespace ld::election {

/// Default ε of the windowed tally on the eval path (`EvalOptions`, the
/// `run`/`serve` CLIs, `ServerConfig`, `RouterConfig`, sweep specs).  Each
/// per-realization P^M term is then within a certified 5e-13 of the exact
/// DP — far below Monte-Carlo noise — while the window shrinks to the
/// O(σ_W) band around W/2 where the paper's Lemma 3/4 puts the mass.
/// ε = 0 selects the exact windowed route.
inline constexpr double kDefaultTallyEpsilon = 1e-12;

/// Reusable buffers for the inner tally — the sink profile, the
/// weighted-Bernoulli DP table, and the vote-propagation state of the
/// multi-delegation sampler.  One per replication worker; reused across
/// replications (and across cells when owned by a ReplicationWorkspace).
struct TallyScratch {
    std::vector<std::uint64_t> sink_weights;
    std::vector<double> sink_probs;
    prob::ConvolveScratch dp;
    std::vector<std::optional<bool>> votes;
};

/// Exact P[weighted majority correct | realized delegation graph]: the
/// ε = 0 call of the windowed DP (`truncated_correct_probability`).
/// Requires a functional outcome.  If no votes are cast at all (everyone
/// abstained), the decision cannot be correct and the result is 0.
double exact_correct_probability(const delegation::DelegationOutcome& outcome,
                                 const model::CompetencyVector& p);

/// Zero-allocation variant: same result, buffers drawn from `scratch`.
double exact_correct_probability(const delegation::DelegationOutcome& outcome,
                                 const model::CompetencyVector& p,
                                 TallyScratch& scratch);

/// The eval path's tally: the windowed DP of
/// `prob::truncated_weighted_majority`, whose result is within a
/// *certified* ε/2 of the exact tally.  Cost is ~O(#sinks·σ_W) instead of
/// the full-width O(#sinks·W) because the live window hugs the threshold.
/// Records the peak window width in the `tally.window_width` gauge.
/// ε = 0 keeps the windowed fast path with zero error.
double truncated_correct_probability(const delegation::DelegationOutcome& outcome,
                                     const model::CompetencyVector& p,
                                     double epsilon, TallyScratch& scratch);

/// Normal approximation of `exact_correct_probability`: P[S > W/2] for
/// S ~ N(Σ w_i p_i, Σ w_i² p_i(1−p_i)) with continuity correction.
/// Justified by the paper's Lemma 4 (CLT for the vote sum); error is
/// O(1/√#sinks) (Berry–Esseen), so use it when even the windowed DP is
/// too expensive (very large W).  Profiles of ≤ 64 sinks, and the
/// degenerate cases (no votes cast, zero variance), are tallied exactly.
double approx_correct_probability(const delegation::DelegationOutcome& outcome,
                                  const model::CompetencyVector& p);

/// Zero-allocation variant of `approx_correct_probability`.
double approx_correct_probability(const delegation::DelegationOutcome& outcome,
                                  const model::CompetencyVector& p,
                                  TallyScratch& scratch);

/// Conditional variance of the correct-vote count S = Σ w_i x_i given the
/// realized delegation graph: Σ w_i² p_i (1 − p_i).  Requires functional.
double conditional_vote_variance(const delegation::DelegationOutcome& outcome,
                                 const model::CompetencyVector& p);

/// Conditional mean of the correct-vote count: Σ w_i p_i.  Requires
/// functional.
double conditional_vote_mean(const delegation::DelegationOutcome& outcome,
                             const model::CompetencyVector& p);

/// Sample one full vote realization and return whether the weighted
/// majority is correct.  Works for functional *and* multi-delegation
/// outcomes: delegated votes propagate in topological order, a
/// multi-delegator's effective vote is the majority over its targets'
/// effective votes (targets that abstained are skipped; if every target
/// abstained the voter falls back to their own competency draw).
bool sample_outcome_correct(const delegation::DelegationOutcome& outcome,
                            const model::CompetencyVector& p, rng::Rng& rng);

/// Workspace variant for the multi-delegation inner loop: the caller
/// precomputes `topo_order = outcome.as_digraph().topological_order()`
/// *once per realization* and reuses it (plus `scratch.votes`) across the
/// inner samples, instead of rebuilding the digraph per sample.  Draws the
/// same RNG stream as the plain overload.
bool sample_outcome_correct(const delegation::DelegationOutcome& outcome,
                            const model::CompetencyVector& p, rng::Rng& rng,
                            std::span<const graph::Vertex> topo_order,
                            TallyScratch& scratch);

/// Sample one realization and return the number of correct votes cast
/// (each non-abstaining voter contributes one vote — for functional
/// outcomes this equals the weighted sink sum).
std::uint64_t sample_correct_vote_count(const delegation::DelegationOutcome& outcome,
                                        const model::CompetencyVector& p, rng::Rng& rng);

}  // namespace ld::election
