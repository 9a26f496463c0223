// Sampling one delegation graph from a mechanism on an instance — the step
// "for each voter, we sample delegates from the probability distribution
// output from M" (paper §2.2).

#pragma once

#include <span>

#include "ld/delegation/delegation_graph.hpp"
#include "ld/mech/mechanism.hpp"
#include "ld/model/instance.hpp"
#include "rng/rng.hpp"

namespace ld::delegation {

/// Sample every voter's action independently and resolve the outcome.
DelegationOutcome realize(const mech::Mechanism& mechanism,
                          const model::Instance& instance, rng::Rng& rng);

/// As `realize`, but with per-voter initial vote weights (e.g. DAO token
/// balances) and an explicit cycle policy — pass CyclePolicy::Discard for
/// non-approval-respecting mechanisms (e.g. noisy-approval mechanisms)
/// whose realized graphs may contain cycles.  The weights are only read
/// during construction (no copy is taken).
DelegationOutcome realize_weighted(const mech::Mechanism& mechanism,
                                   const model::Instance& instance, rng::Rng& rng,
                                   std::span<const std::uint64_t> initial_weights,
                                   CyclePolicy cycle_policy = CyclePolicy::Throw);

/// Realization into a reused outcome, the replication loop's path when
/// the estimate listed no delegators (realize_listed_into).  A
/// single-target mechanism draws every voter's successor straight into
/// `scratch.next` (Mechanism::successors_into), and the outcome resolves
/// from that array with no per-voter Action; a multi-delegation mechanism
/// refills the outcome's action buffers via Mechanism::act_into.  Draws
/// the same RNG stream and produces the same outcome as
/// `realize_weighted`.  On a reused workspace the rebuild allocates
/// nothing once warm.
void realize_into(DelegationOutcome& outcome,
                  DelegationOutcome::ResolveScratch& scratch,
                  const mech::Mechanism& mechanism, const model::Instance& instance,
                  rng::Rng& rng, std::span<const std::uint64_t> initial_weights = {},
                  CyclePolicy cycle_policy = CyclePolicy::Throw);

/// Realization from a delegator list into a reused outcome: each listed
/// voter draws a uniformly random approved neighbour, ascending, and
/// every other voter votes (DelegationOutcome::begin_listed).  Draws the
/// same RNG stream and produces the same outcome as `realize_into` with
/// the mechanism `list` was built from and no initial weights; once the
/// outcome is prepared for `list`, in time linear in the listed voters.
void realize_listed_into(DelegationOutcome& outcome,
                         DelegationOutcome::ResolveScratch& scratch,
                         const DelegatorList& list, const model::Instance& instance,
                         rng::Rng& rng, CyclePolicy cycle_policy = CyclePolicy::Throw);

/// Expected number of direct voters Σ_v P[v votes directly], when the
/// mechanism exposes exact per-voter probabilities; used to verify the
/// Delegate(n) >= f(n) restriction (Definition 2) analytically.
/// Returns a negative value if the mechanism has no closed form.
double expected_direct_voter_count(const mech::Mechanism& mechanism,
                                   const model::Instance& instance);

}  // namespace ld::delegation
