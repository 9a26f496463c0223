// The realized delegation graph (paper §2.2): after sampling each voter's
// decision from a mechanism, votes flow along delegation arcs and pool at
// the *sinks* — voters who vote directly.  This type stores one realization
// and the derived quantities every analysis needs:
//
//  * sink resolution (with path compression),
//  * per-sink accumulated weights w_i (including self-votes),
//  * delegation statistics: #delegators, #sinks, max weight, longest
//    delegation path (the realized partition complexity).
//
// Abstention semantics (§6): an abstaining voter is an absorbing node that
// casts no vote; votes delegated into an abstainer are discarded with it.
// The paper's restriction — only would-be delegators may abstain — keeps
// this harmless for DNH.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "ld/mech/mechanism.hpp"

namespace ld::delegation {

/// Summary statistics of one realized delegation graph.
struct DelegationStats {
    std::size_t delegator_count = 0;  ///< voters who forwarded their vote
    std::size_t abstainer_count = 0;  ///< voters who abstained (§6)
    std::size_t voting_sink_count = 0;  ///< sinks that actually cast a vote
    std::uint64_t max_weight = 0;       ///< heaviest voting sink
    std::uint64_t cast_weight = 0;      ///< total votes cast (n − lost)
    /// Realized partition complexity: the most arcs on a delegation chain
    /// that ends at a voter who votes or abstains.  Chains lost to a cycle
    /// (CyclePolicy::Discard) end at no voter and do not count, so the
    /// value does not depend on how voters are numbered.
    std::size_t longest_path = 0;
};

/// How to treat a delegation cycle (only non-approval-respecting
/// mechanisms — e.g. ones acting on noisy competency comparisons — can
/// produce one).
enum class CyclePolicy : std::uint8_t {
    Throw,    ///< cycles are a programming error: throw ContractViolation
    Discard,  ///< votes trapped in (or draining into) a cycle are lost
};

/// One realized delegation graph over n voters.
///
/// Only *functional* realizations (every delegator has exactly one target)
/// support sink/weight queries; multi-target realizations (§6 weighted
/// majority) expose targets for the evaluator to resolve by simulation.
///
/// An outcome is built either from per-voter actions (the constructor, or
/// begin_rebuild/finish_rebuild) or from one successor per voter
/// (rebuild_from_successors, which realize_into drives for single-target
/// mechanisms).  Both feed the same walk, and every query answers the same
/// whichever way the outcome was built.
class DelegationOutcome {
public:
    /// Sentinel meaning "no sink" (abstained, drained into an abstainer,
    /// or — under CyclePolicy::Discard — trapped in a cycle).  It is also
    /// an abstainer's successor code, mech::kAbstain.
    static constexpr graph::Vertex kNoSink = mech::kAbstain;

    /// Reusable scratch for the rebuilds, owned by the caller (typically a
    /// ReplicationWorkspace) so repeated rebuilds are allocation-free.
    /// `next` holds each voter's successor code (mech::successor_of):
    /// itself if it votes, its delegate, `kNoSink` if it abstains,
    /// mech::kSelfDelegate if it delegates to itself.  finish_rebuild
    /// fills it from the actions; a single-target mechanism's
    /// successors_into fills it directly.  The walk, path compression,
    /// weights and stats then read only flat 4-byte arrays.  `list` (kept
    /// at n entries or more, never shrunk) is the one voter list every
    /// step borrows in turn: the successor batch's delegators, then the
    /// walk's unresolved delegators, then the voting sinks.
    struct ResolveScratch {
        std::vector<graph::Vertex> next;   // successor code per voter
        std::vector<std::uint32_t> depth;  // delegation-path length to sink
        std::vector<graph::Vertex> chain;  // current walk, for compression
        std::vector<graph::Vertex> list;   // listed voters, see above
    };

    /// An empty outcome (0 voters); fill it via a rebuild or assign over it.
    DelegationOutcome() = default;

    /// Build from per-voter actions.  Under CyclePolicy::Throw (default),
    /// throws `ContractViolation` if a single-target delegation cycle
    /// exists (approval-respecting mechanisms cannot produce one because
    /// α > 0).
    ///
    /// `initial_weights` (optional) assigns each voter a starting vote
    /// weight — e.g. DAO token balances — instead of the model's one vote
    /// per voter; it must be empty or have one entry per voter.  The span
    /// is only read during construction, never stored.
    explicit DelegationOutcome(std::vector<mech::Action> actions,
                               std::span<const std::uint64_t> initial_weights = {},
                               CyclePolicy cycle_policy = CyclePolicy::Throw);

    /// Rebuild from actions, step 1: clear derived state and expose the
    /// actions buffer for refilling (capacity is retained, including each
    /// action's `targets` vector — pair with Mechanism::act_into).  The
    /// outcome is in an unusable intermediate state until finish_rebuild.
    std::vector<mech::Action>& begin_rebuild();

    /// Rebuild from actions, step 2: validate the refilled actions, map
    /// each to its successor in `scratch.next` and resolve sinks, weights
    /// and stats, reusing this outcome's buffers and the caller's scratch.
    /// Semantically identical to constructing a fresh outcome from the
    /// same actions.
    void finish_rebuild(std::span<const std::uint64_t> initial_weights,
                        CyclePolicy cycle_policy, ResolveScratch& scratch);

    /// Rebuild from the successor codes in `scratch.next`, one per voter
    /// (Mechanism::successors_into), with no per-voter Action.  The same
    /// outcome as finish_rebuild over the actions those codes stand for.
    /// Takes `scratch.next` over, leaving another buffer in its place.
    void rebuild_from_successors(std::span<const std::uint64_t> initial_weights,
                                 CyclePolicy cycle_policy, ResolveScratch& scratch);

    std::size_t voter_count() const noexcept { return sink_.size(); }

    /// Voter `v`'s decision (a copy: an outcome built from successors
    /// holds no Action).
    mech::Action action(graph::Vertex v) const;

    /// The actions the outcome was built from, one per voter; empty when it
    /// was built from successors.  Every multi-target outcome has them.
    std::span<const mech::Action> actions() const noexcept { return actions_; }

    /// True iff every delegation has exactly one target.
    bool functional() const noexcept { return functional_; }

    /// The sink voter `v`'s vote finally rests with, or `kNoSink` if the
    /// vote was discarded by an abstainer.  Requires `functional()`.
    graph::Vertex sink_of(graph::Vertex v) const;

    /// Accumulated weight (vote count, incl. self) of each voter; nonzero
    /// only for voting sinks.  Requires `functional()`.
    const std::vector<std::uint64_t>& weights() const;

    /// All voting sinks, ascending.  Requires `functional()`.
    const std::vector<graph::Vertex>& voting_sinks() const;

    /// Realized statistics.  Requires `functional()` for the weight/sink
    /// fields; multi-target outcomes still fill delegator/abstainer counts.
    const DelegationStats& stats() const noexcept { return stats_; }

    /// View as a digraph (delegation arcs only), e.g. for DOT export.
    graph::Digraph as_digraph() const;

    /// Number of voters whose vote was discarded by a cycle (always 0
    /// under CyclePolicy::Throw).
    std::size_t cycle_losses() const noexcept { return cycle_losses_; }

private:
    void clear_derived();
    /// The walk both rebuilds share, over the successor codes in
    /// `scratch.next`: one pass classifies every voter and lists the
    /// delegators, the walk visits only those, and one pass gathers the
    /// voting sinks.
    void resolve(std::span<const std::uint64_t> initial_weights, CyclePolicy cycle_policy,
                 ResolveScratch& scratch);

    std::vector<mech::Action> actions_;         // empty when built from successors
    std::vector<graph::Vertex> successors_;     // codes, when built from successors
    std::size_t cycle_losses_ = 0;
    bool functional_ = true;
    std::vector<graph::Vertex> sink_;          // resolved terminal per voter
    std::vector<std::uint64_t> weights_;       // votes pooled per voter
    std::vector<graph::Vertex> voting_sinks_;  // ascending
    DelegationStats stats_;
};

}  // namespace ld::delegation
