// The realized delegation graph (paper §2.2): after sampling each voter's
// decision from a mechanism, votes flow along delegation arcs and pool at
// the *sinks* — voters who vote directly.  This type stores one realization
// and the derived quantities every analysis needs:
//
//  * sink resolution (with path compression), from every voter's
//    successor or, for a mechanism that fixes its delegators, from the
//    listed delegators alone,
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
#include <memory>
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

/// The voters a mechanism fixes as delegators on one instance
/// (Mechanism::list_delegators), ascending: in every realization each
/// delegates to a uniformly random approved neighbour and every other
/// voter votes.  Listed once per estimate and shared read-only by the
/// realizations drawn from it.  Each list has an identity no other list
/// in the process shares; an outcome keeps the state it prepared for one
/// list (begin_listed) only while it is rebuilt from that list alone.
class DelegatorList {
public:
    /// `mechanism`'s list on `instance`, or null when the mechanism does
    /// not fix its delegators.
    static std::unique_ptr<const DelegatorList> of(const mech::Mechanism& mechanism,
                                                   const model::Instance& instance);

    DelegatorList(const DelegatorList&) = delete;
    DelegatorList& operator=(const DelegatorList&) = delete;

    std::span<const graph::Vertex> voters() const noexcept { return voters_; }
    std::size_t voter_count() const noexcept { return voter_count_; }
    std::uint64_t identity() const noexcept { return identity_; }

private:
    DelegatorList(std::vector<graph::Vertex> voters, std::size_t voter_count);

    std::vector<graph::Vertex> voters_;
    std::size_t voter_count_;
    std::uint64_t identity_;  // never 0
};

/// One realized delegation graph over n voters.
///
/// Only *functional* realizations (every delegator has exactly one target)
/// support sink/weight queries; multi-target realizations (§6 weighted
/// majority) expose targets for the evaluator to resolve by simulation.
///
/// An outcome is built from per-voter actions (the constructor, or
/// begin_rebuild/finish_rebuild), from one successor per voter
/// (rebuild_from_successors, which realize_into drives for single-target
/// mechanisms) or from a DelegatorList (begin_listed/finish_listed, which
/// realize_listed_into drives).  All three feed the same walk, and every
/// query answers the same whichever way the outcome was built.
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
    /// at n entries or more, never shrunk) is the one voter list the walk
    /// borrows in turn: its unresolved delegators, then the voting sinks.
    /// A listed rebuild keeps its successors in the outcome and uses
    /// `chain` only.
    struct ResolveScratch {
        std::vector<graph::Vertex> next;   // successor code per voter
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

    /// Rebuild from a delegator list, step 1: returns the outcome's own
    /// successor array, in which every unlisted voter's entry holds itself,
    /// for the caller to draw each listed voter's delegate (another voter)
    /// into.  An unlisted voter's state is the same in every realization
    /// from one list — its own sink, weight 1, depth 0, its place among
    /// the voting sinks — so the first listed rebuild from `list` prepares
    /// it for all n voters, and a later one from the same list only resets
    /// the listed voters and the sinks they reached.  Any other rebuild in
    /// between makes the next listed one prepare again.  Unweighted: every
    /// voter holds one vote.
    std::span<graph::Vertex> begin_listed(const DelegatorList& list);

    /// Rebuild from a delegator list, step 2: check the drawn targets and
    /// walk the listed voters to their sinks (the walk, checks and messages
    /// of every rebuild), in time linear in the listed voters.  The same
    /// outcome as rebuild_from_successors over the same successors.
    void finish_listed(const DelegatorList& list, CyclePolicy cycle_policy,
                       ResolveScratch& scratch);

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
    /// Resolution from the successor codes in `scratch.next`, for the
    /// action and successor rebuilds: one pass classifies every voter and
    /// lists the delegators, `walk` visits only those, and one pass
    /// gathers the voting sinks.
    void resolve(std::span<const std::uint64_t> initial_weights, CyclePolicy cycle_policy,
                 ResolveScratch& scratch);
    /// The walk every rebuild shares: resolves each of `delegators`
    /// (ascending, unresolved) to its sink along `next`, pools weights at
    /// the sinks and sets the depths, `cycle_losses_` and the longest path.
    void walk(const graph::Vertex* next, std::span<const graph::Vertex> delegators,
              std::span<const std::uint64_t> initial_weights, CyclePolicy cycle_policy,
              std::vector<graph::Vertex>& chain);

    std::vector<mech::Action> actions_;         // empty when built from successors
    std::vector<graph::Vertex> successors_;     // codes, when built from successors
    std::size_t cycle_losses_ = 0;
    bool functional_ = true;
    std::vector<graph::Vertex> sink_;          // resolved terminal per voter
    std::vector<std::uint64_t> weights_;       // votes pooled per voter
    std::vector<std::uint32_t> depth_;         // delegation-path length to sink
    std::vector<graph::Vertex> voting_sinks_;  // ascending
    DelegationStats stats_;
    /// The DelegatorList whose unlisted voters' state is in place (0: none).
    std::uint64_t prepared_for_ = 0;
};

}  // namespace ld::delegation
