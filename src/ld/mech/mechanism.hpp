// Delegation mechanisms (paper §2.2).  A mechanism maps a problem instance
// to, per voter, a decision: vote directly, delegate to some neighbour(s),
// or abstain (§6 extension).  All mechanisms in this library are *local*:
// they observe only a voter's neighbourhood and which neighbours are
// approved (competency + α dominance), never raw competencies — except
// through the "arbitrary ranking over the approval set" the paper permits.
//
// The interface is sampling-based: `act()` draws one decision for one voter
// using the caller's Rng, and `successors_into()` draws a whole
// single-target realization as one successor per voter.  The threshold
// mechanisms of the paper share one decision shape — a uniformly random
// approved neighbour when a test on the approval count passes — and
// state only that test (`UniformApprovedMechanism`).  The test depends on
// the instance alone, so such a mechanism also lists its delegators
// (`list_delegators()`): the replication loop lists them once per
// estimate and then draws only their delegates.
// Mechanisms whose per-voter delegation law is a simple closed form
// additionally expose `vote_directly_probability()` so tests can check
// the sampler against the exact law.

#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "ld/model/instance.hpp"
#include "rng/rng.hpp"
#include "rng/sampling.hpp"

namespace ld::mech {

/// What a voter decided to do.
enum class ActionKind : std::uint8_t {
    Vote,      ///< cast a direct vote (carrying any delegated weight)
    Delegate,  ///< forward all held votes to `targets`
    Abstain,   ///< cast no vote (only allowed when delegation was possible)
};

/// One voter's sampled decision.
struct Action {
    ActionKind kind = ActionKind::Vote;
    /// Delegation targets; size 1 for the paper's single-delegate model,
    /// size >= 1 for the §6 weighted-majority extension.  Empty unless
    /// kind == Delegate.
    std::vector<graph::Vertex> targets;
    /// Optional per-target weights for the §6 "locally defined weight
    /// function over the delegates": empty means uniform; otherwise one
    /// positive weight per target, and the voter's effective vote is the
    /// *weighted* majority of the targets' realized votes.
    std::vector<double> target_weights;

    static Action vote() { return {}; }
    static Action abstain() { return {ActionKind::Abstain, {}, {}}; }
    static Action delegate_to(graph::Vertex t) {
        return {ActionKind::Delegate, {t}, {}};
    }
    static Action delegate_to_many(std::vector<graph::Vertex> ts) {
        return {ActionKind::Delegate, std::move(ts), {}};
    }
    static Action delegate_weighted(std::vector<graph::Vertex> ts,
                                    std::vector<double> ws) {
        return {ActionKind::Delegate, std::move(ts), std::move(ws)};
    }

    /// In-place variants for the act_into path: overwrite this action
    /// while keeping the heap buffers (`targets` capacity) alive.
    void assign_vote() {
        kind = ActionKind::Vote;
        targets.clear();
        target_weights.clear();
    }
    void assign_abstain() {
        kind = ActionKind::Abstain;
        targets.clear();
        target_weights.clear();
    }
    void assign_delegate_to(graph::Vertex t) {
        kind = ActionKind::Delegate;
        targets.clear();
        targets.push_back(t);
        target_weights.clear();
    }
};

/// Successor codes of a single-target realization (`successors_into`).
/// A voter's successor is itself when it votes and its delegate when it
/// delegates; these two codes, above every voter id, cover the rest.
inline constexpr graph::Vertex kAbstain = std::numeric_limits<graph::Vertex>::max();
inline constexpr graph::Vertex kSelfDelegate = kAbstain - 1;

/// The voter count from which DelegationOutcome's walk over a
/// single-target realization lists the delegators before it walks them,
/// with no branch on a voter's successor code.  Below it, one instance's
/// decisions repeat from one realization to the next closely enough for
/// the branch predictor to learn them, and the one-pass loops with
/// branches are cheaper.
inline constexpr std::size_t kListFrom = 2048;

/// Draw each of `voters`' delegate, in order, into `next[v]`: a uniformly
/// random approved neighbour, the one draw a UniformApprovedMechanism
/// voter makes when it delegates.  Every voter must have one.
inline void draw_approved_delegates(const model::Instance& instance, rng::Rng& rng,
                                    std::span<const graph::Vertex> voters,
                                    std::span<graph::Vertex> next) {
    for (const graph::Vertex v : voters) {
        const auto approved = instance.approved_neighbours_view(v);
        next[v] = approved[rng::uniform_index(rng, approved.size())];
    }
}

/// Voter `v`'s successor code under `action` among `n` voters; a
/// multi-target delegation maps to its first target.  Runs every check a
/// delegation outcome makes of an action, with the outcome's messages.
graph::Vertex successor_of(const Action& action, graph::Vertex v, std::size_t n);

/// Abstract delegation mechanism.
class Mechanism {
public:
    virtual ~Mechanism() = default;

    /// Mechanism name for experiment logs, e.g. "Algorithm1(j=sqrt)".
    virtual std::string name() const = 0;

    /// Sample voter `v`'s decision on `instance`.
    ///
    /// Implementations must be *per-voter independent*: the decision may
    /// depend only on (instance, v) and fresh randomness, so that realizing
    /// all n decisions yields the paper's product delegation law.
    virtual Action act(const model::Instance& instance, graph::Vertex v,
                       rng::Rng& rng) const = 0;

    /// Sample voter `v`'s decision into `out`, reusing its buffers.  Must
    /// consume the same RNG stream and produce the same decision as `act`.
    /// The default forwards to `act`.  Multi-delegation realizations are
    /// drawn this way, one voter at a time.
    virtual void act_into(const model::Instance& instance, graph::Vertex v,
                          rng::Rng& rng, Action& out) const {
        out = act(instance, v, rng);
    }

    /// Draw every voter's decision, in voter order, as one successor code
    /// per voter (`next.size()` voters; see kAbstain).  Consumes the same
    /// RNG stream as calling `act` for each voter.  Only for mechanisms
    /// that are not `multi_delegation()`: the replication loop resolves
    /// their realizations from `next` alone.  The default runs `act_into`
    /// into one reused Action and maps it with `successor_of`;
    /// `SuccessorMechanism` draws straight into `next`.
    virtual void successors_into(const model::Instance& instance, rng::Rng& rng,
                                 std::span<graph::Vertex> next) const;

    /// True, with `out` holding them ascending, when the same voters
    /// delegate in every realization on `instance`, each to a uniformly
    /// random approved neighbour (draw_approved_delegates, the draws `act`
    /// makes, in voter order), while every other voter votes.  False,
    /// with `out` untouched, for every other mechanism; the default.
    virtual bool list_delegators(const model::Instance& instance,
                                 std::vector<graph::Vertex>& out) const;

    /// Exact probability that voter `v` votes directly (neither delegates
    /// nor abstains), when available in closed form.  Used for testing and
    /// for theory-side expected-delegation computations.
    virtual std::optional<double> vote_directly_probability(
        const model::Instance& instance, graph::Vertex v) const;

    /// True if `act` may return multi-target delegations (§6 extension).
    virtual bool multi_delegation() const { return false; }

    /// True if `act` may return Abstain (§6 extension).
    virtual bool may_abstain() const { return false; }

    /// True if this mechanism only ever delegates to approved voters.
    /// All approval-respecting mechanisms induce acyclic delegation graphs
    /// because α > 0 strictly increases competency along every arc.
    virtual bool approval_respecting() const { return true; }
};

/// Base of a single-target mechanism whose whole decision is one inline
/// draw, `Derived::successor(instance, v, rng)`: `v` to vote, else the
/// delegate.  `act`, `act_into` and `successors_into` all derive from it,
/// so they draw the same RNG stream; the batch makes no virtual call and
/// builds no Action.
template <typename Derived>
class SuccessorMechanism : public Mechanism {
public:
    Action act(const model::Instance& instance, graph::Vertex v,
               rng::Rng& rng) const final {
        Action out;
        act_into(instance, v, rng, out);
        return out;
    }

    void act_into(const model::Instance& instance, graph::Vertex v, rng::Rng& rng,
                  Action& out) const final {
        const graph::Vertex to = derived().successor(instance, v, rng);
        if (to == v) {
            out.assign_vote();
        } else {
            out.assign_delegate_to(to);
        }
    }

    void successors_into(const model::Instance& instance, rng::Rng& rng,
                         std::span<graph::Vertex> next) const final {
        for (graph::Vertex v = 0; v < next.size(); ++v) {
            next[v] = derived().successor(instance, v, rng);
        }
    }

private:
    const Derived& derived() const { return static_cast<const Derived&>(*this); }
};

/// Base of a single-target mechanism that delegates to a uniformly random
/// approved neighbour when `Derived::delegates(instance, v, approved)`
/// holds for voter `v` with `approved` approved neighbours (never when
/// `approved` is 0), and votes otherwise.  The test is all a derived
/// mechanism states: `successor()` — so `act`, `act_into` and the batch —
/// and the delegator list derive from it.  The replication loop draws
/// from the list (draw_approved_delegates: the draws `successor()` makes,
/// in the same order); every other caller draws the batch.
template <typename Derived>
class UniformApprovedMechanism : public SuccessorMechanism<Derived> {
public:
    graph::Vertex successor(const model::Instance& instance, graph::Vertex v,
                            rng::Rng& rng) const {
        const auto approved = instance.approved_neighbours_view(v);
        if (!derived().delegates(instance, v, approved.size())) return v;
        return approved[rng::uniform_index(rng, approved.size())];
    }

    /// Every voter whose test passes, listed with no branch on the test.
    bool list_delegators(const model::Instance& instance,
                         std::vector<graph::Vertex>& out) const final {
        out.resize(instance.voter_count());
        std::size_t listed = 0;
        for (graph::Vertex v = 0; v < out.size(); ++v) {
            out[listed] = v;
            listed += derived().delegates(instance, v,
                                          instance.approved_neighbours_view(v).size());
        }
        out.resize(listed);
        return true;
    }

private:
    const Derived& derived() const { return static_cast<const Derived&>(*this); }
};

}  // namespace ld::mech
