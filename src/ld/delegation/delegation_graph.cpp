#include "ld/delegation/delegation_graph.hpp"

#include <algorithm>

#include "support/expect.hpp"

namespace ld::delegation {

using mech::Action;
using mech::ActionKind;
using support::expects;
using support::invariant;

DelegationOutcome::DelegationOutcome(std::vector<Action> actions,
                                     std::span<const std::uint64_t> initial_weights,
                                     CyclePolicy cycle_policy)
    : actions_(std::move(actions)) {
    ResolveScratch scratch;
    finish_rebuild(initial_weights, cycle_policy, scratch);
}

void DelegationOutcome::clear_derived() {
    // resolve overwrites sink_ and weights_ in full.
    cycle_losses_ = 0;
    functional_ = true;
    voting_sinks_.clear();
    stats_ = DelegationStats{};
}

std::vector<Action>& DelegationOutcome::begin_rebuild() {
    clear_derived();
    return actions_;
}

void DelegationOutcome::finish_rebuild(std::span<const std::uint64_t> initial_weights,
                                       CyclePolicy cycle_policy,
                                       ResolveScratch& scratch) {
    const std::size_t n = actions_.size();
    expects(initial_weights.empty() || initial_weights.size() == n,
            "DelegationOutcome: initial weights must be empty or one per voter");
    successors_.clear();
    auto& next = scratch.next;
    next.resize(n);
    for (graph::Vertex v = 0; v < n; ++v) {
        next[v] = mech::successor_of(actions_[v], v, n);
        if (actions_[v].targets.size() > 1) functional_ = false;
    }
    resolve(initial_weights, cycle_policy, scratch);
}

void DelegationOutcome::rebuild_from_successors(
    std::span<const std::uint64_t> initial_weights, CyclePolicy cycle_policy,
    ResolveScratch& scratch) {
    expects(initial_weights.empty() || initial_weights.size() == scratch.next.size(),
            "DelegationOutcome: initial weights must be empty or one per voter");
    clear_derived();
    actions_.clear();
    resolve(initial_weights, cycle_policy, scratch);
    successors_.swap(scratch.next);
}

void DelegationOutcome::resolve(std::span<const std::uint64_t> initial_weights,
                                CyclePolicy cycle_policy, ResolveScratch& scratch) {
    const auto& next = scratch.next;
    const std::size_t n = next.size();
    const auto weight_of = [&](graph::Vertex v) -> std::uint64_t {
        return initial_weights.empty() ? 1 : initial_weights[v];
    };
    // Walk states in sink_ besides a voter or kNoSink.  Voters lost to a
    // cycle are kLost until the end, so later walks can tell them from
    // voters drained into an abstainer.
    constexpr graph::Vertex kUnresolved = kNoSink - 1;
    constexpr graph::Vertex kOnChain = kNoSink - 2;
    constexpr graph::Vertex kLost = kNoSink - 3;
    auto& depth = scratch.depth;
    auto& chain = scratch.chain;
    depth.resize(n);
    sink_.resize(n);
    weights_.resize(n);

    // One pass over the successor codes: count delegators and abstainers.
    // Voters who vote (or delegate to themselves) and abstainers are
    // resolved on the spot.
    for (graph::Vertex v = 0; v < n; ++v) {
        graph::Vertex to = next[v];
        if (to == kNoSink) {
            ++stats_.abstainer_count;
        } else if (to != v) {
            ++stats_.delegator_count;
            if (to == mech::kSelfDelegate) {
                to = v;
            } else {
                expects(to < n, "DelegationOutcome: target out of range");
            }
        }
        sink_[v] = to == v || to == kNoSink ? to : kUnresolved;
        depth[v] = 0;
        weights_[v] = to == v ? weight_of(v) : 0;
    }
    if (!functional_) return;  // multi-target: evaluator resolves by simulation

    std::uint32_t longest = 0;
    for (graph::Vertex start = 0; start < n; ++start) {
        if (sink_[start] != kUnresolved) continue;
        // Walk until hitting a resolved voter or one on this walk.
        chain.clear();
        graph::Vertex v = start;
        do {
            sink_[v] = kOnChain;
            chain.push_back(v);
            v = next[v];
        } while (sink_[v] == kUnresolved);
        graph::Vertex terminal = sink_[v];
        std::uint32_t d = depth[v];
        if (terminal == kOnChain) {  // back on this walk: a cycle
            expects(cycle_policy == CyclePolicy::Discard,
                    "DelegationOutcome: delegation cycle detected");
            terminal = kLost;
            d = 0;
        }
        // Path-compress the walked chain onto the discovered terminal.
        std::uint64_t pooled = 0;
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
            sink_[*it] = terminal;
            depth[*it] = ++d;
            pooled += weight_of(*it);
        }
        if (terminal == kLost) {
            cycle_losses_ += chain.size();
            continue;  // not a delegation path: it ends at no voter
        }
        longest = std::max(longest, d);
        if (terminal != kNoSink) weights_[terminal] += pooled;
    }
    if (cycle_losses_ > 0) std::replace(sink_.begin(), sink_.end(), kLost, kNoSink);

    for (graph::Vertex v = 0; v < n; ++v) {
        if (weights_[v] == 0) continue;
        invariant(next[v] == v || next[v] == mech::kSelfDelegate,
                  "weight pooled at a non-voting voter");
        voting_sinks_.push_back(v);
        stats_.max_weight = std::max(stats_.max_weight, weights_[v]);
        stats_.cast_weight += weights_[v];
    }
    stats_.voting_sink_count = voting_sinks_.size();
    stats_.longest_path = longest;
}

Action DelegationOutcome::action(graph::Vertex v) const {
    if (!actions_.empty()) return actions_[v];
    const graph::Vertex to = successors_[v];
    if (to == v) return Action::vote();
    if (to == kNoSink) return Action::abstain();
    return Action::delegate_to(to == mech::kSelfDelegate ? v : to);
}

graph::Vertex DelegationOutcome::sink_of(graph::Vertex v) const {
    expects(functional_, "sink_of: outcome is not functional (multi-delegation)");
    expects(v < sink_.size(), "sink_of: voter out of range");
    return sink_[v];
}

const std::vector<std::uint64_t>& DelegationOutcome::weights() const {
    expects(functional_, "weights: outcome is not functional (multi-delegation)");
    return weights_;
}

const std::vector<graph::Vertex>& DelegationOutcome::voting_sinks() const {
    expects(functional_, "voting_sinks: outcome is not functional (multi-delegation)");
    return voting_sinks_;
}

graph::Digraph DelegationOutcome::as_digraph() const {
    std::vector<graph::Arc> arcs;
    for (graph::Vertex v = 0; v < actions_.size(); ++v) {
        for (graph::Vertex t : actions_[v].targets) {
            arcs.push_back(graph::Arc{v, t});
        }
    }
    for (graph::Vertex v = 0; v < successors_.size(); ++v) {
        const graph::Vertex to = successors_[v];
        if (to == mech::kSelfDelegate) {
            arcs.push_back(graph::Arc{v, v});
        } else if (to != v && to != kNoSink) {
            arcs.push_back(graph::Arc{v, to});
        }
    }
    return graph::Digraph(voter_count(), std::move(arcs));
}

}  // namespace ld::delegation
