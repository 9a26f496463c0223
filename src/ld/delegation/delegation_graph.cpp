#include "ld/delegation/delegation_graph.hpp"

#include <algorithm>
#include <atomic>
#include <functional>

#include "support/expect.hpp"

namespace ld::delegation {

using mech::Action;
using mech::ActionKind;
using support::expects;
using support::invariant;

namespace {

// How many listed delegators ahead the walk prefetches a target's state.
constexpr std::size_t kPrefetchAhead = 8;

// Walk states in sink_ besides a voter or kNoSink.  Voters lost to a
// cycle are kLost until the walk ends, so later walks can tell them from
// voters drained into an abstainer.
constexpr graph::Vertex kUnresolved = DelegationOutcome::kNoSink - 1;
constexpr graph::Vertex kOnChain = DelegationOutcome::kNoSink - 2;
constexpr graph::Vertex kLost = DelegationOutcome::kNoSink - 3;

// `yes ? a : b` spelled with masks, so that no branch is emitted for it.
template <typename T>
T pick(bool yes, T a, T b) {
    const T mask = T{0} - static_cast<T>(yes);
    return (a & mask) | (b & ~mask);
}

}  // namespace

std::unique_ptr<const DelegatorList> DelegatorList::of(const mech::Mechanism& mechanism,
                                                       const model::Instance& instance) {
    std::vector<graph::Vertex> voters;
    if (!mechanism.list_delegators(instance, voters)) return nullptr;
    return std::unique_ptr<const DelegatorList>(
        new DelegatorList(std::move(voters), instance.voter_count()));
}

DelegatorList::DelegatorList(std::vector<graph::Vertex> voters, std::size_t voter_count)
    : voters_(std::move(voters)), voter_count_(voter_count) {
    static std::atomic<std::uint64_t> lists{0};
    identity_ = lists.fetch_add(1, std::memory_order_relaxed) + 1;
    const bool ascending =
        std::ranges::adjacent_find(voters_, std::greater_equal<>()) == voters_.end();
    expects(ascending && (voters_.empty() || voters_.back() < voter_count_),
            "DelegatorList: voters must ascend and lie below the voter count");
}

DelegationOutcome::DelegationOutcome(std::vector<Action> actions,
                                     std::span<const std::uint64_t> initial_weights,
                                     CyclePolicy cycle_policy)
    : actions_(std::move(actions)) {
    ResolveScratch scratch;
    finish_rebuild(initial_weights, cycle_policy, scratch);
}

void DelegationOutcome::clear_derived() {
    // resolve overwrites sink_ and weights_ in full.
    prepared_for_ = 0;
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

std::span<graph::Vertex> DelegationOutcome::begin_listed(const DelegatorList& list) {
    const std::size_t n = list.voter_count();
    if (prepared_for_ == list.identity()) {
        // Undo the last walk: each listed voter is unresolved again, and
        // the sink it reached (none if lost to a cycle) holds one vote.
        graph::Vertex* const sink = sink_.data();
        std::uint64_t* const weight = weights_.data();
        for (const graph::Vertex v : list.voters()) {
            const graph::Vertex reached = sink[v];
            const bool pooled = reached < n;
            weight[pick(pooled, reached, v)] = pooled;
            sink[v] = kUnresolved;
        }
    } else {
        clear_derived();
        actions_.clear();
        successors_.resize(n);
        sink_.resize(n);
        weights_.resize(n);
        depth_.resize(n);
        voting_sinks_.resize(n);
        for (graph::Vertex v = 0; v < n; ++v) {
            successors_[v] = v;
            sink_[v] = v;
            weights_[v] = 1;
            depth_[v] = 0;
        }
        for (const graph::Vertex v : list.voters()) {
            sink_[v] = kUnresolved;
            weights_[v] = 0;
        }
        std::size_t sinks = 0;
        for (graph::Vertex v = 0; v < n; ++v) {
            voting_sinks_[sinks] = v;
            sinks += weights_[v] != 0;
        }
        voting_sinks_.resize(sinks);
    }
    prepared_for_ = 0;  // until finish_listed completes the walk
    return successors_;
}

void DelegationOutcome::finish_listed(const DelegatorList& list, CyclePolicy cycle_policy,
                                      ResolveScratch& scratch) {
    const std::size_t n = list.voter_count();
    const auto listed = list.voters();
    const graph::Vertex* const next = successors_.data();
    bool out_of_range = false;
    for (const graph::Vertex v : listed) out_of_range |= next[v] >= n;
    expects(!out_of_range, "DelegationOutcome: target out of range");
    walk(next, listed, {}, cycle_policy, scratch.chain);

    // An unlisted voter no walk reached holds its own vote.
    std::uint64_t max_weight = voting_sinks_.empty() ? 0 : 1;
    for (const graph::Vertex v : listed) {
        const graph::Vertex reached = sink_[v];
        max_weight = std::max(max_weight, weights_[pick(reached < n, reached, v)]);
    }
    stats_.delegator_count = listed.size();
    stats_.abstainer_count = 0;
    stats_.voting_sink_count = voting_sinks_.size();
    stats_.max_weight = max_weight;
    stats_.cast_weight = n - cycle_losses_;
    prepared_for_ = list.identity();
}

void DelegationOutcome::resolve(std::span<const std::uint64_t> initial_weights,
                                CyclePolicy cycle_policy, ResolveScratch& scratch) {
    const std::size_t n = scratch.next.size();
    depth_.resize(n);
    sink_.resize(n);
    weights_.resize(n);
    if (scratch.list.size() < n) scratch.list.resize(n);
    // The loops index plain arrays, so their bases stay in registers.
    const graph::Vertex* const next = scratch.next.data();
    graph::Vertex* const sink = sink_.data();
    std::uint32_t* const depth = depth_.data();
    std::uint64_t* const weight = weights_.data();
    graph::Vertex* const list = scratch.list.data();
    const bool unit_weights = initial_weights.empty();
    const std::uint64_t* const initial = initial_weights.data();
    const auto weight_of = [&](graph::Vertex v) -> std::uint64_t {
        return unit_weights ? 1 : initial[v];
    };

    // One pass over the successor codes classifies every voter: voters
    // (self-delegators included) and abstainers are resolved on the spot,
    // and the voters who delegate to another voter are listed, ascending.
    // From kListFrom voters on the pass has no branch on a code and counts
    // are sums of flags; below it the branches repeat from one
    // realization of an instance to the next, and predicted branches are
    // cheaper.
    std::size_t delegators = 0;
    std::size_t abstainers = 0;
    std::size_t listed = 0;
    bool out_of_range = false;
    if (n >= mech::kListFrom) {
        for (std::size_t v = 0; v < n; ++v) {
            const graph::Vertex to = next[v];
            const bool abstains = to == kNoSink;
            const bool votes = (to == v) | (to == mech::kSelfDelegate);
            const bool delegates = !votes & !abstains;
            abstainers += abstains;
            delegators += (to != v) & !abstains;
            out_of_range |= delegates & (to >= n);
            // kUnresolved + 1 is kNoSink.
            sink[v] = pick<graph::Vertex>(votes, static_cast<graph::Vertex>(v),
                                          kUnresolved + abstains);
            depth[v] = 0;
            weight[v] = pick<std::uint64_t>(votes, weight_of(v), 0);
            list[listed] = static_cast<graph::Vertex>(v);
            listed += delegates;
        }
    } else {
        for (graph::Vertex v = 0; v < n; ++v) {
            const graph::Vertex to = next[v];
            depth[v] = 0;
            if (to == v || to == mech::kSelfDelegate) {
                delegators += to != v;
                sink[v] = v;
                weight[v] = weight_of(v);
                continue;
            }
            weight[v] = 0;
            if (to == kNoSink) {
                ++abstainers;
                sink[v] = kNoSink;
                continue;
            }
            ++delegators;
            out_of_range |= to >= n;
            sink[v] = kUnresolved;
            list[listed++] = v;
        }
    }
    expects(!out_of_range, "DelegationOutcome: target out of range");
    stats_.delegator_count = delegators;
    stats_.abstainer_count = abstainers;
    if (!functional_) return;  // multi-target: evaluator resolves by simulation
    walk(next, {list, listed}, initial_weights, cycle_policy, scratch.chain);

    // Gather the voting sinks, the heaviest and the cast weight in one
    // pass; from kListFrom voters on it has no branch on a weight.
    std::size_t sinks = 0;
    std::uint64_t max_weight = 0;
    std::uint64_t cast_weight = 0;
    bool misplaced = false;
    if (n >= mech::kListFrom) {
        for (std::size_t v = 0; v < n; ++v) {
            const std::uint64_t w = weight[v];
            const bool holds = w != 0;
            misplaced |= holds & (next[v] != v) & (next[v] != mech::kSelfDelegate);
            list[sinks] = static_cast<graph::Vertex>(v);
            sinks += holds;
            max_weight = std::max(max_weight, w);
            cast_weight += w;
        }
    } else {
        for (graph::Vertex v = 0; v < n; ++v) {
            const std::uint64_t w = weight[v];
            if (w == 0) continue;
            misplaced |= next[v] != v && next[v] != mech::kSelfDelegate;
            list[sinks++] = v;
            max_weight = std::max(max_weight, w);
            cast_weight += w;
        }
    }
    invariant(!misplaced, "weight pooled at a non-voting voter");
    voting_sinks_.assign(list, list + sinks);
    stats_.voting_sink_count = sinks;
    stats_.max_weight = max_weight;
    stats_.cast_weight = cast_weight;
}

void DelegationOutcome::walk(const graph::Vertex* next,
                             std::span<const graph::Vertex> delegators,
                             std::span<const std::uint64_t> initial_weights,
                             CyclePolicy cycle_policy,
                             std::vector<graph::Vertex>& chain) {
    graph::Vertex* const sink = sink_.data();
    std::uint32_t* const depth = depth_.data();
    std::uint64_t* const weight = weights_.data();
    const graph::Vertex* const list = delegators.data();
    const std::size_t listed = delegators.size();
    const bool unit_weights = initial_weights.empty();
    const std::uint64_t* const initial = initial_weights.data();
    const auto weight_of = [&](graph::Vertex v) -> std::uint64_t {
        return unit_weights ? 1 : initial[v];
    };

    // Walk from each listed delegator that no earlier walk resolved.  One
    // whose target is resolved (a voter, an abstainer or lost) takes a
    // one-hop path; any other follows its chain until it meets a resolved
    // voter or one on this walk.
    std::uint32_t longest = 0;
    std::size_t lost_voters = 0;
    for (std::size_t i = 0; i < listed; ++i) {
        if (i + kPrefetchAhead < listed) {
            const graph::Vertex ahead = next[list[i + kPrefetchAhead]];
            __builtin_prefetch(sink + ahead);
            __builtin_prefetch(depth + ahead);
        }
        const graph::Vertex start = list[i];
        if (sink[start] != kUnresolved) continue;
        const graph::Vertex to = next[start];
        const graph::Vertex terminal = sink[to];
        if (terminal != kUnresolved) {
            const std::uint32_t d = depth[to] + 1;
            sink[start] = terminal;
            depth[start] = d;
            const bool lost = terminal == kLost;
            const bool pools = !lost & (terminal != kNoSink);
            lost_voters += lost;
            longest = std::max(longest, pick<std::uint32_t>(lost, 0, d));
            // A delegator holds no weight, so adding 0 to its own is a no-op.
            weight[pick(pools, terminal, start)] +=
                pick<std::uint64_t>(pools, weight_of(start), 0);
            continue;
        }
        chain.clear();
        graph::Vertex v = start;
        do {
            sink[v] = kOnChain;
            chain.push_back(v);
            v = next[v];
        } while (sink[v] == kUnresolved);
        graph::Vertex end = sink[v];
        std::uint32_t d = depth[v];
        if (end == kOnChain) {  // back on this walk: a cycle
            expects(cycle_policy == CyclePolicy::Discard,
                    "DelegationOutcome: delegation cycle detected");
            end = kLost;
            d = 0;
        }
        // Path-compress the walked chain onto the discovered terminal.
        std::uint64_t pooled = 0;
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
            sink[*it] = end;
            depth[*it] = ++d;
            pooled += weight_of(*it);
        }
        if (end == kLost) {
            lost_voters += chain.size();
            continue;  // not a delegation path: it ends at no voter
        }
        longest = std::max(longest, d);
        if (end != kNoSink) weight[end] += pooled;
    }
    cycle_losses_ = lost_voters;
    stats_.longest_path = longest;
    if (lost_voters > 0) {
        for (std::size_t i = 0; i < listed; ++i) {
            if (sink[list[i]] == kLost) sink[list[i]] = kNoSink;
        }
    }
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
