#include "ld/mech/mechanism.hpp"

#include "support/expect.hpp"

namespace ld::mech {

using support::expects;

graph::Vertex successor_of(const Action& action, graph::Vertex v, std::size_t n) {
    if (action.kind != ActionKind::Delegate) {
        expects(action.targets.empty(), "DelegationOutcome: non-delegation with targets");
        expects(action.target_weights.empty(),
                "DelegationOutcome: non-delegation with target weights");
        return action.kind == ActionKind::Abstain ? kAbstain : v;
    }
    expects(!action.targets.empty(), "DelegationOutcome: delegation without target");
    for (graph::Vertex t : action.targets) {
        expects(t < n, "DelegationOutcome: target out of range");
    }
    expects(action.target_weights.empty() ||
                action.target_weights.size() == action.targets.size(),
            "DelegationOutcome: target weights must match targets");
    for (double w : action.target_weights) {
        expects(w > 0.0, "DelegationOutcome: target weights must be positive");
    }
    return action.targets.front() == v ? kSelfDelegate : action.targets.front();
}

void Mechanism::successors_into(const model::Instance& instance, rng::Rng& rng,
                                std::span<graph::Vertex> next) const {
    Action action;
    for (graph::Vertex v = 0; v < next.size(); ++v) {
        act_into(instance, v, rng, action);
        next[v] = successor_of(action, v, next.size());
        expects(action.targets.size() <= 1,
                "successors_into: multi-target delegation from a single-target "
                "mechanism");
    }
}

bool Mechanism::list_delegators(const model::Instance&,
                                std::vector<graph::Vertex>&) const {
    return false;
}

std::optional<double> Mechanism::vote_directly_probability(const model::Instance&,
                                                           graph::Vertex) const {
    return std::nullopt;
}

}  // namespace ld::mech
