// The "dictator-prone" mechanism used in the Figure 1 star counterexample:
// a voter with any approved neighbour delegates to the *most competent*
// one (the paper permits local mechanisms to use an arbitrary ranking over
// the approval set).  On a star this concentrates all weight on the centre
// — exactly the failure mode whose loss the paper quantifies as 1/4.

#pragma once

#include "ld/mech/mechanism.hpp"

namespace ld::mech {

/// Delegate to the highest-competency approved neighbour (ties → lowest
/// vertex id); vote directly when no neighbour is approved.
class BestNeighbour final : public SuccessorMechanism<BestNeighbour> {
public:
    std::string name() const override { return "BestNeighbour"; }

    graph::Vertex successor(const model::Instance& instance, graph::Vertex v,
                            rng::Rng&) const {
        const auto approved = instance.approved_neighbours_view(v);
        if (approved.empty()) return v;
        graph::Vertex best = approved.front();
        for (graph::Vertex w : approved) {
            if (instance.competency(w) > instance.competency(best)) best = w;
        }
        return best;
    }

    std::optional<double> vote_directly_probability(const model::Instance& instance,
                                                    graph::Vertex v) const override;
};

}  // namespace ld::mech
