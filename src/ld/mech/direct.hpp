// Direct voting (paper Example 2): nobody delegates.  This is the baseline
// `D` in gain(M, G) = P^M(G) − P^D(G).

#pragma once

#include "ld/mech/mechanism.hpp"

namespace ld::mech {

/// The mechanism that never delegates.
class DirectVoting final : public SuccessorMechanism<DirectVoting> {
public:
    std::string name() const override { return "DirectVoting"; }

    graph::Vertex successor(const model::Instance&, graph::Vertex v, rng::Rng&) const {
        return v;
    }

    std::optional<double> vote_directly_probability(const model::Instance&,
                                                    graph::Vertex) const override {
        return 1.0;
    }
};

}  // namespace ld::mech
