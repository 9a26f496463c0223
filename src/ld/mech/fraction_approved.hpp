// Theorem 5's mechanism for bounded-minimum-degree graphs: a voter
// delegates iff at least a fixed *fraction* of its neighbours are approved
// ("a voter delegates if at least 1/3 of its neighbors are approved").
// Target: uniformly random approved neighbour.

#pragma once

#include "ld/mech/mechanism.hpp"
#include "rng/sampling.hpp"

namespace ld::mech {

/// Delegate iff |approved ∩ N(v)| >= fraction · |N(v)| (and >= 1).
class FractionApproved final : public SuccessorMechanism<FractionApproved> {
public:
    /// `fraction` in (0, 1]; the paper's Theorem 5 uses 1/3.
    explicit FractionApproved(double fraction = 1.0 / 3.0);

    std::string name() const override;

    graph::Vertex successor(const model::Instance& instance, graph::Vertex v,
                            rng::Rng& rng) const {
        const auto approved = instance.approved_neighbours_view(v);
        if (!should_delegate(instance, v, approved.size())) return v;
        return approved[rng::uniform_index(rng, approved.size())];
    }

    std::optional<double> vote_directly_probability(const model::Instance& instance,
                                                    graph::Vertex v) const override;

    double fraction() const noexcept { return fraction_; }

private:
    bool should_delegate(const model::Instance& instance, graph::Vertex v,
                         std::size_t approved_count) const {
        const std::size_t deg = instance.graph().degree(v);
        if (deg == 0 || approved_count == 0) return false;
        return static_cast<double>(approved_count) >=
               fraction_ * static_cast<double>(deg);
    }
    double fraction_;
};

}  // namespace ld::mech
