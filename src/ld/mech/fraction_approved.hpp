// Theorem 5's mechanism for bounded-minimum-degree graphs: a voter
// delegates iff at least a fixed *fraction* of its neighbours are approved
// ("a voter delegates if at least 1/3 of its neighbors are approved").
// Target: uniformly random approved neighbour.

#pragma once

#include "ld/mech/mechanism.hpp"

namespace ld::mech {

/// Delegate iff |approved ∩ N(v)| >= fraction · |N(v)| (and >= 1).
class FractionApproved final : public UniformApprovedMechanism<FractionApproved> {
public:
    /// `fraction` in (0, 1]; the paper's Theorem 5 uses 1/3.
    explicit FractionApproved(double fraction = 1.0 / 3.0);

    std::string name() const override;

    /// `approved` >= 1 and >= fraction · deg(v).  A voter with no
    /// neighbour has no approved one either.
    bool delegates(const model::Instance& instance, graph::Vertex v,
                   std::size_t approved) const {
        const std::size_t deg = instance.graph().degree(v);
        return (approved != 0) &
               (static_cast<double>(approved) >= fraction_ * static_cast<double>(deg));
    }

    std::optional<double> vote_directly_probability(const model::Instance& instance,
                                                    graph::Vertex v) const override;

    double fraction() const noexcept { return fraction_; }

private:
    double fraction_;
};

}  // namespace ld::mech
