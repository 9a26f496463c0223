// The paper's Example 1: voter i delegates to a uniformly random approved
// neighbour whenever |J(i) ∩ N(i)| >= threshold, else votes directly.
// With threshold 0 (well, >= 1 effective — an empty approval set can never
// be delegated into), this is the mechanism of Figure 2.

#pragma once

#include <cstddef>

#include "ld/mech/mechanism.hpp"

namespace ld::mech {

/// Delegate iff the approved-neighbour count reaches a fixed threshold.
class ApprovalSizeThreshold final
    : public UniformApprovedMechanism<ApprovalSizeThreshold> {
public:
    /// `threshold` — minimum |J(i) ∩ N(i)| required to delegate.  A voter
    /// with an empty approval set always votes directly regardless.
    explicit ApprovalSizeThreshold(std::size_t threshold);

    std::string name() const override;

    bool delegates(const model::Instance&, graph::Vertex, std::size_t approved) const {
        return approved >= threshold_;
    }

    std::optional<double> vote_directly_probability(const model::Instance& instance,
                                                    graph::Vertex v) const override;

    std::size_t threshold() const noexcept { return threshold_; }

private:
    std::size_t threshold_;
};

}  // namespace ld::mech
