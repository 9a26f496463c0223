// Algorithm 1 (paper §4.1): the delegation mechanism for complete graphs.
// Voter v_i compares |J(i)| against a threshold *function* j(n) of its
// neighbourhood size n and delegates to a uniformly random approved
// neighbour when |J(i)| >= j(n).
//
// Theorem 2 proves SPG for {K_n, PC = α/k} with Delegate(n) >= n/k, and
// DNH for {K_n}, when j(n) <= n/3.  Canonical threshold functions used by
// the benches (log, sqrt, linear-fraction) are provided as factories.

#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>

#include "ld/mech/mechanism.hpp"

namespace ld::mech {

/// Threshold function j: neighbourhood size → required approval count.
using ThresholdFn = std::function<std::size_t(std::size_t)>;

/// Algorithm 1: delegate iff |approved neighbours| >= j(#neighbours).
class CompleteGraphThreshold final
    : public UniformApprovedMechanism<CompleteGraphThreshold> {
public:
    CompleteGraphThreshold(ThresholdFn threshold, std::string threshold_name);

    std::string name() const override;

    /// |approved| >= max(1, j(deg v)).
    bool delegates(const model::Instance& instance, graph::Vertex v,
                   std::size_t approved) const {
        const std::size_t degree = instance.graph().degree(v);
        return approved >= std::max<std::size_t>(1, threshold_(degree));
    }

    std::optional<double> vote_directly_probability(const model::Instance& instance,
                                                    graph::Vertex v) const override;

    /// j(n) for inspection.
    std::size_t threshold_for(std::size_t neighbourhood_size) const {
        return threshold_(neighbourhood_size);
    }

    /// j(n) = max(1, ceil(log2 n)).
    static CompleteGraphThreshold with_log_threshold();

    /// j(n) = max(1, ceil(sqrt n)).
    static CompleteGraphThreshold with_sqrt_threshold();

    /// j(n) = max(1, floor(n · fraction)); the paper's DNH proof assumes
    /// fraction <= 1/3.
    static CompleteGraphThreshold with_linear_threshold(double fraction);

private:
    ThresholdFn threshold_;
    std::string threshold_name_;
};

}  // namespace ld::mech
