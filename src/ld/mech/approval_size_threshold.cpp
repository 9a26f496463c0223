#include "ld/mech/approval_size_threshold.hpp"

#include <algorithm>

namespace ld::mech {

ApprovalSizeThreshold::ApprovalSizeThreshold(std::size_t threshold)
    : threshold_(std::max<std::size_t>(threshold, 1)) {}

std::string ApprovalSizeThreshold::name() const {
    return "ApprovalSizeThreshold(j=" + std::to_string(threshold_) + ")";
}

std::optional<double> ApprovalSizeThreshold::vote_directly_probability(
    const model::Instance& instance, graph::Vertex v) const {
    const std::size_t approved = instance.approved_neighbours_view(v).size();
    return delegates(instance, v, approved) ? 0.0 : 1.0;
}

}  // namespace ld::mech
