#include "ld/mech/complete_graph_threshold.hpp"

#include <algorithm>
#include <cmath>

#include "support/expect.hpp"

namespace ld::mech {

using support::expects;

CompleteGraphThreshold::CompleteGraphThreshold(ThresholdFn threshold,
                                               std::string threshold_name)
    : threshold_(std::move(threshold)), threshold_name_(std::move(threshold_name)) {
    expects(static_cast<bool>(threshold_), "CompleteGraphThreshold: empty threshold");
}

std::string CompleteGraphThreshold::name() const {
    return "Algorithm1(j=" + threshold_name_ + ")";
}

std::optional<double> CompleteGraphThreshold::vote_directly_probability(
    const model::Instance& instance, graph::Vertex v) const {
    const std::size_t approved = instance.approved_neighbours_view(v).size();
    return delegates(instance, v, approved) ? 0.0 : 1.0;
}

CompleteGraphThreshold CompleteGraphThreshold::with_log_threshold() {
    return CompleteGraphThreshold(
        [](std::size_t n) {
            return std::max<std::size_t>(
                1, static_cast<std::size_t>(std::ceil(std::log2(static_cast<double>(n) + 1.0))));
        },
        "log");
}

CompleteGraphThreshold CompleteGraphThreshold::with_sqrt_threshold() {
    return CompleteGraphThreshold(
        [](std::size_t n) {
            return std::max<std::size_t>(
                1, static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n)))));
        },
        "sqrt");
}

CompleteGraphThreshold CompleteGraphThreshold::with_linear_threshold(double fraction) {
    expects(fraction > 0.0 && fraction <= 1.0, "linear threshold fraction out of (0,1]");
    return CompleteGraphThreshold(
        [fraction](std::size_t n) {
            return std::max<std::size_t>(
                1, static_cast<std::size_t>(std::floor(fraction * static_cast<double>(n))));
        },
        "n*" + std::to_string(fraction));
}

}  // namespace ld::mech
