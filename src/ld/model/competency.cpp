#include "ld/model/competency.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/expect.hpp"

namespace ld::model {

using support::expects;

CompetencyVector::CompetencyVector(std::vector<double> values)
    : values_(std::move(values)) {
    for (double p : values_) {
        expects(p >= 0.0 && p <= 1.0, "CompetencyVector: competency out of [0,1]");
        mean_ += p;
        variance_sum_ += p * (1.0 - p);
    }
    if (!values_.empty()) mean_ /= static_cast<double>(values_.size());
}

std::vector<std::size_t> CompetencyVector::ascending_order() const {
    std::vector<std::size_t> order(values_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
        return values_[a] < values_[b];
    });
    return order;
}

double CompetencyVector::kth_smallest(std::size_t k) const {
    expects(k < values_.size(), "kth_smallest: index out of range");
    return values_[ascending_order()[k]];
}

double CompetencyVector::plausible_changeability() const noexcept {
    if (values_.empty()) return 0.0;
    if (mean_ > 0.5) return 0.0;
    return 0.5 - mean_;
}

bool CompetencyVector::satisfies_pc(double a) const noexcept {
    if (values_.empty()) return false;
    return mean_ >= 0.5 - a && mean_ <= 0.5;
}

bool CompetencyVector::bounded_away(double beta) const noexcept {
    if (beta < 0.0 || beta >= 0.5) return false;
    for (double p : values_) {
        if (p <= beta || p >= 1.0 - beta) return false;
    }
    return true;
}

double CompetencyVector::bounding_beta() const noexcept {
    double beta = 0.5;
    for (double p : values_) {
        beta = std::min(beta, std::min(p, 1.0 - p));
    }
    return std::max(0.0, beta);
}

}  // namespace ld::model
