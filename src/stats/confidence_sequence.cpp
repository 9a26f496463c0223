#include "stats/confidence_sequence.hpp"

#include <algorithm>
#include <cmath>

#include "support/expect.hpp"

namespace ld::stats {

using support::expects;

const char* cs_boundary_name(CsBoundary boundary) noexcept {
    switch (boundary) {
        case CsBoundary::Hoeffding: return "hoeffding";
        case CsBoundary::EmpiricalBernstein: return "empirical_bernstein";
    }
    return "unknown";
}

std::optional<CsBoundary> parse_cs_boundary(const std::string& name) {
    if (name == "hoeffding") return CsBoundary::Hoeffding;
    if (name == "empirical_bernstein" || name == "empirical-bernstein" ||
        name == "eb") {
        return CsBoundary::EmpiricalBernstein;
    }
    return std::nullopt;
}

const char* cert_stop_name(CertStop stop) noexcept {
    switch (stop) {
        case CertStop::DecidedAbove: return "decided_above";
        case CertStop::DecidedBelow: return "decided_below";
        case CertStop::BudgetExhausted: return "budget_exhausted";
    }
    return "unknown";
}

ConfidenceSequence::ConfidenceSequence(CsBoundary boundary, double delta)
    : boundary_(boundary), delta_(delta) {
    expects(delta > 0.0 && delta < 1.0,
            "ConfidenceSequence: delta must lie in (0, 1)");
}

void ConfidenceSequence::add(double x) {
    expects(x >= 0.0 && x <= 1.0,
            "ConfidenceSequence: observations must lie in [0, 1]");
    acc_.add(x);
}

double ConfidenceSequence::half_width_at(std::size_t look_index) const {
    const double t = static_cast<double>(acc_.count());
    // Per-look budget δ_k = δ / (k (k + 1)); the series telescopes to δ,
    // so validity holds jointly over every look regardless of how many
    // are eventually taken.
    const double k = static_cast<double>(look_index);
    const double delta_k = delta_ / (k * (k + 1.0));
    switch (boundary_) {
        case CsBoundary::Hoeffding:
            expects(acc_.count() >= 1, "ConfidenceSequence: no observations");
            return std::sqrt(std::log(2.0 / delta_k) / (2.0 * t));
        case CsBoundary::EmpiricalBernstein: {
            // Maurer–Pontil Theorem 4 per tail at δ_k/2 ⇒ ln(4/δ_k) terms;
            // needs t ≥ 2 for the sample variance.
            expects(acc_.count() >= 2,
                    "ConfidenceSequence: empirical-Bernstein boundary needs "
                    ">= 2 observations");
            const double log_term = std::log(4.0 / delta_k);
            return std::sqrt(2.0 * acc_.variance() * log_term / t) +
                   7.0 * log_term / (3.0 * (t - 1.0));
        }
    }
    return 1.0;  // unreachable
}

double ConfidenceSequence::peek_half_width() const {
    return half_width_at(looks_ + 1);
}

Interval ConfidenceSequence::look() {
    ++looks_;
    const double eps = half_width_at(looks_);
    // The mean lives in [0, 1] by assumption, so clipping only tightens.
    return Interval{std::max(0.0, acc_.mean() - eps),
                    std::min(1.0, acc_.mean() + eps)};
}

}  // namespace ld::stats
