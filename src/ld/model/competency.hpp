// Competency vectors (paper §2.1): p_i ∈ [0,1] is voter v_i's probability
// of voting for the correct outcome.  The paper orders voters so that
// p_i <= p_j for i <= j ("wlog"); this type stores graph-aligned values
// and computes the paper's sorted order on request.
//
// Also hosts the two competency-side restrictions of Definition 1:
//   PC = a           — plausible changeability: 3/4 >= mean(p) >= 1/2 + a,
//   p ∈ (β, 1−β)     — bounded competency.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ld::model {

/// Value type holding one competency per voter, indexed by vertex id.
class CompetencyVector {
public:
    CompetencyVector() = default;

    /// Build from per-vertex probabilities; each must lie in [0, 1].
    explicit CompetencyVector(std::vector<double> values);

    std::size_t size() const noexcept { return values_.size(); }
    bool empty() const noexcept { return values_.empty(); }

    /// Competency of voter (vertex) `i`.
    double operator[](std::size_t i) const { return values_[i]; }

    /// All competencies, vertex-indexed.
    std::span<const double> values() const noexcept { return values_; }

    /// Vertex ids sorted by ascending competency (ties by id) — the
    /// paper's canonical ordering p_1 <= p_2 <= … <= p_n.  Sorts on every
    /// call, O(n log n): callers that need it repeatedly keep the result.
    std::vector<std::size_t> ascending_order() const;

    /// Competency of the k-th *least* competent voter (paper index k+1).
    /// Sorts on every call, like ascending_order().
    double kth_smallest(std::size_t k) const;

    /// Mean competency.
    double mean() const noexcept { return mean_; }

    /// Sum of Bernoulli variances Σ p_i (1 − p_i) — the direct-voting
    /// outcome variance the paper's DNH conditions manipulate.
    double outcome_variance() const noexcept { return variance_sum_; }

    /// The deficit 1/2 − mean(p) when the mean lies at or below 1/2
    /// (0 otherwise).  PC = a (Definition 1) captures instances whose mean
    /// competency is "sufficiently close to 1/2" *from below*: direct
    /// voting is not already winning, but a mechanism that boosts each
    /// delegated vote by >= α can move the expected outcome across the
    /// majority line — this is what makes the outcome plausibly
    /// changeable, and it is the regime where Theorem 2's strong positive
    /// gain is achievable at all (with mean > 1/2 both P^M and P^D tend
    /// to 1 and no uniform γ > 0 can exist).
    double plausible_changeability() const noexcept;

    /// True iff mean(p) ∈ [1/2 − a, 1/2] — the PC = a restriction.
    bool satisfies_pc(double a) const noexcept;

    /// True iff every p_i ∈ (beta, 1 − beta) — bounded competency.
    bool bounded_away(double beta) const noexcept;

    /// Largest beta ∈ [0, 1/2) such that bounded_away(beta) holds
    /// (0 if some p_i is 0 or 1; returned value is exclusive).
    double bounding_beta() const noexcept;

private:
    std::vector<double> values_;
    double mean_ = 0.0;
    double variance_sum_ = 0.0;
};

}  // namespace ld::model
