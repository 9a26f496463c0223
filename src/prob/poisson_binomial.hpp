// Poisson-binomial distribution: the law of a sum of independent Bernoulli
// variables with heterogeneous success probabilities.  This is exactly the
// law of the number of correct votes under *direct voting* (paper §2.1).
// This full-width DP is the test oracle; the eval path computes `P^D(G)`
// with the ε = 0 windowed kernel (`prob/truncated.hpp`).

#pragma once

#include <span>
#include <vector>

namespace ld::prob {

/// Exact Poisson-binomial distribution over {0, …, n} computed by the
/// standard O(n²) convolution DP (shared SIMD-friendly kernel in
/// `prob/convolve.hpp`).  Numerically stable for the n ≤ ~20k range used
/// in exact evaluations; larger n should use the normal approximation
/// (`ld::prob::normal_*`, justified by the paper's Lemma 4) or the
/// ε-truncated kernel (`ld::prob::TruncatedPoissonBinomial`).
class PoissonBinomial {
public:
    /// Build from success probabilities, each in [0, 1].  Also
    /// precomputes compensated (Kahan) prefix/suffix sums of the pmf, so
    /// `cdf` and `tail_above` are O(1) per call.
    explicit PoissonBinomial(std::span<const double> probabilities);

    std::size_t trial_count() const noexcept { return pmf_.size() - 1; }

    /// P[X = k].
    double pmf(std::size_t k) const;

    /// P[X <= k].  O(1): reads the precomputed compensated prefix sum.
    double cdf(std::size_t k) const;

    /// P[X > t] for a real threshold t (votes strictly above t, matching
    /// the paper's strict weighted-majority rule).  O(1): reads the
    /// precomputed compensated suffix sum.
    double tail_above(double t) const;

    /// E[X] = Σ p_i.
    double mean() const noexcept { return mean_; }

    /// Var[X] = Σ p_i (1 − p_i).
    double variance() const noexcept { return variance_; }

    /// Probability that a strict majority of the n trials succeeds,
    /// i.e. P[X > n/2].  Ties (even n, X = n/2) count as failure, the
    /// conservative reading of the paper's majority rule.
    double majority_probability() const { return tail_above(static_cast<double>(trial_count()) / 2.0); }

    /// Full pmf for inspection/testing.
    std::span<const double> pmf_span() const noexcept { return pmf_; }

private:
    std::vector<double> pmf_;     // pmf_[k] = P[X = k]
    std::vector<double> cdf_;     // cdf_[k] = Σ_{i<=k} pmf_[i]  (Kahan)
    std::vector<double> suffix_;  // suffix_[k] = Σ_{i>=k} pmf_[i] (Kahan); size n+2
    double mean_ = 0.0;
    double variance_ = 0.0;
};

/// Convenience: P[Σ Bernoulli(p_i) > n/2] without keeping the object.
double direct_majority_probability(std::span<const double> probabilities);

}  // namespace ld::prob
