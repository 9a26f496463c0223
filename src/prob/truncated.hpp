// Windowed ε-truncated Poisson-binomial kernels.
//
// The full-width DP (`PoissonBinomial`, `WeightedBernoulliSum`, now the
// test oracles) carries the full pmf over {0, …, W} through every
// convolution step — O(#terms·W) work — even though, by
// Chernoff/Bernstein tails (`prob/bounds.hpp`), only an O(σ·√log(1/ε))
// window around the running mean holds mass above ε.  These kernels track a live support window `[lo, hi]` during
// the same two-point convolution (`prob/convolve.hpp`), drop edge
// entries once their cumulative mass fits inside a configurable budget
// ε, and return a *certified* error bound alongside every tail query:
// the truncated pmf is a pointwise lower bound on the exact pmf whose
// total deficit equals exactly the dropped mass, so for any event A,
//
//   0 ≤ P(A) − Q(A) ≤ dropped ≤ ε   ⇒   |ΔP| ≤ ε, proven, not assumed.
//
// The weighted majority variant additionally knows its threshold
// t = W/2 up front and *retires* mass exactly (zero error) as soon as
// its side of the threshold is decided: window entries above t can only
// move up (weights are non-negative) and are banked into the tail sum;
// entries that cannot reach t even if every remaining vote succeeds are
// banked as settled non-tail mass.  Only the ε-trimmed remainder is
// uncertain, so the certified bound stays ≤ ε/2 of the reported value.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "prob/convolve.hpp"

namespace ld::prob {

/// ε-truncated law of Σ Bernoulli(p_i): the exact windowed sub-pmf over
/// `[window_lo, window_hi]`, with everything outside certified to hold
/// at most `certified_error()` total mass.  Cost O(n · window) instead
/// of O(n²); the window is O(σ·√log(1/ε)) wide in the regimes the
/// Chernoff bounds cover.  ε = 0 degenerates to the exact distribution.
class TruncatedPoissonBinomial {
public:
    TruncatedPoissonBinomial(std::span<const double> probabilities, double epsilon);

    std::size_t trial_count() const noexcept { return trials_; }

    /// Inclusive live support window after truncation.
    std::size_t window_lo() const noexcept { return lo_; }
    std::size_t window_hi() const noexcept { return lo_ + pmf_.size() - 1; }
    std::size_t window_width() const noexcept { return pmf_.size(); }

    /// Truncated P[X = k]; zero outside the window.  Underestimates the
    /// exact pmf by at most `certified_error()` in total.
    double pmf(std::size_t k) const noexcept;

    /// Windowed sub-pmf, index 0 ↦ window_lo().
    std::span<const double> pmf_span() const noexcept { return pmf_; }

    /// Truncated P[X > t].  The exact tail lies within
    /// [tail_above(t), tail_above(t) + certified_error()].
    double tail_above(double t) const noexcept;

    /// Total mass dropped by the truncation — the proven bound on
    /// |exact − truncated| for any event probability.  Always ≤ ε.
    double certified_error() const noexcept { return dropped_; }

    /// E[X] = Σ p_i (exact, not truncated).
    double mean() const noexcept { return mean_; }

    /// Var[X] = Σ p_i(1−p_i) (exact, not truncated).
    double variance() const noexcept { return variance_; }

    /// Truncated P[X > n/2]; exact value within certified_error().
    double majority_probability() const noexcept {
        return tail_above(static_cast<double>(trials_) / 2.0);
    }

private:
    std::vector<double> pmf_;  ///< window entries, pmf_[j] = Q[X = lo_ + j]
    std::size_t trials_ = 0;
    std::size_t lo_ = 0;
    double dropped_ = 0.0;
    double mean_ = 0.0;
    double variance_ = 0.0;
};

/// Result of one ε-truncated weighted-majority tally.
struct TruncatedTally {
    /// Estimate of P[S > W/2] — the midpoint of the certified interval.
    double tail = 0.0;
    /// Proven bound: |exact − tail| ≤ error_bound ≤ ε/2.
    double error_bound = 0.0;
    /// Peak live window width over the DP — the effective per-term cost
    /// (the exact kernel's equivalent is W + 1).
    std::size_t max_window = 0;
    /// W = Σ w_i.
    std::uint64_t total_weight = 0;
};

/// The eval path's weighted-majority tally (the windowed replacement for
/// `weighted_majority_probability`): the probability that
/// Σ w_i · Bernoulli(p_i) strictly exceeds W/2, within a certified error
/// of ε/2, in ~O(#terms · window) time.  Buffers come
/// from `scratch` — the zero-allocation inner step of the replication
/// loop.  ε = 0 keeps the threshold-retirement fast path but performs
/// no lossy truncation (error_bound == 0, result exact).
TruncatedTally truncated_weighted_majority(std::span<const std::uint64_t> weights,
                                           std::span<const double> probs,
                                           double epsilon, ConvolveScratch& scratch);

}  // namespace ld::prob
