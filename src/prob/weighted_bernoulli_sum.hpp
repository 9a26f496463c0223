// Exact law of a weighted sum of independent Bernoulli variables with
// non-negative integer weights.  This is the law of the number of correct
// *votes* after delegation: each sink v_i holds w_i accumulated votes and
// contributes w_i correct votes with probability p_i (paper §2.2, the
// weighted-majority tally).  Computing P[Σ w_i x_i > W/2] exactly removes
// one layer of Monte-Carlo noise from every gain estimate.  This full-width
// DP is the test oracle; the eval path tallies with the windowed kernel
// (`prob/truncated.hpp`), exact at ε = 0.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "prob/convolve.hpp"

namespace ld::prob {

/// Distribution of S = Σ w_i · Bernoulli(p_i) over {0, …, Σ w_i}.
/// DP cost O(n · Σ w_i); for delegation graphs Σ w_i = n (total votes), so
/// the cost is O(#sinks · n).
class WeightedBernoulliSum {
public:
    /// `weights[i]` votes succeed together with probability `probs[i]`.
    /// Spans must have equal length; weights may be zero (ignored).
    WeightedBernoulliSum(std::span<const std::uint64_t> weights,
                         std::span<const double> probs);

    /// Total weight W = Σ w_i.
    std::uint64_t total_weight() const noexcept { return total_weight_; }

    /// P[S = s].
    double pmf(std::uint64_t s) const;

    /// P[S > t].
    double tail_above(double t) const;

    /// E[S] = Σ w_i p_i.
    double mean() const noexcept { return mean_; }

    /// Var[S] = Σ w_i² p_i (1 − p_i).
    double variance() const noexcept { return variance_; }

    /// P[S > W/2]: probability the weighted majority is correct.  Ties
    /// count as incorrect (strict majority), matching `PoissonBinomial`.
    double majority_probability() const {
        return tail_above(static_cast<double>(total_weight_) / 2.0);
    }

private:
    std::vector<double> pmf_;
    std::uint64_t total_weight_ = 0;
    double mean_ = 0.0;
    double variance_ = 0.0;
};

/// P[Σ w_i x_i > W/2] computed with the same DP as WeightedBernoulliSum
/// but into caller-owned ping-pong buffers — the zero-allocation inner
/// step of the replication loop.  Bit-identical to
/// `WeightedBernoulliSum(weights, probs).majority_probability()`.
double weighted_majority_probability(std::span<const std::uint64_t> weights,
                                     std::span<const double> probs,
                                     ConvolveScratch& scratch);

}  // namespace ld::prob
