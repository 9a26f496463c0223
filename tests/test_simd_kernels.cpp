// Property suite for the runtime-dispatched SIMD kernels
// (prob/convolve_simd.cpp): the two-point convolution and the product
// tree's window axpy.
//
// The dispatch layer promises *bit-identity*: every tier — scalar,
// AVX2, AVX-512 — evaluates the same mul/mul/add (convolution) or
// mul/add (axpy) expression per element, so results never depend on the
// host.  The tests below therefore assert exact equality (0 ulp,
// strictly stronger than the ≤1-ulp acceptance bound) and skip cleanly
// on hosts that lack an ISA tier.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "prob/convolve.hpp"
#include "prob/truncated.hpp"
#include "prob/weighted_bernoulli_sum.hpp"
#include "rng/rng.hpp"
#include "support/cpu_features.hpp"
#include "support/metrics.hpp"

namespace {

using ld::prob::ConvolveScratch;
using ld::support::SimdTier;

/// RAII pin of the kernel tier; restores the previous tier on exit so
/// test order never leaks a pinned tier into unrelated tests.
class TierGuard {
public:
    explicit TierGuard(SimdTier tier)
        : previous_(ld::prob::kernel_tier()),
          pinned_(ld::prob::set_kernel_tier(tier)) {}
    ~TierGuard() { ld::prob::set_kernel_tier(previous_); }
    bool pinned() const noexcept { return pinned_; }

    TierGuard(const TierGuard&) = delete;
    TierGuard& operator=(const TierGuard&) = delete;

private:
    SimdTier previous_;
    bool pinned_;
};

constexpr std::array<SimdTier, 2> kWideTiers = {SimdTier::kAvx2,
                                               SimdTier::kAvx512};

/// Random pmf-shaped vector (non-negative, roughly normalized).
std::vector<double> random_pmf(ld::rng::Rng& rng, std::size_t n) {
    std::vector<double> pmf(n);
    double total = 0.0;
    for (double& x : pmf) {
        x = rng.next_double();
        total += x;
    }
    for (double& x : pmf) x /= total;
    return pmf;
}

TEST(CpuFeatures, ParseAndNames) {
    EXPECT_EQ(ld::support::parse_simd_tier("scalar"), SimdTier::kScalar);
    EXPECT_EQ(ld::support::parse_simd_tier("avx2"), SimdTier::kAvx2);
    EXPECT_EQ(ld::support::parse_simd_tier("avx512"), SimdTier::kAvx512);
    EXPECT_EQ(ld::support::parse_simd_tier("auto"),
              ld::support::best_simd_tier());
    EXPECT_FALSE(ld::support::parse_simd_tier("sse9").has_value());
    EXPECT_FALSE(ld::support::parse_simd_tier("").has_value());
    EXPECT_STREQ(ld::support::simd_tier_name(SimdTier::kScalar), "scalar");
    EXPECT_STREQ(ld::support::simd_tier_name(SimdTier::kAvx2), "avx2");
    EXPECT_STREQ(ld::support::simd_tier_name(SimdTier::kAvx512), "avx512");
}

TEST(CpuFeatures, ScalarAlwaysSupported) {
    EXPECT_TRUE(ld::support::simd_tier_supported(SimdTier::kScalar));
    // The auto-detected best tier must itself be runnable.
    EXPECT_TRUE(ld::support::simd_tier_supported(ld::support::best_simd_tier()));
}

TEST(KernelDispatch, PinningUpdatesTierAndGauge) {
    TierGuard guard(SimdTier::kScalar);
    ASSERT_TRUE(guard.pinned());
    EXPECT_EQ(ld::prob::kernel_tier(), SimdTier::kScalar);
    EXPECT_EQ(ld::support::MetricsRegistry::global().gauge("tally.kernel").value(),
              static_cast<std::int64_t>(SimdTier::kScalar));
}

TEST(KernelDispatch, UnsupportedPinIsRejected) {
    // At most one of these can be unsupported-but-requestable everywhere,
    // so probe both wide tiers; on a host with full support this test
    // degenerates to "pin succeeds", which is fine.
    for (SimdTier tier : kWideTiers) {
        if (ld::support::simd_tier_supported(tier)) continue;
        const SimdTier before = ld::prob::kernel_tier();
        EXPECT_FALSE(ld::prob::set_kernel_tier(tier));
        EXPECT_EQ(ld::prob::kernel_tier(), before);  // unchanged on failure
    }
}

/// Scalar vs wide tiers on one convolution step, across shapes that hit
/// every region of the kernel and every masked remainder length of both
/// vector widths: every n ≤ 24 and w ≤ 9 (w < n, w = n, w > n — the gap
/// region), plus two long shapes, at p ∈ {0, 1/3, 1}.
TEST(SimdKernelAgreement, SingleStepAllRegions) {
    ld::rng::Rng rng(20260808u);
    std::vector<std::pair<std::size_t, std::size_t>> shapes = {{129, 1}, {64, 17}};
    for (std::size_t n = 1; n <= 24; ++n) {
        for (std::size_t w = 1; w <= 9; ++w) shapes.emplace_back(n, w);
    }
    const std::array<double, 3> ps = {0.0, 1.0 / 3.0, 1.0};
    for (SimdTier tier : kWideTiers) {
        if (!ld::support::simd_tier_supported(tier)) {
            GTEST_LOG_(INFO) << "skipping unsupported tier "
                             << ld::support::simd_tier_name(tier);
            continue;
        }
        for (const auto& [n, w] : shapes) {
            for (double p : ps) {
                const std::vector<double> in = random_pmf(rng, n);
                std::vector<double> expected(n + w, -1.0);
                ld::prob::detail::convolve_two_point_scalar(
                    in.data(), expected.data(), n, w, p);
                // One vector of sentinels past the output: a masked
                // remainder must not store beyond n + w.
                std::vector<double> got(n + w + 8, -1.0);
                {
                    TierGuard guard(tier);
                    ASSERT_TRUE(guard.pinned());
                    ld::prob::convolve_two_point(in.data(), got.data(), n, w, p);
                }
                for (std::size_t s = 0; s < got.size(); ++s) {
                    EXPECT_EQ(s < n + w ? expected[s] : -1.0, got[s])
                        << ld::support::simd_tier_name(tier) << " n=" << n
                        << " w=" << w << " p=" << p << " s=" << s;
                }
            }
        }
    }
}

/// The product tree's window axpy `dst[i] += f·src[i]` agrees bit for bit
/// across tiers at every length up to 24 (every masked remainder) and one
/// long run, and leaves the entry past its range untouched (the scalar
/// reference never touches dst[n]).
TEST(SimdKernelAgreement, AxpyAcrossTiers) {
    ld::rng::Rng rng(31337u);
    std::vector<std::size_t> lengths = {1000};
    for (std::size_t n = 1; n <= 24; ++n) lengths.push_back(n);
    for (std::size_t n : lengths) {
        const std::vector<double> src = random_pmf(rng, n);
        const std::vector<double> dst0 = random_pmf(rng, n + 1);
        const double f = rng.next_double();
        std::vector<double> expected = dst0;
        {
            TierGuard guard(SimdTier::kScalar);
            ASSERT_TRUE(guard.pinned());
            ld::prob::detail::axpy_kernel()(expected.data(), src.data(), n, f);
        }
        for (SimdTier tier : kWideTiers) {
            if (!ld::support::simd_tier_supported(tier)) continue;
            TierGuard guard(tier);
            ASSERT_TRUE(guard.pinned());
            std::vector<double> got = dst0;
            ld::prob::detail::axpy_kernel()(got.data(), src.data(), n, f);
            for (std::size_t i = 0; i <= n; ++i) {
                EXPECT_EQ(expected[i], got[i])
                    << ld::support::simd_tier_name(tier) << " n=" << n << " i=" << i;
            }
        }
    }
}

/// Full randomized weighted-majority tallies agree bit-for-bit across
/// tiers (stacked convolutions amplify any per-step divergence).
TEST(SimdKernelAgreement, RandomizedTalliesAcrossTiers) {
    ld::rng::Rng rng(97531u);
    for (std::size_t trial = 0; trial < 20; ++trial) {
        const std::size_t terms = 1 + rng.next_below(60);
        std::vector<std::uint64_t> weights(terms);
        std::vector<double> probs(terms);
        for (std::size_t i = 0; i < terms; ++i) {
            weights[i] = rng.next_below(5);  // zeros included on purpose
            probs[i] = rng.next_double();
        }
        ConvolveScratch scratch;
        double reference = 0.0;
        {
            TierGuard guard(SimdTier::kScalar);
            ASSERT_TRUE(guard.pinned());
            reference = ld::prob::weighted_majority_probability(weights, probs,
                                                                scratch);
        }
        for (SimdTier tier : kWideTiers) {
            if (!ld::support::simd_tier_supported(tier)) continue;
            TierGuard guard(tier);
            ASSERT_TRUE(guard.pinned());
            const double got =
                ld::prob::weighted_majority_probability(weights, probs, scratch);
            EXPECT_EQ(reference, got)
                << ld::support::simd_tier_name(tier) << " trial " << trial;
        }
    }
}

/// The ε-truncated tally keeps its certified bound and its exact values
/// under every tier: same tail, same error_bound ≤ ε/2, same window.
TEST(SimdKernelAgreement, TruncatedTallyCertifiedOnEveryTier) {
    ld::rng::Rng rng(44221u);
    const std::size_t terms = 300;
    std::vector<std::uint64_t> weights(terms);
    std::vector<double> probs(terms);
    for (std::size_t i = 0; i < terms; ++i) {
        weights[i] = 1 + rng.next_below(3);
        probs[i] = 0.3 + 0.4 * rng.next_double();
    }
    const double epsilon = 1e-8;
    ConvolveScratch scratch;
    ld::prob::TruncatedTally reference;
    {
        TierGuard guard(SimdTier::kScalar);
        ASSERT_TRUE(guard.pinned());
        reference = ld::prob::truncated_weighted_majority(weights, probs,
                                                          epsilon, scratch);
    }
    EXPECT_LE(reference.error_bound, epsilon / 2.0);
    // Exact (untruncated) value for the certification check.
    const double exact =
        ld::prob::weighted_majority_probability(weights, probs, scratch);
    EXPECT_NEAR(reference.tail, exact, reference.error_bound + 1e-15);
    for (SimdTier tier : kWideTiers) {
        if (!ld::support::simd_tier_supported(tier)) continue;
        TierGuard guard(tier);
        ASSERT_TRUE(guard.pinned());
        const auto got = ld::prob::truncated_weighted_majority(weights, probs,
                                                               epsilon, scratch);
        EXPECT_EQ(reference.tail, got.tail);
        EXPECT_EQ(reference.error_bound, got.error_bound);
        EXPECT_EQ(reference.max_window, got.max_window);
        EXPECT_LE(got.error_bound, epsilon / 2.0);
    }
}

}  // namespace
