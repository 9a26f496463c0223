// Property suite for the runtime-dispatched SIMD kernels
// (prob/convolve_simd.cpp): the two-point convolution and the product
// tree's window convolution.
//
// The dispatch layer promises *bit-identity*: every tier — scalar,
// AVX2, AVX-512 — evaluates the same mul/mul/add expression per element
// (two-point convolution), or adds the same products to each output in
// the same order (window convolution), so results never depend on the
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

/// Random window with about one entry in four an exact zero (leaf
/// factors of weight > 1 are mostly zeros; the kernels skip zero factors).
std::vector<double> random_window(ld::rng::Rng& rng, std::size_t n) {
    std::vector<double> window(n);
    for (double& x : window) x = rng.next_below(4) == 0 ? 0.0 : rng.next_double();
    return window;
}

/// The product tree's window convolution agrees bit for bit, on every
/// tier, with the loop the tree ran before the kernel existed: a zeroed
/// output, then for ascending j with f[j] != 0, `out[j+i] += f[j]·in[i]`.
/// Every (|f|, |in|) in [1, 40]² crosses each tier's register block and
/// masked last block from both sides; (2107, 1421) is a root-child-sized
/// pair at n = 10⁵, ε = 1e-9.  Sentinels on both sides of the output must
/// survive.
TEST(SimdKernelAgreement, WindowConvolveAcrossTiers) {
    ld::rng::Rng rng(31337u);
    std::vector<std::pair<std::size_t, std::size_t>> shapes = {{2107, 1421},
                                                               {1421, 2107}};
    for (std::size_t nf = 1; nf <= 40; ++nf) {
        for (std::size_t nin = 1; nin <= 40; ++nin) shapes.emplace_back(nf, nin);
    }
    constexpr double kSentinel = -1.0;
    std::vector<double> padded;
    for (const auto& [nf, nin] : shapes) {
        const std::vector<double> f = random_window(rng, nf);
        const std::vector<double> in = random_window(rng, nin);
        const std::size_t width = nf + nin - 1;
        std::vector<double> expected(width, 0.0);
        for (std::size_t j = 0; j < nf; ++j) {
            if (f[j] == 0.0) continue;
            for (std::size_t i = 0; i < nin; ++i) expected[j + i] += f[j] * in[i];
        }
        const double* in_padded = ld::prob::detail::pad_window(in.data(), nin, padded);
        for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512}) {
            if (!ld::support::simd_tier_supported(tier)) continue;
            std::vector<double> got(width + 2, kSentinel);
            {
                TierGuard guard(tier);
                ASSERT_TRUE(guard.pinned());
                ld::prob::detail::window_convolve_kernel()(f.data(), nf, in_padded, nin,
                                                           got.data() + 1);
            }
            EXPECT_EQ(got.front(), kSentinel) << ld::support::simd_tier_name(tier);
            EXPECT_EQ(got.back(), kSentinel)
                << ld::support::simd_tier_name(tier) << " nf=" << nf << " nin=" << nin;
            for (std::size_t k = 0; k < width; ++k) {
                EXPECT_EQ(expected[k], got[k + 1])
                    << ld::support::simd_tier_name(tier) << " nf=" << nf
                    << " nin=" << nin << " k=" << k;
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
