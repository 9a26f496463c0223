// Tests for the windowed ε-truncated tally kernels (prob/truncated.hpp)
// and the adaptive replication stopping mode (EvalOptions::target_std_error).
//
// The property suite checks the *certified* error contract: for every
// random profile, |truncated − exact| must be within the bound the kernel
// itself reports (≤ ε/2), not merely within ε of something plausible.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ld/delegation/realize.hpp"
#include "ld/election/engine.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/tally.hpp"
#include "ld/mech/approval_size_threshold.hpp"
#include "ld/model/instance.hpp"
#include "prob/poisson_binomial.hpp"
#include "prob/truncated.hpp"
#include "prob/weighted_bernoulli_sum.hpp"
#include "rng/rng.hpp"
#include "support/expect.hpp"
#include "support/thread_pool.hpp"
#include "ld/experiments/workloads.hpp"

namespace {

using ld::prob::ConvolveScratch;
using ld::prob::PoissonBinomial;
using ld::prob::TruncatedPoissonBinomial;
using ld::prob::WeightedBernoulliSum;
using ld::prob::truncated_weighted_majority;
using ld::support::ContractViolation;

// Floating-point slack on top of the certified bound: the truncated and
// exact kernels accumulate their tails in different orders, so the last
// few ulps may differ even when no mass was dropped.
constexpr double kFpSlack = 1e-12;

TEST(TruncatedPoissonBinomial, EpsilonZeroMatchesExactEverywhere) {
    const std::vector<double> probs{0.2, 0.5, 0.8, 0.35, 0.6, 0.9, 0.1};
    const TruncatedPoissonBinomial tr(probs, 0.0);
    const PoissonBinomial pb(probs);
    EXPECT_EQ(tr.certified_error(), 0.0);
    for (std::size_t k = 0; k <= probs.size(); ++k) {
        EXPECT_NEAR(tr.pmf(k), pb.pmf(k), 1e-15) << "k=" << k;
    }
    EXPECT_NEAR(tr.majority_probability(), pb.majority_probability(), 1e-15);
    EXPECT_NEAR(tr.mean(), pb.mean(), 1e-12);
    EXPECT_NEAR(tr.variance(), pb.variance(), 1e-12);
}

TEST(TruncatedPoissonBinomial, DroppedMassStaysInsideBudget) {
    ld::rng::Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 20 + static_cast<std::size_t>(rng.next_below(200));
        std::vector<double> probs(n);
        for (auto& p : probs) p = rng.next_double();
        const double eps = trial % 2 == 0 ? 1e-9 : 1e-12;
        const TruncatedPoissonBinomial tr(probs, eps);
        const PoissonBinomial pb(probs);
        EXPECT_LE(tr.certified_error(), eps);
        // The truncated pmf is a pointwise sub-measure of the exact pmf.
        for (std::size_t k = 0; k <= n; ++k) {
            EXPECT_LE(tr.pmf(k), pb.pmf(k) + 1e-15) << "k=" << k;
        }
        // Any tail query lands within the certified deficit.
        for (double t : {static_cast<double>(n) / 2.0, tr.mean(), 3.0}) {
            const double exact = pb.tail_above(t);
            const double trunc = tr.tail_above(t);
            EXPECT_LE(exact - trunc, tr.certified_error() + kFpSlack) << "t=" << t;
            EXPECT_LE(trunc - exact, kFpSlack) << "t=" << t;
        }
        // The window actually shrinks for small ε on wide instances.
        EXPECT_LE(tr.window_width(), n + 1);
    }
}

TEST(TruncatedPoissonBinomial, RejectsBadEpsilon) {
    const std::vector<double> probs{0.5};
    EXPECT_THROW(TruncatedPoissonBinomial(probs, -0.1), ContractViolation);
    EXPECT_THROW(TruncatedPoissonBinomial(probs, 1.0), ContractViolation);
}

TEST(TruncatedWeightedMajority, PropertyAgainstExactDP) {
    // Randomized profiles: heterogeneous weights (including zeros =
    // abstentions), competencies across [0, 1].  The certified interval
    // must always contain the exact majority probability.
    ld::rng::Rng rng(7);
    ConvolveScratch scratch;
    double worst_gap = 0.0;
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t m = 1 + static_cast<std::size_t>(rng.next_below(40));
        std::vector<std::uint64_t> weights(m);
        std::vector<double> probs(m);
        for (std::size_t i = 0; i < m; ++i) {
            weights[i] = rng.next_below(8);  // 0 = abstention, up to 7 votes
            probs[i] = rng.next_double();
        }
        const double eps = trial % 3 == 0 ? 0.0 : (trial % 3 == 1 ? 1e-12 : 1e-9);
        const auto tally = truncated_weighted_majority(weights, probs, eps, scratch);
        const WeightedBernoulliSum exact(weights, probs);
        const double exact_p = exact.majority_probability();
        EXPECT_LE(tally.error_bound, eps / 2.0 + 1e-18);
        const double gap = std::abs(tally.tail - exact_p);
        worst_gap = std::max(worst_gap, gap);
        EXPECT_LE(gap, tally.error_bound + kFpSlack)
            << "trial=" << trial << " eps=" << eps;
        EXPECT_EQ(tally.total_weight, exact.total_weight());
    }
    // Acceptance criterion: max |ΔP| stays at or below 1e-9 overall.
    EXPECT_LE(worst_gap, 1e-9);
}

TEST(TruncatedWeightedMajority, DegenerateProfiles) {
    ConvolveScratch scratch;
    // Nobody votes at all: W = 0, threshold 0, no mass above it.
    {
        const auto tally = truncated_weighted_majority(
            std::vector<std::uint64_t>{0, 0, 0}, std::vector<double>{0.2, 0.9, 0.5},
            1e-9, scratch);
        EXPECT_EQ(tally.total_weight, 0u);
        EXPECT_NEAR(tally.tail, 0.0, 1e-15);
        EXPECT_LE(tally.error_bound, 1e-9);
    }
    // Empty profile.
    {
        const auto tally = truncated_weighted_majority(
            std::vector<std::uint64_t>{}, std::vector<double>{}, 0.0, scratch);
        EXPECT_EQ(tally.total_weight, 0u);
        EXPECT_NEAR(tally.tail, 0.0, 1e-15);
        EXPECT_EQ(tally.error_bound, 0.0);
    }
    // Dictator: one sink with all the weight.
    {
        const auto tally = truncated_weighted_majority(
            std::vector<std::uint64_t>{9}, std::vector<double>{0.75}, 1e-12, scratch);
        EXPECT_NEAR(tally.tail, 0.75, 1e-12);
    }
    // Deterministic voters (p = 0 and p = 1) and an exact tie that loses.
    {
        const auto tally = truncated_weighted_majority(
            std::vector<std::uint64_t>{2, 2}, std::vector<double>{1.0, 0.0}, 0.0,
            scratch);
        EXPECT_NEAR(tally.tail, 0.0, 1e-15);  // 2 of 4 is a tie: loses
    }
    // Mismatched spans and bad epsilon are contract violations.
    EXPECT_THROW(truncated_weighted_majority(std::vector<std::uint64_t>{1},
                                             std::vector<double>{0.5, 0.5}, 0.0,
                                             scratch),
                 ContractViolation);
    EXPECT_THROW(truncated_weighted_majority(std::vector<std::uint64_t>{1},
                                             std::vector<double>{0.5}, 1.5, scratch),
                 ContractViolation);
}

TEST(TruncatedWeightedMajority, WindowShrinksOnLargeUnitProfiles) {
    // 4000 unit-weight voters: the exact DP window is 4001 wide; the
    // truncated one should retire everything far from the threshold and
    // stay within a few hundred entries (O(σ·√log(1/ε)), σ ≈ 31).
    const std::size_t n = 4000;
    std::vector<std::uint64_t> weights(n, 1);
    std::vector<double> probs(n, 0.51);
    ConvolveScratch scratch;
    const auto tally = truncated_weighted_majority(weights, probs, 1e-12, scratch);
    EXPECT_LT(tally.max_window, n / 4);
    const WeightedBernoulliSum exact(weights, probs);
    EXPECT_NEAR(tally.tail, exact.majority_probability(),
                tally.error_bound + kFpSlack);
}

TEST(TruncatedTallyRoute, MatchesExactTallyOnElectionOutcomes) {
    // End-to-end through the election layer: truncated_correct_probability
    // against exact_correct_probability on realized delegation graphs.
    ld::rng::Rng rng(21);
    const auto inst = ld::experiments::complete_pc_instance(rng, 301, 0.05, 0.01, 0.3);
    const ld::mech::ApprovalSizeThreshold mech(1);
    ld::election::TallyScratch scratch;
    for (int r = 0; r < 20; ++r) {
        const auto outcome = ld::delegation::realize(mech, inst, rng);
        const double exact =
            ld::election::exact_correct_probability(outcome, inst.competencies(), scratch);
        const double truncated = ld::election::truncated_correct_probability(
            outcome, inst.competencies(), 1e-12, scratch);
        EXPECT_NEAR(truncated, exact, 1e-12 / 2.0 + kFpSlack) << "r=" << r;
    }
}

TEST(TruncatedTallyRoute, DefaultEpsilonAgreesWithExactRouteUnderEveryStopRule) {
    // The default route (ε = kDefaultTallyEpsilon) against the exact one
    // (ε = 0) on the same seed: P^M within the certified ε/2, and the
    // replication count and shape statistics identical — the tally draws
    // nothing from the RNG, so both runs realize the same delegation graphs.
    const auto inst = [&] {
        ld::rng::Rng build(9);
        return ld::experiments::complete_pc_instance(build, 151, 0.05, 0.02, 0.3);
    }();
    const ld::mech::ApprovalSizeThreshold mech(1);
    const double eps = ld::election::kDefaultTallyEpsilon;
    ld::election::EvalOptions fixed;
    fixed.replications = 96;
    ld::election::EvalOptions adaptive;
    adaptive.target_std_error = 2e-3;
    adaptive.adaptive_batch = 32;
    adaptive.max_replications = 2000;
    ld::election::EvalOptions certified;
    certified.certify.delta = 0.05;
    certified.adaptive_batch = 32;
    certified.max_replications = 2000;
    for (const auto* defaults : {&fixed, &adaptive, &certified}) {
        ASSERT_EQ(defaults->tally_epsilon, eps);
        ld::election::EvalOptions exact = *defaults;
        exact.tally_epsilon = 0.0;
        ld::rng::Rng rng_default(17), rng_exact(17);
        const auto d = ld::election::estimate_gain(mech, inst, rng_default, *defaults);
        const auto e = ld::election::estimate_gain(mech, inst, rng_exact, exact);
        EXPECT_NEAR(d.pm.value, e.pm.value, eps / 2.0 + 1e-15);
        EXPECT_EQ(d.pm.replications, e.pm.replications);
        EXPECT_EQ(d.pd, e.pd);
        EXPECT_EQ(d.mean_delegators, e.mean_delegators);
        EXPECT_EQ(d.mean_sinks, e.mean_sinks);
        EXPECT_EQ(d.mean_max_weight, e.mean_max_weight);
        EXPECT_EQ(d.mean_longest_path, e.mean_longest_path);
    }
}

TEST(TruncatedTallyRoute, IntervalsFoldInHalfEpsilon) {
    // Nobody delegates, so every replication tallies the same profile, the
    // sampling half-width is 0, and the reported intervals are exactly
    // the certified ±ε/2 — and collapse to a point on the exact route.
    const auto inst = [&] {
        ld::rng::Rng build(7);
        return ld::experiments::complete_pc_instance(build, 51, 0.05, 0.02, 0.3);
    }();
    const ld::mech::ApprovalSizeThreshold mech(1000);
    ld::election::EvalOptions opts;
    opts.replications = 4;
    ld::rng::Rng rng(3);
    const auto report = ld::election::estimate_gain(mech, inst, rng, opts);
    EXPECT_NEAR(report.pm.ci.hi - report.pm.ci.lo, opts.tally_epsilon, 1e-15);
    EXPECT_NEAR(report.gain_ci.hi - report.gain_ci.lo, opts.tally_epsilon, 1e-15);
    opts.tally_epsilon = 0.0;
    const auto exact = ld::election::estimate_gain(mech, inst, rng, opts);
    EXPECT_EQ(exact.pm.ci.lo, exact.pm.ci.hi);
}

TEST(AdaptiveStopping, DeterministicForFixedSeedAndThreads) {
    ld::rng::Rng rng_a(33), rng_b(33);
    const auto inst = [&] {
        ld::rng::Rng build(5);
        return ld::experiments::complete_pc_instance(build, 101, 0.05, 0.02, 0.3);
    }();
    const ld::mech::ApprovalSizeThreshold mech(1);
    ld::election::EvalOptions opts;
    opts.target_std_error = 2e-3;
    opts.adaptive_batch = 32;
    opts.max_replications = 4000;
    opts.threads = 3;
    ld::support::ThreadPool pool_a(3), pool_b(3);
    ld::election::ReplicationEngine engine_a(pool_a), engine_b(pool_b);
    opts.engine = &engine_a;
    const auto a = ld::election::estimate_correct_probability(mech, inst, rng_a, opts);
    opts.engine = &engine_b;
    const auto b = ld::election::estimate_correct_probability(mech, inst, rng_b, opts);
    // Bit-identical, not merely close: same stopping point, same value.
    EXPECT_EQ(a.replications, b.replications);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.std_error, b.std_error);
    // It actually stopped adaptively: before the cap, at a batch multiple,
    // with the target met.
    EXPECT_LT(a.replications, opts.max_replications);
    EXPECT_EQ(a.replications % opts.adaptive_batch, 0u);
    EXPECT_LE(a.std_error, opts.target_std_error);
}

TEST(AdaptiveStopping, HonorsTheReplicationCap) {
    ld::rng::Rng rng(44);
    const auto inst = [&] {
        ld::rng::Rng build(6);
        return ld::experiments::complete_pc_instance(build, 101, 0.05, 0.02, 0.3);
    }();
    const ld::mech::ApprovalSizeThreshold mech(1);
    ld::election::EvalOptions opts;
    opts.target_std_error = 1e-9;  // unreachable
    opts.adaptive_batch = 16;
    opts.max_replications = 96;
    const auto est = ld::election::estimate_correct_probability(mech, inst, rng, opts);
    EXPECT_EQ(est.replications, opts.max_replications);
    EXPECT_GT(est.std_error, opts.target_std_error);
}

TEST(AdaptiveStopping, ZeroVarianceStopsAfterTwoBatches) {
    // A direct-voting mechanism on a fixed instance: every replication
    // yields the same P^M, so SE hits 0 as soon as two reps exist — but
    // never on the first batch (one sample has no standard error).
    ld::rng::Rng rng(55);
    const auto inst = [&] {
        ld::rng::Rng build(7);
        return ld::experiments::complete_pc_instance(build, 51, 0.05, 0.02, 0.3);
    }();
    const ld::mech::ApprovalSizeThreshold mech(1000);  // unreachable: nobody delegates
    ld::election::EvalOptions opts;
    opts.target_std_error = 1e-6;
    opts.adaptive_batch = 1;
    opts.max_replications = 100;
    const auto est = ld::election::estimate_correct_probability(mech, inst, rng, opts);
    EXPECT_EQ(est.replications, 2u);
    EXPECT_EQ(est.std_error, 0.0);
}

TEST(AdaptiveStopping, AdaptiveMatchesFixedPrefixStreams) {
    // With the same seed, the adaptive run's first fixed-count worth of
    // draws comes from the same RNG streams as a fixed run — the adaptive
    // mode changes *when to stop*, not *what is sampled*.  Run adaptive
    // with a cap equal to a fixed count and an unreachable target: the
    // estimates must coincide exactly.
    ld::rng::Rng rng_fixed(66), rng_adaptive(66);
    const auto inst = [&] {
        ld::rng::Rng build(8);
        return ld::experiments::complete_pc_instance(build, 101, 0.05, 0.02, 0.3);
    }();
    const ld::mech::ApprovalSizeThreshold mech(1);
    ld::support::ThreadPool pool_a(2), pool_b(2);
    ld::election::ReplicationEngine engine_a(pool_a), engine_b(pool_b);

    ld::election::EvalOptions fixed;
    fixed.replications = 128;
    fixed.threads = 2;
    fixed.engine = &engine_a;

    ld::election::EvalOptions adaptive;
    adaptive.target_std_error = 1e-12;  // unreachable: runs to the cap
    adaptive.adaptive_batch = 128;      // one round == the fixed count
    adaptive.max_replications = 128;
    adaptive.threads = 2;
    adaptive.engine = &engine_b;

    const auto a = ld::election::estimate_correct_probability(mech, inst, rng_fixed, fixed);
    const auto b =
        ld::election::estimate_correct_probability(mech, inst, rng_adaptive, adaptive);
    EXPECT_EQ(a.replications, b.replications);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.std_error, b.std_error);
}

TEST(PoissonBinomialSatellites, CdfAndTailAreConsistentWithPmf) {
    ld::rng::Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 1 + static_cast<std::size_t>(rng.next_below(64));
        std::vector<double> probs(n);
        for (auto& p : probs) p = rng.next_double();
        const PoissonBinomial pb(probs);
        double prefix = 0.0;
        for (std::size_t k = 0; k <= n; ++k) {
            prefix += pb.pmf(k);
            EXPECT_NEAR(pb.cdf(k), std::min(prefix, 1.0), 1e-12) << "k=" << k;
            // P[X <= k] + P[X > k] == 1 with O(1) lookups on both sides.
            EXPECT_NEAR(pb.cdf(k) + pb.tail_above(static_cast<double>(k)), 1.0, 1e-12);
        }
        EXPECT_NEAR(pb.tail_above(-1.0), 1.0, 1e-12);
        EXPECT_NEAR(pb.tail_above(static_cast<double>(n)), 0.0, 1e-15);
        EXPECT_NEAR(pb.tail_above(static_cast<double>(n) + 7.5), 0.0, 1e-15);
        // Fractional thresholds: P[X > 1.5] == P[X >= 2].
        if (n >= 2) {
            EXPECT_NEAR(pb.tail_above(1.5), 1.0 - pb.cdf(1), 1e-12);
        }
    }
}

TEST(PoissonBinomialSatellites, PmfSpanIsTheRenamedAccessor) {
    const std::vector<double> probs{0.25, 0.5};
    const PoissonBinomial pb(probs);
    const auto pmf = pb.pmf_span();
    ASSERT_EQ(pmf.size(), 3u);
    EXPECT_NEAR(pmf[0], 0.75 * 0.5, 1e-15);
    EXPECT_NEAR(pmf[2], 0.25 * 0.5, 1e-15);
}

}  // namespace
