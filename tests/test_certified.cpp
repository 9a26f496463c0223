// Tests for the certification subsystem: the anytime-valid confidence
// sequences (stats/confidence_sequence.hpp), the `--certify` replication
// loop in the evaluator, and the certified DNH/SPG verdict labels.
//
// The headline property suite checks *coverage*: on instances small enough
// to brute-force P^M exactly, the certified interval must contain the
// truth in ≥ (1 − δ) of seeded trials — even though each trial stops at a
// data-dependent time (the adversarial case repeated-look SE stopping gets
// wrong; see docs/STATISTICS.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "ld/cli/runner.hpp"
#include "ld/cli/specs.hpp"
#include "ld/dnh/verdicts.hpp"
#include "ld/election/brute_force.hpp"
#include "ld/election/engine.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/experiments/sweep.hpp"
#include "ld/experiments/workloads.hpp"
#include "graph/generators.hpp"
#include "ld/mech/approval_size_threshold.hpp"
#include "ld/mech/best_neighbour.hpp"
#include "ld/model/competency_gen.hpp"
#include "ld/model/instance.hpp"
#include "rng/rng.hpp"
#include "stats/confidence_sequence.hpp"
#include "support/expect.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace {

namespace g = ld::graph;
namespace exp = ld::experiments;
namespace json = ld::support::json;
using ld::election::EvalOptions;
using ld::rng::Rng;
using ld::stats::CertStop;
using ld::stats::ConfidenceSequence;
using ld::stats::CsBoundary;
using ld::support::ContractViolation;

namespace model = ld::model;
namespace mech = ld::mech;
namespace election = ld::election;

model::Instance small_instance(std::uint64_t seed, std::size_t n = 8) {
    Rng rng(seed);
    return model::Instance(g::make_complete(n),
                           model::uniform_competencies(rng, n, 0.2, 0.8), 0.07);
}

// Confidence-sequence formulas ---------------------------------------------

TEST(ConfidenceSequence, HoeffdingHalfWidthMatchesClosedForm) {
    const double delta = 0.05;
    ConfidenceSequence cs(CsBoundary::Hoeffding, delta);
    const std::size_t t = 100;
    for (std::size_t i = 0; i < t; ++i) cs.add(0.5);
    // First look spends delta_1 = delta / (1 * 2).
    const double delta_1 = delta / 2.0;
    EXPECT_DOUBLE_EQ(cs.peek_half_width(),
                     std::sqrt(std::log(2.0 / delta_1) / (2.0 * t)));
    cs.look();
    // Second look spends delta_2 = delta / (2 * 3): strictly wider at the
    // same t (the price of the extra look).
    const double delta_2 = delta / 6.0;
    EXPECT_DOUBLE_EQ(cs.peek_half_width(),
                     std::sqrt(std::log(2.0 / delta_2) / (2.0 * t)));
    EXPECT_EQ(cs.looks(), 1u);
    EXPECT_EQ(cs.count(), t);
}

TEST(ConfidenceSequence, EmpiricalBernsteinHalfWidthMatchesClosedForm) {
    const double delta = 0.1;
    ConfidenceSequence cs(CsBoundary::EmpiricalBernstein, delta);
    const std::size_t t = 10;
    for (std::size_t i = 0; i < t; ++i) cs.add(i % 2 == 0 ? 0.0 : 1.0);
    // Unbiased sample variance of five 0s and five 1s: 10 * 0.25 / 9.
    const double variance = 10.0 * 0.25 / 9.0;
    EXPECT_DOUBLE_EQ(cs.variance(), variance);
    const double delta_1 = delta / 2.0;
    const double log_term = std::log(4.0 / delta_1);
    EXPECT_DOUBLE_EQ(cs.peek_half_width(),
                     std::sqrt(2.0 * variance * log_term / t) +
                         7.0 * log_term / (3.0 * (t - 1)));
}

TEST(ConfidenceSequence, EmpiricalBernsteinAdaptsToLowVariance) {
    // Near-deterministic observations: EB must be far narrower than
    // Hoeffding at the same (t, delta) — the reason it is the default.
    ConfidenceSequence eb(CsBoundary::EmpiricalBernstein, 0.05);
    ConfidenceSequence hoeffding(CsBoundary::Hoeffding, 0.05);
    for (std::size_t i = 0; i < 10'000; ++i) {
        const double x = 0.7 + (i % 2 == 0 ? 1e-4 : -1e-4);
        eb.add(x);
        hoeffding.add(x);
    }
    EXPECT_LT(eb.peek_half_width(), hoeffding.peek_half_width() / 10.0);
}

TEST(ConfidenceSequence, LookIntervalsShrinkWithMoreData) {
    ConfidenceSequence cs(CsBoundary::EmpiricalBernstein, 0.05);
    Rng rng(17);
    double previous = 1.0;
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 2000; ++i) cs.add(rng.next_double());
        const auto iv = cs.look();
        const double width = iv.hi - iv.lo;
        EXPECT_LT(width, previous);
        EXPECT_GE(iv.lo, 0.0);
        EXPECT_LE(iv.hi, 1.0);
        previous = width;
    }
    EXPECT_EQ(cs.looks(), 5u);
}

TEST(ConfidenceSequence, ValidatesItsContract) {
    EXPECT_THROW(ConfidenceSequence(CsBoundary::Hoeffding, 0.0), ContractViolation);
    EXPECT_THROW(ConfidenceSequence(CsBoundary::Hoeffding, 1.0), ContractViolation);
    ConfidenceSequence cs(CsBoundary::EmpiricalBernstein, 0.05);
    EXPECT_THROW(cs.add(-0.1), ContractViolation);
    EXPECT_THROW(cs.add(1.1), ContractViolation);
    // The EB boundary divides by t - 1: a single observation cannot look.
    cs.add(0.5);
    EXPECT_THROW(cs.look(), ContractViolation);
}

TEST(ConfidenceSequence, NamesAndParsing) {
    using ld::stats::cert_stop_name;
    using ld::stats::cs_boundary_name;
    using ld::stats::parse_cs_boundary;
    EXPECT_STREQ(cs_boundary_name(CsBoundary::Hoeffding), "hoeffding");
    EXPECT_STREQ(cs_boundary_name(CsBoundary::EmpiricalBernstein),
                 "empirical_bernstein");
    EXPECT_EQ(parse_cs_boundary("hoeffding"), CsBoundary::Hoeffding);
    EXPECT_EQ(parse_cs_boundary("empirical_bernstein"),
              CsBoundary::EmpiricalBernstein);
    EXPECT_EQ(parse_cs_boundary("empirical-bernstein"),
              CsBoundary::EmpiricalBernstein);
    EXPECT_EQ(parse_cs_boundary("eb"), CsBoundary::EmpiricalBernstein);
    EXPECT_EQ(parse_cs_boundary("gaussian"), std::nullopt);
    EXPECT_STREQ(cert_stop_name(CertStop::DecidedAbove), "decided_above");
    EXPECT_STREQ(cert_stop_name(CertStop::DecidedBelow), "decided_below");
    EXPECT_STREQ(cert_stop_name(CertStop::BudgetExhausted), "budget_exhausted");
}

// Coverage against brute-forced ground truth -------------------------------

TEST(CertifiedEstimator, CoversBruteForcedTruthAcross1000Trials) {
    // An 8-voter complete instance is small enough to enumerate every
    // delegation profile: `exact` below is P^M with zero error.  Each
    // trial certifies at delta = 0.05 with gamma pinned AT the truth — the
    // adversarial setting where the boundary is crossed by noise alone and
    // stopping is maximally data-dependent.  Anytime validity says the
    // interval at the (random) stopping time still covers the truth in
    // at least 95% of trials.
    const auto inst = small_instance(1);
    const mech::ApprovalSizeThreshold mechanism(1);
    const auto laws = election::uniform_approved_laws(mechanism, inst);
    const double exact = election::exact_mechanism_probability(inst, laws);
    ASSERT_GT(exact, 0.0);
    ASSERT_LT(exact, 1.0);

    const int trials = 1000;
    int covered = 0;
    for (int trial = 0; trial < trials; ++trial) {
        Rng rng(1000 + static_cast<std::uint64_t>(trial));
        EvalOptions opts;
        opts.certify.gamma = exact;
        opts.certify.delta = 0.05;
        opts.adaptive_batch = 16;
        opts.max_replications = 256;
        const auto est =
            election::estimate_correct_probability(mechanism, inst, rng, opts);
        ASSERT_TRUE(est.certified.has_value());
        if (est.certified->contains(exact)) ++covered;
    }
    // Nominal coverage is >= 950/1000; the bounds are conservative, so the
    // observed rate sits well above that.  Test at the nominal level minus
    // three binomial standard deviations to keep the assertion sharp but
    // not flaky: 950 - 3 * sqrt(1000 * 0.05 * 0.95) ≈ 929.
    EXPECT_GE(covered, 930) << "coverage " << covered << "/1000";
}

TEST(CertifiedEstimator, CoverageHoldsForHoeffdingBoundaryToo) {
    const auto inst = small_instance(2);
    const mech::ApprovalSizeThreshold mechanism(1);
    const auto laws = election::uniform_approved_laws(mechanism, inst);
    const double exact = election::exact_mechanism_probability(inst, laws);

    const int trials = 300;
    int covered = 0;
    for (int trial = 0; trial < trials; ++trial) {
        Rng rng(5000 + static_cast<std::uint64_t>(trial));
        EvalOptions opts;
        opts.certify.gamma = exact;
        opts.certify.delta = 0.05;
        opts.certify.boundary = CsBoundary::Hoeffding;
        opts.adaptive_batch = 16;
        opts.max_replications = 128;
        const auto est =
            election::estimate_correct_probability(mechanism, inst, rng, opts);
        ASSERT_TRUE(est.certified.has_value());
        if (est.certified->contains(exact)) ++covered;
    }
    EXPECT_GE(covered, 278) << "coverage " << covered << "/300";  // ~0.95 - 3sd
}

// Determinism across thread counts -----------------------------------------

TEST(CertifiedEstimator, StopPointBitIdenticalAcrossThreadCounts) {
    // Stronger than the adaptive-SE contract (fixed seed AND threads): the
    // certified loop seeds each replication by index and folds in index
    // order, so the certificate is a pure function of the seed alone.
    const auto inst = [] {
        Rng build(5);
        return exp::complete_pc_instance(build, 101, 0.05, 0.02, 0.3);
    }();
    const mech::ApprovalSizeThreshold mechanism(1);

    auto run = [&](std::size_t threads) {
        Rng rng(33);
        ld::support::ThreadPool pool(threads);
        election::ReplicationEngine engine(pool);
        EvalOptions opts;
        opts.certify.gamma = 0.05;
        opts.certify.delta = 0.01;
        opts.adaptive_batch = 32;
        opts.max_replications = 4000;
        opts.threads = threads;
        opts.engine = &engine;
        return election::estimate_gain(mechanism, inst, rng, opts);
    };

    const auto one = run(1);
    const auto four = run(4);
    const auto eight = run(8);
    for (const auto* other : {&four, &eight}) {
        ASSERT_TRUE(one.pm.certified && other->pm.certified);
        EXPECT_EQ(one.pm.certified->lo, other->pm.certified->lo);
        EXPECT_EQ(one.pm.certified->hi, other->pm.certified->hi);
        EXPECT_EQ(one.pm.certified->replications, other->pm.certified->replications);
        EXPECT_EQ(one.pm.certified->looks, other->pm.certified->looks);
        EXPECT_EQ(one.pm.certified->stop, other->pm.certified->stop);
        EXPECT_EQ(one.pm.value, other->pm.value);
        ASSERT_TRUE(one.certified_gain && other->certified_gain);
        EXPECT_EQ(one.certified_gain->lo, other->certified_gain->lo);
        EXPECT_EQ(one.certified_gain->hi, other->certified_gain->hi);
    }
    EXPECT_TRUE(one.pm.certified->decided());
}

// Error composition and stop reasons ---------------------------------------

TEST(CertifiedEstimator, FoldsTruncatedTallyErrorIntoTheInterval) {
    const auto inst = small_instance(3, 12);
    const mech::ApprovalSizeThreshold mechanism(1);
    const double eps = 1e-6;

    auto run = [&](double tally_eps) {
        Rng rng(9);
        EvalOptions opts;
        opts.certify.gamma = 0.05;
        opts.certify.delta = 0.05;
        opts.tally_epsilon = tally_eps;
        opts.adaptive_batch = 32;
        opts.max_replications = 512;
        return election::estimate_correct_probability(mechanism, inst, rng, opts);
    };

    const auto exact_run = run(0.0);
    ASSERT_TRUE(exact_run.certified);
    EXPECT_EQ(exact_run.certified->numerical_error, 0.0);

    const auto truncated = run(eps);
    ASSERT_TRUE(truncated.certified);
    // The certificate carries exactly the kernel's per-observation bound.
    EXPECT_EQ(truncated.certified->numerical_error, eps / 2.0);
    EXPECT_LE(truncated.certified->lo, truncated.value);
    EXPECT_GE(truncated.certified->hi, truncated.value);
}

TEST(CertifiedEstimator, ExhaustsTinyBudgetsUndecided) {
    const auto inst = small_instance(4);
    const mech::ApprovalSizeThreshold mechanism(1);
    Rng rng(21);
    EvalOptions opts;
    opts.certify.gamma = 0.5;
    opts.certify.delta = 0.01;
    opts.adaptive_batch = 4;
    opts.max_replications = 4;  // EB width at t=4 dwarfs any real gap
    const auto est = election::estimate_correct_probability(mechanism, inst, rng, opts);
    ASSERT_TRUE(est.certified);
    EXPECT_EQ(est.certified->stop, CertStop::BudgetExhausted);
    EXPECT_FALSE(est.certified->decided());
    EXPECT_EQ(est.certified->replications, 4u);
    EXPECT_GE(est.certified->lo, 0.0);
    EXPECT_LE(est.certified->hi, 1.0);
    EXPECT_LT(est.certified->lo, est.certified->hi);
}

TEST(CertifiedEstimator, DecidesBelowAnUnattainableThreshold) {
    const auto inst = small_instance(5);
    const mech::ApprovalSizeThreshold mechanism(1);
    Rng rng(22);
    EvalOptions opts;
    opts.certify.gamma = 0.999;  // P^M >= 0.999 is false for this instance
    opts.certify.delta = 0.05;
    opts.adaptive_batch = 32;
    opts.max_replications = 10'000;
    const auto est = election::estimate_correct_probability(mechanism, inst, rng, opts);
    ASSERT_TRUE(est.certified);
    EXPECT_EQ(est.certified->stop, CertStop::DecidedBelow);
    EXPECT_LT(est.certified->hi, 0.999);
}

TEST(CertifiedEstimator, RejectsApproximateTallies) {
    const auto inst = small_instance(6);
    const mech::ApprovalSizeThreshold mechanism(1);
    Rng rng(23);
    EvalOptions opts;
    opts.certify.gamma = 0.05;
    opts.certify.delta = 0.05;
    opts.approximate_tally = true;  // Lemma-4 bias has no certified bound
    EXPECT_THROW(election::estimate_gain(mechanism, inst, rng, opts),
                 ContractViolation);
    EvalOptions bad_delta;
    bad_delta.certify.delta = 1.5;
    EXPECT_THROW(election::estimate_gain(mechanism, inst, rng, bad_delta),
                 ContractViolation);
}

// Certified verdicts --------------------------------------------------------

TEST(CertifiedVerdicts, CompleteFamilyEarnsCertifiedSpg) {
    Rng rng(7);
    const auto family = exp::complete_pc_family(0.05, 0.08, 0.2);
    const mech::ApprovalSizeThreshold mechanism(1);
    ld::dnh::VerdictOptions opts;
    opts.eval.certify.delta = 0.01;
    opts.eval.adaptive_batch = 32;
    opts.eval.max_replications = 4000;
    const std::vector<std::size_t> sizes{31, 61};
    const auto verdict = ld::dnh::check_spg(family, mechanism, sizes, rng, opts);
    EXPECT_EQ(verdict.certification, "certified_spg") << verdict.detail;
    EXPECT_TRUE(verdict.satisfied);
    // The certified gamma is the min anytime-valid lower endpoint, which
    // must clear the floor (0 by default) for the label to be granted.
    EXPECT_GT(verdict.gamma, 0.0);
    // Family-wise budget: per-point delta times judged points (no burn-in).
    EXPECT_DOUBLE_EQ(verdict.certified_delta, 0.01 * sizes.size());
    for (const auto& pt : verdict.sweep) {
        EXPECT_TRUE(pt.certified);
        EXPECT_EQ(pt.cert_stop, CertStop::DecidedAbove);
        EXPECT_LE(pt.cert_gain_lo, pt.gain);
        EXPECT_GE(pt.cert_gain_hi, pt.gain);
    }
}

TEST(CertifiedVerdicts, StarFamilyEarnsCertifiedViolation) {
    Rng rng(8);
    const auto family = exp::star_family(0.75, 0.55, 0.05);
    const mech::BestNeighbour mechanism;
    ld::dnh::VerdictOptions opts;
    opts.eval.certify.delta = 0.01;
    opts.eval.adaptive_batch = 16;
    opts.eval.max_replications = 2000;
    const auto verdict =
        ld::dnh::check_dnh(family, mechanism, {65, 129}, rng, opts);
    EXPECT_EQ(verdict.certification, "certified_violation") << verdict.detail;
    EXPECT_FALSE(verdict.satisfied);
}

TEST(CertifiedVerdicts, TinyBudgetsAreInconclusiveNotWrong) {
    Rng rng(9);
    const auto family = exp::complete_pc_family(0.05, 0.08, 0.2);
    const mech::ApprovalSizeThreshold mechanism(1);
    ld::dnh::VerdictOptions opts;
    opts.eval.certify.delta = 0.01;
    opts.eval.adaptive_batch = 4;
    opts.eval.max_replications = 4;  // cannot decide anything at t = 4
    const auto verdict =
        ld::dnh::check_dnh(family, mechanism, {31, 61}, rng, opts);
    EXPECT_EQ(verdict.certification, "inconclusive(budget_exhausted)")
        << verdict.detail;
}

TEST(CertifiedVerdicts, UncertifiedRunsLeaveTheLabelEmpty) {
    Rng rng(10);
    const auto family = exp::complete_pc_family(0.05, 0.08, 0.2);
    const mech::ApprovalSizeThreshold mechanism(1);
    ld::dnh::VerdictOptions opts;
    opts.eval.replications = 16;
    const auto verdict =
        ld::dnh::check_dnh(family, mechanism, {31, 61}, rng, opts);
    EXPECT_TRUE(verdict.certification.empty());
    EXPECT_EQ(verdict.certified_delta, 0.0);
    for (const auto& pt : verdict.sweep) EXPECT_FALSE(pt.certified);
}

// Sweep-spec plumbing -------------------------------------------------------

TEST(CertifiedSweep, SpecParsesCertifyOptions) {
    const auto spec = exp::SweepSpec::from_json(json::parse(R"({
      "name": "certified",
      "axes": {"n": [20], "alpha": [0.05], "graph": ["complete"],
               "competencies": ["uniform:0.3,0.7"], "mechanism": ["threshold:1"]},
      "options": {"certify_gamma": 0.03, "certify_delta": 0.02,
                  "certify_boundary": "hoeffding"}
    })"));
    EXPECT_DOUBLE_EQ(spec.eval.certify.gamma, 0.03);
    EXPECT_DOUBLE_EQ(spec.eval.certify.delta, 0.02);
    EXPECT_EQ(spec.certify_boundary, "hoeffding");

    auto parse_options = [](const char* options_text) {
        std::string text = R"({"name": "x", "axes": {"n": [20], "alpha": [0.05],
          "graph": ["complete"], "competencies": ["uniform:0.3,0.7"],
          "mechanism": ["threshold:1"]}, "options": )";
        text += options_text;
        text += "}";
        return exp::SweepSpec::from_json(json::parse(text));
    };
    EXPECT_THROW(parse_options(R"({"certify_delta": 1.0})"), exp::SweepError);
    EXPECT_THROW(parse_options(R"({"certify_delta": -0.1})"), exp::SweepError);
    EXPECT_THROW(parse_options(R"({"certify_boundary": "gaussian"})"),
                 exp::SweepError);
}

TEST(CertifiedSweep, FingerprintCoversCertifyFields) {
    auto base = exp::SweepSpec::from_json(json::parse(R"({
      "name": "fp", "axes": {"n": [20], "alpha": [0.05], "graph": ["complete"],
      "competencies": ["uniform:0.3,0.7"], "mechanism": ["threshold:1"]}
    })"));
    auto gamma = base, delta = base, boundary = base;
    gamma.eval.certify.gamma = 0.05;
    delta.eval.certify.delta = 0.01;
    boundary.certify_boundary = "hoeffding";
    EXPECT_NE(base.fingerprint(), gamma.fingerprint());
    EXPECT_NE(base.fingerprint(), delta.fingerprint());
    EXPECT_NE(base.fingerprint(), boundary.fingerprint());
    EXPECT_NE(gamma.fingerprint(), delta.fingerprint());
}

TEST(CertifiedSweep, RowHeadersEndWithCertColumns) {
    const auto& headers = exp::SweepEngine::row_headers();
    ASSERT_EQ(headers.size(), 21u);
    EXPECT_EQ(headers[headers.size() - 3], "cert_gain_lo");
    EXPECT_EQ(headers[headers.size() - 2], "cert_gain_hi");
    EXPECT_EQ(headers.back(), "cert_stop");
}

// CLI flag parsing ----------------------------------------------------------

TEST(CertifiedCli, ParsesCertifyAndBoundaryFlags) {
    const auto options = ld::cli::parse_options(
        {"--n", "50", "--certify", "0.05", "0.01", "--cs-boundary", "hoeffding"});
    EXPECT_DOUBLE_EQ(options.eval.certify.gamma, 0.05);
    EXPECT_DOUBLE_EQ(options.eval.certify.delta, 0.01);
    EXPECT_EQ(options.eval.certify.boundary, CsBoundary::Hoeffding);
    // Defaults leave certification off.
    EXPECT_EQ(ld::cli::parse_options({}).eval.certify.delta, 0.0);
}

TEST(CertifiedCli, RejectsMalformedCertifyFlags) {
    using ld::cli::SpecError;
    using ld::cli::parse_options;
    EXPECT_THROW(parse_options({"--certify", "0.05"}), SpecError);
    EXPECT_THROW(parse_options({"--certify", "0.05", "1.5"}), SpecError);
    EXPECT_THROW(parse_options({"--certify", "0.05", "0"}), SpecError);
    EXPECT_THROW(parse_options({"--cs-boundary", "gaussian"}), SpecError);
}

}  // namespace
