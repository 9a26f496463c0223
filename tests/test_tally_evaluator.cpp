// Tests for exact tallying and the Monte-Carlo evaluator: agreement between
// the exact inner step and vote sampling, gain estimation, and the
// law-of-total-variance decomposition.

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "ld/delegation/realize.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/tally.hpp"
#include "ld/mech/approval_size_threshold.hpp"
#include "ld/mech/best_neighbour.hpp"
#include "ld/mech/direct.hpp"
#include "ld/mech/multi_delegate.hpp"
#include "ld/model/competency_gen.hpp"
#include "prob/poisson_binomial.hpp"

namespace {

namespace g = ld::graph;
namespace mech = ld::mech;
namespace model = ld::model;
using ld::delegation::DelegationOutcome;
using ld::mech::Action;
using ld::rng::Rng;

model::Instance uniform_complete(std::size_t n, std::uint64_t seed, double lo = 0.2,
                                 double hi = 0.8, double alpha = 0.05) {
    Rng rng(seed);
    return model::Instance(g::make_complete(n),
                           model::uniform_competencies(rng, n, lo, hi), alpha);
}

TEST(Tally, NoDelegationMatchesPoissonBinomial) {
    const auto inst = uniform_complete(15, 1);
    std::vector<Action> actions(15, Action::vote());
    const DelegationOutcome out(std::move(actions));
    const double exact =
        ld::election::exact_correct_probability(out, inst.competencies());
    EXPECT_NEAR(exact, ld::prob::direct_majority_probability(inst.competencies().values()),
                1e-12);
}

TEST(Tally, DictatorOutcomeIsTheDictatorsCompetency) {
    const model::CompetencyVector p({0.75, 0.52, 0.52, 0.52, 0.52});
    std::vector<Action> actions(5, Action::delegate_to(0));
    actions[0] = Action::vote();
    const DelegationOutcome out(std::move(actions));
    EXPECT_NEAR(ld::election::exact_correct_probability(out, p), 0.75, 1e-12);
}

TEST(Tally, AllAbstainGivesZero) {
    // Voter 1 delegates (making abstention legal), 0 abstains: 0 votes cast
    // except voter 1's chain is discarded too.
    const model::CompetencyVector p({0.9, 0.5});
    std::vector<Action> actions{Action::abstain(), Action::delegate_to(0)};
    const DelegationOutcome out(std::move(actions));
    EXPECT_EQ(ld::election::exact_correct_probability(out, p), 0.0);
}

TEST(Tally, ConditionalMeanAndVariance) {
    const model::CompetencyVector p({0.8, 0.6, 0.5});
    // 2 -> 0; sinks: 0 (weight 2, p .8), 1 (weight 1, p .6).
    std::vector<Action> actions{Action::vote(), Action::vote(), Action::delegate_to(0)};
    const DelegationOutcome out(std::move(actions));
    EXPECT_NEAR(ld::election::conditional_vote_mean(out, p), 2 * 0.8 + 0.6, 1e-12);
    EXPECT_NEAR(ld::election::conditional_vote_variance(out, p),
                4 * 0.8 * 0.2 + 0.6 * 0.4, 1e-12);
}

TEST(Tally, SampledFrequencyMatchesExactProbability) {
    Rng rng(2);
    const auto inst = uniform_complete(25, 3);
    const mech::ApprovalSizeThreshold m(1);
    const auto out = ld::delegation::realize(m, inst, rng);
    const double exact =
        ld::election::exact_correct_probability(out, inst.competencies());
    int hits = 0;
    const int trials = 40000;
    for (int t = 0; t < trials; ++t) {
        if (ld::election::sample_outcome_correct(out, inst.competencies(), rng)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / trials, exact, 0.01);
}

TEST(Tally, SampleCorrectVoteCountHasTheRightMean) {
    Rng rng(3);
    const auto inst = uniform_complete(20, 4);
    const mech::ApprovalSizeThreshold m(1);
    const auto out = ld::delegation::realize(m, inst, rng);
    const double mean = ld::election::conditional_vote_mean(out, inst.competencies());
    double acc = 0.0;
    const int trials = 20000;
    for (int t = 0; t < trials; ++t) {
        acc += static_cast<double>(
            ld::election::sample_correct_vote_count(out, inst.competencies(), rng));
    }
    EXPECT_NEAR(acc / trials, mean, 0.1);
}

TEST(Tally, MultiDelegatePropagationMatchesHandComputation) {
    // Voter 3 delegates to {0, 1, 2} with deterministic competencies:
    // p = {1, 1, 0}: majority of delegates is always correct.
    const model::CompetencyVector p({1.0, 1.0, 0.0, 0.3});
    std::vector<Action> actions{Action::vote(), Action::vote(), Action::vote(),
                                Action::delegate_to_many({0, 1, 2})};
    const DelegationOutcome out(std::move(actions));
    Rng rng(5);
    int correct_total = 0;
    for (int t = 0; t < 2000; ++t) {
        // Votes: 1, 1, 0, and voter 3 votes the majority (1): 3 of 4 > 2.
        if (ld::election::sample_outcome_correct(out, p, rng)) ++correct_total;
    }
    EXPECT_EQ(correct_total, 2000);
}

TEST(Evaluator, ExactDirectMatchesPoissonBinomial) {
    const auto inst = uniform_complete(30, 6);
    EXPECT_NEAR(ld::election::exact_direct_probability(inst),
                ld::prob::direct_majority_probability(inst.competencies().values()),
                1e-15);
    EXPECT_NEAR(ld::election::exact_direct_mean_votes(inst),
                inst.competencies().mean() * 30.0, 1e-12);
}

TEST(Evaluator, NaiveAndRaoBlackwellAgree) {
    Rng rng(7);
    const auto inst = uniform_complete(40, 8);
    const mech::ApprovalSizeThreshold m(1);
    ld::election::EvalOptions opts;
    opts.replications = 800;
    const auto rb = ld::election::estimate_correct_probability(m, inst, rng, opts);
    opts.replications = 20000;
    const auto naive = ld::election::estimate_correct_probability_naive(m, inst, rng, opts);
    EXPECT_NEAR(rb.value, naive.value, 0.02);
    EXPECT_EQ(rb.replications, 800u);
}

TEST(Evaluator, RaoBlackwellHasSmallerPerReplicationVariance) {
    Rng rng(9);
    const auto inst = uniform_complete(40, 10);
    const mech::ApprovalSizeThreshold m(1);
    ld::election::EvalOptions opts;
    opts.replications = 500;
    const auto rb = ld::election::estimate_correct_probability(m, inst, rng, opts);
    const auto naive =
        ld::election::estimate_correct_probability_naive(m, inst, rng, opts);
    EXPECT_LT(rb.std_error, naive.std_error);
}

TEST(Evaluator, GainReportIsInternallyConsistent) {
    Rng rng(11);
    const auto inst = uniform_complete(50, 12);
    const mech::ApprovalSizeThreshold m(1);
    ld::election::EvalOptions opts;
    opts.replications = 200;
    const auto report = ld::election::estimate_gain(m, inst, rng, opts);
    EXPECT_NEAR(report.gain, report.pm.value - report.pd, 1e-12);
    EXPECT_NEAR(report.gain_ci.lo, report.pm.ci.lo - report.pd, 1e-12);
    EXPECT_LE(report.pm.value, 1.0);
    EXPECT_GE(report.pm.value, 0.0);
    EXPECT_GT(report.mean_delegators, 0.0);
    EXPECT_GE(report.mean_max_weight, 1.0);
    EXPECT_GT(report.mean_sinks, 0.0);
}

TEST(Evaluator, DirectVotingGainIsExactlyZeroUpToFp) {
    Rng rng(13);
    const auto inst = uniform_complete(35, 14);
    const mech::DirectVoting direct;
    ld::election::EvalOptions opts;
    opts.replications = 10;
    opts.tally_epsilon = 0.0;  // equality with the exact P^D
    const auto report = ld::election::estimate_gain(direct, inst, rng, opts);
    EXPECT_NEAR(report.gain, 0.0, 1e-10);
    EXPECT_NEAR(report.pm.std_error, 0.0, 1e-12);
}

TEST(Evaluator, MultiDelegateEstimationRuns) {
    Rng rng(15);
    const auto inst = uniform_complete(30, 16);
    const mech::MultiDelegate m(3, 1);
    ld::election::EvalOptions opts;
    opts.replications = 50;
    opts.inner_samples = 8;
    const auto est = ld::election::estimate_correct_probability(m, inst, rng, opts);
    EXPECT_GE(est.value, 0.0);
    EXPECT_LE(est.value, 1.0);
}

TEST(Evaluator, VarianceDecompositionLawOfTotalVariance) {
    Rng rng(17);
    const auto inst = uniform_complete(40, 18);
    const mech::ApprovalSizeThreshold m(1);
    ld::election::EvalOptions opts;
    opts.replications = 400;
    const auto var = ld::election::estimate_variance(m, inst, rng, opts);
    EXPECT_NEAR(var.total_variance,
                var.mean_conditional_variance + var.variance_of_conditional_mean, 1e-9);
    EXPECT_GT(var.direct_variance, 0.0);

    // Cross-check the total variance against brute-force sampling of the
    // correct-vote count (delegation graph + votes jointly random).
    ld::stats::RunningStats brute;
    for (int t = 0; t < 4000; ++t) {
        const auto out = ld::delegation::realize(m, inst, rng);
        brute.add(static_cast<double>(
            ld::election::sample_correct_vote_count(out, inst.competencies(), rng)));
    }
    EXPECT_NEAR(brute.variance(), var.total_variance,
                0.25 * var.total_variance + 1.0);
}

TEST(Evaluator, VarianceOfDirectVotingMatchesFormula) {
    Rng rng(19);
    const auto inst = uniform_complete(30, 20);
    const mech::DirectVoting direct;
    ld::election::EvalOptions opts;
    opts.replications = 10;
    const auto var = ld::election::estimate_variance(direct, inst, rng, opts);
    EXPECT_NEAR(var.mean_conditional_variance, var.direct_variance, 1e-9);
    EXPECT_NEAR(var.variance_of_conditional_mean, 0.0, 1e-9);
}

}  // namespace
