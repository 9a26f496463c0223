// Tests for the practical extensions: token-weighted voting, cycle
// policies, noisy approvals, and the probabilistic-competency evaluator.

#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.hpp"
#include "ld/delegation/realize.hpp"
#include "ld/election/distributional.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/tally.hpp"
#include "ld/mech/approval_size_threshold.hpp"
#include "ld/mech/direct.hpp"
#include "ld/mech/noisy_threshold.hpp"
#include "ld/model/competency_gen.hpp"
#include "support/expect.hpp"

namespace {

namespace election = ld::election;
namespace g = ld::graph;
namespace mech = ld::mech;
namespace model = ld::model;
using ld::delegation::CyclePolicy;
using ld::delegation::DelegationOutcome;
using ld::mech::Action;
using ld::rng::Rng;
using ld::support::ContractViolation;

TEST(TokenWeights, InitialWeightsPoolAtSinks) {
    // 0 -> 2, 1 -> 2, 2 votes; tokens {5, 3, 2}.
    std::vector<Action> actions{Action::delegate_to(2), Action::delegate_to(2),
                                Action::vote()};
    const std::vector<std::uint64_t> tokens{5, 3, 2};
    const DelegationOutcome out(std::move(actions), tokens);
    EXPECT_EQ(out.weights()[2], 10u);
    EXPECT_EQ(out.stats().cast_weight, 10u);
    EXPECT_EQ(out.stats().max_weight, 10u);
}

TEST(TokenWeights, ZeroTokenSinkCastsNothing) {
    std::vector<Action> actions{Action::vote(), Action::vote()};
    const std::vector<std::uint64_t> tokens{0, 7};
    const DelegationOutcome out(std::move(actions), tokens);
    EXPECT_EQ(out.voting_sinks(), (std::vector<g::Vertex>{1}));
    EXPECT_EQ(out.stats().voting_sink_count, 1u);
}

TEST(TokenWeights, WeightVectorSizeIsValidated) {
    std::vector<Action> actions{Action::vote(), Action::vote()};
    const std::vector<std::uint64_t> tokens{1, 2, 3};
    EXPECT_THROW(DelegationOutcome(std::move(actions), tokens), ContractViolation);
}

TEST(TokenWeights, WeightedDirectProbabilityMatchesWeightedSum) {
    Rng rng(1);
    const model::Instance inst(g::make_complete(5),
                               model::CompetencyVector({0.9, 0.3, 0.3, 0.3, 0.3}), 0.05);
    // Voter 0 holds the majority of tokens: weighted P^D = 0.9.
    const std::vector<std::uint64_t> tokens{10, 1, 1, 1, 1};
    EXPECT_NEAR(election::exact_direct_probability_weighted(inst, tokens), 0.9, 1e-12);
    // Unweighted: 0.9 voter is outvoted by four 0.3s most of the time.
    EXPECT_LT(election::exact_direct_probability(inst), 0.5);
}

TEST(TokenWeights, EvaluatorThreadsWeightsThrough) {
    Rng rng(2);
    const model::Instance inst(g::make_complete(6),
                               model::uniform_competencies(rng, 6, 0.3, 0.7), 0.05);
    election::EvalOptions opts;
    opts.replications = 20;
    opts.initial_weights = {3, 1, 1, 1, 1, 1};
    opts.tally_epsilon = 0.0;  // equality with the exact P^D
    const mech::DirectVoting direct;
    const auto report = election::estimate_gain(direct, inst, rng, opts);
    EXPECT_NEAR(report.gain, 0.0, 1e-10);
    EXPECT_NEAR(report.pd,
                election::exact_direct_probability_weighted(inst, opts.initial_weights),
                1e-12);
}

TEST(CyclePolicy, ThrowIsTheDefault) {
    std::vector<Action> actions{Action::delegate_to(1), Action::delegate_to(0)};
    EXPECT_THROW(DelegationOutcome(std::move(actions)), ContractViolation);
}

TEST(CyclePolicy, DiscardDropsCycleVotes) {
    // 0 <-> 1 cycle; 2 feeds the cycle; 3 votes.
    std::vector<Action> actions{Action::delegate_to(1), Action::delegate_to(0),
                                Action::delegate_to(0), Action::vote()};
    const DelegationOutcome out(std::move(actions), {}, CyclePolicy::Discard);
    EXPECT_EQ(out.sink_of(0), DelegationOutcome::kNoSink);
    EXPECT_EQ(out.sink_of(1), DelegationOutcome::kNoSink);
    EXPECT_EQ(out.sink_of(2), DelegationOutcome::kNoSink);
    EXPECT_EQ(out.sink_of(3), 3u);
    EXPECT_EQ(out.stats().cast_weight, 1u);
    EXPECT_EQ(out.cycle_losses(), 3u);
}

TEST(CyclePolicy, DiscardKeepsIndependentChainsIntact) {
    // cycle {0,1}; chain 2 -> 3 (votes).
    std::vector<Action> actions{Action::delegate_to(1), Action::delegate_to(0),
                                Action::delegate_to(3), Action::vote()};
    const DelegationOutcome out(std::move(actions), {}, CyclePolicy::Discard);
    EXPECT_EQ(out.sink_of(2), 3u);
    EXPECT_EQ(out.weights()[3], 2u);
    EXPECT_EQ(out.cycle_losses(), 2u);
}

TEST(NoisyThreshold, ZeroNoiseMatchesApprovalSizeThreshold) {
    Rng rng_a(3), rng_b(3);
    const model::Instance inst(g::make_complete(20),
                               model::uniform_competencies(rng_a, 20, 0.2, 0.8), 0.05);
    const mech::NoisyThreshold noisy(2, 0.0);
    const mech::ApprovalSizeThreshold clean(2);
    EXPECT_TRUE(noisy.approval_respecting());
    // Same delegate/vote decision for every voter (targets may differ by
    // RNG stream, so compare kinds via the closed form).
    for (g::Vertex v = 0; v < 20; ++v) {
        const auto a = noisy.act(inst, v, rng_b);
        const double z = *clean.vote_directly_probability(inst, v);
        EXPECT_EQ(a.kind == mech::ActionKind::Vote, z == 1.0) << v;
    }
}

TEST(NoisyThreshold, NoiseBreaksApprovalDiscipline) {
    Rng rng(4);
    const model::Instance inst(g::make_complete(30),
                               model::uniform_competencies(rng, 30, 0.2, 0.8), 0.05);
    const mech::NoisyThreshold noisy(1, 0.3);
    EXPECT_FALSE(noisy.approval_respecting());
    bool saw_downward = false;
    for (int rep = 0; rep < 200 && !saw_downward; ++rep) {
        for (g::Vertex v = 0; v < 30; ++v) {
            const auto a = noisy.act(inst, v, rng);
            if (a.kind == mech::ActionKind::Delegate &&
                inst.competency(a.targets[0]) < inst.competency(v) + inst.alpha()) {
                saw_downward = true;
            }
        }
    }
    EXPECT_TRUE(saw_downward);
    EXPECT_THROW(mech::NoisyThreshold(1, 0.5), ContractViolation);
}

TEST(NoisyThreshold, EvaluatorRunsWithDiscardPolicy) {
    Rng rng(5);
    const model::Instance inst(g::make_complete(40),
                               model::uniform_competencies(rng, 40, 0.2, 0.8), 0.05);
    const mech::NoisyThreshold noisy(1, 0.25);
    election::EvalOptions opts;
    opts.replications = 60;
    opts.cycle_policy = CyclePolicy::Discard;
    const auto report = election::estimate_gain(noisy, inst, rng, opts);
    EXPECT_GE(report.pm.value, 0.0);
    EXPECT_LE(report.pm.value, 1.0);
}

TEST(NoisyThreshold, MoreNoiseMeansSmallerGain) {
    Rng rng(6);
    const model::Instance inst(g::make_complete(101),
                               model::pc_competencies(rng, 101, 0.02, 0.2), 0.05);
    election::EvalOptions opts;
    opts.replications = 150;
    opts.cycle_policy = CyclePolicy::Discard;
    const mech::NoisyThreshold clean(1, 0.0);
    const mech::NoisyThreshold noisy(1, 0.4);
    const auto g_clean = election::estimate_gain(clean, inst, rng, opts);
    const auto g_noisy = election::estimate_gain(noisy, inst, rng, opts);
    EXPECT_GT(g_clean.gain, g_noisy.gain);
}

TEST(Distributional, DirectVotingHasZeroExpectedGain) {
    Rng rng(7);
    const auto graph = g::make_complete(25);
    const mech::DirectVoting direct;
    const auto sampler = [](std::size_t n, Rng& r) {
        return model::uniform_competencies(r, n, 0.3, 0.7);
    };
    election::EvalOptions opts;
    opts.replications = 5;
    opts.tally_epsilon = 0.0;  // equality with the exact P^D
    const auto report = election::estimate_gain_over_distribution(
        direct, graph, 0.05, sampler, rng, 20, opts);
    EXPECT_NEAR(report.gain.value, 0.0, 1e-10);
    EXPECT_NEAR(report.worst_gain, 0.0, 1e-10);
    EXPECT_EQ(report.draws, 20u);
}

TEST(Distributional, ThresholdMechanismGainsOnHardDistributions) {
    Rng rng(8);
    const auto graph = g::make_complete(80);
    const mech::ApprovalSizeThreshold m(1);
    // Halpern-style: competencies drawn around 1/2 each election.
    const auto sampler = [](std::size_t n, Rng& r) {
        return model::pc_competencies(r, n, 0.02, 0.25);
    };
    election::EvalOptions opts;
    opts.replications = 30;
    const auto report = election::estimate_gain_over_distribution(
        m, graph, 0.05, sampler, rng, 12, opts);
    EXPECT_GT(report.gain.value, 0.1);
    EXPECT_GE(report.best_gain, report.gain.value);
    EXPECT_LE(report.worst_gain, report.gain.value);
    EXPECT_GT(report.pm.value, report.pd.value);
}

TEST(Distributional, InputValidation) {
    Rng rng(9);
    const auto graph = g::make_complete(5);
    const mech::DirectVoting direct;
    EXPECT_THROW(election::estimate_gain_over_distribution(
                     direct, graph, 0.05, nullptr, rng, 5),
                 ContractViolation);
    const auto sampler = [](std::size_t n, Rng& r) {
        return model::uniform_competencies(r, n, 0.3, 0.7);
    };
    EXPECT_THROW(election::estimate_gain_over_distribution(direct, graph, 0.05, sampler,
                                                           rng, 0),
                 ContractViolation);
}

}  // namespace
