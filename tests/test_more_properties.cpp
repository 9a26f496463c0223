// Additional cross-cutting property tests:
//  * Lemma 4 (quoted from Kahng et al.): the direct-voting sum converges
//    to a normal law — checked by comparing the exact Poisson-binomial CDF
//    against the matched normal CDF at several quantiles,
//  * CappedTarget mechanism invariants,
//  * recycle-graph expectation vs an actual Algorithm-1 delegation run
//    (the Lemma 7 construction is faithful),
//  * gain monotonicity in the approval margin's information value.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "ld/delegation/realize.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/tally.hpp"
#include "ld/mech/capped_target.hpp"
#include "ld/mech/complete_graph_threshold.hpp"
#include "ld/model/competency_gen.hpp"
#include "ld/recycle/recycle_graph.hpp"
#include "prob/normal.hpp"
#include "support/expect.hpp"
#include "prob/poisson_binomial.hpp"
#include "stats/running_stats.hpp"

namespace {

namespace g = ld::graph;
namespace mech = ld::mech;
namespace model = ld::model;
namespace prob = ld::prob;
using ld::rng::Rng;

TEST(Lemma4, PoissonBinomialApproachesMatchedNormal) {
    // Bounded competencies in (beta, 1-beta): the CLT error shrinks as n
    // grows.  Compare sup-norm-ish CDF distance at a grid of points.
    Rng rng(1);
    double previous_worst = 1.0;
    for (std::size_t n : {20u, 80u, 320u, 1280u}) {
        const auto p = model::uniform_competencies(rng, n, 0.25, 0.75);
        const prob::PoissonBinomial pb(p.values());
        const double mu = pb.mean();
        const double sigma = std::sqrt(pb.variance());
        double worst = 0.0;
        for (double z = -2.5; z <= 2.5; z += 0.5) {
            const auto k = static_cast<std::size_t>(
                std::clamp(mu + z * sigma, 0.0, static_cast<double>(n)));
            // Continuity-corrected normal CDF at k.
            const double normal =
                prob::normal_cdf(static_cast<double>(k) + 0.5, mu, sigma);
            worst = std::max(worst, std::abs(pb.cdf(k) - normal));
        }
        EXPECT_LT(worst, previous_worst + 0.01) << "n=" << n;
        previous_worst = worst;
    }
    EXPECT_LT(previous_worst, 0.01);  // at n = 1280 the CLT is sharp
}

TEST(CappedTarget, NeverDelegatesIntoHubs) {
    Rng rng(2);
    const auto graph = g::make_barabasi_albert(rng, 300, 4);
    const model::Instance inst(graph, model::uniform_competencies(rng, 300, 0.2, 0.8),
                               0.05);
    const mech::CappedTarget capped(12);
    for (int rep = 0; rep < 10; ++rep) {
        const auto out = ld::delegation::realize(capped, inst, rng);
        for (g::Vertex v = 0; v < 300; ++v) {
            const auto& a = out.action(v);
            if (a.kind != mech::ActionKind::Delegate) continue;
            EXPECT_LE(inst.graph().degree(a.targets[0]), 12u);
            EXPECT_GE(inst.competency(a.targets[0]), inst.competency(v) + 0.05);
        }
    }
}

TEST(CappedTarget, ReducesMaxWeightVersusUncapped) {
    Rng rng(3);
    const auto graph = g::make_barabasi_albert(rng, 500, 5);
    const model::Instance inst(graph, model::uniform_competencies(rng, 500, 0.2, 0.8),
                               0.05);
    const mech::CappedTarget capped(15);
    const mech::CappedTarget uncapped(10000);  // effectively no cap
    ld::stats::RunningStats capped_max, uncapped_max;
    for (int rep = 0; rep < 20; ++rep) {
        capped_max.add(static_cast<double>(
            ld::delegation::realize(capped, inst, rng).stats().max_weight));
        uncapped_max.add(static_cast<double>(
            ld::delegation::realize(uncapped, inst, rng).stats().max_weight));
    }
    EXPECT_LT(capped_max.mean(), uncapped_max.mean());
}

TEST(CappedTarget, ClosedFormMatchesBehaviour) {
    Rng rng(4);
    const auto graph = g::make_star(20);
    const model::Instance inst(graph, model::star_competencies(20), 0.05);
    // Centre has degree 19 > cap: leaves cannot delegate anywhere.
    const mech::CappedTarget capped(5);
    for (g::Vertex v = 0; v < 20; ++v) {
        EXPECT_EQ(*capped.vote_directly_probability(inst, v), 1.0);
        EXPECT_EQ(capped.act(inst, v, rng).kind, mech::ActionKind::Vote);
    }
    EXPECT_THROW(mech::CappedTarget(0), ld::support::ContractViolation);
}

TEST(RecycleLemma7, ConstructionMatchesSimulatedDelegation) {
    // The recycle graph built from (instance, Algorithm 1) must predict the
    // expected number of correct votes of the *simulated* delegation
    // process (both model: delegators copy a uniformly random approved
    // voter's outcome).  On K_n the approval sets coincide exactly.
    Rng rng(5);
    const model::Instance inst(g::make_complete(80),
                               model::uniform_competencies(rng, 80, 0.2, 0.8), 0.1);
    const auto m = mech::CompleteGraphThreshold::with_sqrt_threshold();
    const auto recycle = ld::recycle::RecycleGraph::from_instance(inst, m);

    ld::stats::RunningStats simulated;
    for (int rep = 0; rep < 600; ++rep) {
        const auto out = ld::delegation::realize(m, inst, rng);
        simulated.add(
            ld::election::conditional_vote_mean(out, inst.competencies()));
    }
    EXPECT_NEAR(recycle.total_expectation(), simulated.mean(),
                4.0 * simulated.standard_error() + 0.3);
}

TEST(GainShape, LargerAlphaMeansFewerButBetterDelegations) {
    // Raising alpha shrinks approval sets (fewer delegations) but each
    // delegation jumps further in competency.  Both effects must keep the
    // invariant: delegation only flows to voters at least alpha better.
    Rng rng(6);
    for (double alpha : {0.02, 0.1, 0.25}) {
        const model::Instance inst(g::make_complete(60),
                                   model::uniform_competencies(rng, 60, 0.1, 0.9),
                                   alpha);
        const mech::CompleteGraphThreshold m =
            mech::CompleteGraphThreshold::with_log_threshold();
        const auto out = ld::delegation::realize(m, inst, rng);
        for (g::Vertex v = 0; v < 60; ++v) {
            const auto& a = out.action(v);
            if (a.kind == mech::ActionKind::Delegate) {
                EXPECT_GE(inst.competency(a.targets[0]) - inst.competency(v), alpha);
            }
        }
        // Longest chain bounded by range/alpha.
        EXPECT_LE(out.stats().longest_path,
                  static_cast<std::size_t>(std::ceil(0.8 / alpha)));
    }
}

TEST(GainShape, DelegationNeverHelpsWhenEveryoneIsEqual) {
    // With identical competencies nobody is approved (alpha > 0), so every
    // mechanism degenerates to direct voting.
    Rng rng(7);
    const model::Instance inst(g::make_complete(30),
                               model::CompetencyVector(std::vector<double>(30, 0.6)),
                               0.05);
    const mech::CompleteGraphThreshold m =
        mech::CompleteGraphThreshold::with_log_threshold();
    ld::election::EvalOptions opts;
    opts.replications = 10;
    opts.tally_epsilon = 0.0;  // equality with the exact P^D
    const auto report = ld::election::estimate_gain(m, inst, rng, opts);
    EXPECT_EQ(report.mean_delegators, 0.0);
    EXPECT_NEAR(report.gain, 0.0, 1e-12);
}

}  // namespace
