// Paper-level integration tests: each checks one claim of the paper
// end-to-end through the library (instance → mechanism → delegation →
// tally → gain).

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "ld/delegation/realize.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/experiments/workloads.hpp"
#include "ld/mech/approval_size_threshold.hpp"
#include "ld/mech/best_neighbour.hpp"
#include "ld/mech/complete_graph_threshold.hpp"
#include "ld/mech/d_out_sampling.hpp"
#include "ld/mech/fraction_approved.hpp"
#include "ld/theory/theorems.hpp"

namespace {

namespace election = ld::election;
namespace experiments = ld::experiments;
namespace g = ld::graph;
namespace mech = ld::mech;
using ld::rng::Rng;

TEST(Figure1, StarLossApproachesOneQuarter) {
    // The paper's star: direct voting → correct w.h.p.; BestNeighbour
    // delegation concentrates on the centre (p = 3/4) ⇒ gain → −1/4.
    Rng rng(1);
    const auto inst = experiments::star_instance(1001, 0.75, 0.55, 0.05);
    const mech::BestNeighbour m;
    election::EvalOptions opts;
    opts.replications = 8;  // the delegation graph is deterministic here
    opts.tally_epsilon = 0.0;  // equality with the exact dictator value
    const auto report = election::estimate_gain(m, inst, rng, opts);
    EXPECT_GT(report.pd, 0.9);             // Condorcet: leaves alone win
    EXPECT_NEAR(report.pm.value, 0.75, 1e-9);  // dictator centre
    EXPECT_LT(report.gain, -0.15);
    EXPECT_NEAR(-ld::theory::figure1_asymptotic_loss(0.75), -0.25, 1e-12);
}

TEST(Figure1, LossIsMonotoneInN) {
    Rng rng(2);
    const mech::BestNeighbour m;
    election::EvalOptions opts;
    opts.replications = 4;
    double prev_gain = 0.0;
    for (std::size_t n : {65u, 257u, 1025u}) {
        const auto inst = experiments::star_instance(n, 0.75, 0.55, 0.05);
        const auto report = election::estimate_gain(m, inst, rng, opts);
        EXPECT_LT(report.gain, prev_gain + 1e-9) << n;
        prev_gain = report.gain;
    }
    EXPECT_NEAR(prev_gain, -0.25, 0.05);
}

TEST(Figure2, WorkedExampleDelegationStructure) {
    Rng rng(3);
    const auto inst = experiments::figure2_instance();
    const mech::ApprovalSizeThreshold m(1);  // Example 1 with j = 0 (clamped)
    for (int rep = 0; rep < 50; ++rep) {
        const auto out = ld::delegation::realize(m, inst, rng);
        // v1 (vertex 0, p = 0.8) is the unique top voter: always a sink.
        EXPECT_EQ(out.action(0).kind, mech::ActionKind::Vote);
        // Everyone else has a strictly better neighbour at α = 0.01 ⇒
        // everyone else delegates (the complete graph shows all voters).
        EXPECT_EQ(out.stats().delegator_count, 8u);
        // Delegation graph must be acyclic and flow upwards in competency.
        EXPECT_TRUE(out.as_digraph().is_acyclic_up_to_self_loops());
        for (g::Vertex v = 1; v < 9; ++v) {
            const auto& a = out.action(v);
            ASSERT_EQ(a.kind, mech::ActionKind::Delegate);
            EXPECT_GE(inst.competency(a.targets[0]), inst.competency(v) + 0.01);
        }
        // All votes pool at sinks and sum to 9.
        EXPECT_EQ(out.stats().cast_weight, 9u);
    }
}

TEST(Theorem2, Algorithm1BeatsDirectVotingOnKn) {
    // SPG regime: PC = a competencies on K_n, sqrt threshold.
    Rng rng(4);
    const auto m = mech::CompleteGraphThreshold::with_sqrt_threshold();
    election::EvalOptions opts;
    opts.replications = 120;
    for (std::size_t n : {101u, 301u}) {
        const auto inst = experiments::complete_pc_instance(rng, n, 0.05, 0.06, 0.3);
        const auto report = election::estimate_gain(m, inst, rng, opts);
        EXPECT_GT(report.gain, 0.0) << "n=" << n;
        // Delegate restriction holds: a constant fraction delegates.
        EXPECT_GT(report.mean_delegators, static_cast<double>(n) / 10.0);
    }
}

TEST(Theorem2, GainGrowsWithDelegationVolume) {
    // Lemma 7: expectation increases by α per delegation, so more
    // delegation (smaller threshold) should not hurt P^M on PC instances.
    Rng rng(5);
    const auto inst = experiments::complete_pc_instance(rng, 201, 0.05, 0.06, 0.3);
    election::EvalOptions opts;
    opts.replications = 150;
    const auto sparse = mech::CompleteGraphThreshold::with_linear_threshold(1.0 / 3.0);
    const auto dense = mech::CompleteGraphThreshold::with_log_threshold();
    const auto r_sparse = election::estimate_gain(sparse, inst, rng, opts);
    const auto r_dense = election::estimate_gain(dense, inst, rng, opts);
    EXPECT_GE(r_dense.mean_delegators, r_sparse.mean_delegators);
    EXPECT_GE(r_dense.gain, r_sparse.gain - 0.02);
}

TEST(Theorem3, Algorithm2BeatsDirectVotingOnRandomDRegular) {
    Rng rng(6);
    election::EvalOptions opts;
    opts.replications = 120;
    const std::size_t n = 200, d = 16;
    const auto inst = experiments::d_regular_instance(rng, n, d, 0.05, 0.06, 0.3);
    const mech::DOutSampling m(d, 2, mech::SampleSource::Neighbourhood);
    const auto report = election::estimate_gain(m, inst, rng, opts);
    EXPECT_GT(report.gain, -0.005);
    EXPECT_GT(report.mean_delegators, 10.0);
}

TEST(Theorem3, PopulationSamplingAlsoGains) {
    Rng rng(7);
    election::EvalOptions opts;
    opts.replications = 120;
    const auto inst = experiments::complete_pc_instance(rng, 200, 0.05, 0.06, 0.3);
    const auto m = mech::DOutSampling::with_fraction(16, 0.125, mech::SampleSource::Population);
    const auto report = election::estimate_gain(m, inst, rng, opts);
    EXPECT_GT(report.gain, 0.0);
}

TEST(Theorem5, FractionMechanismOnMinDegreeGraphs) {
    Rng rng(8);
    election::EvalOptions opts;
    opts.replications = 100;
    const auto regime = ld::theory::theorem5_regime(256, 0.5);
    const auto inst = experiments::min_degree_instance(rng, 256, regime.min_degree, 0.05,
                                                       0.35, 0.85);
    const mech::FractionApproved m(1.0 / 3.0);
    const auto report = election::estimate_gain(m, inst, rng, opts);
    // DNH side: no catastrophic loss; typically a clear gain.
    EXPECT_GT(report.gain, -0.02);
}

TEST(VarianceStory, DelegationToDictatorCollapsesVariance) {
    // The title claim in microcosm: concentrating weight trades variance
    // for correlation.  Var under the dictator = w²p(1−p) with w = n,
    // versus Σ p_i(1−p_i) ≈ n/4 under direct voting — but the *decision*
    // quality collapses because the margin no longer grows.
    Rng rng(9);
    const auto inst = experiments::star_instance(101, 0.75, 0.52, 0.05);
    const mech::BestNeighbour m;
    election::EvalOptions opts;
    opts.replications = 8;
    const auto var = election::estimate_variance(m, inst, rng, opts);
    // Dictator: Var = 101² · 0.75 · 0.25.
    EXPECT_NEAR(var.mean_conditional_variance, 101.0 * 101.0 * 0.1875, 1.0);
    EXPECT_GT(var.mean_conditional_variance, 10.0 * var.direct_variance);
}

TEST(VarianceStory, ThresholdMechanismKeepsVarianceOfTheRightOrder) {
    Rng rng(10);
    const auto inst = experiments::complete_pc_instance(rng, 200, 0.05, 0.1, 0.2);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.replications = 60;
    const auto var = election::estimate_variance(m, inst, rng, opts);
    // Variance grows vs direct (weights > 1) but stays o(n²) — far from
    // the dictator's collapse.
    EXPECT_LT(var.mean_conditional_variance, 0.05 * 200.0 * 200.0);
    EXPECT_GT(var.mean_conditional_variance, var.direct_variance);
}

}  // namespace
