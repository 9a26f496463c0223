// Parameterized property suites: library-wide invariants checked across a
// grid of (mechanism × topology × size) combinations:
//
//  * delegation graphs are acyclic and flow strictly upward in competency,
//  * votes are conserved (weights sum to n when nobody abstains),
//  * the exact tally is a probability and matches sampled frequencies,
//  * direct voting is a fixed point (gain ≡ 0),
//  * every local mechanism delegates only within the neighbourhood.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <tuple>

#include "graph/generators.hpp"
#include "ld/delegation/realize.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/tally.hpp"
#include "ld/mech/approval_size_threshold.hpp"
#include "ld/mech/best_neighbour.hpp"
#include "ld/mech/complete_graph_threshold.hpp"
#include "ld/mech/d_out_sampling.hpp"
#include "ld/mech/direct.hpp"
#include "ld/mech/fraction_approved.hpp"
#include "ld/model/competency_gen.hpp"

namespace {

namespace g = ld::graph;
namespace mech = ld::mech;
namespace model = ld::model;
using ld::rng::Rng;

enum class Topology { Complete, Star, DRegular, ErdosRenyi, Barabasi, Path };
enum class MechKind { Direct, Threshold1, Threshold3, Sqrt, Fraction, Best, DOut };

std::string topology_name(Topology t) {
    switch (t) {
        case Topology::Complete: return "Complete";
        case Topology::Star: return "Star";
        case Topology::DRegular: return "DRegular";
        case Topology::ErdosRenyi: return "ErdosRenyi";
        case Topology::Barabasi: return "Barabasi";
        case Topology::Path: return "Path";
    }
    return "unknown";
}

std::string mech_name(MechKind m) {
    switch (m) {
        case MechKind::Direct: return "Direct";
        case MechKind::Threshold1: return "Threshold1";
        case MechKind::Threshold3: return "Threshold3";
        case MechKind::Sqrt: return "Sqrt";
        case MechKind::Fraction: return "Fraction";
        case MechKind::Best: return "Best";
        case MechKind::DOut: return "DOut";
    }
    return "unknown";
}

g::Graph make_topology(Topology t, std::size_t n, Rng& rng) {
    switch (t) {
        case Topology::Complete: return g::make_complete(n);
        case Topology::Star: return g::make_star(n);
        case Topology::DRegular: return g::make_random_d_regular(rng, n + (n * 5) % 2, 5);
        case Topology::ErdosRenyi: return g::make_erdos_renyi_gnp(rng, n, 0.15);
        case Topology::Barabasi: return g::make_barabasi_albert(rng, n, 2);
        case Topology::Path: return g::make_path(n);
    }
    return g::Graph::empty(0);
}

std::unique_ptr<mech::Mechanism> make_mechanism(MechKind m) {
    switch (m) {
        case MechKind::Direct: return std::make_unique<mech::DirectVoting>();
        case MechKind::Threshold1:
            return std::make_unique<mech::ApprovalSizeThreshold>(1);
        case MechKind::Threshold3:
            return std::make_unique<mech::ApprovalSizeThreshold>(3);
        case MechKind::Sqrt:
            return std::make_unique<mech::CompleteGraphThreshold>(
                mech::CompleteGraphThreshold::with_sqrt_threshold());
        case MechKind::Fraction: return std::make_unique<mech::FractionApproved>();
        case MechKind::Best: return std::make_unique<mech::BestNeighbour>();
        case MechKind::DOut:
            return std::make_unique<mech::DOutSampling>(5, 1,
                                                        mech::SampleSource::Neighbourhood);
    }
    return nullptr;
}

using GridParam = std::tuple<Topology, MechKind, std::size_t>;

class MechanismTopologyGrid : public ::testing::TestWithParam<GridParam> {
protected:
    static std::uint64_t seed_of(const GridParam& p) {
        const auto [t, m, n] = p;
        return 1000003ULL * static_cast<std::uint64_t>(t) +
               101ULL * static_cast<std::uint64_t>(m) + n;
    }
};

TEST_P(MechanismTopologyGrid, DelegationFlowsUpwardAndConservesVotes) {
    const auto [topology, kind, n] = GetParam();
    Rng rng(seed_of(GetParam()));
    const auto graph = make_topology(topology, n, rng);
    const auto inst = model::Instance(
        graph, model::uniform_competencies(rng, graph.vertex_count(), 0.15, 0.85), 0.05);
    const auto mechanism = make_mechanism(kind);

    for (int rep = 0; rep < 5; ++rep) {
        const auto out = ld::delegation::realize(*mechanism, inst, rng);
        ASSERT_TRUE(out.functional());

        // (1) acyclic, (2) upward flow, (3) locality.
        EXPECT_TRUE(out.as_digraph().is_acyclic_up_to_self_loops());
        for (g::Vertex v = 0; v < inst.voter_count(); ++v) {
            const auto& a = out.action(v);
            if (a.kind != mech::ActionKind::Delegate) continue;
            const g::Vertex t = a.targets.front();
            EXPECT_GE(inst.competency(t), inst.competency(v) + inst.alpha())
                << mech_name(kind) << " on " << topology_name(topology);
            EXPECT_TRUE(inst.graph().has_edge(v, t))
                << mech_name(kind) << " delegated outside the neighbourhood";
        }

        // (4) vote conservation.
        const auto& w = out.weights();
        EXPECT_EQ(std::accumulate(w.begin(), w.end(), std::uint64_t{0}),
                  inst.voter_count());
        EXPECT_EQ(out.stats().cast_weight, inst.voter_count());
        EXPECT_EQ(out.stats().voting_sink_count + out.stats().delegator_count,
                  inst.voter_count());

        // (5) the exact tally is a probability.
        const double p = ld::election::exact_correct_probability(out, inst.competencies());
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);

        // (6) longest path is bounded by the α-band count.
        EXPECT_LE(out.stats().longest_path, inst.partition_complexity_bound());
    }
}

TEST_P(MechanismTopologyGrid, GainIsBoundedAndDirectIsNeutral) {
    const auto [topology, kind, n] = GetParam();
    Rng rng(seed_of(GetParam()) + 7);
    const auto graph = make_topology(topology, n, rng);
    const auto inst = model::Instance(
        graph, model::uniform_competencies(rng, graph.vertex_count(), 0.15, 0.85), 0.05);
    const auto mechanism = make_mechanism(kind);

    ld::election::EvalOptions opts;
    opts.replications = 20;
    opts.tally_epsilon = 0.0;  // direct voting must equal the exact P^D
    const auto report = ld::election::estimate_gain(*mechanism, inst, rng, opts);
    EXPECT_GE(report.gain, -1.0);
    EXPECT_LE(report.gain, 1.0);
    EXPECT_GE(report.pm.value, 0.0);
    EXPECT_LE(report.pm.value, 1.0);
    if (kind == MechKind::Direct) {
        EXPECT_NEAR(report.gain, 0.0, 1e-10);
    }
}

std::vector<GridParam> make_grid() {
    std::vector<GridParam> grid;
    for (Topology t : {Topology::Complete, Topology::Star, Topology::DRegular,
                       Topology::ErdosRenyi, Topology::Barabasi, Topology::Path}) {
        for (MechKind m : {MechKind::Direct, MechKind::Threshold1, MechKind::Threshold3,
                           MechKind::Sqrt, MechKind::Fraction, MechKind::Best,
                           MechKind::DOut}) {
            for (std::size_t n : {24u, 60u}) {
                grid.emplace_back(t, m, n);
            }
        }
    }
    return grid;
}

std::string grid_param_name(const ::testing::TestParamInfo<GridParam>& info) {
    const auto [t, m, n] = info.param;
    return topology_name(t) + "_" + mech_name(m) + "_n" + std::to_string(n);
}

INSTANTIATE_TEST_SUITE_P(Grid, MechanismTopologyGrid,
                         ::testing::ValuesIn(make_grid()), grid_param_name);

}  // namespace
