// Tests for approval sets and the Instance wrapper (paper §2.1).

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "ld/model/approval.hpp"
#include "ld/model/competency_gen.hpp"
#include "ld/model/instance.hpp"
#include "support/expect.hpp"

namespace {

namespace g = ld::graph;
namespace model = ld::model;
using ld::model::CompetencyVector;
using ld::model::Instance;
using ld::support::ContractViolation;

TEST(Approval, RequiresStrictMarginAlpha) {
    const CompetencyVector p({0.5, 0.55, 0.6});
    // p_0 + 0.05 <= p_1 holds with equality.
    EXPECT_TRUE(model::approves(p, 0, 1, 0.05));
    EXPECT_FALSE(model::approves(p, 0, 1, 0.051));
    EXPECT_TRUE(model::approves(p, 0, 2, 0.1));
    EXPECT_FALSE(model::approves(p, 2, 0, 0.01));  // never approve less competent
    EXPECT_THROW(model::approves(p, 0, 1, 0.0), ContractViolation);
}

TEST(Approval, NeighbourhoodFiltering) {
    // Star: centre 0 (p = 0.9); leaves see only the centre.
    const auto star = g::make_star(5);
    const CompetencyVector p({0.9, 0.5, 0.5, 0.89, 0.2});
    const auto leaf1 = model::approved_neighbours(star, p, 1, 0.05);
    ASSERT_EQ(leaf1.size(), 1u);
    EXPECT_EQ(leaf1[0], 0u);
    // Leaf 3 (p=0.89) does not approve the centre at alpha 0.05.
    EXPECT_TRUE(model::approved_neighbours(star, p, 3, 0.05).empty());
    // The centre approves nobody (it is the best).
    EXPECT_TRUE(model::approved_neighbours(star, p, 0, 0.05).empty());
}

TEST(Approval, CountsMatchPerVertexQueries) {
    ld::rng::Rng rng(1);
    const auto graph = g::make_erdos_renyi_gnp(rng, 60, 0.2);
    const auto p = model::uniform_competencies(rng, 60, 0.1, 0.9);
    const auto counts = model::approved_neighbour_counts(graph, p, 0.05);
    for (g::Vertex v = 0; v < 60; ++v) {
        EXPECT_EQ(counts[v], model::approved_neighbours(graph, p, v, 0.05).size());
    }
}

TEST(Approval, GlobalSetIgnoresTopology) {
    const CompetencyVector p({0.2, 0.5, 0.8, 0.9});
    const auto j0 = model::global_approval_set(p, 0, 0.1);
    EXPECT_EQ(j0, (std::vector<std::size_t>{1, 2, 3}));
    const auto j3 = model::global_approval_set(p, 3, 0.1);
    EXPECT_TRUE(j3.empty());
}

TEST(Instance, ValidatesConstruction) {
    EXPECT_THROW(Instance(g::make_complete(3), CompetencyVector({0.5, 0.5}), 0.1),
                 ContractViolation);
    EXPECT_THROW(Instance(g::make_complete(2), CompetencyVector({0.5, 0.5}), 0.0),
                 ContractViolation);
}

TEST(Instance, AccessorsAndApproval) {
    const Instance inst(g::make_complete(3), CompetencyVector({0.3, 0.5, 0.7}), 0.1);
    EXPECT_EQ(inst.voter_count(), 3u);
    EXPECT_DOUBLE_EQ(inst.alpha(), 0.1);
    EXPECT_DOUBLE_EQ(inst.competency(2), 0.7);
    const auto approved = inst.approved_neighbours(0);
    EXPECT_EQ(approved, (std::vector<g::Vertex>{1, 2}));
    const auto counts = inst.approved_neighbour_counts();
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 0u);
}

TEST(Instance, ApprovalViewMatchesFreeFunction) {
    ld::rng::Rng rng(2000);
    const std::size_t n = 2000;
    for (const double alpha : {0.01, 0.05, 0.3}) {
        SCOPED_TRACE(alpha);
        auto p = model::uniform_competencies(rng, n, 0.2, 0.8);
        const Instance inst(g::make_erdos_renyi_gnp(rng, n, 0.004), p, alpha);
        std::size_t approved = 0;
        for (g::Vertex v = 0; v < n; ++v) {
            const auto view = inst.approved_neighbours_view(v);
            const std::vector<g::Vertex> got(view.begin(), view.end());
            ASSERT_EQ(got, model::approved_neighbours(inst.graph(), p, v, alpha))
                << "voter " << v;
            approved += got.size();
        }
        EXPECT_GT(approved, 0u);
        EXPECT_LE(approved, inst.graph().edge_count());
    }
}

TEST(Instance, PartitionComplexityBoundIsCeilOneOverAlpha) {
    const Instance a(g::make_complete(2), CompetencyVector({0.4, 0.6}), 0.25);
    EXPECT_EQ(a.partition_complexity_bound(), 4u);
    const Instance b(g::make_complete(2), CompetencyVector({0.4, 0.6}), 0.3);
    EXPECT_EQ(b.partition_complexity_bound(), 4u);  // ceil(1/0.3)
}

TEST(Instance, SatisfiesGraphRestrictions) {
    const Instance inst(g::make_complete(4), CompetencyVector({0.5, 0.5, 0.5, 0.5}), 0.1);
    EXPECT_TRUE(inst.satisfies(g::GraphRestriction::complete()));
    EXPECT_TRUE(inst.satisfies(g::GraphRestriction::regular(3)));
    EXPECT_FALSE(inst.satisfies(g::GraphRestriction::min_degree(4)));
}

TEST(Instance, DescribeMentionsKeyNumbers) {
    const Instance inst(g::make_complete(4), CompetencyVector({0.5, 0.5, 0.5, 0.5}), 0.1);
    const std::string d = inst.describe();
    EXPECT_NE(d.find("n=4"), std::string::npos);
    EXPECT_NE(d.find("m=6"), std::string::npos);
    EXPECT_NE(d.find("alpha=0.1"), std::string::npos);
}

}  // namespace
