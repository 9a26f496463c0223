// Tests for every graph generator, including parameterized sweeps over
// sizes (regularity, degree caps/floors, connectivity).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "fnv1a.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/restrictions.hpp"
#include "rng/rng.hpp"
#include "support/expect.hpp"

namespace {

using ld::graph::Graph;
using ld::graph::Vertex;
using ld::rng::Rng;
using ld::support::ContractViolation;
using ld::test::fnv1a_fold;
using ld::test::fnv1a_fold_edges;
using ld::test::kFnvOffset;
namespace g = ld::graph;

TEST(Complete, HasAllEdges) {
    const Graph k5 = g::make_complete(5);
    EXPECT_EQ(k5.edge_count(), 10u);
    EXPECT_TRUE(g::is_complete(k5));
}

TEST(Complete, TrivialSizes) {
    EXPECT_EQ(g::make_complete(0).vertex_count(), 0u);
    EXPECT_EQ(g::make_complete(1).edge_count(), 0u);
    EXPECT_EQ(g::make_complete(2).edge_count(), 1u);
}

TEST(Star, CentreConnectsToAllLeaves) {
    const Graph s = g::make_star(9);
    EXPECT_EQ(s.edge_count(), 8u);
    EXPECT_EQ(s.degree(0), 8u);
    for (Vertex v = 1; v < 9; ++v) {
        EXPECT_EQ(s.degree(v), 1u);
        EXPECT_TRUE(s.has_edge(0, v));
    }
}

TEST(PathAndCycle, Shapes) {
    const Graph p = g::make_path(5);
    EXPECT_EQ(p.edge_count(), 4u);
    EXPECT_EQ(p.degree(0), 1u);
    EXPECT_EQ(p.degree(2), 2u);

    const Graph c = g::make_cycle(5);
    EXPECT_EQ(c.edge_count(), 5u);
    for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(c.degree(v), 2u);
    EXPECT_THROW(g::make_cycle(2), ContractViolation);
}

TEST(Grid, FourNeighbourLattice) {
    const Graph grid = g::make_grid(3, 4);
    EXPECT_EQ(grid.vertex_count(), 12u);
    // 3 rows × 3 horizontal + 2 rows × 4 vertical = 9 + 8.
    EXPECT_EQ(grid.edge_count(), 17u);
    EXPECT_EQ(grid.degree(0), 2u);   // corner
    EXPECT_EQ(grid.degree(5), 4u);   // interior (row 1, col 1)
    EXPECT_TRUE(g::is_connected(grid));
}

TEST(Grid, RejectsZeroDimensionsAndOverflow) {
    EXPECT_THROW(g::make_grid(0, 5), ContractViolation);
    EXPECT_THROW(g::make_grid(5, 0), ContractViolation);
    // rows * cols wraps 64 bits without the guard.
    const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
    EXPECT_THROW(g::make_grid(huge, 3), ContractViolation);
    // Fits 64 bits but not the 32-bit vertex id space.
    EXPECT_THROW(g::make_grid(std::size_t{1} << 20, std::size_t{1} << 20),
                 ContractViolation);
}

TEST(Generators, RejectSizesBeyondVertexRange) {
    Rng rng(6);
    // n = 2^32 is the first size whose ids do not fit a Vertex; a head that
    // let it through would spin a 32-bit loop counter that never reaches n.
    const std::size_t beyond = std::size_t{1} << 32;
    EXPECT_THROW(g::make_complete(beyond), ContractViolation);
    EXPECT_THROW(g::make_star(beyond), ContractViolation);
    EXPECT_THROW(g::make_path(beyond), ContractViolation);
    EXPECT_THROW(g::make_cycle(beyond), ContractViolation);
    EXPECT_THROW(g::make_grid(std::size_t{1} << 16, std::size_t{1} << 16),
                 ContractViolation);
    EXPECT_THROW(g::make_erdos_renyi_gnp(rng, beyond, 0.5), ContractViolation);
    EXPECT_THROW(g::make_erdos_renyi_gnm(rng, beyond, 1), ContractViolation);
    EXPECT_THROW(g::make_random_d_regular(rng, beyond, 2), ContractViolation);
    EXPECT_THROW(g::make_d_out(rng, beyond, 2), ContractViolation);
    EXPECT_THROW(g::make_bounded_degree(rng, beyond, 2, 1), ContractViolation);
    EXPECT_THROW(g::make_min_degree_at_least(rng, beyond, 2), ContractViolation);
    EXPECT_THROW(g::make_barabasi_albert(rng, beyond, 2), ContractViolation);
    EXPECT_THROW(g::make_watts_strogatz(rng, beyond, 4, 0.1), ContractViolation);
    EXPECT_THROW(g::make_two_tier(rng, beyond, 3, 2), ContractViolation);
}

TEST(BoundedDegree, InfeasibleTargetDetectedWithoutOverflow) {
    Rng rng(7);
    // target_edges * 2 wraps 64 bits; the 128-bit compare must still
    // reject instead of silently accepting the wrapped value.
    EXPECT_THROW(
        g::make_bounded_degree(rng, 10, 2, std::numeric_limits<std::size_t>::max()),
        ContractViolation);
}

TEST(ErdosRenyiGnp, EdgeCountConcentratesAroundMean) {
    Rng rng(1);
    const std::size_t n = 200;
    const double p = 0.1;
    const Graph er = g::make_erdos_renyi_gnp(rng, n, p);
    const double expected = p * n * (n - 1) / 2.0;
    EXPECT_NEAR(static_cast<double>(er.edge_count()), expected, 0.15 * expected);
}

TEST(ErdosRenyiGnp, ExtremesAreExact) {
    Rng rng(2);
    EXPECT_EQ(g::make_erdos_renyi_gnp(rng, 20, 0.0).edge_count(), 0u);
    EXPECT_TRUE(g::is_complete(g::make_erdos_renyi_gnp(rng, 20, 1.0)));
    EXPECT_THROW(g::make_erdos_renyi_gnp(rng, 5, 1.5), ContractViolation);
}

TEST(ErdosRenyiGnm, ExactEdgeCount) {
    Rng rng(3);
    const Graph er = g::make_erdos_renyi_gnm(rng, 30, 100);
    EXPECT_EQ(er.edge_count(), 100u);
    EXPECT_THROW(g::make_erdos_renyi_gnm(rng, 4, 7), ContractViolation);
}

TEST(DRegular, PreconditionsChecked) {
    Rng rng(4);
    EXPECT_THROW(g::make_random_d_regular(rng, 4, 4), ContractViolation);  // d >= n
    EXPECT_THROW(g::make_random_d_regular(rng, 5, 3), ContractViolation);  // odd n*d
}

TEST(DRegular, ZeroDegreeGivesEmptyGraph) {
    Rng rng(5);
    const Graph zero = g::make_random_d_regular(rng, 6, 0);
    EXPECT_EQ(zero.edge_count(), 0u);
}

class DRegularSweep : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DRegularSweep, IsSimpleAndRegular) {
    const auto [n, d] = GetParam();
    Rng rng(100 + n * 7 + d);
    const Graph gr = g::make_random_d_regular(rng, n, d);
    EXPECT_EQ(gr.vertex_count(), n);
    EXPECT_TRUE(g::is_d_regular(gr, d)) << "n=" << n << " d=" << d;
    EXPECT_EQ(gr.edge_count(), n * d / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DRegularSweep,
                         ::testing::Values(std::make_tuple(10, 3),
                                           std::make_tuple(16, 4),
                                           std::make_tuple(50, 7),
                                           std::make_tuple(128, 8),
                                           std::make_tuple(401, 6),
                                           std::make_tuple(1000, 16)));

// Folds one seeded call: its edge list, or a marker when it used up its
// restarts, then the caller's next draw, which pins the Rng position.
void fold_d_regular_call(std::uint64_t& hash, std::uint64_t seed, std::size_t n,
                         std::size_t d) {
    Rng rng(seed);
    try {
        fnv1a_fold_edges(hash, g::make_random_d_regular(rng, n, d).edges());
    } catch (const std::runtime_error&) {
        fnv1a_fold(hash, ~std::uint64_t{0});
    }
    fnv1a_fold(hash, rng.next());
}

struct DRegularDigest {
    std::size_t n;
    std::size_t d;
    std::uint64_t digest;
};

// Rand(n, d) instances are part of every seeded result, so the exact head
// must keep producing the recorded graphs, the recorded exhausted-restart
// throws (n = 5, d = 4 and n = 6, d = 5) and the recorded caller Rng
// positions.  The grid rows fold seeds 1..50 over every n·d-even d < n.
TEST(DRegular, GraphsAndRngPositionMatchRecordedDigests) {
    const DRegularDigest grid[] = {
        {4, 1, 0x533965e5625fbee2ULL},    {4, 2, 0xfdb2f015472e113dULL},
        {4, 3, 0xa46c5d492517e372ULL},    {5, 2, 0x0b64d47f2c16f019ULL},
        {5, 4, 0xe60552ad8eefdaf2ULL},    {6, 1, 0x8025039b196dad02ULL},
        {6, 2, 0x33054018365ec3d2ULL},    {6, 3, 0xf98762f68a3edf6cULL},
        {6, 4, 0xb71277769f238c17ULL},    {6, 5, 0xd48351f6b42ad05aULL},
        {8, 1, 0xa687f9ad85bd6a0dULL},    {8, 2, 0x25ff399e224b906cULL},
        {8, 3, 0x25bff15a2fc8db38ULL},    {8, 4, 0xba9ea36b1afa1286ULL},
        {8, 5, 0xd63e64fd6e1ee1c4ULL},    {10, 1, 0xe744972c445a3467ULL},
        {10, 2, 0x80e2fbcd5c33b244ULL},   {10, 3, 0x963b1ceb2c387090ULL},
        {10, 4, 0x5c7a5d007b2f496fULL},   {10, 5, 0x581e23b59a5b90cdULL},
        {10, 8, 0x1193cdfc173e6d47ULL},   {12, 1, 0xbb3aeff0e9327452ULL},
        {12, 2, 0xfdc5e18718386f42ULL},   {12, 3, 0x883cc35397d5c9b2ULL},
        {12, 4, 0xca33057250075073ULL},   {12, 5, 0xcc6c016da49d8a0eULL},
        {12, 8, 0xfbc54e1a59cc8665ULL},   {17, 2, 0x489c5e594c14c9acULL},
        {17, 4, 0x4d13a7cf1c07b728ULL},   {17, 8, 0x5d92667bb8be167cULL},
        {30, 1, 0x2a857fd12d0aef13ULL},   {30, 2, 0x236069a7ef3a28e8ULL},
        {30, 3, 0x51267e4e1007d79eULL},   {30, 4, 0xea84575f57f9316aULL},
        {30, 5, 0x0dddd6bf1d241611ULL},   {30, 8, 0x7967f3a6c7ea6376ULL},
        {100, 1, 0xc149ef1b18272bfaULL},  {100, 2, 0x0b78abca69edb91eULL},
        {100, 3, 0xacb4583907197798ULL},  {100, 4, 0x3da3ab3b14be2440ULL},
        {100, 5, 0xa259e0546d1fa0a6ULL},  {100, 8, 0xca79b1e6ae24dc38ULL},
        {1000, 1, 0x9fe47ccb19086282ULL}, {1000, 2, 0x0dedd6a5bedc6e8cULL},
        {1000, 3, 0xa7d9dcef463b0bc7ULL}, {1000, 4, 0x83ee6e6034ad3ba3ULL},
        {1000, 5, 0x8d7652251a4407cdULL}, {1000, 8, 0x3d6d3ab61212677aULL},
    };
    for (const DRegularDigest& row : grid) {
        std::uint64_t hash = kFnvOffset;
        for (std::uint64_t seed = 1; seed <= 50; ++seed) {
            fold_d_regular_call(hash, seed, row.n, row.d);
        }
        EXPECT_EQ(hash, row.digest) << "n=" << row.n << " d=" << row.d;
    }
    // The eval recipe (n = 4000, d = 8), the sweep and serve shape
    // (n = 1e5, d = 8) and a denser row, seed 1 each.
    const DRegularDigest large[] = {
        {4000, 8, 0x62a8a81a4dd39f36ULL},
        {100000, 8, 0x30692ef1ece00ff4ULL},
        {4000, 16, 0xb194d94bb6ea4adcULL},
    };
    for (const DRegularDigest& row : large) {
        std::uint64_t hash = kFnvOffset;
        fold_d_regular_call(hash, 1, row.n, row.d);
        EXPECT_EQ(hash, row.digest) << "n=" << row.n << " d=" << row.d;
    }
}

TEST(DOut, DegreesAreAtLeastD) {
    Rng rng(6);
    const std::size_t n = 100, d = 5;
    const Graph gr = g::make_d_out(rng, n, d);
    // Every vertex initiated d edges; merging can only add more.
    for (Vertex v = 0; v < n; ++v) EXPECT_GE(gr.degree(v), d);
    const auto stats = g::degree_stats(gr);
    EXPECT_NEAR(stats.mean, 2.0 * d, 1.5);
}

TEST(BoundedDegree, RespectsCap) {
    Rng rng(7);
    const std::size_t n = 200, cap = 6;
    const Graph gr = g::make_bounded_degree(rng, n, cap, n * cap / 4);
    EXPECT_TRUE(g::max_degree_at_most(gr, cap));
    EXPECT_GT(gr.edge_count(), n / 2);  // should place a decent number
}

TEST(BoundedDegree, InfeasibleTargetRejected) {
    Rng rng(8);
    EXPECT_THROW(g::make_bounded_degree(rng, 10, 2, 100), ContractViolation);
}

TEST(MinDegree, RespectsFloorAndConnectivity) {
    Rng rng(9);
    for (std::size_t floor_deg : {2u, 5u, 12u}) {
        const Graph gr = g::make_min_degree_at_least(rng, 100, floor_deg);
        EXPECT_TRUE(g::min_degree_at_least(gr, floor_deg)) << floor_deg;
        EXPECT_TRUE(g::is_connected(gr));
    }
}

TEST(BarabasiAlbert, DegreesAndSkew) {
    Rng rng(10);
    const std::size_t n = 500, m = 3;
    const Graph gr = g::make_barabasi_albert(rng, n, m);
    EXPECT_EQ(gr.vertex_count(), n);
    // Every newcomer adds exactly m edges onto an (m+1)-clique.
    EXPECT_EQ(gr.edge_count(), m * (m + 1) / 2 + (n - m - 1) * m);
    const auto stats = g::degree_stats(gr);
    EXPECT_GE(stats.min, m);
    // Preferential attachment should make the max degree far above mean.
    EXPECT_GT(stats.asymmetry, 3.0);
    EXPECT_THROW(g::make_barabasi_albert(rng, 3, 3), ContractViolation);
}

TEST(WattsStrogatz, LatticeAndRewired) {
    Rng rng(11);
    const Graph lattice = g::make_watts_strogatz(rng, 50, 4, 0.0);
    EXPECT_TRUE(g::is_d_regular(lattice, 4));
    EXPECT_EQ(lattice.edge_count(), 100u);

    const Graph rewired = g::make_watts_strogatz(rng, 50, 4, 0.5);
    EXPECT_EQ(rewired.vertex_count(), 50u);
    // Rewiring keeps the edge budget (it moves endpoints, not removes).
    EXPECT_NEAR(static_cast<double>(rewired.edge_count()), 100.0, 5.0);
    EXPECT_THROW(g::make_watts_strogatz(rng, 10, 3, 0.1), ContractViolation);
}

TEST(TwoTier, HubCliquePlusSpokes) {
    Rng rng(12);
    const Graph gr = g::make_two_tier(rng, 50, 5, 2);
    // Hubs form K_5.
    for (Vertex u = 0; u < 5; ++u) {
        for (Vertex v = u + 1; v < 5; ++v) EXPECT_TRUE(gr.has_edge(u, v));
    }
    // Leaves touch only hubs, exactly 2 each.
    for (Vertex leaf = 5; leaf < 50; ++leaf) {
        EXPECT_EQ(gr.degree(leaf), 2u);
        for (Vertex w : gr.neighbours(leaf)) EXPECT_LT(w, 5u);
    }
}

}  // namespace
