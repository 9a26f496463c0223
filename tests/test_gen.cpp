// Tests for the streaming graph-generation subsystem (src/gen/): the
// determinism contract (chunk size, shard partition, and thread count
// never change the generated CSR), facade/legacy equivalence, degree
// sanity for the heterogeneous families, memory-budget enforcement, spec
// parsing, and the gen.* metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "fnv1a.hpp"
#include "gen/chunked_csr.hpp"
#include "gen/config.hpp"
#include "gen/factory.hpp"
#include "gen/families.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "ld/cli/specs.hpp"
#include "rng/rng.hpp"
#include "support/expect.hpp"
#include "support/metrics.hpp"

namespace {

using ld::graph::Graph;
using ld::graph::Vertex;
using ld::support::ContractViolation;
using ld::test::fnv1a_fold_edges;
using ld::test::kFnvOffset;
namespace gen = ld::gen;
namespace g = ld::graph;

gen::GeneratorConfig base_config(gen::Family family, std::size_t n,
                                 std::uint64_t seed = 17) {
    gen::GeneratorConfig config;
    config.family = family;
    config.n = n;
    config.seed = seed;
    return config;
}

/// One representative config per family, sized for fast tests.
std::vector<gen::GeneratorConfig> representative_configs() {
    std::vector<gen::GeneratorConfig> configs;
    configs.push_back(base_config(gen::Family::Complete, 60));
    configs.push_back(base_config(gen::Family::Star, 200));
    {
        auto c = base_config(gen::Family::Gnp, 800);
        c.p = 0.01;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::Gnm, 500);
        c.edges = 2000;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::DOut, 400);
        c.degree = 5;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::DRegular, 100);
        c.degree = 4;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::BarabasiAlbert, 600);
        c.degree = 3;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::WattsStrogatz, 400);
        c.degree = 6;
        c.beta = 0.2;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::ChungLu, 900);
        c.gamma = 2.5;
        c.avg_degree = 6.0;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::Hyperbolic, 900);
        c.gamma = 2.7;
        c.avg_degree = 8.0;
        configs.push_back(c);
    }
    {
        auto c = base_config(gen::Family::Rmat, 512);
        c.edges = 3000;
        configs.push_back(c);
    }
    return configs;
}

// ------------------------------------------------------- determinism matrix

TEST(GenDeterminism, ChunkSizeNeverChangesTheGraph) {
    for (auto config : representative_configs()) {
        config.chunk_edges = 1 << 16;
        const Graph reference = gen::generate_graph(config);
        for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                        std::size_t{251}, std::size_t{4096}}) {
            config.chunk_edges = chunk;
            EXPECT_EQ(gen::generate_graph(config), reference)
                << gen::family_name(config.family) << " chunk=" << chunk;
        }
    }
}

TEST(GenDeterminism, ThreadCountNeverChangesTheGraph) {
    for (auto config : representative_configs()) {
        config.threads = 1;
        const Graph reference = gen::generate_graph(config);
        for (const std::size_t threads :
             {std::size_t{2}, std::size_t{5}, std::size_t{0}}) {
            config.threads = threads;
            EXPECT_EQ(gen::generate_graph(config), reference)
                << gen::family_name(config.family) << " threads=" << threads;
        }
    }
}

TEST(GenDeterminism, ShardUnionEqualsUnshardedRun) {
    for (auto config : representative_configs()) {
        const Graph full = gen::generate_graph(config);
        for (const std::size_t shards : {std::size_t{2}, std::size_t{3}}) {
            g::GraphBuilder builder(config.n);
            for (std::size_t i = 0; i < shards; ++i) {
                config.shard = {i, shards};
                for (const auto& e : gen::generate_graph(config).edges()) {
                    builder.add_edge(e.u, e.v);
                }
            }
            config.shard = {};
            EXPECT_EQ(builder.build(), full)
                << gen::family_name(config.family) << " shards=" << shards;
        }
    }
}

TEST(GenDeterminism, RerunIsByteIdentical) {
    auto config = base_config(gen::Family::Hyperbolic, 700);
    config.avg_degree = 10.0;
    EXPECT_EQ(gen::generate_graph(config), gen::generate_graph(config));
    config.seed = 18;  // and a different seed differs
    const Graph other = gen::generate_graph(config);
    config.seed = 17;
    EXPECT_NE(gen::generate_graph(config), other);
}

struct FacadeDigest {
    const char* spec;
    std::size_t n;
    std::uint64_t digest;
};

// Sweep-scale facade graphs (sweep_sparse's cl and hyper cells, and three
// more families), seed 1, pinned at 1, 3 and the pool's thread count.  At
// these sizes every worker claims many runs of cells, so however the
// passes hand cells out, the graph must not move.
TEST(GenDeterminism, GraphsMatchRecordedDigests) {
    const FacadeDigest rows[] = {
        {"cl:2.5,8", 100000, 0x32e0b8e45af88fb4ULL},
        {"hyper:2.7,12", 100000, 0x7447993d9faffbfaULL},
        {"rmat:2000000", 20000, 0x80b0cf7c842df5c1ULL},
        {"gen:gnp:0.0004", 20000, 0x1565194e6cbed7a0ULL},
        {"gen:ba:4", 20000, 0x4a17200a2fd60b64ULL},
    };
    for (const FacadeDigest& row : rows) {
        auto config = ld::cli::parse_generator_spec(row.spec, row.n, 1);
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{3}, std::size_t{0}}) {
            config.threads = threads;
            std::uint64_t hash = kFnvOffset;
            fnv1a_fold_edges(hash, gen::generate_graph(config).edges());
            EXPECT_EQ(hash, row.digest)
                << row.spec << " threads=" << threads << " digest=0x" << std::hex << hash;
        }
    }
}

// ------------------------------------------------- facade/legacy equivalence

TEST(GenFacade, CompleteAndStarMatchLegacyGenerators) {
    EXPECT_EQ(gen::generate_graph(base_config(gen::Family::Complete, 40)),
              g::make_complete(40));
    EXPECT_EQ(gen::generate_graph(base_config(gen::Family::Star, 40)),
              g::make_star(40));
}

TEST(GenFacade, DRegularErasedModelIsNearRegular) {
    // The streaming dregular family is an *erased* configuration model
    // (self-loops dropped, duplicate pairs collapse), so realized degrees
    // are <= d with an O(d²/n) erasure deficit — not exactly d.
    auto config = base_config(gen::Family::DRegular, 200);
    config.degree = 6;
    const Graph graph = gen::generate_graph(config);
    std::size_t degree_sum = 0;
    for (Vertex v = 0; v < graph.vertex_count(); ++v) {
        EXPECT_LE(graph.degree(v), 6u);
        degree_sum += graph.degree(v);
    }
    // Expected erasure loss per stub is O(d/n); demand at least 90% of the
    // stubs survive (far looser than the ~3% expected loss at n=200, d=6).
    EXPECT_GE(degree_sum, static_cast<std::size_t>(200 * 6 * 9 / 10));
}

TEST(GenFacade, DRegularStubPermutationIsABijection) {
    // The pairing σ(2k) ↔ σ(2k+1) covers every stub exactly once iff the
    // cycle-walked Feistel σ is a permutation of [0, n·d).
    auto config = base_config(gen::Family::DRegular, 100);
    config.degree = 8;
    config.validate();
    const gen::DRegularGen generator(config);
    const std::uint64_t stubs = 100 * 8;
    std::vector<bool> seen(stubs, false);
    for (std::uint64_t i = 0; i < stubs; ++i) {
        const std::uint64_t image = generator.permuted_stub(i);
        ASSERT_LT(image, stubs);
        EXPECT_FALSE(seen[image]) << "stub " << image << " hit twice";
        seen[image] = true;
    }
}

TEST(GenFacade, DOutDegreesAtLeastD) {
    auto config = base_config(gen::Family::DOut, 500);
    config.degree = 7;
    const Graph graph = gen::generate_graph(config);
    for (Vertex v = 0; v < graph.vertex_count(); ++v) {
        EXPECT_GE(graph.degree(v), 7u);
    }
}

// --------------------------------------------------------- family sanity

TEST(GenFamilies, GnpEdgeCountNearExpectation) {
    auto config = base_config(gen::Family::Gnp, 5000);
    config.p = 0.002;
    const Graph graph = gen::generate_graph(config);
    const double expected = 0.002 * 5000.0 * 4999.0 / 2.0;  // ~25k
    EXPECT_NEAR(static_cast<double>(graph.edge_count()), expected, 0.1 * expected);
}

TEST(GenFamilies, WattsStrogatzEdgeCountNearLattice) {
    auto config = base_config(gen::Family::WattsStrogatz, 2000);
    config.degree = 8;
    config.beta = 0.1;
    const Graph graph = gen::generate_graph(config);
    // n*k/2 lattice edges minus the few rewiring collisions.
    EXPECT_NEAR(static_cast<double>(graph.edge_count()), 2000.0 * 8 / 2, 200.0);
}

TEST(GenFamilies, BarabasiAlbertGrowsHubs) {
    auto config = base_config(gen::Family::BarabasiAlbert, 20000);
    config.degree = 4;
    const Graph graph = gen::generate_graph(config);
    const auto stats = g::degree_stats(graph);
    EXPECT_NEAR(stats.mean, 8.0, 1.0);         // ~2m per vertex
    EXPECT_GT(stats.max, 10 * stats.mean);     // heavy tail
}

/// Least-squares slope of log ccdf vs log degree over [lo, hi] — the
/// empirical tail exponent is -(slope) - ... for ccdf ~ d^-(tau-1) the
/// fitted slope estimates -(tau - 1).
double ccdf_slope(const Graph& graph, std::size_t lo, std::size_t hi) {
    std::vector<std::size_t> degrees(graph.vertex_count());
    for (Vertex v = 0; v < graph.vertex_count(); ++v) degrees[v] = graph.degree(v);
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    std::size_t points = 0;
    for (std::size_t d = lo; d <= hi; d *= 2) {
        const auto count = static_cast<double>(
            std::count_if(degrees.begin(), degrees.end(),
                          [d](std::size_t deg) { return deg >= d; }));
        if (count <= 0) break;
        const double x = std::log(static_cast<double>(d));
        const double y = std::log(count / static_cast<double>(degrees.size()));
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
        ++points;
    }
    EXPECT_GE(points, 3u) << "degenerate tail: not enough ccdf points";
    const double p = static_cast<double>(points);
    return (p * sxy - sx * sy) / (p * sxx - sx * sx);
}

TEST(GenFamilies, ChungLuPowerLawTail) {
    auto config = base_config(gen::Family::ChungLu, 100000);
    config.gamma = 2.5;
    config.avg_degree = 10.0;
    const Graph graph = gen::generate_graph(config);
    const auto stats = g::degree_stats(graph);
    EXPECT_NEAR(stats.mean, 10.0, 1.5);
    // ccdf ~ d^-(gamma-1): slope -(1.5) within a generous sampling tolerance.
    EXPECT_NEAR(ccdf_slope(graph, 16, 256), -1.5, 0.5);
}

TEST(GenFamilies, ChungLuMaxWeightCapBoundsDegrees) {
    auto config = base_config(gen::Family::ChungLu, 50000);
    config.gamma = 2.5;
    config.avg_degree = 8.0;
    config.max_weight = 25.0;  // expected degree of every vertex <= 25
    const Graph graph = gen::generate_graph(config);
    const auto stats = g::degree_stats(graph);
    // Poisson(25) tail: exceeding 60 anywhere would be a ~6-sigma event.
    EXPECT_LE(stats.max, 60u);
}

TEST(GenFamilies, HyperbolicPowerLawTailAndMeanDegree) {
    auto config = base_config(gen::Family::Hyperbolic, 100000);
    config.gamma = 2.5;
    config.avg_degree = 10.0;
    const Graph graph = gen::generate_graph(config);
    const auto stats = g::degree_stats(graph);
    EXPECT_NEAR(stats.mean, 10.0, 2.0);
    EXPECT_NEAR(ccdf_slope(graph, 16, 256), -1.5, 0.5);
}

TEST(GenFamilies, RmatIsSkewed) {
    auto config = base_config(gen::Family::Rmat, 16384);
    config.edges = 100000;
    const Graph graph = gen::generate_graph(config);
    const auto stats = g::degree_stats(graph);
    EXPECT_GT(stats.max, 20 * stats.mean);  // 0.57 corner concentrates mass
    EXPECT_LE(graph.edge_count(), 100000u);  // draws minus loops/duplicates
}

// ------------------------------------------------------------ memory budget

TEST(GenBudget, EstimatePreCheckRejectsQuadraticFamilies) {
    auto config = base_config(gen::Family::Complete, 100000);
    config.memory_budget_bytes = 64 << 20;
    EXPECT_THROW(gen::generate_graph(config), ContractViolation);
}

TEST(GenBudget, GenerousBudgetPasses) {
    auto config = base_config(gen::Family::Gnp, 2000);
    config.p = 0.005;
    config.memory_budget_bytes = 256 << 20;
    EXPECT_EQ(gen::generate_graph(config).vertex_count(), 2000u);
}

// ----------------------------------------------------------- config errors

TEST(GenConfig, ValidateRejectsBadParameters) {
    EXPECT_THROW(gen::generate_graph(base_config(gen::Family::Gnp, 0)),
                 ContractViolation);  // n == 0
    {
        auto c = base_config(gen::Family::Gnp, 10);
        c.p = 1.5;
        EXPECT_THROW(gen::generate_graph(c), ContractViolation);
    }
    {
        auto c = base_config(gen::Family::DRegular, 5);
        c.degree = 3;  // n*d odd
        EXPECT_THROW(gen::generate_graph(c), ContractViolation);
    }
    {
        auto c = base_config(gen::Family::ChungLu, 10);
        c.gamma = 2.0;  // needs > 2
        EXPECT_THROW(gen::generate_graph(c), ContractViolation);
    }
    {
        auto c = base_config(gen::Family::Gnp, 10);
        c.p = 0.5;
        c.shard = {3, 3};  // index must be < count
        EXPECT_THROW(gen::generate_graph(c), ContractViolation);
    }
}

// ------------------------------------------------------------- spec parsing

TEST(GenSpecs, ParsesFacadeHeads) {
    EXPECT_TRUE(ld::cli::is_generator_spec("cl:2.5,8"));
    EXPECT_TRUE(ld::cli::is_generator_spec("hyper:2.7,12"));
    EXPECT_TRUE(ld::cli::is_generator_spec("girg:2.7,12,50"));
    EXPECT_TRUE(ld::cli::is_generator_spec("rmat:1000"));
    EXPECT_TRUE(ld::cli::is_generator_spec("gen:gnp:0.01"));
    EXPECT_FALSE(ld::cli::is_generator_spec("er:0.01"));
    EXPECT_FALSE(ld::cli::is_generator_spec("complete"));

    const auto cl = ld::cli::parse_generator_spec("cl:2.5,8", 1000, 5);
    EXPECT_EQ(cl.family, gen::Family::ChungLu);
    EXPECT_EQ(cl.n, 1000u);
    EXPECT_EQ(cl.seed, 5u);
    EXPECT_DOUBLE_EQ(cl.gamma, 2.5);
    EXPECT_DOUBLE_EQ(cl.avg_degree, 8.0);

    const auto girg = ld::cli::parse_generator_spec("girg:2.7,12,50", 1000, 5);
    EXPECT_EQ(girg.family, gen::Family::Hyperbolic);
    EXPECT_DOUBLE_EQ(girg.max_weight, 50.0);

    const auto rmat = ld::cli::parse_generator_spec("rmat:5000,0.5,0.2,0.2", 256, 5);
    EXPECT_EQ(rmat.family, gen::Family::Rmat);
    EXPECT_EQ(rmat.edges, 5000u);
    EXPECT_DOUBLE_EQ(rmat.rmat_a, 0.5);

    // gen:er is accepted as an alias for gnp.
    EXPECT_EQ(ld::cli::parse_generator_spec("gen:er:0.01", 100, 1).family,
              gen::Family::Gnp);
}

TEST(GenSpecs, RejectsMalformedSpecs) {
    EXPECT_THROW(ld::cli::parse_generator_spec("gen:nosuch:1", 100, 1),
                 ld::cli::SpecError);
    EXPECT_THROW(ld::cli::parse_generator_spec("cl:2.5", 100, 1), ld::cli::SpecError);
    EXPECT_THROW(ld::cli::parse_generator_spec("rmat:10,0.5", 100, 1),
                 ld::cli::SpecError);
    EXPECT_THROW(ld::cli::parse_generator_spec("gen:complete:3", 100, 1),
                 ld::cli::SpecError);
    EXPECT_THROW(ld::cli::parse_generator_spec("gen:ws:junk,0.1", 100, 1),
                 ld::cli::SpecError);
}

TEST(GenSpecs, MakeGraphRoutesThroughFacade) {
    ld::rng::Rng rng(3);
    const Graph graph = ld::cli::make_graph("gen:complete", 30, rng);
    EXPECT_EQ(graph, g::make_complete(30));
    ld::rng::Rng rng2(3);
    const Graph cl = ld::cli::make_graph("cl:2.5,6", 500, rng2);
    EXPECT_EQ(cl.vertex_count(), 500u);
    EXPECT_GT(cl.edge_count(), 0u);
}

// ------------------------------------------------------------ plumbing bits

TEST(GenPlumbing, ChunkBufferCanonicalisesAndFlushes) {
    gen::CollectSink sink;
    gen::ChunkBuffer buffer(sink, 3);
    buffer.emit(5, 2);   // reorders to (2,5)
    buffer.emit(4, 4);   // self-loop dropped
    buffer.emit(1, 9);
    buffer.emit(0, 3);   // third edge triggers the capacity flush
    buffer.flush();      // no-op: buffer drained
    EXPECT_EQ(buffer.edges_emitted(), 3u);
    EXPECT_EQ(buffer.chunks_flushed(), 1u);
    ASSERT_EQ(sink.edges().size(), 3u);
    EXPECT_EQ(sink.edges()[0], (ld::graph::Edge{2, 5}));
}

TEST(GenPlumbing, FromCsrRejectsBrokenInvariants) {
    // Asymmetric: 0->1 without 1->0.
    EXPECT_THROW(Graph::from_csr({0, 1, 1}, {1}), ContractViolation);
    // Balanced but asymmetric: the directed cycle 0->1->2->3->0 (every
    // in-degree equals the out-degree, and the half-edge count is even).
    EXPECT_THROW(Graph::from_csr({0, 1, 2, 3, 4}, {1, 2, 3, 0}), ContractViolation);
    // Right row lengths, wrong neighbour: path 0-1-2 with row 2 = {0}.
    EXPECT_THROW(Graph::from_csr({0, 1, 3, 4}, {1, 0, 2, 0}), ContractViolation);
    // Self-loop.
    EXPECT_THROW(Graph::from_csr({0, 1, 2}, {0, 1}), ContractViolation);
    // Valid single edge.
    const Graph ok = Graph::from_csr({0, 1, 2}, {1, 0});
    EXPECT_EQ(ok.edge_count(), 1u);
    EXPECT_TRUE(ok.has_edge(0, 1));
}

TEST(GenPlumbing, MetricsAreRecorded) {
    auto& registry = ld::support::MetricsRegistry::global();
    const auto before = registry.snapshot();
    auto config = base_config(gen::Family::Gnp, 1000);
    config.p = 0.01;
    gen::BuildStats stats;
    const Graph graph = gen::generate_graph(config, &stats);
    const auto after = registry.snapshot().since(before);
    EXPECT_EQ(after.counter_value("gen.edges_emitted"), stats.edges_emitted);
    EXPECT_GE(after.counter_value("gen.chunks"), 1u);
    EXPECT_GT(after.gauge_value("gen.csr_peak_bytes"), 0);
    const auto* histogram = after.find_histogram("gen.gnp.generate_seconds");
    ASSERT_NE(histogram, nullptr);
    EXPECT_GE(histogram->count, 1u);
    EXPECT_EQ(stats.unique_edges, graph.edge_count());
}

TEST(GenPlumbing, BuildStatsCountScatterPassOnce) {
    auto config = base_config(gen::Family::Complete, 50);
    gen::BuildStats stats;
    const Graph graph = gen::generate_graph(config, &stats);
    EXPECT_EQ(stats.edges_emitted, graph.edge_count());  // complete: no dups
    EXPECT_EQ(stats.unique_edges, graph.edge_count());
}

}  // namespace
