// Unit tests for the CSR Graph and GraphBuilder.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/graph.hpp"
#include "support/expect.hpp"

namespace {

using ld::graph::Edge;
using ld::graph::Graph;
using ld::graph::GraphBuilder;
using ld::graph::Vertex;
using ld::support::ContractViolation;

TEST(Graph, EmptyGraphHasNoEdges) {
    const Graph g = Graph::empty(5);
    EXPECT_EQ(g.vertex_count(), 5u);
    EXPECT_EQ(g.edge_count(), 0u);
    for (Vertex v = 0; v < 5; ++v) {
        EXPECT_EQ(g.degree(v), 0u);
        EXPECT_TRUE(g.neighbours(v).empty());
    }
}

TEST(Graph, ZeroVertexGraphIsValid) {
    const Graph g = Graph::empty(0);
    EXPECT_EQ(g.vertex_count(), 0u);
    EXPECT_TRUE(g.edges().empty());
}

TEST(GraphBuilder, BuildsTriangle) {
    GraphBuilder b(3);
    b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
    const Graph g = b.build();
    EXPECT_EQ(g.edge_count(), 3u);
    for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_TRUE(g.has_edge(2, 1));
}

TEST(GraphBuilder, DeduplicatesParallelEdges) {
    GraphBuilder b(2);
    b.add_edge(0, 1);
    b.add_edge(1, 0);
    b.add_edge(0, 1);
    EXPECT_EQ(b.pending_edge_count(), 3u);
    const Graph g = b.build();
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_EQ(g.degree(0), 1u);

    // At a size whose rows sort in blocks: a circulant graph inserted with
    // every {v, v+1} edge twice and a chord from every 1000th vertex to its
    // antipode three times, so rows on both sides of every block edge
    // shrink and the blocks slide down.  The reference is the deduplicated
    // CSR assembled row by row.
    const std::size_t n = 100000;
    std::vector<std::vector<Vertex>> rows(n);
    GraphBuilder large(n);
    const auto add = [&](Vertex u, Vertex v) {
        large.add_edge(u, v);
        rows[u].push_back(v);
        rows[v].push_back(u);
    };
    for (Vertex v = 0; v < n; ++v) {
        add(v, static_cast<Vertex>((v + 1) % n));
        add(v, static_cast<Vertex>((v + 2) % n));
        add(static_cast<Vertex>((v + 1) % n), v);
    }
    for (Vertex v = 0; v < n / 2; v += 1000) {
        for (int copy = 0; copy < 3; ++copy) add(static_cast<Vertex>(v + n / 2), v);
    }
    std::vector<std::size_t> offsets{0};
    std::vector<Vertex> neighbours;
    for (auto& row : rows) {
        std::sort(row.begin(), row.end());
        row.erase(std::unique(row.begin(), row.end()), row.end());
        neighbours.insert(neighbours.end(), row.begin(), row.end());
        offsets.push_back(neighbours.size());
    }
    const Graph built = large.build();
    EXPECT_EQ(built, Graph::from_csr(std::move(offsets), std::move(neighbours)));
    EXPECT_EQ(built.edge_count(), 2 * n + n / 2000);
}

TEST(GraphBuilder, RejectsSelfLoopsAndOutOfRange) {
    GraphBuilder b(3);
    EXPECT_THROW(b.add_edge(1, 1), ContractViolation);
    EXPECT_THROW(b.add_edge(0, 3), ContractViolation);
    EXPECT_THROW(b.add_edge(5, 0), ContractViolation);
}

TEST(GraphBuilder, IsReusableAfterBuild) {
    GraphBuilder b(3);
    b.add_edge(0, 1);
    const Graph g1 = b.build();
    b.add_edge(1, 2);
    const Graph g2 = b.build();
    EXPECT_EQ(g1.edge_count(), 1u);
    EXPECT_EQ(g2.edge_count(), 2u);
}

TEST(Graph, NeighboursAreSortedAscending) {
    GraphBuilder b(6);
    b.add_edge(3, 5).add_edge(3, 0).add_edge(3, 4).add_edge(3, 1);
    const Graph g = b.build();
    const auto nbrs = g.neighbours(3);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_EQ(nbrs.size(), 4u);
    EXPECT_EQ(nbrs[0], 0u);
    EXPECT_EQ(nbrs[3], 5u);
}

TEST(Graph, HasEdgeHandlesMissingAndOutOfRange) {
    GraphBuilder b(4);
    b.add_edge(0, 1);
    const Graph g = b.build();
    EXPECT_FALSE(g.has_edge(0, 2));
    EXPECT_FALSE(g.has_edge(2, 3));
    EXPECT_FALSE(g.has_edge(0, 100));
    EXPECT_FALSE(g.has_edge(100, 0));
}

TEST(Graph, EdgesReturnsCanonicalSortedList) {
    GraphBuilder b(4);
    b.add_edge(2, 3).add_edge(0, 1).add_edge(1, 3);
    const auto edges = b.build().edges();
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_EQ(edges[0], (Edge{0, 1}));
    EXPECT_EQ(edges[1], (Edge{1, 3}));
    EXPECT_EQ(edges[2], (Edge{2, 3}));
    for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(Graph, EqualityComparesStructure) {
    GraphBuilder b1(3), b2(3);
    b1.add_edge(0, 1);
    b2.add_edge(1, 0);
    EXPECT_EQ(b1.build(), b2.build());
    b2.add_edge(1, 2);
    EXPECT_NE(b1.build(), b2.build());
}

TEST(Graph, DegreeSumIsTwiceEdgeCount) {
    GraphBuilder b(10);
    b.add_edge(0, 1).add_edge(0, 2).add_edge(3, 4).add_edge(5, 9).add_edge(2, 7);
    const Graph g = b.build();
    std::size_t degree_sum = 0;
    for (Vertex v = 0; v < g.vertex_count(); ++v) degree_sum += g.degree(v);
    EXPECT_EQ(degree_sum, 2 * g.edge_count());
}

}  // namespace
