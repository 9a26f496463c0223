// Immutable undirected simple graph in compressed-sparse-row form, plus a
// mutable builder.  This is the voting-graph substrate: vertices are voters,
// an edge means the two voters are aware of each other (paper §2.1).

#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ld::graph {

/// Vertex identifier.  Vertices are always 0..n-1.
using Vertex = std::uint32_t;

/// An undirected edge as an (ordered) vertex pair with u <= v.
struct Edge {
    Vertex u;
    Vertex v;
    friend bool operator==(const Edge&, const Edge&) = default;
    friend auto operator<=>(const Edge&, const Edge&) = default;
};

class GraphBuilder;

/// Immutable undirected simple graph (no self-loops, no parallel edges).
///
/// Stored in CSR form: `offsets_[v] .. offsets_[v+1]` indexes into
/// `neighbours_`, which lists each vertex's neighbours in ascending order.
/// Construction is only possible through `GraphBuilder`, which deduplicates
/// and validates.
class Graph {
public:
    /// An empty graph with `n` vertices and no edges.
    static Graph empty(std::size_t n);

    /// Adopt an already-assembled CSR (offsets size n+1, neighbours size
    /// 2m with each vertex's range ascending, deduplicated, loop-free,
    /// and symmetric).  Validates the invariants in O(n + m) and throws
    /// ContractViolation on any breach — the escape hatch for builders
    /// (the streaming generation subsystem) that assemble CSR directly
    /// instead of buffering an edge list through GraphBuilder.  The checks
    /// run in blocks on the global pool, `width` capping the block count
    /// (0: the pool width).
    static Graph from_csr(std::vector<std::size_t> offsets,
                          std::vector<Vertex> neighbours, std::size_t width = 0);

    std::size_t vertex_count() const noexcept { return offsets_.size() - 1; }
    std::size_t edge_count() const noexcept { return neighbours_.size() / 2; }

    /// Neighbours of `v`, ascending.  O(1).
    std::span<const Vertex> neighbours(Vertex v) const {
        return {neighbours_.data() + offsets_[v], neighbours_.data() + offsets_[v + 1]};
    }

    /// Row boundaries: v's neighbours sit at offsets()[v] ..
    /// offsets()[v + 1] of the CSR, size n + 1.
    std::span<const std::size_t> offsets() const noexcept { return offsets_; }

    /// Degree of `v`.  O(1).
    std::size_t degree(Vertex v) const noexcept { return offsets_[v + 1] - offsets_[v]; }

    /// Whether edge {u, v} exists.  O(log deg).
    bool has_edge(Vertex u, Vertex v) const;

    /// All edges with u < v, in ascending (u, v) order.
    std::vector<Edge> edges() const;

    friend bool operator==(const Graph&, const Graph&) = default;

private:
    friend class GraphBuilder;
    Graph(std::vector<std::size_t> offsets, std::vector<Vertex> neighbours)
        : offsets_(std::move(offsets)), neighbours_(std::move(neighbours)) {}

    std::vector<std::size_t> offsets_;   // size n+1
    std::vector<Vertex> neighbours_;     // size 2m, sorted per vertex
};

/// Accumulates edges and produces a validated `Graph`.
///
/// Duplicate edge insertions are tolerated and collapsed; self-loops are
/// rejected (the model is a simple graph).
class GraphBuilder {
public:
    /// Builder over `n` vertices (ids 0..n-1).
    explicit GraphBuilder(std::size_t n);

    std::size_t vertex_count() const noexcept { return n_; }

    /// Add undirected edge {u, v}.  Precondition: u != v, both < n.
    /// Returns *this for chaining.
    GraphBuilder& add_edge(Vertex u, Vertex v);

    /// Number of (possibly duplicated) edge insertions so far.
    std::size_t pending_edge_count() const noexcept { return raw_.size(); }

    /// Finalize into an immutable Graph.  The builder may be reused after.
    Graph build() const;

private:
    std::size_t n_;
    std::vector<Edge> raw_;
};

/// Sort and deduplicate every row of a CSR whose rows may hold repeats,
/// then close the gaps: on return `offsets` and `neighbours` describe the
/// compacted CSR (the array shrinks in size, not in capacity).  Rows sort
/// in blocks on the global pool, `width` capping the block count (0: the
/// pool width); each block compacts its own span and the spans then slide
/// down in order, so no second neighbour array is held.  GraphBuilder and
/// the streaming generators' chunked builder share this step.
void sort_dedup_rows(std::vector<std::size_t>& offsets, std::vector<Vertex>& neighbours,
                     std::size_t width = 0);

}  // namespace ld::graph
