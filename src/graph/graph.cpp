#include "graph/graph.hpp"

#include <algorithm>

#include "support/expect.hpp"

namespace ld::graph {

using support::expects;

Graph Graph::empty(std::size_t n) {
    return Graph(std::vector<std::size_t>(n + 1, 0), {});
}

Graph Graph::from_csr(std::vector<std::size_t> offsets, std::vector<Vertex> neighbours) {
    expects(!offsets.empty(), "from_csr: offsets must have size n + 1");
    expects(offsets.front() == 0 && offsets.back() == neighbours.size(),
            "from_csr: offsets must span the neighbour array");
    const std::size_t n = offsets.size() - 1;
    expects(neighbours.size() % 2 == 0, "from_csr: half-edge count must be even");
    for (std::size_t v = 0; v < n; ++v) {
        expects(offsets[v] <= offsets[v + 1], "from_csr: offsets must be monotone");
        for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
            expects(neighbours[i] < n, "from_csr: neighbour out of range");
            expects(neighbours[i] != v, "from_csr: self-loops are not allowed");
            expects(i == offsets[v] || neighbours[i - 1] < neighbours[i],
                    "from_csr: adjacency must be ascending and deduplicated");
        }
    }
    // Symmetry: every half-edge must have its mirror.  Visiting u in
    // ascending order meets the mirrors of v's row in v's ascending order,
    // so one cursor per row consumes it front to back; a cursor that finds
    // anything but u (or runs off its row) is a half-edge without a mirror.
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
            const Vertex v = neighbours[i];
            expects(cursor[v] < offsets[v + 1] && neighbours[cursor[v]] == u,
                    "from_csr: adjacency must be symmetric");
            ++cursor[v];
        }
    }
    return Graph(std::move(offsets), std::move(neighbours));
}

bool Graph::has_edge(Vertex u, Vertex v) const {
    if (u >= vertex_count() || v >= vertex_count()) return false;
    // Search the smaller adjacency list.
    if (degree(u) > degree(v)) std::swap(u, v);
    const auto nbrs = neighbours(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edges() const {
    std::vector<Edge> out;
    out.reserve(edge_count());
    for (Vertex u = 0; u < vertex_count(); ++u) {
        for (Vertex v : neighbours(u)) {
            if (u < v) out.push_back(Edge{u, v});
        }
    }
    return out;
}

GraphBuilder::GraphBuilder(std::size_t n) : n_(n) {}

GraphBuilder& GraphBuilder::add_edge(Vertex u, Vertex v) {
    expects(u < n_ && v < n_, "add_edge: vertex out of range");
    expects(u != v, "add_edge: self-loops are not allowed");
    if (u > v) std::swap(u, v);
    raw_.push_back(Edge{u, v});
    return *this;
}

Graph GraphBuilder::build() const {
    // Scatter both endpoints of every insertion, duplicates included, into
    // CSR rows; then sort, deduplicate and compact each row in place.  A
    // duplicated edge repeats in both of its rows, so the rows stay
    // symmetric.
    std::vector<std::size_t> offsets(n_ + 1, 0);
    for (const Edge& e : raw_) {
        ++offsets[e.u + 1];
        ++offsets[e.v + 1];
    }
    for (std::size_t i = 1; i <= n_; ++i) offsets[i] += offsets[i - 1];

    std::vector<Vertex> neighbours(raw_.size() * 2);
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : raw_) {
        neighbours[cursor[e.u]++] = e.v;
        neighbours[cursor[e.v]++] = e.u;
    }
    const auto at = [&](std::size_t i) {
        return neighbours.begin() + static_cast<std::ptrdiff_t>(i);
    };
    std::size_t kept = 0;
    for (std::size_t v = 0; v < n_; ++v) {
        const std::size_t first = offsets[v];
        const std::size_t last = offsets[v + 1];
        std::sort(at(first), at(last));
        const auto row_end = std::unique(at(first), at(last));
        if (kept != first) std::copy(at(first), row_end, at(kept));  // shift left
        offsets[v] = kept;
        kept += static_cast<std::size_t>(row_end - at(first));
    }
    offsets[n_] = kept;
    neighbours.resize(kept);
    return Graph(std::move(offsets), std::move(neighbours));
}

}  // namespace ld::graph
