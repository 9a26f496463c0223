#include "graph/graph.hpp"

#include <algorithm>
#include <cstdint>

#include "support/expect.hpp"
#include "support/thread_pool.hpp"

namespace ld::graph {

using support::expects;

Graph Graph::empty(std::size_t n) {
    return Graph(std::vector<std::size_t>(n + 1, 0), {});
}

Graph Graph::from_csr(std::vector<std::size_t> offsets, std::vector<Vertex> neighbours,
                      std::size_t width) {
    expects(!offsets.empty(), "from_csr: offsets must have size n + 1");
    expects(offsets.front() == 0 && offsets.back() == neighbours.size(),
            "from_csr: offsets must span the neighbour array");
    const std::size_t n = offsets.size() - 1;
    expects(neighbours.size() % 2 == 0, "from_csr: half-edge count must be even");
    // The row checks split into blocks of rows; a failing block reports its
    // first failure and the lowest block's wins, as in one serial pass.
    const support::RowBlocks blocks(offsets, 1, width);
    const std::size_t half_edges = neighbours.size();
    blocks.run([&, half_edges](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            // An offset past the array implies a later decrease.
            expects(offsets[v] <= offsets[v + 1] && offsets[v + 1] <= half_edges,
                    "from_csr: offsets must be monotone");
            for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
                expects(neighbours[i] < n, "from_csr: neighbour out of range");
                expects(neighbours[i] != v, "from_csr: self-loops are not allowed");
                expects(i == offsets[v] || neighbours[i - 1] < neighbours[i],
                        "from_csr: adjacency must be ascending and deduplicated");
            }
        }
    });
    // Symmetry: every half-edge must have its mirror.  Visiting u in
    // ascending order meets the mirrors of v's row in v's ascending order,
    // so one count per row consumes it front to back (visiting u in
    // descending order: back to front); a row that shows anything but u
    // next, or runs out, holds a half-edge without a mirror.
    // When the row checks split, `mid` cuts the vertices into a low and a
    // high half of about equal entries, and the half-edges fall into four
    // tiles by the halves of their ends.  Three walks run in parallel:
    // low to low and high to high each consume their own tile; high to low
    // consumes the low rows' high entries from the back, which finds a
    // mirror for each of its half-edges, so equal tile sizes leave none
    // from low to high without one.  Sorted rows make each tile a prefix
    // or a suffix of its rows, so no walk searches a row, and the walks
    // together visit each half-edge once at any block count.  One half
    // (mid = n) is the single serial walk.
    const std::size_t mid =
        support::RowBlocks(offsets, 1, std::min<std::size_t>(blocks.count(), 2)).end(0);
    const std::size_t* off = offsets.data();
    const Vertex* nb = neighbours.data();
    const auto mirror = [off, nb](std::uint32_t& taken, Vertex v, std::size_t u,
                                  bool from_back) {
        const std::size_t k = taken++;
        const std::size_t at = from_back ? off[v + 1] - 1 - k : off[v] + k;
        expects(off[v] + k < off[v + 1] && nb[at] == u,
                "from_csr: adjacency must be symmetric");
    };
    std::vector<std::uint32_t> taken(n);  // low rows from the front, high from the back
    std::size_t low_to_low = 0;
    std::size_t high_to_low = 0;
    support::run_blocks(mid < n ? 3 : 1, [&](std::size_t tile) {
        std::size_t walked = 0;
        if (tile == 0) {
            for (std::size_t u = 0; u < mid; ++u) {
                std::size_t i = off[u];
                for (; i < off[u + 1] && nb[i] < mid; ++i) {
                    mirror(taken[nb[i]], nb[i], u, false);
                }
                walked += i - off[u];
            }
            low_to_low = walked;
        } else if (tile == 1) {
            for (std::size_t u = n; u-- > mid;) {
                for (std::size_t i = off[u + 1]; i > off[u] && nb[i - 1] >= mid; --i) {
                    mirror(taken[nb[i - 1]], nb[i - 1], u, true);
                }
            }
        } else {
            std::vector<std::uint32_t> taken_high(mid);  // low rows' high entries
            for (std::size_t u = n; u-- > mid;) {
                std::size_t i = off[u];
                for (; i < off[u + 1] && nb[i] < mid; ++i) {
                    mirror(taken_high[nb[i]], nb[i], u, true);
                }
                walked += i - off[u];
            }
            high_to_low = walked;
        }
    });
    // The low rows' entries left by the low-to-low walk are low to high.
    expects(offsets[mid] - low_to_low == high_to_low,
            "from_csr: adjacency must be symmetric");
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
    // CSR rows; then sort, deduplicate and compact them.  A duplicated edge
    // repeats in both of its rows, so the rows stay symmetric.
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
    sort_dedup_rows(offsets, neighbours);
    return Graph(std::move(offsets), std::move(neighbours));
}

void sort_dedup_rows(std::vector<std::size_t>& offsets, std::vector<Vertex>& neighbours,
                     std::size_t width) {
    const std::size_t n = offsets.size() - 1;
    const auto at = [&](std::size_t i) {
        return neighbours.begin() + static_cast<std::ptrdiff_t>(i);
    };
    // Each block compacts its rows toward the start of its own span and
    // records where its span now ends.  A block rewrites the offsets of its
    // rows after the first, so no two blocks touch one offset.
    const support::RowBlocks blocks(offsets, support::RowBlocks::kSortWork, width);
    std::vector<std::size_t> span_end(blocks.count());
    blocks.run([&](std::size_t block, std::size_t begin, std::size_t end) {
        std::size_t first = offsets[begin];
        std::size_t write = first;
        for (std::size_t v = begin; v < end; ++v) {
            const std::size_t last = offsets[v + 1];
            std::sort(at(first), at(last));
            const auto row_end = std::unique(at(first), at(last));
            if (write != first) std::copy(at(first), row_end, at(write));  // shift left
            write += static_cast<std::size_t>(row_end - at(first));
            if (v + 1 < end) offsets[v + 1] = write;
            first = last;
        }
        span_end[block] = write;
    });
    // Slide the compacted spans down in block order.
    std::size_t kept = 0;
    for (std::size_t block = 0; block < blocks.count(); ++block) {
        const std::size_t first = offsets[blocks.begin(block)];
        if (first != kept) {
            std::copy(at(first), at(span_end[block]), at(kept));
            for (std::size_t v = blocks.begin(block); v < blocks.end(block); ++v) {
                offsets[v] -= first - kept;
            }
        }
        kept += span_end[block] - first;
    }
    offsets[n] = kept;
    neighbours.resize(kept);
}

}  // namespace ld::graph
