#include "ld/model/instance.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/expect.hpp"
#include "support/thread_pool.hpp"

namespace ld::model {

using support::expects;

namespace {

/// Append the approved neighbours of voters [begin, end) to `list`, and
/// each voter's end in `list` to ends[v + 1].  A free function, so the
/// loop keeps its operands in registers across push_back.
void list_approved(const graph::Graph& g, std::span<const double> p, double alpha,
                   std::size_t begin, std::size_t end, std::vector<graph::Vertex>& list,
                   std::size_t* ends) {
    for (std::size_t v = begin; v < end; ++v) {
        const double bar = p[v] + alpha;
        for (graph::Vertex w : g.neighbours(static_cast<graph::Vertex>(v))) {
            if (bar <= p[w]) list.push_back(w);
        }
        ends[v + 1] = list.size();
    }
}

}  // namespace

Instance::Instance(graph::Graph g, CompetencyVector p, double alpha)
    : graph_(std::move(g)), competencies_(std::move(p)), alpha_(alpha) {
    expects(graph_.vertex_count() == competencies_.size(),
            "Instance: graph/competency size mismatch");
    expects(alpha_ > 0.0, "Instance: alpha must be positive (acyclicity requires it)");
    // Precompute the approval CSR: one O(n + m) pass at construction buys
    // allocation-free approved_neighbours_view() in the replication loop.
    // The pass tests each arc once.  Each block of voters lists its
    // approved neighbours in its own array in one pass, and the arrays are
    // joined in order into one of the exact total size.  α > 0 approves at
    // most one direction of an edge, so edge_count() bounds each list.
    const std::size_t n = graph_.vertex_count();
    approved_offsets_.resize(n + 1);
    approved_offsets_[0] = 0;
    const support::RowBlocks blocks(graph_.offsets());
    std::vector<std::vector<graph::Vertex>> lists(blocks.count());
    blocks.run([&](std::size_t block, std::size_t begin, std::size_t end) {
        lists[block].reserve(std::min(graph_.edge_count(),
                                      graph_.offsets()[end] - graph_.offsets()[begin]));
        list_approved(graph_, competencies_.values(), alpha_, begin, end, lists[block],
                      approved_offsets_.data());
    });
    std::size_t total = 0;
    for (const auto& list : lists) total += list.size();
    approved_flat_.reserve(total);
    for (std::size_t block = 0; block < blocks.count(); ++block) {
        const std::size_t base = approved_flat_.size();
        approved_flat_.insert(approved_flat_.end(), lists[block].begin(),
                              lists[block].end());
        if (base == 0) continue;
        for (std::size_t v = blocks.begin(block); v < blocks.end(block); ++v) {
            approved_offsets_[v + 1] += base;
        }
    }
}

std::vector<graph::Vertex> Instance::approved_neighbours(graph::Vertex v) const {
    const auto view = approved_neighbours_view(v);
    return {view.begin(), view.end()};
}

std::vector<std::size_t> Instance::approved_neighbour_counts() const {
    std::vector<std::size_t> counts(voter_count());
    for (graph::Vertex v = 0; v < voter_count(); ++v) {
        counts[v] = approved_offsets_[v + 1] - approved_offsets_[v];
    }
    return counts;
}

std::size_t Instance::partition_complexity_bound() const {
    return static_cast<std::size_t>(std::ceil(1.0 / alpha_));
}

std::string Instance::describe() const {
    std::ostringstream os;
    os << "Instance(n=" << voter_count() << ", m=" << graph_.edge_count()
       << ", alpha=" << alpha_ << ", mean_p=" << competencies_.mean() << ")";
    return os.str();
}

}  // namespace ld::model
