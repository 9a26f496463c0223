#include "ld/model/instance.hpp"

#include <cmath>
#include <sstream>

#include "support/expect.hpp"

namespace ld::model {

using support::expects;

Instance::Instance(graph::Graph g, CompetencyVector p, double alpha)
    : graph_(std::move(g)), competencies_(std::move(p)), alpha_(alpha) {
    expects(graph_.vertex_count() == competencies_.size(),
            "Instance: graph/competency size mismatch");
    expects(alpha_ > 0.0, "Instance: alpha must be positive (acyclicity requires it)");
    // Precompute the approval CSR: one O(n + m) pass at construction buys
    // allocation-free approved_neighbours_view() in the replication loop.
    // The pass tests each arc once.  α > 0 approves at most one direction
    // of an edge, so edge_count() bounds the approved total.
    const std::size_t n = graph_.vertex_count();
    approved_offsets_.resize(n + 1);
    approved_offsets_[0] = 0;
    approved_flat_.reserve(graph_.edge_count());
    for (graph::Vertex v = 0; v < n; ++v) {
        const double bar = competencies_[v] + alpha_;
        for (graph::Vertex w : graph_.neighbours(v)) {
            if (bar <= competencies_[w]) approved_flat_.push_back(w);
        }
        approved_offsets_[v + 1] = approved_flat_.size();
    }
    approved_flat_.shrink_to_fit();
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
