#include "ld/election/tally_delta.hpp"

#include <algorithm>

#include "support/expect.hpp"

namespace ld::election {

using support::expects;

void LiveTally::reset(std::span<const double> competencies,
                      const delegation::DynamicResolution& resolution,
                      double epsilon) {
    const std::size_t n = resolution.voter_count();
    expects(competencies.size() == n,
            "LiveTally: one competency per voter required");
    p_.assign(competencies.begin(), competencies.end());
    mech_tree_.reset(n, epsilon);
    direct_tree_.reset(n, epsilon);
    mech_tree_.begin_bulk();
    direct_tree_.begin_bulk();
    for (graph::Vertex v = 0; v < n; ++v) {
        const std::uint64_t pooled = resolution.pooled_weight(v);
        if (pooled > 0) mech_tree_.set_factor(v, pooled, p_[v]);
        direct_tree_.set_factor(v, resolution.initial_weight(v), p_[v]);
    }
    mech_tree_.end_bulk();
    direct_tree_.end_bulk();
}

void LiveTally::apply_sink_changes(
    std::span<const delegation::DynamicResolution::SinkChange> changes) {
    // One flush for the whole patch: the two sinks' root paths share their
    // upper ancestors, which are then combined once instead of twice.
    mech_tree_.begin_bulk();
    for (const auto& change : changes) {
        if (change.weight > 0) {
            mech_tree_.set_factor(change.sink, change.weight, p_[change.sink]);
        } else {
            mech_tree_.clear_factor(change.sink);
        }
    }
    mech_tree_.end_bulk();
}

void LiveTally::set_competency(const delegation::DynamicResolution& resolution,
                               graph::Vertex v, double p) {
    expects(v < p_.size(), "LiveTally: voter out of range");
    p_[v] = std::clamp(p, 0.0, 1.0);
    direct_tree_.set_factor(v, resolution.initial_weight(v), p_[v]);
    const std::uint64_t pooled = resolution.pooled_weight(v);
    if (pooled > 0) mech_tree_.set_factor(v, pooled, p_[v]);
}

}  // namespace ld::election
