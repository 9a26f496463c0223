// Live tally over a DynamicResolution — the TallyDelta path of the
// incremental churn engine (docs/CHURN.md).
//
// Instead of rebuilding the weighted-Poisson-binomial DP after every
// delegation patch (O(#sinks · W)), LiveTally keeps two segmented product
// trees of sink factors (prob::FactorTree):
//
//  * the *mechanism* tree — one factor {0 ↦ 1−p_s, w_s ↦ p_s} per voting
//    sink of the current delegation state, giving P^M of the live state;
//  * the *direct* tree — one factor per voter at their initial weight,
//    giving the exact P^D baseline (which competency patches also move).
//
// A delegation patch changes the pooled weight of at most two sinks
// (DynamicResolution::PatchResult::changes), so re-tallying is two leaf
// updates flushed together — each dirty ancestor recombined once, O(log n)
// nodes — instead of a full rebuild.  A competency patch updates one leaf
// in each tree.  Reading P^M or P^D is one O(window) pass over a tree's two
// root children.  Both probabilities are certified: |reported − exact| <=
// the tree's error_bound() (<= the ε the trees were reset with).

#pragma once

#include <span>

#include "graph/graph.hpp"
#include "ld/delegation/incremental.hpp"
#include "prob/factor_tree.hpp"

namespace ld::election {

class LiveTally {
public:
    LiveTally() = default;

    /// Rebuild both trees for the resolution's current state.
    /// `competencies` is copied (patches mutate it); `epsilon` is the
    /// certified clip budget applied to each tree independently.
    void reset(std::span<const double> competencies,
               const delegation::DynamicResolution& resolution, double epsilon);

    /// Sync the mechanism tree with one patch's pooled-weight changes.
    void apply_sink_changes(
        std::span<const delegation::DynamicResolution::SinkChange> changes);

    /// Patch voter `v`'s competency (clamped to [0, 1]); updates the
    /// direct tree and, when `v` is currently a voting sink, the
    /// mechanism tree.
    void set_competency(const delegation::DynamicResolution& resolution,
                        graph::Vertex v, double p);

    double competency(graph::Vertex v) const { return p_[v]; }
    std::span<const double> competencies() const noexcept { return p_; }

    /// P[the live delegation state decides correctly] (strict weighted
    /// majority over the current sinks).
    double correct_probability() const { return mech_tree_.majority_probability(); }

    /// Exact-within-ε P^D under the current competencies.
    double direct_probability() const { return direct_tree_.majority_probability(); }

    double gain() const { return correct_probability() - direct_probability(); }

    /// Certified numerical bound on |reported − exact| for the mechanism
    /// (resp. direct) probability.
    double error_bound() const { return mech_tree_.error_bound(); }
    double direct_error_bound() const { return direct_tree_.error_bound(); }

    const prob::FactorTree& mechanism_tree() const noexcept { return mech_tree_; }
    const prob::FactorTree& direct_tree() const noexcept { return direct_tree_; }

private:
    std::vector<double> p_;
    prob::FactorTree mech_tree_;
    prob::FactorTree direct_tree_;
};

}  // namespace ld::election
