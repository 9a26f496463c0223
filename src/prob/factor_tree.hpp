// Segmented product tree over weighted-Bernoulli sink factors — the tally
// half of the incremental churn engine (docs/CHURN.md).
//
// The exact tally of a realized delegation graph is the distribution of
// S = Σ w_i X_i over the voting sinks, a weighted Poisson binomial built
// by convolving one two-point factor {0 ↦ 1−p_i, w_i ↦ p_i} per sink.
// Rebuilding that product after a single-sink change costs O(#sinks · W);
// *dividing out* the old factor is numerically unstable (the deconvolution
// error amplifies by 1/(1−2p) per step, unbounded at p ≈ ½).  Instead we
// keep the partial products: a complete binary tree whose leaf `slot` holds
// voter slot's factor and whose internal nodes hold the convolution of
// their children, so one leaf change re-convolves only the O(log n) nodes
// on its root path.
//
// Certified truncation: each internal node stores a *windowed* pmf — after
// convolving its children it may drop leading/trailing tail mass up to a
// per-node budget τ = ε / #internal-nodes, and records exactly how much it
// dropped.  `error_bound()` returns Σ dropped over the current tree, a
// rigorous bound on |reported − exact| for any tail query (mass is only
// ever removed, never misplaced), and it never exceeds ε no matter how
// many updates have been applied, because recomputing a node *replaces*
// its dropped mass rather than accumulating it.  ε = 0 keeps every node
// exact (identical support to the full DP).
//
// Determinism: the window axpy runs on the dispatched kernel tier
// (`prob/convolve.hpp`), whose tiers all round one multiply and one add
// per element — results are bit-identical across kernel tiers and across
// any update order that produces the same leaf state *per node shape*;
// tests compare against the tier-dispatched reference tally within
// error_bound().

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ld::prob {

/// Windowed pmf of a partial sum: mass[i] = P[S = lo + i].
struct FactorWindow {
    std::uint64_t lo = 0;
    std::vector<double> mass;
};

class FactorTree {
public:
    FactorTree() = default;

    /// Rebuild for `slots` leaf positions with total certified clip budget
    /// `epsilon` (>= 0).  All leaves start as identity (no factor).
    void reset(std::size_t slots, double epsilon);

    std::size_t slots() const noexcept { return slots_; }
    double epsilon() const noexcept { return epsilon_; }

    /// Set leaf `slot` to the two-point factor {0 ↦ 1−p, weight ↦ p} and
    /// recompute its root path (deferred in bulk mode).  weight may be 0
    /// (a sink holding no votes contributes nothing but stays "active").
    void set_factor(std::size_t slot, std::uint64_t weight, double p);

    /// Clear leaf `slot` back to identity (the voter is no longer a sink).
    void clear_factor(std::size_t slot);

    bool has_factor(std::size_t slot) const;
    std::uint64_t factor_weight(std::size_t slot) const;
    double factor_p(std::size_t slot) const;

    /// Defer path recomputation across a batch of set/clear calls;
    /// end_bulk() rebuilds every touched subtree bottom-up (one combine
    /// per node, the O(n) build path — use for initial population).
    void begin_bulk();
    void end_bulk();

    /// Σ weights of active factors (the total cast weight W).
    std::uint64_t total_weight() const noexcept { return total_weight_; }

    /// P[S > threshold] over the active factors.
    double tail_above(std::uint64_t threshold) const;

    /// P[2S > W] — the strict weighted-majority tally.  0 when W == 0
    /// (no votes cast can never be a correct decision).
    double majority_probability() const;

    /// Certified bound on |reported − exact| for tail queries: the total
    /// tail mass currently dropped across all nodes (<= epsilon).
    double error_bound() const;

    /// Approximate resident bytes of all node windows (capacity-based).
    std::size_t resident_bytes() const;

private:
    struct Leaf {
        std::uint64_t weight = 0;
        double p = 0.0;
        bool active = false;
    };

    void combine(std::size_t node);
    void recompute_path(std::size_t slot);

    std::size_t slots_ = 0;
    std::size_t cap_ = 0;  ///< leaf capacity, power of two >= max(slots, 1)
    double epsilon_ = 0.0;
    double clip_tau_ = 0.0;  ///< per-node drop budget
    std::uint64_t total_weight_ = 0;
    double dropped_total_ = 0.0;  ///< running Σ dropped_ (== error_bound())
    bool bulk_ = false;
    std::vector<Leaf> leaves_;
    std::vector<std::uint8_t> bulk_dirty_;  ///< per-leaf, consumed by end_bulk
    std::vector<FactorWindow> nodes_;       ///< heap layout, root = 1
    std::vector<double> dropped_;           ///< mass clipped at each node
    std::vector<double> scratch_;           ///< combine staging buffer
};

}  // namespace ld::prob
