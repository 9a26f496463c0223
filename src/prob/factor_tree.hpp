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
// The root itself is never built.  Its product would be read by one tail
// query and costs about as much as the rest of the path together, so
// `tail_above` reads P[A + B > t] off the root's two children A and B in
// one O(|A| + |B|) pass (a one-slot tree reads its leaf).  Changed leaves
// queue up until the next flush — at once outside bulk mode, at
// `end_bulk()` inside it — and a flush combines every dirty node once,
// children before parents, however many of its leaves changed.
//
// Certified truncation: each internal node below the root stores a
// *windowed* pmf — after convolving its children it may drop
// leading/trailing tail mass up to a per-node budget τ = ε / #internal-
// nodes, and records exactly how much it dropped.  `error_bound()`
// returns Σ dropped over those nodes, a rigorous bound on |reported −
// exact| for any tail query (mass is only ever removed, never misplaced),
// and it never exceeds ε no matter how many updates have been applied,
// because recomputing a node *replaces* its dropped mass rather than
// accumulating it.  ε = 0 keeps every node exact.
//
// Determinism: the window convolution runs on the dispatched kernel tier
// (`prob/convolve.hpp`), whose tiers all round the same multiplies and
// adds in the same order — every node window is bit-identical across
// kernel tiers and across any update order that produces the same leaf
// state; tests compare against brute force and the tier-dispatched
// reference tally within error_bound().

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
    /// end_bulk() combines every ancestor of a touched leaf once, children
    /// first — the O(n) build path for initial population, and one
    /// combine per dirty node for a multi-leaf patch.
    void begin_bulk();
    void end_bulk();

    /// Σ weights of active factors (the total cast weight W).
    std::uint64_t total_weight() const noexcept { return total_weight_; }

    /// P[S > threshold] over the active factors, read off the root's two
    /// children in O(window) without building the root.
    double tail_above(std::uint64_t threshold) const;

    /// P[2S > W] — the strict weighted-majority tally.  0 when W == 0
    /// (no votes cast can never be a correct decision).
    double majority_probability() const;

    /// Certified bound on |reported − exact| for tail queries: the total
    /// tail mass currently dropped across the nodes below the root
    /// (<= epsilon).
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
    void mark_dirty(std::size_t slot);
    void flush();

    std::size_t slots_ = 0;
    std::size_t cap_ = 0;  ///< leaf capacity, power of two >= max(slots, 1)
    double epsilon_ = 0.0;
    double clip_tau_ = 0.0;  ///< per-node drop budget
    std::uint64_t total_weight_ = 0;
    double dropped_total_ = 0.0;  ///< running Σ dropped_ (== error_bound())
    bool bulk_ = false;
    std::vector<Leaf> leaves_;
    std::vector<std::size_t> pending_;  ///< leaves changed since the last flush
    std::vector<FactorWindow> nodes_;   ///< heap layout, root = 1 (a leaf or unbuilt)
    std::vector<double> dropped_;       ///< mass clipped at each node
    std::vector<double> padded_;        ///< combine: zero-padded larger child
    std::vector<double> scratch_;       ///< combine staging buffer
};

}  // namespace ld::prob
