#include "prob/factor_tree.hpp"

#include <algorithm>

#include "prob/convolve.hpp"
#include "support/expect.hpp"

namespace ld::prob {

using support::expects;

namespace {

bool is_identity(const FactorWindow& w) noexcept {
    return w.lo == 0 && w.mass.size() == 1 && w.mass[0] == 1.0;
}

void make_identity(FactorWindow& w) {
    w.lo = 0;
    w.mass.assign(1, 1.0);
}

}  // namespace

void FactorTree::reset(std::size_t slots, double epsilon) {
    expects(epsilon >= 0.0 && epsilon < 1.0, "FactorTree: epsilon must be in [0, 1)");
    slots_ = slots;
    cap_ = 1;
    while (cap_ < std::max<std::size_t>(slots, 1)) cap_ <<= 1;
    epsilon_ = epsilon;
    const std::size_t internal = cap_ > 1 ? cap_ - 1 : 1;
    clip_tau_ = epsilon > 0.0 ? epsilon / static_cast<double>(internal) : 0.0;
    total_weight_ = 0;
    dropped_total_ = 0.0;
    bulk_ = false;
    leaves_.assign(slots_, Leaf{});
    bulk_dirty_.assign(slots_, 0);
    nodes_.assign(2 * cap_, FactorWindow{});
    for (auto& node : nodes_) make_identity(node);
    dropped_.assign(2 * cap_, 0.0);
}

bool FactorTree::has_factor(std::size_t slot) const {
    expects(slot < slots_, "FactorTree: slot out of range");
    return leaves_[slot].active;
}

std::uint64_t FactorTree::factor_weight(std::size_t slot) const {
    expects(slot < slots_, "FactorTree: slot out of range");
    return leaves_[slot].weight;
}

double FactorTree::factor_p(std::size_t slot) const {
    expects(slot < slots_, "FactorTree: slot out of range");
    return leaves_[slot].p;
}

void FactorTree::set_factor(std::size_t slot, std::uint64_t weight, double p) {
    expects(slot < slots_, "FactorTree: slot out of range");
    expects(p >= 0.0 && p <= 1.0, "FactorTree: p must be a probability");
    Leaf& leaf = leaves_[slot];
    if (leaf.active && leaf.weight == weight && leaf.p == p) return;
    total_weight_ -= leaf.active ? leaf.weight : 0;
    leaf = Leaf{weight, p, true};
    total_weight_ += weight;

    FactorWindow& window = nodes_[cap_ + slot];
    if (weight == 0 || p <= 0.0) {
        make_identity(window);  // point mass at 0 correct weight
    } else if (p >= 1.0) {
        window.lo = weight;
        window.mass.assign(1, 1.0);
    } else {
        window.lo = 0;
        window.mass.assign(weight + 1, 0.0);
        window.mass.front() = 1.0 - p;
        window.mass.back() = p;
    }
    if (bulk_) {
        bulk_dirty_[slot] = 1;
    } else {
        recompute_path(slot);
    }
}

void FactorTree::clear_factor(std::size_t slot) {
    expects(slot < slots_, "FactorTree: slot out of range");
    Leaf& leaf = leaves_[slot];
    if (!leaf.active) return;
    total_weight_ -= leaf.weight;
    leaf = Leaf{};
    make_identity(nodes_[cap_ + slot]);
    if (bulk_) {
        bulk_dirty_[slot] = 1;
    } else {
        recompute_path(slot);
    }
}

void FactorTree::begin_bulk() { bulk_ = true; }

void FactorTree::end_bulk() {
    bulk_ = false;
    if (cap_ == 1) {
        std::fill(bulk_dirty_.begin(), bulk_dirty_.end(), 0);
        return;
    }
    // Mark every internal ancestor of a touched leaf, then combine each
    // marked node exactly once, bottom-up — the O(n) build path.
    std::vector<std::uint8_t> node_dirty(cap_, 0);
    bool any = false;
    for (std::size_t slot = 0; slot < slots_; ++slot) {
        if (!bulk_dirty_[slot]) continue;
        bulk_dirty_[slot] = 0;
        any = true;
        for (std::size_t node = (cap_ + slot) / 2; node >= 1; node /= 2) {
            if (node_dirty[node]) break;  // the rest of the path is marked
            node_dirty[node] = 1;
        }
    }
    if (!any) return;
    for (std::size_t node = cap_ - 1; node >= 1; --node) {
        if (node_dirty[node]) combine(node);
    }
}

void FactorTree::combine(std::size_t node) {
    const FactorWindow& a = nodes_[2 * node];
    const FactorWindow& b = nodes_[2 * node + 1];
    FactorWindow& out = nodes_[node];
    dropped_total_ -= dropped_[node];
    dropped_[node] = 0.0;
    if (is_identity(a)) {
        out.lo = b.lo;
        out.mass.assign(b.mass.begin(), b.mass.end());
        dropped_total_ += dropped_[node];
        return;
    }
    if (is_identity(b)) {
        out.lo = a.lo;
        out.mass.assign(a.mass.begin(), a.mass.end());
        dropped_total_ += dropped_[node];
        return;
    }
    const std::size_t width = a.mass.size() + b.mass.size() - 1;
    scratch_.assign(width, 0.0);
    // Dense window convolution; iterate the smaller factor on the outside
    // so the inner loop is one long contiguous axpy from the kernel tier
    // table (prob/convolve.hpp) — its speed then depends on the tier, not
    // on where the compiler happened to place a loop.
    const FactorWindow& outer = a.mass.size() <= b.mass.size() ? a : b;
    const FactorWindow& inner = a.mass.size() <= b.mass.size() ? b : a;
    const detail::AxpyFn axpy = detail::axpy_kernel();
    for (std::size_t j = 0; j < outer.mass.size(); ++j) {
        const double f = outer.mass[j];
        if (f == 0.0) continue;
        axpy(scratch_.data() + j, inner.mass.data(), inner.mass.size(), f);
    }
    // Clip: trim tail entries (leading and trailing) while the total mass
    // dropped at this node stays within its budget; exact zeros are free.
    std::size_t first = 0;
    std::size_t last = width;  // one past the end
    double dropped = 0.0;
    while (last - first > 1 && dropped + scratch_[first] <= clip_tau_) {
        dropped += scratch_[first];
        ++first;
    }
    while (last - first > 1 && dropped + scratch_[last - 1] <= clip_tau_) {
        dropped += scratch_[last - 1];
        --last;
    }
    out.lo = a.lo + b.lo + first;
    out.mass.assign(scratch_.begin() + static_cast<std::ptrdiff_t>(first),
                    scratch_.begin() + static_cast<std::ptrdiff_t>(last));
    dropped_[node] = dropped;
    dropped_total_ += dropped;
}

void FactorTree::recompute_path(std::size_t slot) {
    for (std::size_t node = (cap_ + slot) / 2; node >= 1; node /= 2) {
        combine(node);
    }
}

double FactorTree::tail_above(std::uint64_t threshold) const {
    const FactorWindow& root = nodes_[1];
    double tail = 0.0;
    // Sum high-to-low so tiny tail terms accumulate before the big ones.
    for (std::size_t i = root.mass.size(); i-- > 0;) {
        if (root.lo + i > threshold) {
            tail += root.mass[i];
        } else {
            break;
        }
    }
    return tail;
}

double FactorTree::majority_probability() const {
    const std::uint64_t w = total_weight_;
    if (w == 0) return 0.0;
    return tail_above(w / 2);  // strict majority: 2S > W  <=>  S > floor(W/2)
}

double FactorTree::error_bound() const { return dropped_total_; }

std::size_t FactorTree::resident_bytes() const {
    std::size_t bytes = 0;
    for (const auto& node : nodes_) bytes += node.mass.capacity() * sizeof(double);
    return bytes;
}

}  // namespace ld::prob
