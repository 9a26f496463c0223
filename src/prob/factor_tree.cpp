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
    pending_.clear();
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
    mark_dirty(slot);
}

void FactorTree::clear_factor(std::size_t slot) {
    expects(slot < slots_, "FactorTree: slot out of range");
    Leaf& leaf = leaves_[slot];
    if (!leaf.active) return;
    total_weight_ -= leaf.weight;
    leaf = Leaf{};
    make_identity(nodes_[cap_ + slot]);
    mark_dirty(slot);
}

void FactorTree::begin_bulk() { bulk_ = true; }

void FactorTree::end_bulk() {
    bulk_ = false;
    flush();
}

void FactorTree::mark_dirty(std::size_t slot) {
    pending_.push_back(cap_ + slot);
    if (!bulk_) flush();
}

void FactorTree::flush() {
    if (pending_.empty()) return;
    // All leaves sit on one level, so walking the pending set up one level
    // at a time combines every dirty node once, after both its children.
    // The walk stops below the root: tail_above reads the root's children.
    std::sort(pending_.begin(), pending_.end());
    for (;;) {
        for (std::size_t& node : pending_) node /= 2;
        pending_.erase(std::unique(pending_.begin(), pending_.end()), pending_.end());
        if (pending_.front() < 2) break;
        for (const std::size_t node : pending_) combine(node);
    }
    // A full build queues every leaf: keep only a patch-sized list.
    if (pending_.capacity() > 64) {
        pending_ = std::vector<std::size_t>();
    } else {
        pending_.clear();
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
    scratch_.resize(width);
    // Dense window convolution on the kernel tier table
    // (prob/convolve.hpp): the smaller child supplies the factors, the
    // larger one the zero-padded input each output block reads.
    const FactorWindow& outer = a.mass.size() <= b.mass.size() ? a : b;
    const FactorWindow& inner = a.mass.size() <= b.mass.size() ? b : a;
    detail::window_convolve_kernel()(
        outer.mass.data(), outer.mass.size(),
        detail::pad_window(inner.mass.data(), inner.mass.size(), padded_),
        inner.mass.size(), scratch_.data());
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

double FactorTree::tail_above(std::uint64_t threshold) const {
    // P[A + B > t] = Σ_i a[i] · P[B > t − (a.lo + i)] over the root's
    // children A and B.  As i rises the threshold on B falls, so B's
    // suffix sum grows high to low in step with it: one pass over each
    // child.  A one-slot tree's root is its leaf, paired with the identity.
    static const FactorWindow kIdentity{0, {1.0}};
    const FactorWindow& a = nodes_[cap_ == 1 ? 1 : 2];
    const FactorWindow& b = cap_ == 1 ? kIdentity : nodes_[3];
    double tail = 0.0;
    double b_suffix = 0.0;  // Σ b[k..)
    std::size_t k = b.mass.size();
    for (std::size_t i = 0; i < a.mass.size(); ++i) {
        while (k > 0 && a.lo + i + b.lo + (k - 1) > threshold) b_suffix += b.mass[--k];
        tail += a.mass[i] * b_suffix;
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
