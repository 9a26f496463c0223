// FNV-1a folding for the digest tests, which pin generated graphs, report
// fields and Rng positions bit-for-bit against recorded values.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ld::test {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a over the little-endian bytes of the integer `value`.
template <typename T>
void fnv1a_fold(std::uint64_t& hash, T value) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        hash ^= (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xffu;
        hash *= 0x100000001b3ULL;
    }
}

/// A double folds as its bit pattern.
inline void fnv1a_fold(std::uint64_t& hash, double value) {
    fnv1a_fold(hash, std::bit_cast<std::uint64_t>(value));
}

/// An edge list folds as its length, then each edge's endpoints in order.
inline void fnv1a_fold_edges(std::uint64_t& hash, const std::vector<graph::Edge>& edges) {
    fnv1a_fold(hash, edges.size());
    for (const graph::Edge& e : edges) {
        fnv1a_fold(hash, e.u);
        fnv1a_fold(hash, e.v);
    }
}

}  // namespace ld::test
