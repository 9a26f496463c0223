#include "gen/families.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

#include "rng/rng.hpp"
#include "rng/sampling.hpp"
#include "support/expect.hpp"
#include "support/thread_pool.hpp"

namespace ld::gen {

using graph::Vertex;
using support::expects;

namespace {

// hash_draw stream tags; any distinct constants keep the streams disjoint.
constexpr std::uint64_t kBaTag = 0x1bab1ed6e5ULL;
constexpr std::uint64_t kPosTag = 0x6e0c00cdULL;

/// Block work of one vertex's transcendental call (a pow or a log2 plus a
/// hash), in CSR-entry units: a pass over n such vertices splits into
/// blocks from n = 8192 on.
constexpr std::size_t kPowWork = 16;

/// Map a 64-bit hash onto [0, bound) by fixed-point multiply — the
/// deterministic cousin of Rng::next_below for stateless draws.
std::uint64_t bounded(std::uint64_t h, std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(h) * bound) >> 64);
}

/// Geometric skip length for probability `p` in (0, 1) from uniform `r`:
/// the number of misses before the next hit in a Bernoulli(p) row.
/// Returned as double so callers can range-check before casting.
double geometric_skip(double r, double log1mp) noexcept {
    return std::floor(std::log1p(-r) / log1mp);
}

}  // namespace

// ---------------------------------------------------------------- complete

CompleteGen::CompleteGen(GeneratorConfig config)
    : StreamingGenerator(std::move(config)) {}

void CompleteGen::emit_cell(std::size_t cell, ChunkBuffer& out) const {
    const auto u = static_cast<Vertex>(cell);
    const std::size_t n = config().n;
    for (std::size_t v = cell + 1; v < n; ++v) {
        out.emit(u, static_cast<Vertex>(v));
    }
}

double CompleteGen::edge_estimate() const {
    const double n = static_cast<double>(config().n);
    return n * (n - 1.0) / 2.0;
}

// -------------------------------------------------------------------- star

StarGen::StarGen(GeneratorConfig config) : StreamingGenerator(std::move(config)) {}

void StarGen::emit_cell(std::size_t cell, ChunkBuffer& out) const {
    if (cell == 0) return;
    out.emit(0, static_cast<Vertex>(cell));
}

double StarGen::edge_estimate() const {
    return static_cast<double>(config().n) - 1.0;
}

// --------------------------------------------------------------------- gnp

GnpGen::GnpGen(GeneratorConfig config) : StreamingGenerator(std::move(config)) {}

void GnpGen::emit_cell(std::size_t cell, ChunkBuffer& out) const {
    const double p = config().p;
    if (cell == 0 || p <= 0.0) return;
    const auto v = static_cast<Vertex>(cell);
    if (p >= 1.0) {
        for (std::size_t u = 0; u < cell; ++u) out.emit(static_cast<Vertex>(u), v);
        return;
    }
    // Batagelj–Brandes: geometric skips over the partners u < v.
    rng::Rng row(derive_cell_seed(config().seed, cell));
    const double log1mp = std::log1p(-p);
    std::size_t u = 0;
    while (u < cell) {
        const double skip = geometric_skip(row.next_double(), log1mp);
        if (skip >= static_cast<double>(cell - u)) break;
        u += static_cast<std::size_t>(skip);
        out.emit(static_cast<Vertex>(u), v);
        ++u;
    }
}

double GnpGen::edge_estimate() const {
    const double n = static_cast<double>(config().n);
    return config().p * n * (n - 1.0) / 2.0;
}

// --------------------------------------------------------------------- gnm

GnmGen::GnmGen(GeneratorConfig config) : StreamingGenerator(std::move(config)) {}

std::size_t GnmGen::cell_count() const {
    return (config().edges + kEdgeCellDraws - 1) / kEdgeCellDraws;
}

void GnmGen::emit_cell(std::size_t cell, ChunkBuffer& out) const {
    const std::size_t n = config().n;
    const std::size_t begin = cell * kEdgeCellDraws;
    const std::size_t end = std::min(config().edges, begin + kEdgeCellDraws);
    rng::Rng block(derive_cell_seed(config().seed, cell));
    for (std::size_t draw = begin; draw < end; ++draw) {
        const auto u = static_cast<Vertex>(block.next_below(n));
        const auto v = static_cast<Vertex>(block.next_below(n));
        out.emit(u, v);  // self-loops dropped, duplicates collapse in the sink
    }
}

double GnmGen::edge_estimate() const {
    const double n = static_cast<double>(config().n);
    return std::min(static_cast<double>(config().edges), n * (n - 1.0) / 2.0);
}

// -------------------------------------------------------------------- dout

DOutGen::DOutGen(GeneratorConfig config) : StreamingGenerator(std::move(config)) {}

void DOutGen::emit_cell(std::size_t cell, ChunkBuffer& out) const {
    const auto v = static_cast<Vertex>(cell);
    rng::Rng row(derive_cell_seed(config().seed, cell));
    // Sample d distinct targets from the n-1 other vertices.
    for (std::size_t t :
         rng::sample_without_replacement(row, config().n - 1, config().degree)) {
        const std::size_t target = t < cell ? t : t + 1;
        out.emit(v, static_cast<Vertex>(target));
    }
}

double DOutGen::edge_estimate() const {
    return static_cast<double>(config().n) * static_cast<double>(config().degree);
}

// ---------------------------------------------------------------- dregular

namespace {

constexpr std::uint64_t kDregTag = 0xd4e60157ab5ULL;

/// One forward pass of the 4-round Feistel network over 2·half_bits bits.
/// Keyed by (seed, round) through hash_draw, so the permutation is a
/// pure function of the graph seed — no state, random access per stub.
std::uint64_t feistel_pass(std::uint64_t x, std::uint64_t seed,
                           std::uint32_t half_bits) noexcept {
    const std::uint64_t mask = (std::uint64_t{1} << half_bits) - 1;
    std::uint64_t left = x >> half_bits;
    std::uint64_t right = x & mask;
    for (std::uint64_t round = 0; round < 4; ++round) {
        const std::uint64_t next =
            left ^ (hash_draw(seed, kDregTag + round, right) & mask);
        left = right;
        right = next;
    }
    return (left << half_bits) | right;
}

}  // namespace

DRegularGen::DRegularGen(GeneratorConfig config)
    : StreamingGenerator(std::move(config)) {
    stub_count_ = static_cast<std::uint64_t>(this->config().n) *
                  static_cast<std::uint64_t>(this->config().degree);
    // Smallest balanced Feistel domain 2^(2·half_bits) >= stub_count_;
    // cycle-walking shrinks it onto [0, stub_count_) below.
    while ((std::uint64_t{1} << (2 * half_bits_)) < stub_count_) ++half_bits_;
}

std::uint64_t DRegularGen::permuted_stub(std::uint64_t index) const {
    // Cycle-walking: re-apply the domain permutation until the image
    // lands inside [0, stub_count_).  Expected < 4 passes (the domain is
    // less than 4x the stub count); each intermediate value outside the
    // range is visited by exactly one walk, so σ stays a permutation.
    std::uint64_t x = feistel_pass(index, config().seed, half_bits_);
    while (x >= stub_count_) x = feistel_pass(x, config().seed, half_bits_);
    return x;
}

std::size_t DRegularGen::cell_count() const {
    const std::uint64_t pairs = stub_count_ / 2;
    return static_cast<std::size_t>((pairs + kEdgeCellDraws - 1) / kEdgeCellDraws);
}

void DRegularGen::emit_cell(std::size_t cell, ChunkBuffer& out) const {
    const std::uint64_t d = config().degree;
    if (d == 0) return;
    const std::uint64_t pairs = stub_count_ / 2;
    const std::uint64_t begin = static_cast<std::uint64_t>(cell) * kEdgeCellDraws;
    const std::uint64_t end = std::min(pairs, begin + kEdgeCellDraws);
    for (std::uint64_t k = begin; k < end; ++k) {
        const auto u = static_cast<Vertex>(permuted_stub(2 * k) / d);
        const auto v = static_cast<Vertex>(permuted_stub(2 * k + 1) / d);
        out.emit(u, v);  // loops dropped, duplicates collapse: erased model
    }
}

double DRegularGen::edge_estimate() const {
    return static_cast<double>(config().n) * static_cast<double>(config().degree) / 2.0;
}

// ---------------------------------------------------------------------- ba

namespace {

/// Resolve the target of Barabási–Albert edge slot `j` (m edges per
/// vertex, source(j) = j / m).  Slot j's draw is uniform over the 2j + 1
/// endpoint positions written before it plus its own source; an odd
/// position k refers to the target of earlier slot k/2, which we resolve
/// by re-hashing — the chain strictly decreases, O(log) expected length.
/// Choosing an endpoint uniformly is exactly degree-proportional choice,
/// so the degree tail is the classic tau = 3 power law.
Vertex ba_target(std::uint64_t seed, std::size_t m, std::uint64_t j) {
    while (true) {
        const std::uint64_t k = bounded(hash_draw(seed, kBaTag, j), 2 * j + 1);
        if ((k & 1) == 0) return static_cast<Vertex>((k / 2) / m);
        j = k / 2;
    }
}

}  // namespace

BarabasiAlbertGen::BarabasiAlbertGen(GeneratorConfig config)
    : StreamingGenerator(std::move(config)) {}

void BarabasiAlbertGen::emit_cell(std::size_t cell, ChunkBuffer& out) const {
    const auto v = static_cast<Vertex>(cell);
    const std::size_t m = config().degree;
    const std::uint64_t seed = config().seed;
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t j = static_cast<std::uint64_t>(cell) * m + i;
        out.emit(v, ba_target(seed, m, j));  // self-copies drop as loops
    }
}

double BarabasiAlbertGen::edge_estimate() const {
    return static_cast<double>(config().n) * static_cast<double>(config().degree);
}

// ---------------------------------------------------------------------- ws

WattsStrogatzGen::WattsStrogatzGen(GeneratorConfig config)
    : StreamingGenerator(std::move(config)) {}

void WattsStrogatzGen::emit_cell(std::size_t cell, ChunkBuffer& out) const {
    const auto v = static_cast<Vertex>(cell);
    const std::size_t n = config().n;
    const std::size_t half_k = config().degree / 2;
    rng::Rng row(derive_cell_seed(config().seed, cell));
    for (std::size_t i = 1; i <= half_k; ++i) {
        const std::size_t lattice = (cell + i) % n;
        const std::size_t target =
            row.next_bernoulli(config().beta)
                ? static_cast<std::size_t>(row.next_below(n))
                : lattice;
        out.emit(v, static_cast<Vertex>(target));
    }
}

double WattsStrogatzGen::edge_estimate() const {
    return static_cast<double>(config().n) * static_cast<double>(config().degree) / 2.0;
}

// ----------------------------------------------------------------- weights

std::pair<std::vector<double>, double> power_law_weights(std::size_t n, double gamma,
                                                         double avg_degree, double cap,
                                                         std::size_t width) {
    expects(gamma > 2.0, "power_law_weights: gamma must exceed 2");
    std::vector<double> w(n);
    const double exponent = -1.0 / (gamma - 1.0);
    // The powers fill in blocks; each sum stays one pass in index order,
    // so it rounds as a serial fill's does.
    support::RowBlocks(n, kPowWork, width)
        .run([out = w.data(), exponent](std::size_t, std::size_t begin, std::size_t end) {
            for (std::size_t v = begin; v < end; ++v) {
                out[v] = std::pow(static_cast<double>(v + 1), exponent);
            }
        });
    double sum = 0.0;
    for (const double x : w) sum += x;
    const double scale = avg_degree * static_cast<double>(n) / sum;
    sum = 0.0;
    for (double& x : w) {
        x *= scale;
        if (cap > 0.0 && x > cap) x = cap;
        sum += x;
    }
    return {std::move(w), sum};
}

// ----------------------------------------------------------------- chunglu

ChungLuGen::ChungLuGen(GeneratorConfig config)
    : StreamingGenerator(std::move(config)) {}

void ChungLuGen::prepare() {
    if (!weights_.empty()) return;
    auto [w, sum] = power_law_weights(config().n, config().gamma, config().avg_degree,
                                      config().max_weight, config().threads);
    // The sqrt(S) ceiling keeps w_u * w_v / S a probability for every pair.
    const double ceiling = std::sqrt(sum);
    bool clipped = false;
    for (double& x : w) {
        if (x > ceiling) {
            x = ceiling;
            clipped = true;
        }
    }
    if (clipped) sum = std::accumulate(w.begin(), w.end(), 0.0);
    weights_ = std::move(w);
    weight_sum_ = sum;
}

void ChungLuGen::emit_cell(std::size_t cell, ChunkBuffer& out) const {
    const std::size_t n = config().n;
    if (cell + 1 >= n) return;
    const auto u = static_cast<Vertex>(cell);
    const double wu = weights_[u];
    if (wu <= 0.0 || weight_sum_ <= 0.0) return;
    // Miller–Hagberg: partners v > u have non-increasing weights, so the
    // probability at the current position bounds all later ones — skip
    // geometrically at that bound, then thin to the exact probability.
    rng::Rng row(derive_cell_seed(config().seed, cell));
    std::size_t v = cell + 1;
    double p = std::min(1.0, wu * weights_[v] / weight_sum_);
    while (v < n && p > 0.0) {
        if (p < 1.0) {
            const double skip = geometric_skip(row.next_double(), std::log1p(-p));
            if (skip >= static_cast<double>(n - v)) break;
            v += static_cast<std::size_t>(skip);
        }
        const double q = std::min(1.0, wu * weights_[v] / weight_sum_);
        if (row.next_double() * p < q) {
            out.emit(u, static_cast<Vertex>(v));
        }
        p = q;
        ++v;
    }
}

double ChungLuGen::edge_estimate() const {
    return static_cast<double>(config().n) * config().avg_degree / 2.0;
}

std::size_t ChungLuGen::prepared_bytes() const {
    return weights_.size() * sizeof(double);
}

// -------------------------------------------------------------- hyperbolic

HyperbolicGen::HyperbolicGen(GeneratorConfig config)
    : StreamingGenerator(std::move(config)) {}

double HyperbolicGen::position(Vertex v) const {
    return static_cast<double>(hash_draw(config().seed, kPosTag, v) >> 11) *
           0x1.0p-53;
}

void HyperbolicGen::prepare() {
    if (prepared_) return;
    const std::size_t n = config().n;
    auto [w, sum] = power_law_weights(n, config().gamma, config().avg_degree,
                                      config().max_weight, config().threads);
    weights_ = std::move(w);
    weight_sum_ = sum;

    // Dyadic weight layers, each listing its members by (position, id).
    // Weights descend with vertex index, so each layer is a run of
    // consecutive indices; empty layers are possible (large weight jumps
    // at the top ranks) and simply spawn no tasks.
    const double w_min = weights_.back();
    const auto layer_of = [&](std::size_t v) {
        return static_cast<std::size_t>(
            std::max(0.0, std::floor(std::log2(weights_[v] / w_min))));
    };
    layers_.assign(layer_of(0) + 1, Layer{});
    // Each layer splits into `buckets` equal position ranges.  The
    // (layer, bucket) keys are the rows of a CSR over the vertices, filled
    // by a counting sort (per-block counts, then each block scatters its
    // own vertices) and sorted row by row; rows in key order then list
    // every layer by ascending (position, id), a bucket holding only
    // positions above the previous bucket's.  Pairs are distinct, so the
    // order does not depend on the scatter's.
    // A power of two, so pos * buckets is exact and stays below buckets;
    // at most 2^23 buckets and 33 layers for n < 2^32, so keys fit 32 bits.
    const std::size_t buckets = std::bit_ceil(std::max<std::size_t>(1, n / 512));
    const std::size_t keys = layers_.size() * buckets;
    const support::RowBlocks vertex_blocks(n, kPowWork, config().threads);
    std::vector<std::uint32_t> vertex_key(n);
    std::vector<std::size_t> cursors(vertex_blocks.count() * keys, 0);
    vertex_blocks.run([&](std::size_t block, std::size_t begin, std::size_t end) {
        std::size_t* count = cursors.data() + block * keys;
        for (std::size_t v = begin; v < end; ++v) {
            const double pos = position(static_cast<Vertex>(v));
            vertex_key[v] = static_cast<std::uint32_t>(
                layer_of(v) * buckets +
                static_cast<std::size_t>(pos * static_cast<double>(buckets)));
            ++count[vertex_key[v]];
        }
    });
    std::vector<std::size_t> rows(keys + 1);
    std::size_t filled = 0;
    for (std::size_t key = 0; key < keys; ++key) {
        rows[key] = filled;
        for (std::size_t block = 0; block < vertex_blocks.count(); ++block) {
            filled += std::exchange(cursors[block * keys + key], filled);
        }
    }
    rows[keys] = filled;
    std::vector<std::pair<double, Vertex>> members(n);
    vertex_blocks.run([&](std::size_t block, std::size_t begin, std::size_t end) {
        std::size_t* cursor = cursors.data() + block * keys;
        for (std::size_t v = begin; v < end; ++v) {
            const auto vert = static_cast<Vertex>(v);
            members[cursor[vertex_key[v]]++] = {position(vert), vert};
        }
    });
    const auto at = [&](std::size_t i) {
        return members.begin() + static_cast<std::ptrdiff_t>(i);
    };
    const support::RowBlocks row_blocks(rows, support::RowBlocks::kSortWork,
                                        config().threads);
    row_blocks.run([&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t key = begin; key < end; ++key) {
            std::sort(at(rows[key]), at(rows[key + 1]));
        }
    });
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        Layer& layer = layers_[l];
        const std::size_t first = rows[l * buckets];
        const std::size_t last = rows[(l + 1) * buckets];
        layer.ids.reserve(last - first);
        layer.positions.reserve(last - first);
        for (std::size_t i = first; i < last; ++i) {
            const auto& [pos, id] = members[i];
            layer.positions.push_back(pos);
            layer.ids.push_back(id);
            layer.max_weight = std::max(layer.max_weight, weights_[id]);
        }
    }

    // One task per (layer pair, block of the smaller layer's members).
    // The pair radius bound uses the layers' max weights, so every true
    // edge falls inside some task's scan window.
    for (std::uint32_t a = 0; a < layers_.size(); ++a) {
        if (layers_[a].ids.empty()) continue;
        for (std::uint32_t b = a; b < layers_.size(); ++b) {
            if (layers_[b].ids.empty()) continue;
            const std::uint32_t iter =
                layers_[a].ids.size() <= layers_[b].ids.size() ? a : b;
            const std::uint32_t scan = iter == a ? b : a;
            const double radius =
                layers_[a].max_weight * layers_[b].max_weight / (2.0 * weight_sum_);
            const std::size_t count = layers_[iter].ids.size();
            for (std::size_t begin = 0; begin < count; begin += kGeoCellMembers) {
                tasks_.push_back(PairTask{iter, scan, begin,
                                          std::min(count, begin + kGeoCellMembers),
                                          radius, a == b});
            }
        }
    }
    prepared_ = true;
}

std::size_t HyperbolicGen::cell_count() const {
    expects(prepared_, "hyperbolic: cell_count before prepare()");
    return tasks_.size();
}

void HyperbolicGen::scan_window(const PairTask& task, std::size_t member,
                                ChunkBuffer& out) const {
    const Layer& it = layers_[task.iter_layer];
    const Layer& sc = layers_[task.scan_layer];
    const Vertex u = it.ids[member];
    const double xu = it.positions[member];
    const double wu = weights_[u];

    const auto try_pair = [&](std::size_t idx) {
        const Vertex v = sc.ids[idx];
        if (v == u) return;
        if (task.same_layer && v < u) return;  // each intra-layer pair once
        double d = std::abs(xu - sc.positions[idx]);
        d = std::min(d, 1.0 - d);
        if (d <= wu * weights_[v] / (2.0 * weight_sum_)) {
            out.emit(u, v);
        }
    };

    if (task.radius * 2.0 >= 1.0) {
        for (std::size_t idx = 0; idx < sc.ids.size(); ++idx) try_pair(idx);
        return;
    }
    const auto scan_range = [&](double lo, double hi) {
        const auto begin = std::lower_bound(sc.positions.begin(),
                                            sc.positions.end(), lo) -
                           sc.positions.begin();
        for (std::size_t idx = static_cast<std::size_t>(begin);
             idx < sc.positions.size() && sc.positions[idx] <= hi; ++idx) {
            try_pair(idx);
        }
    };
    const double lo = xu - task.radius;
    const double hi = xu + task.radius;
    if (lo < 0.0) {
        scan_range(0.0, hi);
        scan_range(lo + 1.0, 1.0);
    } else if (hi > 1.0) {
        scan_range(lo, 1.0);
        scan_range(0.0, hi - 1.0);
    } else {
        scan_range(lo, hi);
    }
}

void HyperbolicGen::emit_cell(std::size_t cell, ChunkBuffer& out) const {
    const PairTask& task = tasks_[cell];
    for (std::size_t member = task.member_begin; member < task.member_end;
         ++member) {
        scan_window(task, member, out);
    }
}

double HyperbolicGen::edge_estimate() const {
    return static_cast<double>(config().n) * config().avg_degree / 2.0;
}

std::size_t HyperbolicGen::prepared_bytes() const {
    std::size_t bytes = weights_.size() * sizeof(double);
    for (const Layer& layer : layers_) {
        bytes += layer.ids.size() * sizeof(Vertex) +
                 layer.positions.size() * sizeof(double);
    }
    return bytes + tasks_.size() * sizeof(PairTask);
}

// -------------------------------------------------------------------- rmat

RmatGen::RmatGen(GeneratorConfig config) : StreamingGenerator(std::move(config)) {}

std::size_t RmatGen::cell_count() const {
    return (config().edges + kEdgeCellDraws - 1) / kEdgeCellDraws;
}

void RmatGen::emit_cell(std::size_t cell, ChunkBuffer& out) const {
    const std::size_t n = config().n;
    std::size_t scale = 0;
    while ((std::size_t{1} << scale) < n) ++scale;
    const double a = config().rmat_a;
    const double ab = a + config().rmat_b;
    const double abc = ab + config().rmat_c;

    const std::size_t begin = cell * kEdgeCellDraws;
    const std::size_t end = std::min(config().edges, begin + kEdgeCellDraws);
    rng::Rng block(derive_cell_seed(config().seed, cell));
    for (std::size_t draw = begin; draw < end; ++draw) {
        std::size_t u = 0;
        std::size_t v = 0;
        for (std::size_t level = 0; level < scale; ++level) {
            const double r = block.next_double();
            u = (u << 1) | static_cast<std::size_t>(r >= ab);
            v = (v << 1) |
                static_cast<std::size_t>(r >= abc || (r >= a && r < ab));
        }
        // Draws on the padded 2^scale grid outside [0, n)^2 are dropped.
        if (u < n && v < n) {
            out.emit(static_cast<Vertex>(u), static_cast<Vertex>(v));
        }
    }
}

double RmatGen::edge_estimate() const {
    return static_cast<double>(config().edges);
}

}  // namespace ld::gen
