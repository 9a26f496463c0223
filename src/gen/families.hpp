// Streaming implementations of every generator family behind the facade.
// Vertex-centric families use one cell per vertex (row); edge-centric
// families (gnm, rmat) use fixed 64 Ki-draw blocks; the geometric family
// tiles (layer-pair, member-block) tasks.  Cell boundaries are constants
// of the family — never functions of chunk size, shard, or threads — which
// is what makes the emitted edge set reproducible slice by slice.
//
// Family → paper mapping (docs/GENERATORS.md has the full table):
//   chunglu / hyperbolic / rmat are the degree-heterogeneous regime for
//   the max-degree mechanism (Theorem 4), the min-degree mechanism
//   (Theorem 5), and the Lemma 5 max-sink-weight check (condition X3);
//   ba is the §6 "real-world networks" family; gnp/gnm/dout/ws/dregular
//   port the §4–5 topologies onto the streaming facade.

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "gen/generator.hpp"

namespace ld::gen {

/// K_n.  Cell u emits (u, v) for v > u.  Quadratic: budget-guard fodder.
class CompleteGen final : public StreamingGenerator {
public:
    explicit CompleteGen(GeneratorConfig config);
    std::size_t cell_count() const override { return config().n; }
    void emit_cell(std::size_t cell, ChunkBuffer& out) const override;
    double edge_estimate() const override;
};

/// Star with centre 0.  Cell v >= 1 emits (0, v).
class StarGen final : public StreamingGenerator {
public:
    explicit StarGen(GeneratorConfig config);
    std::size_t cell_count() const override { return config().n; }
    void emit_cell(std::size_t cell, ChunkBuffer& out) const override;
    double edge_estimate() const override;
};

/// Erdős–Rényi G(n, p): cell v Batagelj–Brandes-skips over partners
/// u < v, so every row is an independent seedable stream.
class GnpGen final : public StreamingGenerator {
public:
    explicit GnpGen(GeneratorConfig config);
    std::size_t cell_count() const override { return config().n; }
    void emit_cell(std::size_t cell, ChunkBuffer& out) const override;
    double edge_estimate() const override;
};

/// G(n, m)-style: `edges` uniform pair draws in fixed blocks; the sink
/// deduplicates, so the realised edge count is m minus collisions
/// (vanishing for sparse graphs).
class GnmGen final : public StreamingGenerator {
public:
    explicit GnmGen(GeneratorConfig config);
    std::size_t cell_count() const override;
    void emit_cell(std::size_t cell, ChunkBuffer& out) const override;
    double edge_estimate() const override;
};

/// Algorithm 2's d-out graph: cell v samples d distinct targets.
class DOutGen final : public StreamingGenerator {
public:
    explicit DOutGen(GeneratorConfig config);
    std::size_t cell_count() const override { return config().n; }
    void emit_cell(std::size_t cell, ChunkBuffer& out) const override;
    double edge_estimate() const override;
};

/// Random d-regular via the *erased configuration model* with a
/// stateless stub permutation: the n·d half-edge stubs are paired as
/// σ(2k) ↔ σ(2k+1) where σ is a seed-keyed 4-round Feistel permutation
/// of [0, n·d) (cycle-walking over the enclosing power of two), and stub
/// s belongs to vertex s / d.  Because σ is a *permutation*, every stub
/// is used exactly once — a global matching with no shared state, so
/// cells of kEdgeCellDraws pairs regenerate independently and the family
/// is streaming-scalable (the old bridge materialized the whole graph in
/// one cell).  Self-loops are dropped and duplicate pairs collapse in
/// the sink, so realized degrees are ≤ d with the classic O(d²/n)
/// erasure deficit — the same distributional-variant precedent as the
/// independent-rewiring Watts–Strogatz (docs/GENERATORS.md).
class DRegularGen final : public StreamingGenerator {
public:
    explicit DRegularGen(GeneratorConfig config);
    std::size_t cell_count() const override;
    void emit_cell(std::size_t cell, ChunkBuffer& out) const override;
    double edge_estimate() const override;

    /// σ(index): the permuted stub, exposed for the determinism tests.
    std::uint64_t permuted_stub(std::uint64_t index) const;

private:
    std::uint64_t stub_count_ = 0;
    std::uint32_t half_bits_ = 1;  ///< Feistel halves; domain = 2^(2·half_bits)
};

/// Barabási–Albert via hash-resolved edge copies (Sanders & Schulz): the
/// target of global edge slot j is a uniform draw over the virtual
/// endpoint array E[0..2j), resolved on demand by re-hashing earlier
/// slots' draws — O(log) expected chain, no shared state, so cell v
/// (slots vm..vm+m-1) regenerates in isolation.  Degree tail τ = 3.
class BarabasiAlbertGen final : public StreamingGenerator {
public:
    explicit BarabasiAlbertGen(GeneratorConfig config);
    std::size_t cell_count() const override { return config().n; }
    void emit_cell(std::size_t cell, ChunkBuffer& out) const override;
    double edge_estimate() const override;
};

/// Watts–Strogatz with *independent* rewiring: cell v owns its k/2
/// clockwise lattice edges and rewires each with probability beta to a
/// uniform endpoint (duplicates collapse in the sink).  Distributionally
/// the standard small-world variant; differs from the legacy generator's
/// sequential collision-avoiding rewires.
class WattsStrogatzGen final : public StreamingGenerator {
public:
    explicit WattsStrogatzGen(GeneratorConfig config);
    std::size_t cell_count() const override { return config().n; }
    void emit_cell(std::size_t cell, ChunkBuffer& out) const override;
    double edge_estimate() const override;
};

/// Chung–Lu with rank-based power-law expected degrees w_v ∝ (v+1)^(-1/(γ-1)),
/// scaled to `avg_degree` and capped at min(max_weight, sqrt(S)) so
/// P(u ~ v) = w_u w_v / S stays a probability.  Cell u Miller–Hagberg
/// skip-samples partners v > u in O(row edges) expected.
class ChungLuGen final : public StreamingGenerator {
public:
    explicit ChungLuGen(GeneratorConfig config);
    std::size_t cell_count() const override { return config().n; }
    void emit_cell(std::size_t cell, ChunkBuffer& out) const override;
    void prepare() override;
    double edge_estimate() const override;
    std::size_t prepared_bytes() const override;

    double weight(graph::Vertex v) const { return weights_[v]; }
    double weight_sum() const { return weight_sum_; }

private:
    std::vector<double> weights_;  // descending in vertex index
    double weight_sum_ = 0.0;
};

/// 1-D threshold GIRG ("random hyperbolic" regime): power-law weights as
/// Chung–Lu plus a hash-derived position x_v on the unit torus; u ~ v iff
/// dist(x_u, x_v) <= w_u w_v / (2 S).  Same expected degrees as Chung–Lu
/// but with geometric locality (triangles, community structure) — the
/// social-topology stress case for Lemma 5.  Pairs are enumerated per
/// weight-layer pair over position-sorted layer arrays; no RNG at emit
/// time, so determinism is structural.
class HyperbolicGen final : public StreamingGenerator {
public:
    explicit HyperbolicGen(GeneratorConfig config);
    std::size_t cell_count() const override;
    void emit_cell(std::size_t cell, ChunkBuffer& out) const override;
    void prepare() override;
    double edge_estimate() const override;
    std::size_t prepared_bytes() const override;

    double weight(graph::Vertex v) const { return weights_[v]; }
    double position(graph::Vertex v) const;

private:
    struct Layer {
        std::vector<graph::Vertex> ids;   // members sorted by position
        std::vector<double> positions;    // parallel to ids, ascending
        double max_weight = 0.0;
    };
    struct PairTask {
        std::uint32_t iter_layer = 0;    // the smaller layer: iterate members
        std::uint32_t scan_layer = 0;    // window-search this layer
        std::size_t member_begin = 0;    // block of iter_layer members
        std::size_t member_end = 0;
        double radius = 0.0;             // upper bound on r_uv for the pair
        bool same_layer = false;
    };

    void scan_window(const PairTask& task, std::size_t member,
                     ChunkBuffer& out) const;

    std::vector<double> weights_;
    double weight_sum_ = 0.0;
    std::vector<Layer> layers_;
    std::vector<PairTask> tasks_;
    bool prepared_ = false;
};

/// Kronecker / R-MAT: `edges` quadrant-recursion draws in fixed blocks
/// over the 2^ceil(log2 n) grid; draws landing outside [0,n)² or on the
/// diagonal are dropped, duplicates collapse in the sink.
class RmatGen final : public StreamingGenerator {
public:
    explicit RmatGen(GeneratorConfig config);
    std::size_t cell_count() const override;
    void emit_cell(std::size_t cell, ChunkBuffer& out) const override;
    double edge_estimate() const override;
};

/// Number of draws per edge-centric cell (gnm, rmat) — a constant of the
/// subsystem: changing it would change cell boundaries and therefore the
/// generated graphs.
inline constexpr std::size_t kEdgeCellDraws = 1 << 16;

/// Members per geometric pair-task cell (hyperbolic).
inline constexpr std::size_t kGeoCellMembers = 2048;

/// Power-law weight sequence shared by chunglu/hyperbolic: w_v ∝
/// (v+1)^(-1/(gamma-1)) scaled so the mean is `avg_degree`, then capped
/// (cap <= 0 means uncapped).  Returns the weights and their sum.  The
/// powers fill in blocks on the global pool, at most `width` of them (0:
/// the pool width); the result does not depend on the block count.
std::pair<std::vector<double>, double> power_law_weights(std::size_t n, double gamma,
                                                         double avg_degree, double cap,
                                                         std::size_t width);

}  // namespace ld::gen
