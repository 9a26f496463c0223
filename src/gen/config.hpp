// Configuration for the streaming graph-generation subsystem (KaGen-style
// facade, see docs/GENERATORS.md): one config object names a family plus
// its parameters, a seed, and the execution shape (chunk size, shard,
// threads, memory budget).  Generation is *cell-deterministic*: every
// family partitions its work into fixed cells whose RNG streams are
// derived from (seed, cell index) alone, so the resulting CSR is
// byte-identical for any chunk size, shard partition, or thread count.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ld::gen {

/// Graph families the streaming facade can produce.
enum class Family {
    Complete,        ///< K_n (paper §4.1); quadratic — small n only
    Star,            ///< vertex 0 is the centre (Figure 1)
    Gnp,             ///< Erdős–Rényi G(n,p), per-row Batagelj–Brandes skip
    Gnm,             ///< G(n,m)-style: m uniform draws, deduplicated
    DOut,            ///< each vertex samples d distinct targets (Algorithm 2)
    DRegular,        ///< configuration model (legacy bridge, not streaming)
    BarabasiAlbert,  ///< preferential attachment via hash-resolved edge copies
    WattsStrogatz,   ///< ring lattice with independent rewiring
    ChungLu,         ///< prescribed power-law expected degrees (Thm 4/5 regime)
    Hyperbolic,      ///< 1-D threshold GIRG: power law + geometric locality
    Rmat,            ///< Kronecker/R-MAT quadrant recursion
};

/// Canonical lowercase family name ("chunglu", "hyperbolic", ...).
std::string_view family_name(Family family) noexcept;

/// Parse a family name; throws support::ContractViolation on junk.
Family parse_family(std::string_view name);

/// Shard slice: generate only cells with index % count == index, exactly
/// like the sweep engine's --shard i/k.  The union of all shards' edge
/// sets equals the unsharded run's edge set.
struct ShardSpec {
    std::size_t index = 0;
    std::size_t count = 1;
};

/// Full description of one generation task.
struct GeneratorConfig {
    Family family = Family::Gnp;
    std::size_t n = 0;            ///< vertex count (>= 1, fits graph::Vertex)
    std::uint64_t seed = 1;       ///< root seed for per-cell derivation

    // Execution shape.  None of these affect the generated edge set.
    std::size_t chunk_edges = 1 << 16;  ///< edges per flush into the sink
    ShardSpec shard;
    std::size_t threads = 1;      ///< worker threads of every pass of a
                                  ///< build (0 = auto: pool size)
    /// Peak-byte cap on the chunked-CSR pipeline (0 = unlimited); the
    /// builder estimates its footprint after the degree pass and refuses
    /// to allocate past this.  Env override: LIQUIDD_GEN_BUDGET_MB.
    std::size_t memory_budget_bytes = 0;

    // Family parameters (each family reads the fields it needs).
    double p = 0.0;               ///< gnp: edge probability
    std::size_t edges = 0;        ///< gnm / rmat: number of edge draws
    std::size_t degree = 0;       ///< dout: d; dregular: d; ba: m; ws: k
    double beta = 0.0;            ///< ws: rewiring probability
    double gamma = 2.5;           ///< chunglu / hyperbolic: power-law exponent
    double avg_degree = 8.0;      ///< chunglu / hyperbolic: target mean degree
    double max_weight = 0.0;      ///< chunglu / hyperbolic: cap on expected
                                  ///< degree of any vertex (0 = natural
                                  ///< sqrt-cutoff for chunglu, uncapped
                                  ///< for hyperbolic)
    double rmat_a = 0.57;         ///< rmat quadrant probabilities
    double rmat_b = 0.19;         ///< (d = 1 - a - b - c)
    double rmat_c = 0.19;

    /// Validate the family-independent fields (n, shard, chunk size) and
    /// the family parameters; throws support::ContractViolation.
    void validate() const;

    /// One-line human-readable description for logs.
    std::string describe() const;
};

/// Per-cell seed derivation — the sweep engine's SplitMix64 pattern
/// (`experiments::derive_cell_seed`), reused so any cell regenerates
/// byte-identically in isolation.
std::uint64_t derive_cell_seed(std::uint64_t graph_seed, std::size_t cell_index);

/// Stateless 64-bit hash of (seed, tag, index): a random-access stream for
/// families that must re-derive another cell's draw on demand (the
/// Barabási–Albert edge-copy resolution, positions/weights in the
/// geometric families).  Tags keep the streams disjoint from cell seeds.
std::uint64_t hash_draw(std::uint64_t seed, std::uint64_t tag,
                        std::uint64_t index) noexcept;

}  // namespace ld::gen
