#include "gen/chunked_csr.hpp"

#include <cstdlib>
#include <string>

#include "support/expect.hpp"
#include "support/thread_pool.hpp"

namespace ld::gen {

using support::expects;

ScatterSink::ScatterSink(std::span<const std::size_t> offsets,
                         std::span<graph::Vertex> slots)
    : cursors_(offsets.size() - 1), slots_(slots) {
    for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
        cursors_[v].store(offsets[v], std::memory_order_relaxed);
    }
}

void CollectSink::accept(std::span<const graph::Edge> chunk) {
    std::lock_guard lock(mutex_);
    edges_.insert(edges_.end(), chunk.begin(), chunk.end());
}

std::size_t effective_memory_budget(const GeneratorConfig& config) {
    if (config.memory_budget_bytes > 0) return config.memory_budget_bytes;
    if (const char* env = std::getenv("LIQUIDD_GEN_BUDGET_MB")) {
        char* end = nullptr;
        const unsigned long long mb = std::strtoull(env, &end, 10);
        if (end != env && *end == '\0' && mb > 0) {
            return static_cast<std::size_t>(mb) << 20;
        }
    }
    return 0;
}

namespace {

/// Footprint of the pipeline for `half_edges` CSR entries: offsets +
/// counts + cursors + neighbour slots + per-worker chunk buffers.
double pipeline_bytes(const GeneratorConfig& config, double half_edges,
                      std::size_t prepared) {
    const double n = static_cast<double>(config.n);
    const std::size_t threads = config.threads == 0
                                    ? support::ThreadPool::global().worker_count()
                                    : config.threads;
    return 8.0 * (n + 1)                                       // offsets
           + 4.0 * n                                           // degree counts
           + 8.0 * n                                           // scatter cursors
           + 4.0 * half_edges                                  // neighbour slots
           + 8.0 * static_cast<double>(threads * config.chunk_edges)  // buffers
           + static_cast<double>(prepared);                    // generator state
}

void check_budget(std::size_t budget, double need_bytes, const char* phase) {
    if (budget == 0) return;
    expects(need_bytes <= static_cast<double>(budget),
            std::string("gen: memory budget exceeded (") + phase + ": need ~" +
                std::to_string(static_cast<std::size_t>(need_bytes / (1 << 20))) +
                " MB, budget " + std::to_string(budget >> 20) + " MB)");
}

}  // namespace

graph::Graph build_chunked_csr(StreamingGenerator& generator, BuildStats* stats) {
    const GeneratorConfig& config = generator.config();
    const std::size_t n = config.n;
    const std::size_t budget = effective_memory_budget(config);

    // Fail fast on configs whose *expected* footprint already busts the
    // budget (complete at n = 10^7 never even starts the degree pass).
    generator.prepare();
    check_budget(budget,
                 pipeline_bytes(config, 2.0 * generator.edge_estimate(),
                                generator.prepared_bytes()),
                 "estimate");

    // Pass 1: count half-edges per vertex (duplicates included).
    DegreeCountSink degrees(n);
    generator.generate(degrees);

    std::vector<std::size_t> offsets(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v) {
        offsets[v + 1] =
            offsets[v] + degrees.counts()[v].load(std::memory_order_relaxed);
    }
    const std::size_t half_edges = offsets[n];
    expects(half_edges % 2 == 0, "gen: half-edge count must be even");
    check_budget(budget,
                 pipeline_bytes(config, static_cast<double>(half_edges),
                                generator.prepared_bytes()),
                 "measured");

    // Pass 2: regenerate the identical cell stream and scatter into the
    // final array.  Cursor interleaving under threads is arbitrary; the
    // per-vertex sort below restores a canonical order.
    std::vector<graph::Vertex> neighbours(half_edges);
    {
        ScatterSink scatter(offsets, neighbours);
        const PassTotals totals = generator.generate(scatter);
        if (stats != nullptr) {
            stats->edges_emitted = totals.edges;
            stats->chunks = totals.chunks;
            stats->peak_bytes = static_cast<std::size_t>(pipeline_bytes(
                config, static_cast<double>(half_edges), generator.prepared_bytes()));
        }
    }

    // Sort + dedup each adjacency range and compact in place.
    graph::sort_dedup_rows(offsets, neighbours, config.threads);

    if (stats != nullptr) stats->unique_edges = neighbours.size() / 2;
    return graph::Graph::from_csr(std::move(offsets), std::move(neighbours),
                                  config.threads);
}

}  // namespace ld::gen
