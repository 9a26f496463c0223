// Declarative parameter sweeps: a JSON spec describing a cartesian grid
// over (n, alpha, graph, competencies, mechanism) expands into an ordered
// list of cells, each evaluated through the replication execution engine
// (estimate_gain) and streamed to CSV or JSON-lines output as one row.
//
// The engine is built for batch workloads that outlive a single process:
//
//   * Determinism — each cell's seed derives from (sweep seed, cell
//     index) only, never from wall clock or scheduling, so any subset of
//     cells run on any machine in any order reproduces bit-for-bit.
//   * Checkpoint/resume — after every completed cell the engine
//     atomically rewrites a checkpoint manifest (schema
//     "liquidd.sweep.v1": spec fingerprint, shard, finished rows).  A
//     killed sweep rerun with `resume = true` replays finished rows from
//     the manifest and continues, producing byte-identical output to an
//     uninterrupted run.
//   * Sharding — `shard i/k` deterministically partitions cells by
//     `index % k == i` for multi-machine runs; the union of all k shard
//     outputs equals the unsharded run.
//
// CLI front end: `liquidd sweep <spec.json>` (src/ld/cli/runner.cpp);
// spec reference and worked examples: docs/SWEEPS.md.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ld/election/evaluator.hpp"
#include "support/json.hpp"
#include "support/table_printer.hpp"  // for Cell

namespace ld::experiments {

/// Thrown on a malformed sweep spec, an inconsistent checkpoint, or a
/// cell whose evaluation fails (wrapped with the cell's coordinates).
class SweepError : public std::runtime_error {
public:
    explicit SweepError(const std::string& what) : std::runtime_error(what) {}
};

/// A parsed sweep spec: the axes of the cartesian grid plus fixed
/// evaluation options shared by every cell.  Axis values are the same
/// spec strings the CLI accepts (ld/cli/specs.hpp grammar).
struct SweepSpec {
    std::string name;                       ///< required; seeds and reports use it
    std::uint64_t seed = 1;                 ///< sweep master seed
    election::EvalOptions eval{};  ///< `replications`, `options` (0 threads = auto)
    /// options.certify_boundary as written: the fingerprint hashes the
    /// spelling, so `eb` and `empirical_bernstein` fingerprint apart.
    std::string certify_boundary = "empirical_bernstein";
    std::vector<std::size_t> ns;            ///< axis "n"
    std::vector<double> alphas;             ///< axis "alpha"
    std::vector<std::string> graphs;        ///< axis "graph"
    std::vector<std::string> competencies;  ///< axis "competencies"
    std::vector<std::string> mechanisms;    ///< axis "mechanism"

    /// Parse a spec document (schema optional; when present it must be
    /// "liquidd.sweep-spec.v1").  Throws SweepError with the offending
    /// key on anything malformed.
    static SweepSpec from_json(const support::json::Value& doc);

    /// Parse the spec file at `path`.
    static SweepSpec load(const std::string& path);

    /// Total cells in the grid (product of axis lengths).
    std::size_t cell_count() const noexcept;

    /// Stable FNV-1a fingerprint over every field that affects results;
    /// stored in checkpoints so `resume` refuses a changed spec.
    std::uint64_t fingerprint() const;
};

/// One grid point, in expansion order: n is the outermost axis, then
/// alpha, graph, competencies, mechanism (innermost).
struct SweepCell {
    std::size_t index = 0;  ///< position in expansion order, 0-based
    std::size_t n = 0;
    double alpha = 0.0;
    std::string graph;
    std::string competency;
    std::string mechanism;
    std::uint64_t seed = 0;  ///< derive_cell_seed(spec.seed, index)
};

/// The cell seed: two SplitMix64 rounds over (sweep_seed, cell_index).
/// Pure function of its arguments — the heart of the resume/shard
/// bit-identity guarantee.
std::uint64_t derive_cell_seed(std::uint64_t sweep_seed, std::size_t cell_index);

/// Deterministic cell partition for multi-machine runs: this process
/// executes the cells with `cell.index % count == index`.
struct ShardAssignment {
    std::size_t index = 0;
    std::size_t count = 1;
};

/// Per-run knobs that do not change results (except `threads`, whose
/// effective value is recorded in the checkpoint and must match on
/// resume, because the replication split depends on it).
struct SweepOptions {
    ShardAssignment shard{};
    bool resume = false;              ///< replay finished cells from the checkpoint
    std::size_t max_cells = 0;        ///< stop after N *new* cells (0 = unlimited);
                                      ///< simulates interruption in tests/CI
    std::optional<std::size_t> threads{};  ///< override SweepSpec::threads
    std::string output_path;          ///< rows; ".jsonl"/".ndjson" selects JSON lines
    std::string checkpoint_path;      ///< empty: `<output_path>.ckpt.json`
    bool quiet = false;               ///< suppress per-cell progress lines
    /// Polled between cells: return true to stop before starting the
    /// next one (the checkpoint for every finished cell is already on
    /// disk, so a rerun with `resume` continues seamlessly).  The CLI
    /// wires this to support::SignalDrain so SIGINT/SIGTERM finish the
    /// current cell, persist the manifest, and exit cleanly.
    std::function<bool()> cancel{};
};

/// What a run did.
struct SweepResult {
    std::size_t cells_total = 0;      ///< cells assigned to this shard
    std::size_t cells_completed = 0;  ///< newly evaluated this run
    std::size_t cells_skipped = 0;    ///< replayed from the checkpoint
    bool finished = false;            ///< every shard cell is in the output
    bool cancelled = false;           ///< stopped by SweepOptions::cancel
};

/// Expands the grid and runs it.  Construction validates the spec; run()
/// does the work and may be called once per engine.
class SweepEngine {
public:
    SweepEngine(SweepSpec spec, SweepOptions options);

    /// Output column names, in row order.
    static const std::vector<std::string>& row_headers();

    /// Every cell of the grid in expansion order (unsharded; exposed for
    /// tests and tooling).
    std::vector<SweepCell> cells() const;

    /// Execute this shard's cells in index order, streaming rows to
    /// `options.output_path` and checkpointing after each cell.
    /// Progress goes to `log`.  Throws SweepError on a failed cell or an
    /// inconsistent resume.
    SweepResult run(std::ostream& log);

    /// Replication workers cells will actually use (0-auto resolved).
    std::size_t resolved_threads() const noexcept { return spec_.eval.threads; }

    const SweepSpec& spec() const noexcept { return spec_; }
    const SweepOptions& options() const noexcept { return options_; }

private:
    using Row = std::vector<support::Cell>;

    Row run_cell(const SweepCell& cell) const;
    void write_checkpoint(const std::map<std::size_t, Row>& done) const;
    std::map<std::size_t, Row> load_checkpoint() const;

    SweepSpec spec_;  ///< eval.threads resolved (0 = auto -> pool size)
    SweepOptions options_;
};

}  // namespace ld::experiments
