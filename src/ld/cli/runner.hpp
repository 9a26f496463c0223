// Argument parsing and orchestration for the `liquidd` command-line tool:
// build an instance from spec strings, run a mechanism, print the gain
// report and (optionally) the DNH audits and a DOT rendering of one
// delegation realization.

#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "ld/election/evaluator.hpp"

namespace ld::cli {

/// Parsed command line.
struct Options {
    std::string graph_spec = "complete";
    std::string competency_spec = "uniform:0.3,0.7";
    std::string mechanism_spec = "threshold:1";
    std::size_t n = 100;
    double alpha = 0.05;
    std::uint64_t seed = 1;
    bool audit = false;            ///< run the Lemma 3 / Lemma 5 audits
    election::EvalOptions eval{};  ///< eval flags (eval_options.hpp); threads 0 = auto
    std::optional<std::string> dot_path;  ///< write one realization as DOT
    std::optional<std::string> load_path; ///< load instance (overrides graph/competencies/n/alpha)
    std::optional<std::string> save_path; ///< save the built instance
    std::optional<std::string> metrics_out; ///< end-of-run metrics report (JSON)
    std::string simd = "auto";     ///< --simd: pin the tally kernel tier
    bool help = false;
};

/// Parse argv (excluding argv[0]).  Throws SpecError on bad flags.
Options parse_options(const std::vector<std::string>& args);

/// One-page usage text.
std::string usage();

/// Execute: build, evaluate, print.  Returns a process exit code.
int run(const Options& options, std::ostream& out);

/// Parsed `liquidd sweep` command line (see docs/SWEEPS.md).
struct SweepOptions {
    std::string spec_path;                  ///< positional: the sweep spec JSON
    std::size_t shard_index = 0;            ///< --shard i/k
    std::size_t shard_count = 1;
    bool resume = false;                    ///< --resume
    std::size_t max_cells = 0;              ///< --max-cells (0 = unlimited)
    std::optional<std::size_t> threads{};   ///< --threads overrides the spec
    std::optional<std::string> output_path; ///< --out (default: <spec stem>.csv)
    std::optional<std::string> checkpoint_path;  ///< --ckpt
    std::optional<std::string> metrics_out; ///< --metrics-out (JSON report)
    std::string simd = "auto";              ///< --simd: pin the tally kernel tier
    bool help = false;
};

/// Parse the args after the `sweep` subcommand.  Throws SpecError.
SweepOptions parse_sweep_options(const std::vector<std::string>& args);

/// Usage text for `liquidd sweep`.
std::string sweep_usage();

/// Load the spec, run the sweep, stream rows/checkpoints.  SIGINT and
/// SIGTERM finish the current cell, persist the checkpoint, and exit
/// cleanly (rerun with --resume).  Returns a process exit code.
int run_sweep(const SweepOptions& options, std::ostream& out);

/// Parsed `liquidd serve` command line (see docs/SERVING.md).
struct ServeOptions {
    std::optional<std::string> unix_socket;  ///< --socket <path>
    std::optional<std::size_t> tcp_port;     ///< --tcp <port> (0 = ephemeral)
    std::size_t queue_capacity = 128;        ///< --queue-capacity
    std::size_t threads = 0;                 ///< --threads (0 = auto)
    double tally_eps = election::kDefaultTallyEpsilon;  ///< --tally-eps: default ε for evals
    std::size_t deadline_ms = 0;             ///< --deadline-ms (0 = none)
    std::size_t write_timeout_ms = 5000;     ///< --write-timeout-ms (0 = block)
    std::optional<std::string> metrics_out;  ///< --metrics-out (flushed on drain)
    std::string simd = "auto";               ///< --simd: pin the tally kernel tier
    /// --route b1,b2,...: shard-router mode — forward requests to these
    /// backend liquidds instead of evaluating locally.  Each entry is
    /// "unix:/path", "tcp:PORT", a bare path, or a bare port.
    std::vector<std::string> route;
    std::size_t health_interval_ms = 1000;   ///< --health-interval-ms (router mode)
    std::optional<std::string> ready_file;   ///< --ready-file: write "ready\n" once listening
    std::optional<int> ready_fd;             ///< --ready-fd: write "ready\n" + close once listening
    bool help = false;
};

/// Parse the args after the `serve` subcommand.  Throws SpecError.
ServeOptions parse_serve_options(const std::vector<std::string>& args);

/// Usage text for `liquidd serve`.
std::string serve_usage();

/// Run the evaluation server until SIGTERM/SIGINT or a `shutdown` RPC
/// drains it.  Returns a process exit code (0 on a clean drain).
int run_serve(const ServeOptions& options, std::ostream& out);

/// Parsed `liquidd gen` command line (standalone streaming generation;
/// see docs/GENERATORS.md).
struct GenOptions {
    std::string graph_spec = "cl:2.5,8";  ///< --graph (facade specs only)
    std::size_t n = 100'000;              ///< --n
    std::uint64_t seed = 1;               ///< --seed
    std::size_t shard_index = 0;          ///< --shard i/k
    std::size_t shard_count = 1;
    std::size_t chunk_edges = 1 << 16;    ///< --chunk-edges
    std::size_t threads = 0;              ///< --threads (0 = auto)
    std::size_t budget_mb = 0;            ///< --budget-mb (0 = env/unlimited)
    std::optional<std::string> out_path;  ///< --out: dump the generated graph
    std::string format = "edges";         ///< --format edges|csr
    std::optional<std::string> metrics_out;  ///< --metrics-out (JSON report)
    bool help = false;
};

/// Parse the args after the `gen` subcommand.  Throws SpecError.
GenOptions parse_gen_options(const std::vector<std::string>& args);

/// Usage text for `liquidd gen`.
std::string gen_usage();

/// Generate the configured (shard of a) graph through the streaming
/// facade, print stats, optionally dump it.  Returns a process exit code.
int run_gen(const GenOptions& options, std::ostream& out);

/// Parsed `liquidd game` command line (best-response trajectory workload
/// over the incremental churn engine; see docs/CHURN.md).
struct GameCliOptions {
    std::string graph_spec = "complete";
    std::string competency_spec = "uniform:0.3,0.7";
    std::size_t n = 100;
    double alpha = 0.05;
    std::uint64_t seed = 1;
    std::string utility = "selfish";   ///< --utility selfish|coop
    std::size_t max_rounds = 64;       ///< --max-rounds
    double viscosity = 1.0;            ///< --viscosity: selfish chain decay
    double tally_eps = 0.0;            ///< --tally-eps: cooperative probe budget
    std::optional<std::uint64_t> shuffle_seed;  ///< --shuffle-seed: replayable order
    bool fixed_order = false;          ///< --fixed-order: id order, no shuffle
    std::optional<std::string> load_path;       ///< --load-instance
    std::optional<std::string> trajectory_out;  ///< --trajectory-out (CSV)
    std::optional<std::string> metrics_out;     ///< --metrics-out (JSON report)
    std::string simd = "auto";         ///< --simd: pin the tally kernel tier
    bool help = false;
};

/// Parse the args after the `game` subcommand.  Throws SpecError.
GameCliOptions parse_game_options(const std::vector<std::string>& args);

/// Usage text for `liquidd game`.
std::string game_usage();

/// Run best-response dynamics, print the equilibrium report, optionally
/// stream the gain-along-the-path trajectory as CSV.  Returns a process
/// exit code.
int run_game(const GameCliOptions& options, std::ostream& out);

/// Top-level argv dispatch shared by the binary and the tests:
/// subcommands (`run`, `sweep`, `serve`), `--version`, and the bare-flag
/// single-evaluation form.  Throws SpecError on an unknown subcommand,
/// naming every valid one.
int dispatch(const std::vector<std::string>& args, std::ostream& out);

}  // namespace ld::cli
