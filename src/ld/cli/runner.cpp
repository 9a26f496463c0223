#include "ld/cli/runner.hpp"

#include <chrono>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <tuple>

#include <unistd.h>

#include "gen/factory.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "ld/cli/eval_options.hpp"
#include "ld/cli/specs.hpp"
#include "ld/delegation/realize.hpp"
#include "ld/dnh/conditions.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/experiments/sweep.hpp"
#include "ld/game/delegation_game.hpp"
#include "ld/model/instance.hpp"
#include "ld/model/instance_io.hpp"
#include "ld/serve/server.hpp"
#include "ld/serve/shard_router.hpp"
#include "prob/convolve.hpp"
#include "stats/confidence_sequence.hpp"
#include "support/build_info.hpp"
#include "support/cpu_features.hpp"
#include "support/metrics.hpp"
#include "support/signal_drain.hpp"
#include "support/table_printer.hpp"

namespace ld::cli {

namespace {

/// `--shard <i>/<k>`: this shard's index and the shard count, i < k.
std::pair<std::size_t, std::size_t> parse_shard(const std::string& value) {
    const auto slash = value.find('/');
    if (slash == std::string::npos) {
        throw SpecError("--shard: expected <index>/<count>, got '" + value + "'");
    }
    const std::size_t index = parse_size(value.substr(0, slash), "--shard");
    const std::size_t count = parse_size(value.substr(slash + 1), "--shard");
    if (count == 0 || index >= count) {
        throw SpecError("--shard: need index < count, got '" + value + "'");
    }
    return {index, count};
}

/// `--tally-eps <eps>` of serve and game: the windowed tally's ε, in
/// [0, 1), refused in the words of run's flag.
double parse_tally_eps(const std::string& value) {
    const double eps = parse_double(value, "--tally-eps");
    if (eps < 0.0 || eps >= 1.0) throw SpecError("--tally-eps: must be in [0, 1)");
    return eps;
}

/// The end-of-run metrics report: a console table under LIQUIDD_METRICS,
/// a JSON file at `path`.  `lead` goes before the "wrote" line.
void report_metrics(const std::optional<std::string>& path, std::ostream& out,
                    const char* lead = "") {
    if (!path && !support::metrics_env_enabled()) return;
    const auto snapshot = support::MetricsRegistry::global().snapshot();
    if (support::metrics_env_enabled()) {
        out << "\n-- metrics --\n";
        support::print_metrics_table(out, snapshot);
    }
    if (path) {
        std::ofstream metrics(*path);
        if (!metrics) throw SpecError("--metrics-out: cannot open '" + *path + "'");
        support::write_metrics_json(metrics, snapshot);
        out << lead << "wrote metrics report to " << *path << "\n";
    }
}

/// The `tally ε` row of the gain report: which tally route produced P^M
/// and what error it carries.
std::string tally_route_label(const election::EvalOptions& eval) {
    if (eval.approximate_tally) return "- (normal approx.)";
    if (eval.tally_epsilon == 0.0) return "0 (exact)";
    std::ostringstream os;
    os << eval.tally_epsilon << " (certified)";
    return os.str();
}

/// Apply a `--simd` value (run/sweep/serve all accept it).  "auto" keeps
/// or resolves the widest supported tier; naming a tier the host cannot
/// execute is a hard error — silently downgrading would make published
/// numbers unattributable to a lane width.
void apply_simd_override(const std::string& value) {
    if (value == "auto") {
        // Force first-use resolution now — LIQUIDD_SIMD if set and
        // runnable (warning + fallback otherwise), else the widest
        // supported tier — so --version / handshakes / manifests report
        // the tier the run will actually use.  Pinning best_simd_tier()
        // here instead would silently override a valid env request.
        prob::kernel_tier();
        return;
    }
    const auto tier = support::parse_simd_tier(value);
    if (!tier.has_value()) {
        throw SpecError("--simd: expected auto|scalar|avx2|avx512, got '" + value +
                        "'");
    }
    if (!prob::set_kernel_tier(*tier)) {
        throw SpecError("--simd: tier '" + value +
                        "' is not supported on this host (best: " +
                        support::simd_tier_name(support::best_simd_tier()) + ")");
    }
}

}  // namespace

std::string usage() {
    return R"(liquidd — liquid democracy experiment runner

usage: liquidd [run] [flags]
       liquidd sweep <spec.json> [flags]   (declarative parameter sweeps;
                                            see `liquidd sweep --help`
                                            and docs/SWEEPS.md)
       liquidd serve [flags]               (long-running evaluation server;
                                            see `liquidd serve --help`
                                            and docs/SERVING.md)
       liquidd gen [flags]                 (standalone streaming graph
                                            generation; see `liquidd gen
                                            --help` and docs/GENERATORS.md)
       liquidd game [flags]                (best-response trajectory workload
                                            over the incremental churn
                                            engine; see `liquidd game --help`
                                            and docs/CHURN.md)
       liquidd --version                   (git describe, build type, compiler)

  --graph <spec>         topology (default complete)
  --competencies <spec>  competency profile (default uniform:0.3,0.7)
  --mechanism <spec>     delegation mechanism (default threshold:1)
  --n <count>            number of voters (default 100)
  --alpha <margin>       approval margin alpha > 0 (default 0.05)
  --reps <count>         Monte-Carlo replications (default 200, >= 1)
  --target-se <se>       adaptive stopping: replicate in batches until the
                         P^M standard error reaches <se> (overrides --reps;
                         deterministic for a fixed seed/threads pair)
  --max-reps <count>     ceiling on adaptive replications (default 100000)
  --tally-eps <eps>      ε of the windowed inner tally: each
                         per-realization P^M term is within a certified
                         eps/2 of the exact DP, and the gain CI widens by
                         eps/2 (default 1e-12; 0 = exact)
  --certify <gamma> <delta>
                         certified anytime-valid stopping: replicate until
                         a confidence sequence decides "gain >= gamma"
                         either way with statistical error <= delta, or
                         --max-reps is exhausted (overrides --reps and
                         --target-se; the reported interval also folds in
                         the eps/2 tally bound — docs/STATISTICS.md; the
                         stop point is bit-identical across thread counts;
                         refused with --approx)
  --cs-boundary <name>   certify boundary: empirical_bernstein (default,
                         variance-adaptive) | hoeffding (variance-free);
                         checked even without --certify
  --seed <value>         RNG seed (default 1)
  --audit                also run the Lemma 3 / Lemma 5 DNH audits
  --threads <count>      replication worker threads (default 1;
                         0 = auto, one per hardware thread)
  --approx               use the Lemma-4 normal-approximation tally (big n)
  --load-instance <path> load a saved instance (overrides --graph/--competencies)
  --save-instance <path> save the built instance for replay
  --discard-cycles       discard votes trapped in delegation cycles
                         (required for noisy:* mechanisms)
  --dot <path>           write one delegation realization as GraphViz DOT
  --metrics-out <path>   write the end-of-run metrics report as JSON
                         (pool utilisation, replication throughput,
                         per-estimate latency histograms); set
                         LIQUIDD_METRICS=1 for a console table instead
  --simd <tier>          pin the tally kernel tier: auto | scalar | avx2
                         | avx512 (default auto = widest the host runs;
                         every tier is bit-identical, so this is a pure
                         performance/attribution knob; env: LIQUIDD_SIMD)
  --help                 show this text

eval knobs: --reps, --threads, --target-se, --max-reps, --tally-eps,
--approx, --discard-cycles, --certify and --cs-boundary are the knobs sweep
`options` and served eval `params` take (src/ld/cli/eval_options.hpp), all
checked by one table before anything is built.  Counts in JSON are whole
and <= 2^53; inner_samples (JSON only) must be >= 1 for multi-delegation
mechanisms; certify_gamma and certify_boundary are checked even when
certification is off.

specs (see src/ld/cli/specs.hpp for the full grammar):
  graph:        complete | star | dregular:16 | ba:8 | ws:12,0.2 | er:0.05
                | twotier:10,2 | mindeg:8 | maxdeg:6 | file:edges.txt
                | cl:2.5,8 | hyper:2.7,12 | rmat:800000 | gen:<family>:...
                (cl/hyper/rmat/gen route through the chunked-CSR streaming
                facade — docs/GENERATORS.md) | ...
  competencies: uniform:0.3,0.7 | pc:0.02,0.25 | beta:8,8.3 | const:0.6
                | star:0.75,0.55 | twopoint:0.3,0.8,0.2 | figure2 | ...
  mechanism:    direct | threshold:2 | alg1:sqrt | alg1:lin,0.25
                | alg2:16,2,nbr | fraction:0.333 | best | noisy:1,0.2
                | multi:3,1 | abstain:0.5/threshold:2

example:
  liquidd --graph ba:8 --competencies pc:0.02,0.25 --mechanism threshold:2 \
          --n 2000 --reps 400 --audit
)";
}

Options parse_options(const std::vector<std::string>& args) {
    Options options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& flag = args[i];
        const auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size()) throw SpecError(flag + ": missing value");
            return args[++i];
        };
        if (read_eval_flag(flag, next, options.eval)) continue;
        if (flag == "--graph") options.graph_spec = next();
        else if (flag == "--competencies") options.competency_spec = next();
        else if (flag == "--mechanism") options.mechanism_spec = next();
        else if (flag == "--n") options.n = parse_size(next(), flag);
        else if (flag == "--alpha") options.alpha = parse_double(next(), flag);
        else if (flag == "--seed") options.seed = parse_size(next(), flag);
        else if (flag == "--audit") options.audit = true;
        else if (flag == "--load-instance") options.load_path = next();
        else if (flag == "--save-instance") options.save_path = next();
        else if (flag == "--dot") options.dot_path = next();
        else if (flag == "--metrics-out") options.metrics_out = next();
        else if (flag == "--simd") options.simd = next();
        else if (flag == "--help" || flag == "-h") options.help = true;
        else throw SpecError("unknown flag '" + flag + "' (try --help)");
    }
    check_eval(options.eval, EvalFront::Run);
    return options;
}

int run(const Options& options, std::ostream& out) {
    if (options.help) {
        out << usage();
        return 0;
    }
    apply_simd_override(options.simd);
    const auto mechanism = make_mechanism(options.mechanism_spec);
    check_eval(options.eval, EvalFront::Run, mechanism.get(), options.mechanism_spec);
    rng::Rng rng(options.seed);
    const model::Instance instance =
        options.load_path ? model::load_instance(*options.load_path)
                          : make_instance(options.graph_spec, options.competency_spec,
                                          options.n, options.alpha, rng);
    if (options.save_path.has_value()) {
        model::save_instance(*options.save_path, instance);
        out << "saved instance to " << *options.save_path << "\n";
    }

    out << instance.describe() << "\n";
    const auto deg = graph::degree_stats(instance.graph());
    out << "degrees: min " << deg.min << ", max " << deg.max << ", mean " << deg.mean
        << ", asymmetry " << deg.asymmetry << "\n";
    out << "mechanism: " << mechanism->name() << "\n\n";

    election::EvalOptions eval = options.eval;
    eval.threads = resolve_threads(eval.threads);
    const auto report = election::estimate_gain(*mechanism, instance, rng, eval);

    support::TablePrinter table({"metric", "value"}, 5);
    table.add_row({std::string("P^D (exact)"), report.pd});
    table.add_row({std::string("P^M (estimated)"), report.pm.value});
    table.add_row({std::string("P^M std error"), report.pm.std_error});
    table.add_row({std::string("P^M replications"),
                   static_cast<double>(report.pm.replications)});
    table.add_row({std::string("tally ε"), tally_route_label(eval)});
    table.add_row({std::string("gain"), report.gain});
    table.add_row({std::string("gain CI lo"), report.gain_ci.lo});
    table.add_row({std::string("gain CI hi"), report.gain_ci.hi});
    table.add_row({std::string("mean delegators"), report.mean_delegators});
    table.add_row({std::string("mean voting sinks"), report.mean_sinks});
    table.add_row({std::string("mean max weight"), report.mean_max_weight});
    table.add_row({std::string("mean longest path"), report.mean_longest_path});
    if (report.pm.certified && report.certified_gain) {
        const auto& cert = *report.pm.certified;
        table.add_row({std::string("certified gain lo"), report.certified_gain->lo});
        table.add_row({std::string("certified gain hi"), report.certified_gain->hi});
        table.add_row({std::string("certified delta"), cert.delta});
        table.add_row({std::string("certified looks"),
                       static_cast<double>(cert.looks)});
    }
    table.print(out);

    if (report.pm.certified && report.certified_gain) {
        // The certificate in words: what was decided, at what error, and
        // where the loop stopped.  "inconclusive" keeps the interval —
        // it is valid at δ even when the threshold was not cleared.
        const auto& cert = *report.pm.certified;
        out << "\ncertified verdict: ";
        switch (cert.stop) {
            case stats::CertStop::DecidedAbove:
                out << "gain >= " << eval.certify.gamma;
                break;
            case stats::CertStop::DecidedBelow:
                out << "gain < " << eval.certify.gamma;
                break;
            case stats::CertStop::BudgetExhausted:
                out << "inconclusive (budget exhausted at " << cert.replications
                    << " replications)";
                break;
        }
        out << " [statistical error <= " << cert.delta
            << ", tally error <= " << cert.numerical_error
            << " folded into the interval; stopped after " << cert.replications
            << " replications, " << cert.looks << " looks, boundary "
            << stats::cs_boundary_name(eval.certify.boundary) << "]\n";
    }

    if (options.audit) {
        const auto l3 = dnh::audit_lemma3(instance, *mechanism, rng, 0.1);
        const auto l5 = dnh::audit_lemma5(instance, *mechanism, rng, 0.2, 2.0, 24);
        out << "\nLemma 3 audit (bounded competency + delegation budget):\n"
            << "  bounded competency: " << (l3.bounded_competency ? "yes" : "NO")
            << " (beta " << l3.beta << ")\n"
            << "  delegations " << l3.mean_delegators << " vs budget n^{1/2-eps} = "
            << l3.delegation_budget << " => "
            << (l3.within_budget ? "within" : "EXCEEDED") << "\n"
            << "  erf flip-probability bound: " << l3.flip_probability_bound << "\n"
            << "  hypotheses hold: " << (l3.hypotheses_hold ? "yes" : "NO") << "\n";
        out << "Lemma 5 audit (max sink weight / variance):\n"
            << "  mean max weight " << l5.mean_max_weight << ", worst "
            << l5.worst_max_weight << "\n"
            << "  delegated margin " << l5.mean_margin << " vs sigma " << l5.mean_sigma
            << " => " << (l5.weight_small_enough ? "safe (margin >= 2 sigma)"
                                                 : "AT RISK (margin < 2 sigma)")
            << "\n";
    }

    if (options.dot_path.has_value()) {
        const auto outcome = delegation::realize_weighted(*mechanism, instance, rng, {},
                                                          eval.cycle_policy);
        std::ofstream dot(*options.dot_path);
        if (!dot) throw SpecError("--dot: cannot open '" + *options.dot_path + "'");
        std::vector<std::string> labels;
        labels.reserve(instance.voter_count());
        for (graph::Vertex v = 0; v < instance.voter_count(); ++v) {
            std::string label = "v";
            label += std::to_string(v);
            label += " p=";
            label += std::to_string(instance.competency(v)).substr(0, 5);
            labels.push_back(std::move(label));
        }
        graph::write_dot(dot, outcome.as_digraph(), labels, "delegation");
        out << "\nwrote one delegation realization to " << *options.dot_path << "\n";
    }

    report_metrics(options.metrics_out, out, "\n");
    return 0;
}

std::string sweep_usage() {
    return R"(liquidd sweep — declarative, checkpointed parameter sweeps

usage: liquidd sweep <spec.json> [flags]

The spec describes a cartesian grid over n × alpha × graph ×
competencies × mechanism (axis values use the same spec grammar as the
single-run flags); every grid cell is evaluated with a seed derived from
(sweep seed, cell index), so runs reproduce bit-for-bit.  Rows stream to
CSV (or JSON lines when the output ends in .jsonl) and a checkpoint
manifest is rewritten atomically after every cell.

  --out <path>        row output (default <spec stem>.csv in the current
                      directory; sharded runs get .shard<i>of<k> added)
  --ckpt <path>       checkpoint manifest (default <out>.ckpt.json)
  --resume            replay finished cells from the checkpoint, then
                      continue; output is byte-identical to an
                      uninterrupted run
  --shard <i>/<k>     run only cells with index % k == i (multi-machine
                      partition; the union of all shards equals the
                      unsharded run)
  --threads <count>   override the spec's replication workers (0 = auto)
  --max-cells <count> stop after this many new cells (interruption drill)
  --metrics-out <path> end-of-run metrics report as JSON
  --simd <tier>       pin the tally kernel tier (auto|scalar|avx2|avx512;
                      recorded in the manifest, bit-identical across tiers)
  --help              show this text

Spec reference, worked examples, and the checkpoint/shard semantics:
docs/SWEEPS.md.  Ready-made specs: examples/sweeps/.
)";
}

SweepOptions parse_sweep_options(const std::vector<std::string>& args) {
    SweepOptions options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& flag = args[i];
        const auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size()) throw SpecError(flag + ": missing value");
            return args[++i];
        };
        if (flag == "--out") options.output_path = next();
        else if (flag == "--ckpt") options.checkpoint_path = next();
        else if (flag == "--resume") options.resume = true;
        else if (flag == "--shard") {
            std::tie(options.shard_index, options.shard_count) = parse_shard(next());
        }
        else if (flag == "--threads") options.threads = parse_size(next(), flag);
        else if (flag == "--max-cells") options.max_cells = parse_size(next(), flag);
        else if (flag == "--metrics-out") options.metrics_out = next();
        else if (flag == "--simd") options.simd = next();
        else if (flag == "--help" || flag == "-h") options.help = true;
        else if (!flag.empty() && flag[0] == '-') {
            throw SpecError("unknown flag '" + flag + "' (try `liquidd sweep --help`)");
        }
        else if (options.spec_path.empty()) options.spec_path = flag;
        else throw SpecError("unexpected argument '" + flag + "'");
    }
    if (!options.help && options.spec_path.empty()) {
        throw SpecError("sweep: missing <spec.json> (try `liquidd sweep --help`)");
    }
    return options;
}

namespace {

/// `examples/sweeps/alpha_grid.json` -> `alpha_grid` (current directory).
std::string spec_stem(const std::string& path) {
    const auto dir = path.find_last_of("/\\");
    std::string stem = dir == std::string::npos ? path : path.substr(dir + 1);
    if (std::string_view(stem).ends_with(".json")) stem.resize(stem.size() - 5);
    if (stem.empty()) stem = "sweep";
    return stem;
}

}  // namespace

int run_sweep(const SweepOptions& options, std::ostream& out) {
    if (options.help) {
        out << sweep_usage();
        return 0;
    }
    apply_simd_override(options.simd);
    const auto spec = experiments::SweepSpec::load(options.spec_path);

    experiments::SweepOptions engine_options;
    engine_options.shard.index = options.shard_index;
    engine_options.shard.count = options.shard_count;
    engine_options.resume = options.resume;
    engine_options.max_cells = options.max_cells;
    engine_options.threads = options.threads;
    if (options.output_path) {
        engine_options.output_path = *options.output_path;
    } else {
        engine_options.output_path = spec_stem(options.spec_path);
        if (options.shard_count > 1) {
            engine_options.output_path += ".shard" + std::to_string(options.shard_index) +
                                          "of" + std::to_string(options.shard_count);
        }
        engine_options.output_path += ".csv";
    }
    if (options.checkpoint_path) engine_options.checkpoint_path = *options.checkpoint_path;
    // SIGINT/SIGTERM: finish the cell in flight, keep the published
    // checkpoint, and exit 0 so supervisors see a clean stop; the user
    // reruns with --resume to continue.
    engine_options.cancel = [] { return support::SignalDrain::requested(); };

    support::SignalDrain drain_on_signal;
    experiments::SweepEngine engine(spec, engine_options);
    engine.run(out);

    report_metrics(options.metrics_out, out);
    return 0;
}

std::string serve_usage() {
    return R"(liquidd serve — long-running evaluation server (liquidd.rpc.v1)

usage: liquidd serve [flags]

Listens on a Unix-domain socket and/or a TCP loopback port and answers
newline-delimited JSON requests: eval, instance.load, instance.info,
instance.patch, instance.state, metrics, health, shutdown.  Connections
run concurrently, one worker per hardware thread; each connection's
requests execute and answer in the order sent.  Results are
bit-identical to the one-shot CLI with the same (params, seed, threads).
SIGTERM/SIGINT (or a `shutdown` request) drains gracefully: stop
accepting, finish admitted work, flush metrics, exit 0.

  --socket <path>        Unix-domain socket to listen on
  --tcp <port>           TCP loopback port (0 picks an ephemeral port,
                         printed on startup); at least one of
                         --socket/--tcp is required
  --queue-capacity <n>   admission bound: once this many requests wait,
                         evals and patches are rejected with
                         `overloaded` (default 128)
  --threads <count>      default eval threads for requests that name
                         none (default 0 = auto, one per hardware thread)
  --tally-eps <eps>      default windowed-tally ε applied to eval
                         requests that name no tally_eps (default 1e-12;
                         0 = exact)
  --deadline-ms <ms>     default per-request deadline when a request
                         carries no deadline_ms (default 0 = none)
  --write-timeout-ms <ms>  bound on any single response write; a client
                         that stops reading this long is dropped
                         (default 5000, 0 = block indefinitely)
  --metrics-out <path>   flush a liquidd.metrics.v1 report here as the
                         last drain step
  --simd <tier>          pin the tally kernel tier (auto|scalar|avx2|avx512;
                         reported in the handshake, bit-identical results)
  --route <b1,b2,...>    shard-router mode: forward requests to these
                         backend liquidd servers (hashed by instance
                         fingerprint) instead of evaluating locally.
                         Each backend is unix:/path, tcp:PORT, a bare
                         socket path, or a bare port
  --health-interval-ms <ms>  router backend health-probe cadence
                         (default 1000; a probe unanswered for 3
                         intervals marks the backend down)
  --ready-file <path>    write "ready\n" here once the listeners accept
                         (works with a FIFO: `mkfifo` + read replaces
                         connect-polling loops in supervisors/CI)
  --ready-fd <fd>        write "ready\n" to this inherited fd and close
                         it once the listeners accept
  --help                 show this text

Protocol reference, backpressure semantics, and a load-generator
walkthrough: docs/SERVING.md.  Load generator: liquidd_loadgen.
)";
}

ServeOptions parse_serve_options(const std::vector<std::string>& args) {
    ServeOptions options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& flag = args[i];
        const auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size()) throw SpecError(flag + ": missing value");
            return args[++i];
        };
        if (flag == "--socket") options.unix_socket = next();
        else if (flag == "--tcp") {
            const std::size_t port = parse_size(next(), flag);
            if (port > 65535) throw SpecError("--tcp: port must be <= 65535");
            options.tcp_port = port;
        }
        else if (flag == "--queue-capacity") options.queue_capacity = parse_size(next(), flag);
        else if (flag == "--threads") options.threads = parse_size(next(), flag);
        else if (flag == "--tally-eps") options.tally_eps = parse_tally_eps(next());
        else if (flag == "--deadline-ms") options.deadline_ms = parse_size(next(), flag);
        else if (flag == "--write-timeout-ms") options.write_timeout_ms = parse_size(next(), flag);
        else if (flag == "--metrics-out") options.metrics_out = next();
        else if (flag == "--simd") options.simd = next();
        else if (flag == "--route") {
            // Comma-separated backend list; validate each spec eagerly so
            // a typo fails at the command line, not mid-serve.
            const std::string& list = next();
            std::size_t start = 0;
            while (start <= list.size()) {
                const std::size_t comma = list.find(',', start);
                const std::string item =
                    list.substr(start, comma == std::string::npos ? std::string::npos
                                                                  : comma - start);
                if (!item.empty()) {
                    try {
                        serve::parse_backend_spec(item);
                    } catch (const support::net::NetError& e) {
                        throw SpecError(std::string("--route: ") + e.what());
                    }
                    options.route.push_back(item);
                }
                if (comma == std::string::npos) break;
                start = comma + 1;
            }
            if (options.route.empty()) {
                throw SpecError("--route: need at least one backend");
            }
        }
        else if (flag == "--health-interval-ms") {
            options.health_interval_ms = parse_size(next(), flag);
            if (options.health_interval_ms == 0) {
                throw SpecError("--health-interval-ms: must be >= 1");
            }
        }
        else if (flag == "--ready-file") options.ready_file = next();
        else if (flag == "--ready-fd") {
            options.ready_fd = static_cast<int>(parse_size(next(), flag));
        }
        else if (flag == "--help" || flag == "-h") options.help = true;
        else throw SpecError("unknown flag '" + flag + "' (try `liquidd serve --help`)");
    }
    if (!options.help && !options.unix_socket && !options.tcp_port) {
        throw SpecError("serve: need --socket <path> and/or --tcp <port>");
    }
    return options;
}

int run_serve(const ServeOptions& options, std::ostream& out) {
    if (options.help) {
        out << serve_usage();
        return 0;
    }
    apply_simd_override(options.simd);

    if (!options.route.empty()) {
        // Shard-router mode: no local evaluation — hash instance
        // fingerprints across the named backend liquidds.
        serve::ShardRouterConfig config;
        if (options.unix_socket) config.unix_socket = *options.unix_socket;
        if (options.tcp_port) config.tcp_port = static_cast<std::uint16_t>(*options.tcp_port);
        for (const std::string& spec : options.route) {
            config.backends.push_back(serve::parse_backend_spec(spec));
        }
        config.health_interval = std::chrono::milliseconds(options.health_interval_ms);
        config.write_timeout = std::chrono::milliseconds(options.write_timeout_ms);
        config.drain_on_signal = true;
        if (options.metrics_out) config.metrics_out = *options.metrics_out;

        support::SignalDrain drain_on_signal;  // SIGINT/SIGTERM -> graceful drain
        serve::ShardRouter router(std::move(config));
        router.start();

        out << support::version_line() << "\n";
        if (options.unix_socket) out << "listening on unix:" << *options.unix_socket << "\n";
        if (options.tcp_port) {
            out << "listening on tcp:127.0.0.1:" << router.tcp_port() << "\n";
        }
        out << "routing to " << options.route.size() << " backend(s)\n";
        out << "serving (SIGTERM/SIGINT or a shutdown request drains)\n" << std::flush;
        const int ready_keep = serve::signal_ready(
            options.ready_file.value_or(""), options.ready_fd.value_or(-1));

        const int code = router.wait();
        if (ready_keep >= 0) ::close(ready_keep);
        out << (code == 0 ? "drained cleanly" : "drained after an event-loop failure");
        if (options.metrics_out) out << "; metrics flushed to " << *options.metrics_out;
        out << "\n";
        return code;
    }

    serve::ServerConfig config;
    if (options.unix_socket) config.unix_socket = *options.unix_socket;
    if (options.tcp_port) config.tcp_port = static_cast<std::uint16_t>(*options.tcp_port);
    config.queue_capacity = options.queue_capacity;
    config.eval_threads = options.threads;
    config.tally_epsilon = options.tally_eps;
    config.default_deadline = std::chrono::milliseconds(options.deadline_ms);
    config.write_timeout = std::chrono::milliseconds(options.write_timeout_ms);
    config.drain_on_signal = true;
    if (options.metrics_out) config.metrics_out = *options.metrics_out;

    support::SignalDrain drain_on_signal;  // SIGINT/SIGTERM -> graceful drain
    serve::Server server(std::move(config));
    server.start();

    out << support::version_line() << "\n";
    if (options.unix_socket) out << "listening on unix:" << *options.unix_socket << "\n";
    if (options.tcp_port) {
        out << "listening on tcp:127.0.0.1:" << server.tcp_port() << "\n";
    }
    out << "serving (SIGTERM/SIGINT or a shutdown request drains)\n" << std::flush;
    const int ready_keep = serve::signal_ready(options.ready_file.value_or(""),
                                               options.ready_fd.value_or(-1));

    const int code = server.wait();
    if (ready_keep >= 0) ::close(ready_keep);
    out << (code == 0 ? "drained cleanly" : "drained after an event-loop failure");
    if (options.metrics_out) out << "; metrics flushed to " << *options.metrics_out;
    out << "\n";
    return code;
}

std::string gen_usage() {
    return R"(liquidd gen — standalone streaming graph generation

usage: liquidd gen [flags]

Generates a graph (or one shard of it) through the chunked-CSR streaming
facade and prints size/degree/latency stats.  The emitted edge set depends
only on (--graph, --n, --seed): chunk size, shard partition, and thread
count never change it, so shards generated on different machines union to
exactly the unsharded graph.  See docs/GENERATORS.md.

  --graph <spec>      facade graph spec: cl:<gamma>,<avgdeg>[,<maxw>]
                      | hyper:... | girg:... | rmat:<m>[,<a>,<b>,<c>]
                      | gen:<family>[:<params>] (gnp, gnm, dout, dregular,
                      ba, ws, complete, star, ...); bare family specs such
                      as gnp:0.01 are accepted as shorthand for gen:...
                      (default cl:2.5,8)
  --n <count>         number of vertices (default 100000)
  --seed <value>      root seed for per-cell derivation (default 1)
  --shard <i>/<k>     generate only cells with index % k == i; the union
                      of all k shards' edge sets equals the unsharded run
  --chunk-edges <c>   edges per sink flush (default 65536; output-invariant)
  --threads <count>   generation workers (default 0 = auto; output-invariant)
  --budget-mb <mb>    refuse to exceed this pipeline footprint (default 0 =
                      LIQUIDD_GEN_BUDGET_MB env, else unlimited)
  --out <path>        write the generated graph ("-" for stdout)
  --format <fmt>      dump format: edges (sorted "u v" lines, the
                      canonical byte-comparable form) | csr (offset and
                      neighbour arrays; default edges)
  --metrics-out <path> write the end-of-run metrics report as JSON
  --help              show this text

examples:
  liquidd gen --graph hyper:2.7,12 --n 10000000 --budget-mb 2048
  liquidd gen --graph gen:gnp:0.001 --n 100000 --shard 0/4 --out shard0.txt
)";
}

GenOptions parse_gen_options(const std::vector<std::string>& args) {
    GenOptions options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& flag = args[i];
        const auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size()) throw SpecError(flag + ": missing value");
            return args[++i];
        };
        if (flag == "--graph") options.graph_spec = next();
        else if (flag == "--n") options.n = parse_size(next(), flag);
        else if (flag == "--seed") options.seed = parse_size(next(), flag);
        else if (flag == "--shard") {
            std::tie(options.shard_index, options.shard_count) = parse_shard(next());
        }
        else if (flag == "--chunk-edges") {
            options.chunk_edges = parse_size(next(), flag);
            if (options.chunk_edges == 0) throw SpecError("--chunk-edges: must be >= 1");
        }
        else if (flag == "--threads") options.threads = parse_size(next(), flag);
        else if (flag == "--budget-mb") options.budget_mb = parse_size(next(), flag);
        else if (flag == "--out") options.out_path = next();
        else if (flag == "--format") {
            options.format = next();
            if (options.format != "edges" && options.format != "csr") {
                throw SpecError("--format: expected edges|csr, got '" + options.format +
                                "'");
            }
        }
        else if (flag == "--metrics-out") options.metrics_out = next();
        else if (flag == "--help" || flag == "-h") options.help = true;
        else throw SpecError("unknown flag '" + flag + "' (try --help)");
    }
    return options;
}

int run_gen(const GenOptions& options, std::ostream& out) {
    if (options.help) {
        out << gen_usage();
        return 0;
    }
    const std::string spec = is_generator_spec(options.graph_spec)
                                 ? options.graph_spec
                                 : "gen:" + options.graph_spec;
    gen::GeneratorConfig config = parse_generator_spec(spec, options.n, options.seed);
    config.chunk_edges = options.chunk_edges;
    config.shard.index = options.shard_index;
    config.shard.count = options.shard_count;
    config.threads = options.threads;
    config.memory_budget_bytes = options.budget_mb << 20;

    const support::Stopwatch timer;
    gen::BuildStats stats;
    const graph::Graph graph = gen::generate_graph(config, &stats);
    const double elapsed = timer.elapsed_seconds();

    out << "generated " << config.describe() << "\n";
    out << "vertices " << graph.vertex_count() << ", edges " << graph.edge_count()
        << " (emitted " << stats.edges_emitted << " in " << stats.chunks
        << " chunks)\n";
    const auto deg = graph::degree_stats(graph);
    out << "degrees: min " << deg.min << ", max " << deg.max << ", mean " << deg.mean
        << "\n";
    out << "elapsed " << elapsed << " s, pipeline peak ~" << (stats.peak_bytes >> 20)
        << " MB\n";

    if (options.out_path.has_value()) {
        std::ofstream file;
        const bool to_stdout = *options.out_path == "-";
        if (!to_stdout) {
            file.open(*options.out_path);
            if (!file) {
                throw SpecError("--out: cannot open '" + *options.out_path + "'");
            }
        }
        std::ostream& dump = to_stdout ? out : file;
        if (options.format == "edges") {
            graph::write_edge_list(dump, graph);
        } else {
            // CSR dump: one offsets line, then one adjacency line per vertex.
            dump << "csr " << graph.vertex_count() << " " << graph.edge_count() << "\n";
            for (graph::Vertex v = 0; v < graph.vertex_count(); ++v) {
                dump << v << ":";
                for (graph::Vertex u : graph.neighbours(v)) dump << " " << u;
                dump << "\n";
            }
        }
        if (!to_stdout) out << "wrote " << options.format << " dump to "
                            << *options.out_path << "\n";
    }

    report_metrics(options.metrics_out, out);
    return 0;
}

std::string game_usage() {
    return R"(liquidd game — best-response trajectory workload

usage: liquidd game [flags]

Runs best-response dynamics (selfish or cooperative utility) from the
all-vote profile over the incremental churn engine: the evolving profile
lives in a DynamicResolution and candidate deviations are probed against
the live product-tree tally instead of re-resolving from scratch.  With
--trajectory-out every applied deviation is streamed with the group
correct-probability after it — the gain-along-the-path measurement of
docs/CHURN.md.

  --graph <spec>         topology (default complete; same grammar as run)
  --competencies <spec>  competency profile (default uniform:0.3,0.7)
  --n <count>            number of voters (default 100)
  --alpha <margin>       approval margin alpha > 0 (default 0.05)
  --seed <value>         RNG seed (default 1)
  --utility <name>       selfish (sink competency, viscosity-decayed) |
                         coop (group correct probability; default selfish)
  --max-rounds <count>   passes over the voters before giving up (default 64)
  --viscosity <v>        viscous-democracy decay in (0, 1]: a selfish sink
                         at delegation depth d is worth v^d * competency
                         (default 1 = classic selfish utility)
  --tally-eps <eps>      certified clip budget for cooperative probes /
                         trajectory points (default 0 = exact windows; the
                         final equilibrium P is always the exact DP)
  --shuffle-seed <value> seed the per-round update-order shuffle so the
                         trajectory replays byte-identically (default:
                         drawn from --seed)
  --fixed-order          visit voters in id order every round (no shuffle)
  --load-instance <path> load a saved instance (overrides --graph/--competencies)
  --trajectory-out <path> write the deviation trajectory as CSV
                         ("-" for stdout)
  --metrics-out <path>   write the end-of-run metrics report as JSON
  --simd <tier>          pin the tally kernel tier (auto|scalar|avx2|avx512)
  --help                 show this text

examples:
  liquidd game --graph dregular:16 --n 2000 --utility selfish --viscosity 0.9
  liquidd game --n 500 --utility coop --shuffle-seed 7 --trajectory-out path.csv
)";
}

GameCliOptions parse_game_options(const std::vector<std::string>& args) {
    GameCliOptions options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& flag = args[i];
        const auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size()) throw SpecError(flag + ": missing value");
            return args[++i];
        };
        if (flag == "--graph") options.graph_spec = next();
        else if (flag == "--competencies") options.competency_spec = next();
        else if (flag == "--n") options.n = parse_size(next(), flag);
        else if (flag == "--alpha") options.alpha = parse_double(next(), flag);
        else if (flag == "--seed") options.seed = parse_size(next(), flag);
        else if (flag == "--utility") {
            options.utility = next();
            if (options.utility != "selfish" && options.utility != "coop") {
                throw SpecError("--utility: expected selfish|coop, got '" +
                                options.utility + "'");
            }
        }
        else if (flag == "--max-rounds") {
            options.max_rounds = parse_size(next(), flag);
            if (options.max_rounds == 0) throw SpecError("--max-rounds: must be >= 1");
        }
        else if (flag == "--viscosity") {
            options.viscosity = parse_double(next(), flag);
            if (options.viscosity <= 0.0 || options.viscosity > 1.0) {
                throw SpecError("--viscosity: expected a value in (0, 1]");
            }
        }
        else if (flag == "--tally-eps") options.tally_eps = parse_tally_eps(next());
        else if (flag == "--shuffle-seed") options.shuffle_seed = parse_size(next(), flag);
        else if (flag == "--fixed-order") options.fixed_order = true;
        else if (flag == "--load-instance") options.load_path = next();
        else if (flag == "--trajectory-out") options.trajectory_out = next();
        else if (flag == "--metrics-out") options.metrics_out = next();
        else if (flag == "--simd") options.simd = next();
        else if (flag == "--help" || flag == "-h") options.help = true;
        else throw SpecError("unknown flag '" + flag + "' (try --help)");
    }
    return options;
}

int run_game(const GameCliOptions& options, std::ostream& out) {
    if (options.help) {
        out << game_usage();
        return 0;
    }
    apply_simd_override(options.simd);
    rng::Rng rng(options.seed);
    const model::Instance instance =
        options.load_path ? model::load_instance(*options.load_path)
                          : make_instance(options.graph_spec, options.competency_spec,
                                          options.n, options.alpha, rng);

    game::GameOptions game;
    game.utility = options.utility == "coop" ? game::Utility::Cooperative
                                             : game::Utility::Selfish;
    game.max_rounds = options.max_rounds;
    game.random_order = !options.fixed_order;
    game.shuffle_seed = options.shuffle_seed;
    game.viscosity = options.viscosity;
    game.tally_epsilon = options.tally_eps;
    game.record_trajectory = true;

    out << instance.describe() << "\n";
    out << "utility: " << options.utility << ", viscosity " << options.viscosity
        << ", max rounds " << options.max_rounds << "\n\n";

    const support::Stopwatch timer;
    const auto result = game::best_response_dynamics(instance, rng, game);
    const double elapsed = timer.elapsed_seconds();

    support::TablePrinter table({"metric", "value"}, 5);
    table.add_row({std::string("converged"), result.converged ? 1.0 : 0.0});
    table.add_row({std::string("rounds"), static_cast<double>(result.rounds)});
    table.add_row({std::string("deviations"), static_cast<double>(result.deviations)});
    table.add_row({std::string("P (equilibrium, exact)"),
                   result.group_correct_probability});
    table.add_row({std::string("gain vs direct"), result.gain_vs_direct});
    table.add_row({std::string("delegators"),
                   static_cast<double>(result.stats.delegator_count)});
    table.add_row({std::string("voting sinks"),
                   static_cast<double>(result.stats.voting_sink_count)});
    table.add_row({std::string("max weight"),
                   static_cast<double>(result.stats.max_weight)});
    table.add_row({std::string("longest path"),
                   static_cast<double>(result.stats.longest_path)});
    table.add_row({std::string("elapsed s"), elapsed});
    table.print(out);

    if (options.trajectory_out.has_value()) {
        std::ofstream file;
        const bool to_stdout = *options.trajectory_out == "-";
        if (!to_stdout) {
            file.open(*options.trajectory_out);
            if (!file) {
                throw SpecError("--trajectory-out: cannot open '" +
                                *options.trajectory_out + "'");
            }
        }
        std::ostream& dump = to_stdout ? out : file;
        dump << "round,voter,from,to,correct_probability,gain\n";
        dump.precision(17);
        for (const auto& point : result.trajectory) {
            dump << point.round << "," << point.voter << "," << point.from << ","
                 << point.to << "," << point.correct_probability << ","
                 << point.gain << "\n";
        }
        if (!to_stdout) {
            out << "wrote " << result.trajectory.size() << " trajectory points to "
                << *options.trajectory_out << "\n";
        }
    }

    report_metrics(options.metrics_out, out);
    return 0;
}

int dispatch(const std::vector<std::string>& args, std::ostream& out) {
    if (!args.empty() && (args[0] == "--version" || args[0] == "-V")) {
        out << support::version_line() << "\n";
        // Active kernel tier (resolving LIQUIDD_SIMD, exactly as a run
        // would) plus the host's widest, so results are attributable to
        // a lane width from the version string alone.
        out << "simd: " << support::simd_tier_name(prob::kernel_tier())
            << " (best supported: "
            << support::simd_tier_name(support::best_simd_tier()) << ")\n";
        return 0;
    }
    if (!args.empty() && !args[0].empty() && args[0][0] != '-') {
        const std::vector<std::string> rest(args.begin() + 1, args.end());
        if (args[0] == "run") return run(parse_options(rest), out);
        if (args[0] == "sweep") return run_sweep(parse_sweep_options(rest), out);
        if (args[0] == "serve") return run_serve(parse_serve_options(rest), out);
        if (args[0] == "gen") return run_gen(parse_gen_options(rest), out);
        if (args[0] == "game") return run_game(parse_game_options(rest), out);
        throw SpecError("unknown subcommand '" + args[0] +
                        "'; valid subcommands: run, sweep, serve, gen, game "
                        "(bare flags run a single evaluation; try --help)");
    }
    return run(parse_options(args), out);
}

}  // namespace ld::cli
