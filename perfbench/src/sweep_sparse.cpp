// sweep_sparse: SweepEngine::run over a 16-cell grid of large sparse
// instances (n ∈ {100000, 200000} × four graph families × two
// mechanisms) with the Lemma-4 normal tally, 64 replications, 4 threads,
// rows and checkpoint written to a directory under the benchmark's own
// output directory.  Graph generation and act/resolve do the work; the
// tally does almost none.
//
// The workload seed is the sweep's master seed, so every run realizes
// different graphs and competencies; each cell is checked against a stored
// per-cell reference (mean over several sweep seeds) within a stored
// tolerance that covers that seed-to-seed variation.

#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "layers.hpp"
#include "ld/cli/specs.hpp"
#include "ld/experiments/sweep.hpp"

namespace perfbench {

namespace {

namespace election = ld::election;
namespace experiments = ld::experiments;
namespace fs = std::filesystem;

struct Grid {
    std::vector<double> ns{100000, 200000};
    std::vector<std::string> graphs{"cl:2.5,8", "hyper:2.7,12", "ba:4", "dregular:8"};
    std::vector<std::string> mechanisms{"threshold:1", "alg1:sqrt"};
    std::string competencies = "uniform:0.45,0.555";
    double alpha = 0.05;
    std::size_t replications = 64;
    std::size_t threads = 4;
    /// Single-thread replications replayed per cell in the traced pass.
    std::size_t replay_replications = 8;
};

Grid grid(bool tiny) {
    Grid g;
    if (tiny) {
        g.ns = {2000, 4000};
        g.replications = 8;
        g.threads = 2;
        g.replay_replications = 2;
    }
    return g;
}

json::Value string_array(const std::vector<std::string>& items) {
    json::Array out;
    for (const auto& s : items) out.emplace_back(s);
    return json::Value(std::move(out));
}

experiments::SweepSpec make_spec(const Grid& g, std::uint64_t sweep_seed) {
    json::Object axes;
    json::Array ns;
    for (double n : g.ns) ns.emplace_back(n);
    axes.emplace("n", json::Value(std::move(ns)));
    axes.emplace("alpha", json::Value(g.alpha));
    axes.emplace("graph", string_array(g.graphs));
    axes.emplace("competencies", json::Value(g.competencies));
    axes.emplace("mechanism", string_array(g.mechanisms));
    json::Object opts;
    opts.emplace("threads", json::Value(static_cast<double>(g.threads)));
    opts.emplace("approximate", json::Value(true));
    json::Object doc;
    doc.emplace("name", json::Value(std::string("perfbench-sweep-sparse")));
    // Seeds stay below 2^53 so the JSON number round-trips exactly.
    doc.emplace("seed", json::Value(static_cast<double>(sweep_seed >> 11)));
    doc.emplace("replications", json::Value(static_cast<double>(g.replications)));
    doc.emplace("axes", json::Value(std::move(axes)));
    doc.emplace("options", json::Value(std::move(opts)));
    return experiments::SweepSpec::from_json(json::Value(std::move(doc)));
}

/// One completed SweepEngine::run: wall time, per-cell times taken at the
/// engine's between-cell callback, and the rows it wrote.
struct SweepRun {
    double wall_s = 0.0;
    std::vector<double> cell_bounds;  ///< tracer clock, one per started cell + end
    std::vector<json::Value> rows;
};

SweepRun run_sweep(const experiments::SweepSpec& spec, const fs::path& dir,
                   Tracer& clock_source) {
    fs::create_directories(dir);
    experiments::SweepOptions opts;
    opts.output_path = (dir / "rows.jsonl").string();
    opts.quiet = true;
    SweepRun run;
    opts.cancel = [&run, &clock_source] {
        run.cell_bounds.push_back(clock_source.now());
        return false;
    };
    experiments::SweepEngine engine(spec, opts);
    std::ostringstream log;
    const auto t0 = Clock::now();
    engine.run(log);
    run.wall_s = seconds_between(t0, Clock::now());
    run.cell_bounds.push_back(clock_source.now());
    std::ifstream in(opts.output_path);
    for (std::string line; std::getline(in, line);) {
        if (!line.empty()) run.rows.push_back(json::parse(line));
    }
    return run;
}

std::vector<double> cell_times(const SweepRun& run) {
    std::vector<double> out;
    for (std::size_t i = 0; i + 1 < run.cell_bounds.size(); ++i) {
        out.push_back(run.cell_bounds[i + 1] - run.cell_bounds[i]);
    }
    return out;
}

std::string family_of(const std::string& graph_spec) {
    return graph_spec.substr(0, graph_spec.find(':'));
}

/// Check every row of one sweep against the stored per-cell references.
void check_rows(Result& result, const SweepRun& run, const json::Value& ref,
                std::size_t cell_count, bool inject_bad) {
    result.check(run.rows.size() == cell_count, "sweep_sparse: row count");
    const auto& cells = ref.at("cells").as_array();
    for (std::size_t i = 0; i < run.rows.size(); ++i) {
        const json::Value& row = run.rows[i];
        const std::size_t index = static_cast<std::size_t>(row.at("cell").as_number());
        if (index >= cells.size()) {
            result.check(false, "sweep_sparse: unknown cell index");
            continue;
        }
        const json::Value& c = cells[index];
        double pm = row.at("pm").as_number();
        if (inject_bad && i == 0) pm = -1.0;
        const double pd = row.at("pd").as_number();
        const double gain = row.at("gain").as_number();
        const double se = row.at("pm_stderr").as_number();
        const bool ok = std::abs(pd - c.at("pd").as_number()) <= c.at("pd_tol").as_number() &&
                        std::abs(pm - c.at("pm").as_number()) <=
                            c.at("pm_tol").as_number() + 5.0 * se &&
                        std::abs(gain - c.at("gain").as_number()) <=
                            c.at("gain_tol").as_number() + 5.0 * se &&
                        std::abs(gain - (pm - pd)) <= 1e-12;
        result.check(ok, "sweep_sparse: cell " + std::to_string(index) +
                             " outside its reference tolerance (pd " +
                             json::format_number(pd) + ", pm " + json::format_number(pm) +
                             ", gain " + json::format_number(gain) + ")");
    }
}

}  // namespace

json::Value make_reference_sweep_sparse(const Options& options) {
    // Per-cell mean over several sweep seeds; the tolerance is the larger
    // of four times the largest seed-to-seed deviation seen and six sample
    // standard deviations, plus a floor.
    const Grid g = grid(options.tiny);
    Tracer clock(false);
    const fs::path dir = fs::path(options.out_dir) / "sweep-reference";
    std::map<std::size_t, std::vector<std::array<double, 3>>> seen;
    const std::size_t seeds = 10;
    for (std::size_t s = 0; s < seeds; ++s) {
        const auto spec = make_spec(g, derive_seed(1000 + s, 0, 0));
        const SweepRun run = run_sweep(spec, dir, clock);
        for (const auto& row : run.rows) {
            seen[static_cast<std::size_t>(row.at("cell").as_number())].push_back(
                {row.at("pd").as_number(), row.at("pm").as_number(),
                 row.at("gain").as_number()});
        }
    }
    fs::remove_all(dir);
    json::Array cells;
    for (const auto& [index, values] : seen) {
        json::Object cell;
        const char* names[3] = {"pd", "pm", "gain"};
        for (int k = 0; k < 3; ++k) {
            double mean = 0.0;
            for (const auto& v : values) mean += v[k];
            mean /= static_cast<double>(values.size());
            double dev = 0.0;
            double var = 0.0;
            for (const auto& v : values) {
                dev = std::max(dev, std::abs(v[k] - mean));
                var += (v[k] - mean) * (v[k] - mean);
            }
            const double sd = std::sqrt(var / static_cast<double>(values.size() - 1));
            cell.emplace(names[k], json::Value(mean));
            cell.emplace(std::string(names[k]) + "_tol",
                         json::Value(std::max(4.0 * dev, 6.0 * sd) + 1e-3));
        }
        cells.emplace_back(std::move(cell));
    }
    json::Object ref;
    ref.emplace("cells", json::Value(std::move(cells)));
    ref.emplace("seeds", json::Value(static_cast<double>(seeds)));
    return json::Value(std::move(ref));
}

Result run_sweep_sparse(const Options& options, Tracer& tracer) {
    const Grid g = grid(options.tiny);
    const json::Value ref = load_reference(options);
    const fs::path root = fs::path(options.out_dir) /
                          ("sweep-" + std::to_string(options.seed) +
                           (options.trace ? "-traced" : ""));
    Result result;

    // Set-up, five times (median reported): spec, engine construction for
    // the real grid, and a small warm-up sweep over the same graph and
    // mechanism axes at n=10000 that starts the worker pool and touches
    // every code path a cell uses.
    std::vector<double> setup_s;
    std::size_t cell_count = 0;
    std::vector<experiments::SweepCell> cells;
    const std::uint64_t sweep_seed = derive_seed(options.seed, 0, 0);
    for (std::uint64_t i = 0; i < 5; ++i) {
        const auto t0 = Clock::now();
        fs::remove_all(root);
        const auto spec = make_spec(g, sweep_seed);
        experiments::SweepOptions opts;
        opts.output_path = (root / "probe.jsonl").string();
        const experiments::SweepEngine engine(spec, opts);
        cells = engine.cells();
        cell_count = cells.size();
        Grid warm = g;
        warm.ns = {10000};
        warm.replications = 4;
        run_sweep(make_spec(warm, sweep_seed), root / "warmup", tracer);
        setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    const auto spec = make_spec(g, sweep_seed);

    if (!tracer.enabled()) {
        // Whole sweeps, as many as the budget holds (at least one).
        const auto start = Clock::now();
        double busy = 0.0;
        double last = 0.0;
        std::size_t cells_done = 0;
        std::vector<std::vector<double>> cell_runs;
        for (std::size_t k = 0;
             k == 0 || seconds_between(start, Clock::now()) + last <= options.seconds; ++k) {
            const SweepRun run = run_sweep(spec, root / ("run-" + std::to_string(k)), tracer);
            last = run.wall_s;
            busy += run.wall_s;
            cells_done += run.rows.size();
            cell_runs.push_back(cell_times(run));
            check_rows(result, run, ref, cell_count, options.inject_bad && k == 0);
        }
        fs::remove_all(root);
        // Per-cell mean over the sweeps, then quantiles across the cells.
        std::vector<double> per_cell(cell_runs.front().size(), 0.0);
        for (const auto& times : cell_runs) {
            for (std::size_t i = 0; i < per_cell.size() && i < times.size(); ++i) {
                per_cell[i] += times[i] / static_cast<double>(cell_runs.size());
            }
        }
        result.add("setup_s", median(setup_s), "s");
        result.add("work_per_s", static_cast<double>(cells_done) / busy, "1/s");
        result.add("op_p50_ms", 1e3 * median(per_cell), "ms");
        result.add("op_p90_ms", 1e3 * quantile(per_cell, 0.9), "ms");
        result.note("peak_rss_mb", self_peak_rss_mb(), "MiB");
        result.note("cells_per_s", static_cast<double>(cells_done) / busy, "1/s");
        result.note("sweeps", static_cast<double>(cells_done) / cell_count, "count");
        return result;
    }

    // Traced pass.  A: one sweep under a span, its cells marked from the
    // engine's between-cell callback.  B: each cell replayed through the
    // public calls a cell makes (generate, competencies, instance,
    // mechanism, estimate_gain), then a few single-thread replications
    // through the layer functions, once untraced and once traced (the
    // difference is the tracing overhead).
    SweepRun traced;
    {
        const ScopedSpan span(tracer, "sweep.run", 0, 0);
        traced = run_sweep(spec, root / "traced", tracer);
        for (std::size_t i = 0; i + 1 < traced.cell_bounds.size(); ++i) {
            tracer.record("sweep.cell", traced.cell_bounds[i], traced.cell_bounds[i + 1],
                          span.id(), i + 1);
        }
    }
    check_rows(result, traced, ref, cell_count, options.inject_bad);

    TraceOverhead overhead;
    double calls_s = 0.0;
    double estimate_s = 0.0;
    double sinks = 0.0;
    std::map<std::string, std::pair<double, std::size_t>> generate_by_family;
    for (const auto& cell : cells) {
        const std::uint64_t request = cell.index + 1;
        election::EvalOptions eval;
        eval.replications = g.replications;
        eval.threads = g.threads;
        eval.approximate_tally = true;
        const auto t0 = Clock::now();
        std::optional<ld::model::Instance> instance;
        std::unique_ptr<ld::mech::Mechanism> mechanism;
        election::GainReport report;
        {
            const ScopedSpan span(tracer, "cell", 0, request);
            ld::rng::Rng rng(cell.seed);
            instance.emplace(traced_instance(tracer, cell.graph, cell.competency, cell.n,
                                             cell.alpha, rng, span.id(), request));
            mechanism = ld::cli::make_mechanism(cell.mechanism);
            const auto e0 = Clock::now();
            {
                const ScopedSpan estimate(tracer, "evaluator.estimate_gain", span.id(),
                                          request);
                report = election::estimate_gain(*mechanism, *instance, rng, eval);
            }
            estimate_s += seconds_between(e0, Clock::now());
        }
        calls_s += seconds_between(t0, Clock::now());
        const json::Value& row = traced.rows.at(cell.index);
        result.check(std::abs(report.pm.value - row.at("pm").as_number()) <= 1e-12 &&
                         std::abs(report.pd - row.at("pd").as_number()) <= 1e-12,
                     "sweep_sparse: replayed cell differs from the sweep row");

        sinks += replay_with_overhead(tracer, *mechanism, *instance,
                                      derive_seed(options.seed, 3, cell.index), eval,
                                      g.replay_replications, request, overhead)
                     .sinks_mean;
    }
    fs::remove_all(root);

    const auto spans = tracer.spans();
    const auto totals = Tracer::totals(spans);
    for (const Span& s : spans) {
        if (s.name != "graph.generate" || s.request == 0) continue;
        auto& [sum, count] = generate_by_family[family_of(cells.at(s.request - 1).graph)];
        sum += s.end - s.start;
        ++count;
    }
    const LayerBreakdown layers = layer_breakdown(spans);
    const double cell_mean = estimate_s / static_cast<double>(cells.size());
    add_shared_layer_metrics(result, layers, sinks / static_cast<double>(cells.size()),
                             cell_mean, g.replications, g.threads, overhead.share());
    result.note("sweep.overhead_s", traced.wall_s - calls_s, "s");
    result.note("graph.share",
                total_time(totals, "graph.generate") / total_time(totals, "cell"), "ratio");
    for (const auto& [family, sum_count] : generate_by_family) {
        result.note("graph.generate_s." + family,
                    sum_count.first / static_cast<double>(sum_count.second), "s");
    }
    return result;
}

}  // namespace perfbench
