#include "ld/experiments/sweep.hpp"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "ld/cli/eval_options.hpp"
#include "ld/cli/specs.hpp"
#include "ld/experiments/harness.hpp"  // stable_seed
#include "ld/election/evaluator.hpp"
#include "ld/model/instance.hpp"
#include "prob/convolve.hpp"
#include "support/build_info.hpp"
#include "support/cpu_features.hpp"
#include "support/csv_writer.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"

namespace ld::experiments {

namespace json = support::json;

namespace {

// Spec parsing ------------------------------------------------------------

[[noreturn]] void spec_error(const std::string& where, const std::string& what) {
    throw SweepError("sweep spec: " + where + ": " + what);
}

double require_number(const json::Value& v, const std::string& where) {
    if (!v.is_number()) spec_error(where, "expected a number");
    return v.as_number();
}

std::size_t require_count(const json::Value& v, const std::string& where) {
    const std::optional<std::size_t> count = cli::count_of(require_number(v, where));
    if (!count) spec_error(where, "expected a non-negative integer");
    return *count;
}

/// An axis accepts either a scalar or a non-empty array of scalars.
std::vector<json::Value> axis_values(const json::Value& axes, const std::string& key) {
    const json::Value* v = axes.find(key);
    if (!v) spec_error("axes." + key, "missing");
    if (v->is_array()) {
        if (v->as_array().empty()) spec_error("axes." + key, "must not be empty");
        return v->as_array();
    }
    return {*v};
}

std::vector<std::string> string_axis(const json::Value& axes, const std::string& key) {
    std::vector<std::string> out;
    for (const auto& v : axis_values(axes, key)) {
        if (!v.is_string()) spec_error("axes." + key, "expected spec strings");
        out.push_back(v.as_string());
    }
    return out;
}

// Row formatting ----------------------------------------------------------

/// One field, rendered exactly as support::CsvWriter renders it — the
/// single formatting used for CSV rows, JSONL rows, and the values stored
/// in (and replayed from) checkpoints, so every path is byte-stable.
std::string render_field(const support::Cell& cell) {
    std::ostringstream os;
    if (const auto* s = std::get_if<std::string>(&cell)) {
        os << *s;
    } else if (const auto* i = std::get_if<long long>(&cell)) {
        os << *i;
    } else {
        os << std::setprecision(17) << std::get<double>(cell);
    }
    return os.str();
}

json::Value cell_to_json(const support::Cell& cell) {
    if (const auto* s = std::get_if<std::string>(&cell)) return json::Value(*s);
    if (const auto* i = std::get_if<long long>(&cell)) {
        return json::Value(static_cast<double>(*i));
    }
    return json::Value(std::get<double>(cell));
}

support::Cell cell_from_json(const json::Value& v, const std::string& where) {
    if (v.is_string()) return v.as_string();
    if (v.is_number()) return v.as_number();
    throw SweepError("sweep checkpoint: " + where + ": row fields must be strings or numbers");
}

std::string hex_seed(std::uint64_t seed) {
    std::ostringstream os;
    os << "0x" << std::hex << seed;
    return os.str();
}

/// Streams rows to either CSV (with header) or JSON lines, chosen by the
/// output path's extension.
class RowWriter {
public:
    RowWriter(const std::string& path, const std::vector<std::string>& headers) {
        const bool jsonl = std::string_view(path).ends_with(".jsonl") ||
                           std::string_view(path).ends_with(".ndjson");
        if (jsonl) {
            headers_ = headers;
            out_.open(path, std::ios::binary | std::ios::trunc);
            if (!out_) throw SweepError("sweep: cannot open output '" + path + "'");
        } else {
            csv_ = std::make_unique<support::CsvWriter>(path, headers);
        }
    }

    void write(const std::vector<support::Cell>& row) {
        if (csv_) {
            // Pre-render so CSV always sees strings: one formatting path
            // shared with checkpoints regardless of the Cell alternative.
            std::vector<support::Cell> fields;
            fields.reserve(row.size());
            for (const auto& cell : row) fields.emplace_back(render_field(cell));
            csv_->add_row(fields);
            return;
        }
        json::Object object;
        for (std::size_t i = 0; i < row.size(); ++i) {
            object.emplace(headers_[i], cell_to_json(row[i]));
        }
        out_ << json::dump(json::Value(std::move(object))) << '\n';
    }

    void close() {
        if (csv_) csv_->close();
        if (out_.is_open()) out_.close();
    }

private:
    std::unique_ptr<support::CsvWriter> csv_;
    std::ofstream out_;
    std::vector<std::string> headers_;
};

}  // namespace

SweepSpec SweepSpec::from_json(const json::Value& doc) {
    if (!doc.is_object()) throw SweepError("sweep spec: document must be a JSON object");
    if (const json::Value* schema = doc.find("schema")) {
        if (!schema->is_string() || schema->as_string() != "liquidd.sweep-spec.v1") {
            spec_error("schema", "expected \"liquidd.sweep-spec.v1\"");
        }
    }
    SweepSpec spec;
    const json::Value* name = doc.find("name");
    if (!name || !name->is_string() || name->as_string().empty()) {
        spec_error("name", "required non-empty string");
    }
    spec.name = name->as_string();
    if (const json::Value* seed = doc.find("seed")) {
        spec.seed = static_cast<std::uint64_t>(require_count(*seed, "seed"));
    }
    if (const json::Value* reps = doc.find("replications")) {
        spec.eval.replications = require_count(*reps, "replications");
    }

    const json::Value* axes = doc.find("axes");
    if (!axes || !axes->is_object()) spec_error("axes", "required object");
    for (const auto& [key, value] : axes->as_object()) {
        (void)value;
        if (key != "n" && key != "alpha" && key != "graph" && key != "competencies" &&
            key != "mechanism") {
            spec_error("axes." + key, "unknown axis (n, alpha, graph, competencies, mechanism)");
        }
    }
    for (const auto& v : axis_values(*axes, "n")) {
        const std::size_t n = require_count(v, "axes.n");
        if (n < 1) spec_error("axes.n", "voter counts must be >= 1");
        spec.ns.push_back(n);
    }
    for (const auto& v : axis_values(*axes, "alpha")) {
        const double alpha = require_number(v, "axes.alpha");
        if (alpha <= 0) spec_error("axes.alpha", "approval margins must be > 0");
        spec.alphas.push_back(alpha);
    }
    spec.graphs = string_axis(*axes, "graph");
    spec.competencies = string_axis(*axes, "competencies");
    spec.mechanisms = string_axis(*axes, "mechanism");

    const json::Value* options = doc.find("options");
    if (options && !options->is_object()) spec_error("options", "expected object");
    try {
        if (options) cli::read_eval_json(*options, cli::EvalFront::Sweep, spec.eval);
        cli::check_eval(spec.eval, cli::EvalFront::Sweep);
    } catch (const cli::SpecError& e) {
        throw SweepError(e.what());
    }
    const json::Value* boundary = options ? options->find("certify_boundary") : nullptr;
    if (boundary) spec.certify_boundary = boundary->as_string();
    return spec;
}

SweepSpec SweepSpec::load(const std::string& path) {
    try {
        return from_json(json::parse_file(path));
    } catch (const json::Error& e) {
        throw SweepError(std::string("sweep spec '") + path + "': " + e.what());
    }
}

std::size_t SweepSpec::cell_count() const noexcept {
    return ns.size() * alphas.size() * graphs.size() * competencies.size() *
           mechanisms.size();
}

std::uint64_t SweepSpec::fingerprint() const {
    // Canonical text over every result-affecting field, FNV-1a hashed
    // (stable_seed).  '\x1f' separates fields so concatenation is
    // unambiguous.
    std::ostringstream canon;
    const char sep = '\x1f';
    canon << "liquidd.sweep-spec.v1" << sep << name << sep << seed << sep
          << eval.replications << sep << eval.inner_samples << sep
          << (eval.cycle_policy == delegation::CyclePolicy::Discard) << sep
          << eval.approximate_tally << sep << json::format_number(eval.target_std_error)
          << sep << eval.adaptive_batch << sep << eval.max_replications << sep
          << json::format_number(eval.tally_epsilon) << sep
          << json::format_number(eval.certify.gamma) << sep
          << json::format_number(eval.certify.delta) << sep << certify_boundary << sep;
    for (std::size_t n : ns) canon << 'n' << n << sep;
    for (double a : alphas) canon << 'a' << json::format_number(a) << sep;
    for (const auto& g : graphs) canon << 'g' << g << sep;
    for (const auto& c : competencies) canon << 'c' << c << sep;
    for (const auto& m : mechanisms) canon << 'm' << m << sep;
    return stable_seed(canon.str());
}

std::uint64_t derive_cell_seed(std::uint64_t sweep_seed, std::size_t cell_index) {
    rng::SplitMix64 base(sweep_seed);
    rng::SplitMix64 cell(base.next() ^
                         (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(cell_index) + 1)));
    return cell.next();
}

SweepEngine::SweepEngine(SweepSpec spec, SweepOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
    if (spec_.name.empty()) throw SweepError("sweep: spec has no name");
    if (spec_.cell_count() == 0) throw SweepError("sweep: spec has an empty axis");
    if (options_.shard.count == 0) throw SweepError("sweep: shard count must be >= 1");
    if (options_.shard.index >= options_.shard.count) {
        throw SweepError("sweep: shard index must be < shard count");
    }
    spec_.eval.threads =
        cli::resolve_threads(options_.threads.value_or(spec_.eval.threads));
}

const std::vector<std::string>& SweepEngine::row_headers() {
    // New columns go at the end: downstream tooling (and the progress log)
    // indexes rows by position.
    static const std::vector<std::string> headers = {
        "cell",         "n",       "alpha",      "graph",
        "competencies", "mechanism", "replications", "seed",
        "pd",           "pm",      "pm_stderr",  "gain",
        "gain_ci_lo",   "gain_ci_hi", "mean_delegators", "mean_sinks",
        "mean_max_weight", "mean_longest_path",
        "cert_gain_lo", "cert_gain_hi", "cert_stop"};
    return headers;
}

std::vector<SweepCell> SweepEngine::cells() const {
    std::vector<SweepCell> out;
    out.reserve(spec_.cell_count());
    std::size_t index = 0;
    for (std::size_t n : spec_.ns) {
        for (double alpha : spec_.alphas) {
            for (const auto& graph : spec_.graphs) {
                for (const auto& competency : spec_.competencies) {
                    for (const auto& mechanism : spec_.mechanisms) {
                        SweepCell cell;
                        cell.index = index;
                        cell.n = n;
                        cell.alpha = alpha;
                        cell.graph = graph;
                        cell.competency = competency;
                        cell.mechanism = mechanism;
                        cell.seed = derive_cell_seed(spec_.seed, index);
                        out.push_back(std::move(cell));
                        ++index;
                    }
                }
            }
        }
    }
    return out;
}

SweepEngine::Row SweepEngine::run_cell(const SweepCell& cell) const {
    // Building the mechanism draws nothing from the Rng, so its checks
    // refuse the cell before the instance is built.
    const auto mechanism = cli::make_mechanism(cell.mechanism);
    cli::check_eval(spec_.eval, cli::EvalFront::Sweep, mechanism.get(), cell.mechanism);
    rng::Rng rng(cell.seed);
    const model::Instance instance =
        cli::make_instance(cell.graph, cell.competency, cell.n, cell.alpha, rng);
    const auto report = election::estimate_gain(*mechanism, instance, rng, spec_.eval);

    // Certified columns: empty strings when certification is off, so
    // fixed/adaptive sweeps keep byte-stable rows.
    support::Cell cert_lo{std::string()}, cert_hi{std::string()},
        cert_stop{std::string()};
    if (report.certified_gain && report.pm.certified) {
        cert_lo = report.certified_gain->lo;
        cert_hi = report.certified_gain->hi;
        cert_stop = std::string(stats::cert_stop_name(report.pm.certified->stop));
    }

    return Row{static_cast<long long>(cell.index),
               static_cast<long long>(cell.n),
               cell.alpha,
               cell.graph,
               cell.competency,
               cell.mechanism,
               // Actual replication count: equals spec_.eval.replications in
               // fixed mode, the adaptive stopping point otherwise.
               static_cast<long long>(report.pm.replications),
               hex_seed(cell.seed),
               report.pd,
               report.pm.value,
               report.pm.std_error,
               report.gain,
               report.gain_ci.lo,
               report.gain_ci.hi,
               report.mean_delegators,
               report.mean_sinks,
               report.mean_max_weight,
               report.mean_longest_path,
               cert_lo,
               cert_hi,
               cert_stop};
}

void SweepEngine::write_checkpoint(const std::map<std::size_t, Row>& done) const {
    json::Object manifest;
    manifest.emplace("schema", json::Value(std::string("liquidd.sweep.v1")));
    manifest.emplace("build", support::build_info_json());
    manifest.emplace("simd", json::Value(std::string(support::simd_tier_name(
                                 prob::kernel_tier()))));
    manifest.emplace("sweep", json::Value(spec_.name));
    manifest.emplace("spec_fingerprint", json::Value(hex_seed(spec_.fingerprint())));
    json::Object shard;
    shard.emplace("index", json::Value(static_cast<double>(options_.shard.index)));
    shard.emplace("count", json::Value(static_cast<double>(options_.shard.count)));
    manifest.emplace("shard", json::Value(std::move(shard)));
    manifest.emplace("threads", json::Value(static_cast<double>(spec_.eval.threads)));
    manifest.emplace("cell_count", json::Value(static_cast<double>(spec_.cell_count())));
    json::Array headers;
    for (const auto& h : row_headers()) headers.emplace_back(h);
    manifest.emplace("headers", json::Value(std::move(headers)));
    json::Object cells;
    for (const auto& [index, row] : done) {
        json::Array fields;
        fields.reserve(row.size());
        for (const auto& cell : row) fields.push_back(cell_to_json(cell));
        cells.emplace(std::to_string(index), json::Value(std::move(fields)));
    }
    manifest.emplace("cells", json::Value(std::move(cells)));

    // Atomic publish: finished manifests only.  A kill between cells
    // leaves the previous manifest; a kill mid-write leaves the previous
    // manifest plus a stale .tmp that the next write overwrites.
    const std::string tmp = options_.checkpoint_path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) throw SweepError("sweep: cannot open checkpoint '" + tmp + "'");
        json::write(out, json::Value(std::move(manifest)), 2);
        out << '\n';
        out.flush();
        if (!out) throw SweepError("sweep: failed writing checkpoint '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), options_.checkpoint_path.c_str()) != 0) {
        throw SweepError("sweep: cannot publish checkpoint '" + options_.checkpoint_path +
                         "'");
    }
}

std::map<std::size_t, SweepEngine::Row> SweepEngine::load_checkpoint() const {
    std::map<std::size_t, Row> done;
    std::ifstream probe(options_.checkpoint_path);
    if (!probe.good()) return done;  // nothing to resume from: fresh run
    probe.close();

    const json::Value doc = json::parse_file(options_.checkpoint_path);
    const auto check = [&](bool ok, const std::string& what) {
        if (!ok) {
            throw SweepError("sweep: checkpoint '" + options_.checkpoint_path +
                             "' does not match this run: " + what);
        }
    };
    check(doc.at("schema").as_string() == "liquidd.sweep.v1", "schema");
    check(doc.at("spec_fingerprint").as_string() == hex_seed(spec_.fingerprint()),
          "spec changed since the checkpoint was written");
    check(static_cast<std::size_t>(doc.at("shard").at("index").as_number()) ==
                  options_.shard.index &&
              static_cast<std::size_t>(doc.at("shard").at("count").as_number()) ==
                  options_.shard.count,
          "shard assignment differs");
    check(static_cast<std::size_t>(doc.at("threads").as_number()) == spec_.eval.threads,
          "thread count differs (the replication split depends on it)");

    const std::size_t width = row_headers().size();
    for (const auto& [key, fields] : doc.at("cells").as_object()) {
        const std::size_t index = static_cast<std::size_t>(std::stoull(key));
        const json::Array& array = fields.as_array();
        check(array.size() == width, "cell " + key + " has wrong width");
        Row row;
        row.reserve(width);
        for (const auto& field : array) row.push_back(cell_from_json(field, "cell " + key));
        done.emplace(index, std::move(row));
    }
    return done;
}

SweepResult SweepEngine::run(std::ostream& log) {
    if (options_.output_path.empty()) throw SweepError("sweep: no output path");
    if (options_.checkpoint_path.empty()) {
        options_.checkpoint_path = options_.output_path + ".ckpt.json";
    }

    auto& registry = support::MetricsRegistry::global();
    support::Counter& completed_metric = registry.counter("sweep.cells_completed");
    support::Counter& skipped_metric = registry.counter("sweep.cells_skipped");
    support::Counter& failed_metric = registry.counter("sweep.cells_failed");
    support::LatencyHistogram& latency = registry.histogram("sweep.cell_latency");

    const std::vector<SweepCell> grid = cells();
    std::vector<const SweepCell*> mine;
    for (const auto& cell : grid) {
        if (cell.index % options_.shard.count == options_.shard.index) {
            mine.push_back(&cell);
        }
    }

    std::map<std::size_t, Row> done =
        options_.resume ? load_checkpoint() : std::map<std::size_t, Row>{};

    SweepResult result;
    result.cells_total = mine.size();
    if (!options_.quiet) {
        log << "sweep " << spec_.name << ": " << grid.size() << " cells";
        if (options_.shard.count > 1) {
            log << ", shard " << options_.shard.index << "/" << options_.shard.count
                << " -> " << mine.size() << " cells";
        }
        log << ", " << spec_.eval.threads << " thread(s), resume "
            << (options_.resume ? "on" : "off") << "\n";
    }

    RowWriter writer(options_.output_path, row_headers());
    bool interrupted = false;
    for (const SweepCell* cell : mine) {
        if (const auto it = done.find(cell->index); it != done.end()) {
            writer.write(it->second);
            skipped_metric.add(1);
            ++result.cells_skipped;
            continue;
        }
        if (options_.max_cells != 0 && result.cells_completed >= options_.max_cells) {
            interrupted = true;
            break;
        }
        if (options_.cancel && options_.cancel()) {
            // The previous cell's checkpoint is already published, so
            // stopping here loses no work.
            interrupted = true;
            result.cancelled = true;
            break;
        }
        const support::Stopwatch clock;
        Row row;
        try {
            row = run_cell(*cell);
        } catch (const std::exception& e) {
            failed_metric.add(1);
            throw SweepError("sweep cell #" + std::to_string(cell->index) + " (n=" +
                             std::to_string(cell->n) + ", graph=" + cell->graph +
                             ", competencies=" + cell->competency + ", mechanism=" +
                             cell->mechanism + "): " + e.what());
        }
        latency.record(clock.elapsed_seconds());
        completed_metric.add(1);
        ++result.cells_completed;
        if (!options_.quiet) {
            log << "  cell " << cell->index << "/" << grid.size() << "  n=" << cell->n
                << " alpha=" << cell->alpha << " graph=" << cell->graph
                << " mech=" << cell->mechanism
                << "  gain=" << render_field(row[11]) << "\n";  // row[11]: "gain"
        }
        writer.write(row);
        done.emplace(cell->index, std::move(row));
        write_checkpoint(done);
    }
    writer.close();

    result.finished = !interrupted;
    if (!options_.quiet) {
        log << "sweep " << spec_.name << ": " << result.cells_completed << " run, "
            << result.cells_skipped << " resumed"
            << (result.finished
                    ? ""
                    : (result.cancelled ? " (interrupted; checkpoint saved, rerun with --resume)"
                                        : " (stopped early; rerun with --resume)"))
            << " -> " << options_.output_path << "\n";
    }
    return result;
}

}  // namespace ld::experiments
