// liquidd_perfbench — end-to-end benchmark of the liquidd library and the
// `liquidd serve` binary.  Usually started through perfbench/run.py, which
// builds it; see perfbench/README.md.
//
//   liquidd_perfbench --workload <eval_exact|sweep_sparse|serve_mixed>
//       --seed <n> --seconds <s> --trace <0|1> --references <file>
//       --out-dir <dir> [--server <liquidd>] [--tiny] [--inject-bad]
//       [--make-reference]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  The full record (host stamp,
// load average, extra numbers, first failures) goes to
// <out-dir>/result-<workload>-seed<n>-trace<t>.json and, for traced runs,
// the spans to <out-dir>/trace-<workload>-seed<n>.jsonl.

#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

json::Value make_reference(const Options& options) {
    if (options.workload == "eval_exact") return make_reference_eval_exact(options);
    if (options.workload == "sweep_sparse") return make_reference_sweep_sparse(options);
    throw std::runtime_error("no stored reference for workload '" + options.workload + "'");
}

constexpr const char* kUsage =
    "usage: liquidd_perfbench --workload <eval_exact|sweep_sparse|serve_mixed>\n"
    "           --seed <n> --seconds <s> --trace <0|1> --references <file>\n"
    "           --out-dir <dir> [--server <liquidd>] [--tiny] [--inject-bad]\n"
    "           [--make-reference]\n";

Options parse_args(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) throw std::runtime_error(flag + ": missing value");
            return argv[++i];
        };
        if (flag == "--workload") o.workload = next();
        else if (flag == "--seed") o.seed = std::stoull(next());
        else if (flag == "--seconds") o.seconds = std::stod(next());
        else if (flag == "--trace") o.trace = next() != "0";
        else if (flag == "--server") o.server = next();
        else if (flag == "--references") o.references = next();
        else if (flag == "--out-dir") o.out_dir = next();
        else if (flag == "--tiny") o.tiny = true;
        else if (flag == "--inject-bad") o.inject_bad = true;
        else if (flag == "--make-reference") o.make_reference = true;
        else throw std::runtime_error("unknown flag '" + flag + "'");
    }
    if (o.workload.empty() || o.out_dir.empty() || o.references.empty()) {
        throw std::runtime_error("--workload, --references and --out-dir are required");
    }
    if (!(o.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
    return o;
}

json::Value metric_object(const std::vector<Metric>& metrics) {
    json::Object out;
    for (const Metric& m : metrics) {
        json::Object entry;
        entry.emplace("value", json::Value(m.value));
        entry.emplace("unit", json::Value(m.unit));
        out.emplace(m.name, json::Value(std::move(entry)));
    }
    return json::Value(std::move(out));
}

int run(const Options& options) {
    std::filesystem::create_directories(options.out_dir);
    if (options.make_reference) {
        std::cout << json::dump(make_reference(options), 2) << "\n";
        return 0;
    }

    const double load_before = load_average();
    Tracer tracer(options.trace);
    Result result;
    if (options.workload == "eval_exact") result = run_eval_exact(options, tracer);
    else if (options.workload == "sweep_sparse") result = run_sweep_sparse(options, tracer);
    else if (options.workload == "serve_mixed") result = run_serve_mixed(options, tracer);
    else throw std::runtime_error("unknown workload '" + options.workload + "'");
    const double load_after = load_average();

    const std::string stem = options.workload + "-seed" + std::to_string(options.seed);
    if (tracer.enabled()) {
        const auto spans = tracer.spans();
        const std::string nesting = Tracer::check_nesting(spans);
        result.check(nesting.empty(), "trace: " + nesting);
        const std::string self = Tracer::check_self(spans);
        result.check(self.empty(), "trace: " + self);
        const std::string path = options.out_dir + "/trace-" + stem + ".jsonl";
        tracer.write_jsonl(path);
        result.note("trace.spans", static_cast<double>(spans.size()), "count");
    }

    const double fail_ratio = result.attempted == 0
                                  ? 1.0
                                  : static_cast<double>(result.failed) /
                                        static_cast<double>(result.attempted);
    json::Object host = host_stamp();
    host.emplace("load_before", json::Value(load_before));
    host.emplace("load_after", json::Value(load_after));
    json::Array failures;
    for (const auto& f : result.failures) failures.emplace_back(f);

    json::Object record;
    record.emplace("schema", json::Value(std::string("liquidd.perfbench.v1")));
    record.emplace("workload", json::Value(options.workload));
    record.emplace("seed", json::Value(static_cast<double>(options.seed)));
    record.emplace("seconds", json::Value(options.seconds));
    record.emplace("trace", json::Value(options.trace));
    record.emplace("tiny", json::Value(options.tiny));
    record.emplace("host", json::Value(host));
    record.emplace("attempted", json::Value(static_cast<double>(result.attempted)));
    record.emplace("failed", json::Value(static_cast<double>(result.failed)));
    record.emplace("fail_ratio", json::Value(fail_ratio));
    record.emplace("metrics", metric_object(result.metrics));
    record.emplace("extra", metric_object(result.extra));
    record.emplace("failures", json::Value(std::move(failures)));
    {
        std::ofstream out(options.out_dir + "/result-" + stem + "-trace" +
                          (options.trace ? "1" : "0") + ".json");
        json::write(out, json::Value(std::move(record)), 2);
        out << "\n";
    }

    std::cout << "# workload " << options.workload << " seed " << options.seed
              << (options.trace ? " (traced)" : "") << "\n";
    std::cout << "# host " << json::dump(json::Value(host)) << "\n";
    for (const Metric& m : result.metrics) {
        std::cout << "# " << m.name << " = " << json::format_number(m.value) << " " << m.unit
                  << "\n";
    }
    for (const Metric& m : result.extra) {
        std::cout << "#   " << m.name << " = " << json::format_number(m.value) << " "
                  << m.unit << "\n";
    }
    std::cout << "# fail_ratio = " << json::format_number(fail_ratio) << " ratio ("
              << result.failed << " of " << result.attempted << ")\n";
    for (const auto& f : result.failures) std::cout << "# failure: " << f << "\n";

    json::Object line;
    line.emplace("correct", json::Value(result.failed == 0 && result.attempted > 0));
    line.emplace("attempted", json::Value(static_cast<double>(result.attempted)));
    line.emplace("failed", json::Value(static_cast<double>(result.failed)));
    line.emplace("metrics", metric_object(result.metrics));
    std::cout << json::dump(json::Value(std::move(line))) << std::endl;
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(perfbench::parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "liquidd_perfbench: " << e.what() << "\n" << perfbench::kUsage;
        return 1;
    }
}
