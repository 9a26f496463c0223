// Shared pieces of the liquidd end-to-end benchmark: options, the result
// record every workload fills, quantiles, the host/build stamp, and the
// in-memory span tracer used by the traced pass.
//
// Spans are recorded only by the benchmark's own code, around calls into
// the library's public functions (and around socket requests to the real
// server), so a change inside a layer is measured by unchanged code here.

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

namespace json = ld::support::json;
using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Command-line options shared by every workload.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;           ///< self-test sizes (seconds, not minutes)
    bool inject_bad = false;     ///< corrupt one checked output (self-test)
    std::string server;          ///< path of the `liquidd` binary (serve_mixed)
    std::string references;      ///< stored-reference JSON file
    std::string out_dir;         ///< result and trace files go here
    bool make_reference = false; ///< print fresh references instead of measuring
};

/// SplitMix64 step: every benchmark input derives from the workload seed
/// through this, so the same seed gives the same inputs.
std::uint64_t splitmix64(std::uint64_t& state);

/// Seed for item `index` of stream `stream` under the workload seed.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream,
                          std::uint64_t index);

/// Linear-interpolated quantile of `values` (sorted copy), q in [0, 1].
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Median over `windows` consecutive chunks of `values` (in time order) of
/// each chunk's q-quantile: a burst of host slowness that lands in one
/// chunk moves the tail of that chunk only.
double windowed_quantile(const std::vector<double>& values, double q,
                         std::size_t windows = 5);

/// One named, unit-carrying number.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload run produced: the checked-output tally, the metrics of
/// this pass (end-to-end untraced, per-layer traced), and extra numbers
/// that go only to the result file and the human-readable lines.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Metric> extra;
    std::vector<std::string> failures;  ///< first few failure reasons

    void check(bool ok, const std::string& what);
    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string name, double value, std::string unit) {
        extra.push_back({std::move(name), value, std::move(unit)});
    }
};

/// Host and build stamp: cores, SIMD tier, build type, git describe.
json::Object host_stamp();

/// 1-minute load average (negative when unavailable).
double load_average();

/// Peak resident set of this process, MiB.
double self_peak_rss_mb();

/// Peak resident set of the largest waited-for child process, MiB.
double children_peak_rss_mb();

// ---------------------------------------------------------------------------
// Tracing

/// One recorded span.  `parent` is 0 for a root; `request` groups all spans
/// of one request (or replication, or cell).
struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
};

/// Per-name aggregate over a span set: count, total, and self time (the
/// span minus the summed durations of its children).
struct SpanTotals {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
    double min_self = 0.0;
};

class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

    bool enabled() const noexcept { return enabled_; }

    /// Seconds since construction on the tracer's clock.
    double now() const { return seconds_between(epoch_, Clock::now()); }
    double at(Clock::time_point t) const { return seconds_between(epoch_, t); }

    /// Record a finished span; returns its id (0 when disabled).
    std::uint64_t record(std::string name, double start, double end,
                         std::uint64_t parent = 0, std::uint64_t request = 0);

    /// Open a span now; close it with finish().  Ids are stable handles,
    /// so callers can pass them as parents before the span ends.
    std::uint64_t open(std::string name, std::uint64_t parent = 0,
                       std::uint64_t request = 0);
    void finish(std::uint64_t id);

    std::vector<Span> spans() const;

    /// Aggregate by span name.
    static std::vector<std::pair<std::string, SpanTotals>> totals(
        const std::vector<Span>& spans);

    /// Nesting check: every child lies inside its parent (within `slack`
    /// seconds) and every parent id exists.  Returns the first violation.
    static std::string check_nesting(const std::vector<Span>& spans, double slack = 1e-6);

    /// Self-time check: no span's children sum to more than the span
    /// (within `slack` seconds), so children neither overlap nor count the
    /// same time twice.  Returns the first violation.
    static std::string check_self(const std::vector<Span>& spans, double slack = 1e-6);

    /// One JSON object per line: id, parent, request, name, start, end.
    void write_jsonl(const std::string& path) const;

private:
    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// Sum of total time over spans named `name`.
double total_time(const std::vector<std::pair<std::string, SpanTotals>>& totals,
                  const std::string& name);
std::size_t span_count(const std::vector<std::pair<std::string, SpanTotals>>& totals,
                       const std::string& name);

/// RAII span on a tracer (no-op when tracing is off).
class ScopedSpan {
public:
    ScopedSpan(Tracer& tracer, std::string name, std::uint64_t parent = 0,
               std::uint64_t request = 0)
        : tracer_(tracer),
          id_(tracer.enabled() ? tracer.open(std::move(name), parent, request) : 0) {}
    ~ScopedSpan() {
        if (id_) tracer_.finish(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint64_t id() const noexcept { return id_; }

private:
    Tracer& tracer_;
    std::uint64_t id_;
};

// ---------------------------------------------------------------------------
// Workloads

Result run_eval_exact(const Options& options, Tracer& tracer);
Result run_sweep_sparse(const Options& options, Tracer& tracer);
Result run_serve_mixed(const Options& options, Tracer& tracer);

/// Fresh stored references (see perfbench/references.json).
json::Value make_reference_eval_exact(const Options& options);
json::Value make_reference_sweep_sparse(const Options& options);

/// The stored references for a workload and size ("full" / "tiny").
json::Value load_reference(const Options& options);

}  // namespace perfbench
