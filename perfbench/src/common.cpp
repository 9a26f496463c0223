#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>

#include "prob/convolve.hpp"
#include "support/build_info.hpp"
#include "support/cpu_features.hpp"

namespace perfbench {

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d4a4a2f8ed22c3ULL;
    return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream,
                          std::uint64_t index) {
    std::uint64_t state = workload_seed ^ (0xd1b54a32d192ed03ULL * (stream + 1));
    splitmix64(state);
    state ^= 0x9e3779b97f4a7c15ULL * (index + 1);
    return splitmix64(state);
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double windowed_quantile(const std::vector<double>& values, double q, std::size_t windows) {
    std::vector<double> per_window;
    for (std::size_t w = 0; w < windows; ++w) {
        const std::size_t lo = values.size() * w / windows;
        const std::size_t hi = values.size() * (w + 1) / windows;
        if (hi > lo) {
            per_window.push_back(quantile({values.begin() + lo, values.begin() + hi}, q));
        }
    }
    return median(per_window);
}

void Result::check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
}

json::Object host_stamp() {
    const auto& build = ld::support::build_info();
    json::Object stamp;
    stamp.emplace("cores",
                  json::Value(static_cast<double>(std::thread::hardware_concurrency())));
    stamp.emplace("simd_tier", json::Value(std::string(ld::support::simd_tier_name(
                                   ld::prob::kernel_tier()))));
    stamp.emplace("build_type", json::Value(build.build_type));
    stamp.emplace("git_describe", json::Value(build.git_describe));
    stamp.emplace("compiler", json::Value(build.compiler));
    return stamp;
}

double load_average() {
    double load[1] = {-1.0};
    if (getloadavg(load, 1) != 1) return -1.0;
    return load[0];
}

double self_peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double children_peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_CHILDREN, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------

std::uint64_t Tracer::record(std::string name, double start, double end,
                             std::uint64_t parent, std::uint64_t request) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.request = request;
    span.name = std::move(name);
    span.start = start;
    span.end = end;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

std::uint64_t Tracer::open(std::string name, std::uint64_t parent, std::uint64_t request) {
    return record(std::move(name), now(), -1.0, parent, request);
}

void Tracer::finish(std::uint64_t id) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(id - 1).end = t;
}

std::vector<Span> Tracer::spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<std::pair<std::string, SpanTotals>> Tracer::totals(
    const std::vector<Span>& spans) {
    // Each span's self time = duration minus the summed durations of its
    // children, neither clipped nor clamped: children that overlap or count
    // the same time twice drive it below zero, which check_self catches.
    std::vector<double> children_s(spans.size() + 1, 0.0);
    for (const Span& s : spans) {
        if (s.parent != 0 && s.parent <= spans.size()) children_s[s.parent] += s.end - s.start;
    }
    std::map<std::string, SpanTotals> by_name;
    for (const Span& s : spans) {
        const double duration = s.end - s.start;
        const double self = duration - children_s[s.id];
        SpanTotals& t = by_name[s.name];
        t.min_self = t.count == 0 ? self : std::min(t.min_self, self);
        ++t.count;
        t.total += duration;
        t.self += self;
    }
    return {by_name.begin(), by_name.end()};
}

std::string Tracer::check_nesting(const std::vector<Span>& spans, double slack) {
    for (const Span& s : spans) {
        if (s.end < s.start) return "span " + s.name + " never finished";
        if (s.parent == 0) continue;
        if (s.parent > spans.size()) return "span " + s.name + " has an unknown parent";
        const Span& p = spans[s.parent - 1];
        if (s.start + slack < p.start || s.end > p.end + slack) {
            return "span " + s.name + " is not inside its parent " + p.name;
        }
    }
    return "";
}

std::string Tracer::check_self(const std::vector<Span>& spans, double slack) {
    for (const auto& [name, t] : totals(spans)) {
        if (t.min_self < -slack) return "span " + name + " has a negative self time";
    }
    return "";
}

void Tracer::write_jsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (const Span& s : spans()) {
        json::Object row;
        row.emplace("id", json::Value(static_cast<double>(s.id)));
        row.emplace("parent", json::Value(static_cast<double>(s.parent)));
        row.emplace("request", json::Value(static_cast<double>(s.request)));
        row.emplace("name", json::Value(s.name));
        row.emplace("start", json::Value(s.start));
        row.emplace("end", json::Value(s.end));
        out << json::dump(json::Value(std::move(row))) << '\n';
    }
}

namespace {

const SpanTotals* find_totals(const std::vector<std::pair<std::string, SpanTotals>>& totals,
                              const std::string& name) {
    for (const auto& [n, t] : totals) {
        if (n == name) return &t;
    }
    return nullptr;
}

}  // namespace

double total_time(const std::vector<std::pair<std::string, SpanTotals>>& totals,
                  const std::string& name) {
    const SpanTotals* t = find_totals(totals, name);
    return t ? t->total : 0.0;
}

std::size_t span_count(const std::vector<std::pair<std::string, SpanTotals>>& totals,
                       const std::string& name) {
    const SpanTotals* t = find_totals(totals, name);
    return t ? t->count : 0;
}

json::Value load_reference(const Options& options) {
    const json::Value doc = json::parse_file(options.references);
    return doc.at(options.workload).at(options.tiny ? "tiny" : "full");
}

}  // namespace perfbench
