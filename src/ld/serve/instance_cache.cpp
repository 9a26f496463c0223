#include "ld/serve/instance_cache.hpp"

#include <sstream>

#include "ld/cli/specs.hpp"
#include "ld/experiments/harness.hpp"  // stable_seed
#include "support/json.hpp"
#include "support/metrics.hpp"

namespace ld::serve {

std::string InstanceCache::fingerprint(const std::string& graph_spec,
                                       const std::string& competency_spec,
                                       std::size_t n, double alpha,
                                       std::uint64_t seed) {
    // Canonical text mirrors SweepSpec::fingerprint: '\x1f'-separated
    // fields, numbers via json::format_number so 0.05 and 5e-2 differ
    // only if their doubles do.
    std::ostringstream canon;
    const char sep = '\x1f';
    canon << "liquidd.instance.v1" << sep << graph_spec << sep << competency_spec << sep
          << n << sep << support::json::format_number(alpha) << sep << seed;
    std::ostringstream hex;
    hex << "0x" << std::hex << experiments::stable_seed(canon.str());
    return hex.str();
}

std::shared_ptr<const CachedInstance> InstanceCache::load(
    const std::string& graph_spec, const std::string& competency_spec, std::size_t n,
    double alpha, std::uint64_t seed, bool* was_hit) {
    const std::string key = fingerprint(graph_spec, competency_spec, n, alpha, seed);
    auto& registry = support::MetricsRegistry::global();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = entries_.find(key); it != entries_.end()) {
            if (was_hit) *was_hit = true;
            registry.counter("serve.instance_cache_hits").add(1);
            return it->second;
        }
    }

    // Realize outside the lock (graph generation can be expensive); the
    // same deterministic sequence as the CLI path: one RNG seeded with
    // `seed` drives graph then competencies.
    rng::Rng rng(seed);
    auto entry = std::make_shared<CachedInstance>(
        key, graph_spec, competency_spec, n, alpha, seed,
        cli::make_instance(graph_spec, competency_spec, n, alpha, rng));

    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = entries_.emplace(key, std::move(entry));
    if (was_hit) *was_hit = !inserted;  // racing load: first insert wins
    registry.counter(inserted ? "serve.instance_cache_misses"
                              : "serve.instance_cache_hits")
        .add(1);
    return it->second;
}

std::shared_ptr<const CachedInstance> InstanceCache::find(
    const std::string& fingerprint) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(fingerprint);
    return it == entries_.end() ? nullptr : it->second;
}

std::size_t InstanceCache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void InstanceCache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
}

}  // namespace ld::serve
