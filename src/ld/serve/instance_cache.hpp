// Content-addressed cache of realized instances for the serve layer.
//
// An instance is fully determined by (graph spec, competency spec, n,
// alpha, seed) — realization is deterministic — so that tuple's
// fingerprint is the cache key AND the client-visible handle:
// `instance.load` returns it, later `eval` calls pass it back, and two
// clients loading the same tuple share one realized instance (graph,
// competency vector, and the approval CSR the mechanisms' hot path
// reads).  This is what lets thousands of small dependent queries skip
// the rebuild that dominates one-shot CLI runs.
//
// Entries are shared_ptr-held: a drain or explicit eviction can drop the
// cache while an in-flight eval keeps its instance alive.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ld/model/instance.hpp"

namespace ld::serve {

/// The (spec tuple, realized instance) pair a fingerprint resolves to.
struct CachedInstance {
    std::string fingerprint;     ///< hex key, e.g. "0x9a4b..."
    std::string graph_spec;
    std::string competency_spec;
    std::size_t n = 0;
    double alpha = 0.0;
    std::uint64_t seed = 0;
    model::Instance instance;

    CachedInstance(std::string fp, std::string graph, std::string competencies,
                   std::size_t n_, double alpha_, std::uint64_t seed_,
                   model::Instance realized)
        : fingerprint(std::move(fp)),
          graph_spec(std::move(graph)),
          competency_spec(std::move(competencies)),
          n(n_),
          alpha(alpha_),
          seed(seed_),
          instance(std::move(realized)) {}
};

/// Thread-safe fingerprint → instance map.
class InstanceCache {
public:
    /// Stable fingerprint of the realization tuple (FNV-1a over a
    /// canonical rendering; the same value across processes and runs).
    static std::string fingerprint(const std::string& graph_spec,
                                   const std::string& competency_spec, std::size_t n,
                                   double alpha, std::uint64_t seed);

    /// Look up the tuple; realize and insert on miss.  `was_hit` (when
    /// non-null) reports whether the instance was already cached.
    /// Throws cli::SpecError on a bad spec or alpha (cli::make_instance).
    std::shared_ptr<const CachedInstance> load(const std::string& graph_spec,
                                               const std::string& competency_spec,
                                               std::size_t n, double alpha,
                                               std::uint64_t seed,
                                               bool* was_hit = nullptr);

    /// Fingerprint lookup only; nullptr when absent.
    std::shared_ptr<const CachedInstance> find(const std::string& fingerprint) const;

    std::size_t size() const;
    void clear();

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const CachedInstance>> entries_;
};

}  // namespace ld::serve
