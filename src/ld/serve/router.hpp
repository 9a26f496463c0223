// Request execution for the serve layer: one method table mapping
// `liquidd.rpc.v1` methods onto the evaluation engine.  The Router is
// synchronous and transport-free — the Server wraps it with sockets,
// admission control, and per-connection lanes; tests call handle()
// directly.
//
// CLI parity contract: `eval` reproduces the exact RNG sequence of the
// one-shot CLI paths, so a served estimate with a fixed (params, seed,
// threads) is bit-identical to `liquidd run` with the same flags —
// inline specs mirror the build-then-evaluate path, cached-instance
// evals mirror `--load-instance` (fresh RNG, evaluate only).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "ld/election/tally.hpp"
#include "ld/serve/instance_cache.hpp"
#include "ld/serve/live_state.hpp"
#include "ld/serve/protocol.hpp"

namespace ld::serve {

/// Shared live-state block the health endpoint reports; written by the
/// Server, read by the Router.
struct ServeStatus {
    std::atomic<bool> draining{false};
    std::atomic<std::int64_t> queue_depth{0};
    std::atomic<std::uint64_t> connections{0};
};

struct RouterConfig {
    /// Default EvalOptions::threads when an eval request names none
    /// (0 = auto: one per hardware thread, like the CLI).
    std::size_t eval_threads = 1;
    /// Admission sanity cap on per-request replications (bad clients
    /// should get an error, not a day-long eval hogging a worker).
    /// Also clamps the adaptive-mode ceiling (`max_replications` param).
    std::size_t max_replications = 1'000'000;
    /// Default ε for the certified windowed inner tally when an eval
    /// request names no `tally_eps` (0 = exact).
    double default_tally_epsilon = election::kDefaultTallyEpsilon;
    /// Default ε for the live product trees a first `instance.patch` /
    /// `instance.state` creates (when the request names no `tally_eps`).
    /// Unlike evals this is NOT 0: exact windows cost O(n) per patched
    /// leaf at the root, defeating the hot path — 1e-9 keeps every
    /// reported live probability within 1e-9 of exact at O(log n · √n).
    double live_tally_epsilon = 1e-9;
};

class Router {
public:
    /// `status` may be null (unit tests); health then reports zeros.
    Router(RouterConfig config, InstanceCache& cache, ServeStatus* status = nullptr);

    /// The id-free half of a response: what execution produced, before
    /// rendering against a particular request id.
    struct Outcome {
        bool ok = false;
        json::Object result;                       ///< when ok
        ErrorCode code = ErrorCode::Internal;      ///< when !ok
        std::string message;
    };

    /// Method dispatch + error mapping + per-method latency metrics.
    /// Never throws; deadline checks are the caller's job (see handle()).
    Outcome execute(const Request& request);

    /// Render an Outcome against a request id.
    static std::string render(const json::Value& id, const Outcome& outcome);

    /// Execute one parsed request end to end: deadline check before and
    /// after execution, method dispatch, error mapping.  Always returns a
    /// well-formed response line (never throws).
    std::string handle(const Request& request);

    /// Invoked when a `shutdown` request is executed (Server hooks its
    /// drain in here; default no-op).
    void set_shutdown_hook(std::function<void()> hook) { shutdown_hook_ = std::move(hook); }

    InstanceCache& cache() noexcept { return cache_; }
    LiveTable& live() noexcept { return live_; }
    const RouterConfig& config() const noexcept { return config_; }

private:
    json::Object do_eval(const json::Value& params);
    json::Object do_instance_load(const json::Value& params);
    json::Object do_instance_info(const json::Value& params);
    json::Object do_instance_patch(const json::Value& params);
    json::Object do_instance_state(const json::Value& params);
    json::Object do_metrics();
    json::Object do_health();

    /// Resolve the live session for params.instance, creating it at the
    /// all-vote profile on first touch.
    std::shared_ptr<LiveState> open_live(const json::Value& params);

    RouterConfig config_;
    InstanceCache& cache_;
    ServeStatus* status_;
    LiveTable live_;
    std::function<void()> shutdown_hook_;
};

}  // namespace ld::serve
