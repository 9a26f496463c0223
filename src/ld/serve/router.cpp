#include "ld/serve/router.hpp"

#include <sstream>

#include "ld/cli/eval_options.hpp"
#include "ld/cli/specs.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/serve/params.hpp"
#include "stats/confidence_sequence.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"

namespace ld::serve {

namespace {

/// Ceiling on a request's `threads`: the replication loop sizes its RNG
/// streams, partials and pool tasks by it.  The server's own default
/// (`--threads`) is not capped.
constexpr std::size_t kMaxRequestThreads = 1024;

// An optional param: the fallback when absent, the checks of
// ld/serve/params.hpp when present.

std::size_t optional_count(const json::Value& params, const std::string& key,
                           std::size_t fallback) {
    if (!params.is_object() || !params.find(key)) return fallback;
    return require_count(params, key);
}

/// params.graph.  A `file:` graph is refused before anything opens it:
/// the server reads no path a client names.
std::string require_graph_spec(const json::Value& params) {
    std::string spec = require_string(params, "graph");
    if (spec.substr(0, spec.find(':')) == "file") {
        bad_param("graph", "file: graphs are not served");
    }
    return spec;
}

json::Object report_to_json(const election::GainReport& report) {
    json::Object result;
    result.emplace("pd", json::Value(report.pd));
    result.emplace("pm", json::Value(report.pm.value));
    result.emplace("pm_stderr", json::Value(report.pm.std_error));
    result.emplace("gain", json::Value(report.gain));
    result.emplace("gain_ci_lo", json::Value(report.gain_ci.lo));
    result.emplace("gain_ci_hi", json::Value(report.gain_ci.hi));
    result.emplace("mean_delegators", json::Value(report.mean_delegators));
    result.emplace("mean_sinks", json::Value(report.mean_sinks));
    result.emplace("mean_max_weight", json::Value(report.mean_max_weight));
    result.emplace("mean_longest_path", json::Value(report.mean_longest_path));
    result.emplace("replications",
                   json::Value(static_cast<double>(report.pm.replications)));
    if (report.pm.certified && report.certified_gain) {
        const auto& cert = *report.pm.certified;
        result.emplace("cert_gain_lo", json::Value(report.certified_gain->lo));
        result.emplace("cert_gain_hi", json::Value(report.certified_gain->hi));
        result.emplace("cert_pm_lo", json::Value(cert.lo));
        result.emplace("cert_pm_hi", json::Value(cert.hi));
        result.emplace("cert_delta", json::Value(cert.delta));
        result.emplace("cert_stop",
                       json::Value(std::string(stats::cert_stop_name(cert.stop))));
        result.emplace("cert_looks", json::Value(static_cast<double>(cert.looks)));
    }
    return result;
}

}  // namespace

Router::Router(RouterConfig config, InstanceCache& cache, ServeStatus* status)
    : config_(config), cache_(cache), status_(status) {}

Router::Outcome Router::execute(const Request& request) {
    auto& registry = support::MetricsRegistry::global();
    registry.counter("serve.requests").add(1);
    const support::Stopwatch clock;

    Outcome outcome;
    try {
        json::Object result;
        if (request.method == "eval") {
            result = do_eval(request.params);
        } else if (request.method == "instance.load") {
            result = do_instance_load(request.params);
        } else if (request.method == "instance.info") {
            result = do_instance_info(request.params);
        } else if (request.method == "instance.patch") {
            result = do_instance_patch(request.params);
        } else if (request.method == "instance.state") {
            result = do_instance_state(request.params);
        } else if (request.method == "metrics") {
            result = do_metrics();
        } else if (request.method == "health") {
            result = do_health();
        } else if (request.method == "shutdown") {
            result.emplace("draining", json::Value(true));
            if (shutdown_hook_) shutdown_hook_();
        } else {
            throw ProtocolError(ErrorCode::UnknownMethod,
                                "unknown method '" + request.method + "'");
        }
        outcome.ok = true;
        outcome.result = std::move(result);
    } catch (const ProtocolError& e) {
        registry.counter("serve.errors").add(1);
        outcome.code = e.code();
        outcome.message = e.what();
    } catch (const cli::SpecError& e) {
        registry.counter("serve.errors").add(1);
        outcome.code = ErrorCode::BadRequest;
        outcome.message = e.what();
    } catch (const std::exception& e) {
        registry.counter("serve.errors").add(1);
        outcome.code = ErrorCode::Internal;
        outcome.message = e.what();
    }

    registry.histogram("serve.latency." + request.method).record(clock.elapsed_seconds());
    return outcome;
}

std::string Router::render(const json::Value& id, const Outcome& outcome) {
    if (outcome.ok) return render_result(id, outcome.result);
    return render_error(id, outcome.code, outcome.message);
}

std::string Router::handle(const Request& request) {
    auto& registry = support::MetricsRegistry::global();

    // A request that waited past its deadline in the queue is dead on
    // arrival — reject before burning evaluation time on it.
    if (request.expired(std::chrono::steady_clock::now())) {
        registry.counter("serve.rejected_deadline").add(1);
        return render_error(request.id, ErrorCode::DeadlineExceeded,
                            "deadline expired before execution");
    }

    const Outcome outcome = execute(request);

    // The result is worthless if the caller's deadline passed while we
    // computed it; report the expiry so clients can trust deadlines.
    if (outcome.ok && request.expired(std::chrono::steady_clock::now())) {
        registry.counter("serve.rejected_deadline").add(1);
        return render_error(request.id, ErrorCode::DeadlineExceeded,
                            "deadline expired during execution");
    }
    return render(request.id, outcome);
}

json::Object Router::do_eval(const json::Value& params) {
    const std::string mechanism_spec = require_string(params, "mechanism");
    const std::uint64_t seed = optional_count(params, "seed", 1);

    // The server's defaults, then the request's knobs (ld/cli/eval_options.hpp).
    election::EvalOptions eval;
    eval.threads = config_.eval_threads;
    eval.max_replications = std::min(eval.max_replications, config_.max_replications);
    eval.tally_epsilon = config_.default_tally_epsilon;
    cli::read_eval_json(params, cli::EvalFront::Serve, eval);
    // Admission limits: a bad client gets an error, not a day-long eval.
    const std::size_t cap = config_.max_replications;
    for (const auto& [key, count] : {std::pair{"replications", eval.replications},
                                     {"max_replications", eval.max_replications}}) {
        if (count == 0 || count > cap) {
            bad_param(key, "must be in [1, " + std::to_string(cap) + "]");
        }
    }
    if (params.find("threads") && eval.threads > kMaxRequestThreads) {
        bad_param("threads",
                  "must be in [0, " + std::to_string(kMaxRequestThreads) + "]");
    }
    eval.threads = cli::resolve_threads(eval.threads);
    const auto mechanism = cli::make_mechanism(mechanism_spec);
    cli::check_eval(eval, cli::EvalFront::Serve, mechanism.get(), mechanism_spec);

    json::Object result;
    election::GainReport report;
    if (params.is_object() && params.find("instance")) {
        // Cached-instance path ≡ CLI `--load-instance`: the RNG starts
        // fresh at `seed` and drives only the replication loop.
        const std::string fingerprint = require_string(params, "instance");
        const auto cached = cache_.find(fingerprint);
        if (!cached) {
            throw ProtocolError(ErrorCode::NotFound,
                                "instance '" + fingerprint +
                                    "' not cached (call instance.load first)");
        }
        rng::Rng rng(seed);
        report = election::estimate_gain(*mechanism, cached->instance, rng, eval);
        result.emplace("instance", json::Value(fingerprint));
    } else {
        // Inline path ≡ CLI `--graph/--competencies`: one RNG seeded at
        // `seed` realizes the graph, then the competencies, then runs the
        // replications — the same draws in the same order.
        const std::string graph_spec = require_graph_spec(params);
        const std::string competency_spec = require_string(params, "competencies");
        const std::size_t n = require_count(params, "n");
        const double alpha = require_number(params, "alpha");
        rng::Rng rng(seed);
        const model::Instance instance =
            cli::make_instance(graph_spec, competency_spec, n, alpha, rng);
        report = election::estimate_gain(*mechanism, instance, rng, eval);
    }

    auto fields = report_to_json(report);
    result.merge(fields);
    result.emplace("threads", json::Value(static_cast<double>(eval.threads)));
    result.emplace("seed", json::Value(static_cast<double>(seed)));
    // The tally route that produced pm: ε > 0 certified (gain CI widened
    // by ε/2), 0 exact; ignored under "approximate".
    result.emplace("tally_eps", json::Value(eval.tally_epsilon));
    support::MetricsRegistry::global().counter("serve.evals").add(1);
    return result;
}

json::Object Router::do_instance_load(const json::Value& params) {
    const std::string graph_spec = require_graph_spec(params);
    const std::string competency_spec = require_string(params, "competencies");
    const std::size_t n = require_count(params, "n");
    const double alpha = require_number(params, "alpha");
    const std::uint64_t seed = optional_count(params, "seed", 1);

    bool was_hit = false;
    const auto entry =
        cache_.load(graph_spec, competency_spec, n, alpha, seed, &was_hit);
    json::Object result;
    result.emplace("instance", json::Value(entry->fingerprint));
    result.emplace("voters",
                   json::Value(static_cast<double>(entry->instance.voter_count())));
    result.emplace("alpha", json::Value(entry->alpha));
    result.emplace("cached", json::Value(was_hit));
    result.emplace("description", json::Value(entry->instance.describe()));
    return result;
}

json::Object Router::do_instance_info(const json::Value& params) {
    const std::string fingerprint = require_string(params, "instance");
    const auto entry = cache_.find(fingerprint);
    if (!entry) {
        throw ProtocolError(ErrorCode::NotFound,
                            "instance '" + fingerprint + "' not cached");
    }
    json::Object result;
    result.emplace("instance", json::Value(entry->fingerprint));
    result.emplace("graph", json::Value(entry->graph_spec));
    result.emplace("competencies", json::Value(entry->competency_spec));
    result.emplace("n", json::Value(static_cast<double>(entry->n)));
    result.emplace("alpha", json::Value(entry->alpha));
    result.emplace("seed", json::Value(static_cast<double>(entry->seed)));
    result.emplace("voters",
                   json::Value(static_cast<double>(entry->instance.voter_count())));
    result.emplace("description", json::Value(entry->instance.describe()));
    return result;
}

std::shared_ptr<LiveState> Router::open_live(const json::Value& params) {
    const std::string fingerprint = require_string(params, "instance");
    const auto cached = cache_.find(fingerprint);
    if (!cached) {
        throw ProtocolError(ErrorCode::NotFound,
                            "instance '" + fingerprint +
                                "' not cached (call instance.load first)");
    }
    const double tally_eps = params.find("tally_eps")
                                 ? require_number(params, "tally_eps")
                                 : config_.live_tally_epsilon;
    if (tally_eps < 0.0 || tally_eps >= 1.0) {
        bad_param("tally_eps", "must be in [0, 1)");
    }
    return live_.open(cached, tally_eps);
}

json::Object Router::do_instance_patch(const json::Value& params) {
    return open_live(params)->apply_patch(params);
}

json::Object Router::do_instance_state(const json::Value& params) {
    return open_live(params)->state();
}

json::Object Router::do_metrics() {
    // Reuse the liquidd.metrics.v1 writer verbatim, re-parsed into the
    // response — one schema for files and RPC alike.
    std::ostringstream os;
    support::write_metrics_json(os, support::MetricsRegistry::global().snapshot());
    json::Object result;
    result.emplace("report", json::parse(os.str()));
    return result;
}

json::Object Router::do_health() {
    json::Object result;
    const bool draining = status_ && status_->draining.load(std::memory_order_relaxed);
    result.emplace("status", json::Value(std::string(draining ? "draining" : "ok")));
    result.emplace(
        "queue_depth",
        json::Value(static_cast<double>(
            status_ ? status_->queue_depth.load(std::memory_order_relaxed) : 0)));
    result.emplace(
        "connections",
        json::Value(static_cast<double>(
            status_ ? status_->connections.load(std::memory_order_relaxed) : 0)));
    result.emplace("instances", json::Value(static_cast<double>(cache_.size())));
    return result;
}

}  // namespace ld::serve
