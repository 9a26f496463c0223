#include "ld/serve/live_state.hpp"

#include <span>
#include <vector>

#include "ld/serve/params.hpp"
#include "support/metrics.hpp"

namespace ld::serve {

namespace {

/// One validated op, parsed before any state is touched so a malformed
/// ops array can never leave a patch half-applied.
struct ParsedOp {
    enum class Kind { Delegate, Vote, Abstain, Competency };
    Kind kind = Kind::Vote;
    graph::Vertex voter = 0;
    graph::Vertex to = 0;  ///< Delegate only
    double p = 0.0;        ///< Competency only
};

/// A voter id below n, range-checked before it narrows to a Vertex.
graph::Vertex require_vertex(const json::Value& op, const std::string& key,
                             std::size_t n) {
    const std::uint64_t v = require_count(op, key);
    if (v >= n) bad_param(key, "out of range");
    return static_cast<graph::Vertex>(v);
}

std::vector<ParsedOp> parse_ops(const json::Value& params, std::size_t n) {
    const json::Value& ops_value = require(params, "ops");
    if (!ops_value.is_array()) bad_param("ops", "expected an array");
    const auto& array = ops_value.as_array();
    if (array.empty()) bad_param("ops", "expected at least one op");

    std::vector<ParsedOp> ops;
    ops.reserve(array.size());
    for (const json::Value& entry : array) {
        if (!entry.is_object()) bad_param("ops", "each op must be an object");
        ParsedOp op;
        const std::string kind = require_string(entry, "op");
        op.voter = require_vertex(entry, "voter", n);
        if (kind == "delegate") {
            op.kind = ParsedOp::Kind::Delegate;
            op.to = require_vertex(entry, "to", n);
        } else if (kind == "vote") {
            op.kind = ParsedOp::Kind::Vote;
        } else if (kind == "abstain") {
            op.kind = ParsedOp::Kind::Abstain;
        } else if (kind == "competency") {
            op.kind = ParsedOp::Kind::Competency;
            op.p = require_number(entry, "p");
            if (op.p < 0.0 || op.p > 1.0) bad_param("p", "must be in [0, 1]");
        } else {
            bad_param("op", "expected delegate|vote|abstain|competency, got '" +
                                kind + "'");
        }
        ops.push_back(op);
    }
    return ops;
}

}  // namespace

LiveState::LiveState(std::shared_ptr<const CachedInstance> base,
                     double tally_epsilon)
    : base_(std::move(base)), tally_epsilon_(tally_epsilon) {
    resolution_.reset_all_vote(base_->instance.voter_count());
    tally_.reset(base_->instance.competencies().values(), resolution_,
                 tally_epsilon_);
}

json::Object LiveState::summary_locked() const {
    json::Object result;
    result.emplace("instance", json::Value(base_->fingerprint));
    result.emplace("epoch", json::Value(static_cast<double>(epoch_)));
    // Each tail read is a pass over two root-child windows: read each
    // once.  pm − pd is LiveTally::gain()'s own subtraction.
    const double pm = tally_.correct_probability();
    const double pd = tally_.direct_probability();
    result.emplace("pm", json::Value(pm));
    result.emplace("pd", json::Value(pd));
    result.emplace("gain", json::Value(pm - pd));
    result.emplace("pm_error_bound", json::Value(tally_.error_bound()));
    result.emplace("pd_error_bound", json::Value(tally_.direct_error_bound()));
    result.emplace("voting_sinks",
                   json::Value(static_cast<double>(resolution_.voting_sink_count())));
    result.emplace("cast_weight",
                   json::Value(static_cast<double>(resolution_.cast_weight())));
    return result;
}

json::Object LiveState::apply_patch(const json::Value& params) {
    auto& registry = support::MetricsRegistry::global();
    registry.counter("patch.requests").add(1);

    std::lock_guard<std::mutex> lock(mutex_);
    // Validate everything — epoch, then the full ops array — before any
    // mutation: a failed patch leaves the state byte-identical.
    if (params.is_object() && params.find("expect_epoch")) {
        const std::uint64_t expected = require_count(params, "expect_epoch");
        if (expected != epoch_) {
            throw ProtocolError(ErrorCode::Conflict,
                                "expect_epoch " + std::to_string(expected) +
                                    " does not match live epoch " +
                                    std::to_string(epoch_) +
                                    " (refetch instance.state)");
        }
    }
    const auto ops = parse_ops(params, resolution_.voter_count());

    json::Array op_results;
    std::size_t applied = 0;
    std::size_t rejected = 0;
    for (const ParsedOp& op : ops) {
        json::Object entry;
        if (op.kind == ParsedOp::Kind::Competency) {
            tally_.set_competency(resolution_, op.voter, op.p);
            entry.emplace("applied", json::Value(true));
            ++applied;
        } else {
            delegation::DynamicResolution::PatchResult patch;
            switch (op.kind) {
                case ParsedOp::Kind::Delegate:
                    patch = resolution_.set_delegate(op.voter, op.to);
                    break;
                case ParsedOp::Kind::Vote:
                    patch = resolution_.set_vote(op.voter);
                    break;
                default:
                    patch = resolution_.set_abstain(op.voter);
                    break;
            }
            if (patch.cycle_rejected) {
                // A live platform rejects the one offending edge, not the
                // whole submission — per-op failure inside an ok response.
                registry.counter("patch.rejected").add(1);
                entry.emplace("applied", json::Value(false));
                entry.emplace("reason", json::Value(std::string("cycle")));
                ++rejected;
            } else {
                tally_.apply_sink_changes(
                    {patch.changes.data(), patch.change_count});
                registry.counter("patch.tally_delta").add(patch.change_count);
                registry.histogram("patch.dirty")
                    .record(static_cast<double>(patch.dirty));
                if (patch.rebuilt) {
                    registry.counter("patch.resolution_rebuilds").add(1);
                }
                entry.emplace("applied", json::Value(true));
                ++applied;
            }
        }
        op_results.emplace_back(std::move(entry));
    }
    registry.counter("patch.ops").add(ops.size());

    // Every successful patch request advances the epoch by exactly one,
    // rejected or no-op ops included: the epoch numbers *requests*, which
    // is what the shard router's broadcast coherence needs.
    ++epoch_;
    registry.gauge("patch.epoch").set(static_cast<std::int64_t>(epoch_));

    json::Object result = summary_locked();
    result.emplace("applied", json::Value(static_cast<double>(applied)));
    result.emplace("rejected", json::Value(static_cast<double>(rejected)));
    result.emplace("results", json::Value(std::move(op_results)));
    return result;
}

json::Object LiveState::state() const {
    std::lock_guard<std::mutex> lock(mutex_);
    json::Object result = summary_locked();
    const auto stats = resolution_.stats();
    result.emplace("delegators",
                   json::Value(static_cast<double>(stats.delegator_count)));
    result.emplace("abstainers",
                   json::Value(static_cast<double>(stats.abstainer_count)));
    result.emplace("max_weight",
                   json::Value(static_cast<double>(stats.max_weight)));
    result.emplace("longest_path",
                   json::Value(static_cast<double>(stats.longest_path)));
    return result;
}

std::shared_ptr<LiveState> LiveTable::open(
    std::shared_ptr<const CachedInstance> base, double tally_epsilon) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = sessions_[base->fingerprint];
    if (!slot) slot = std::make_shared<LiveState>(std::move(base), tally_epsilon);
    return slot;
}

std::shared_ptr<LiveState> LiveTable::find(const std::string& fingerprint) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(fingerprint);
    return it == sessions_.end() ? nullptr : it->second;
}

std::size_t LiveTable::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

void LiveTable::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.clear();
}

}  // namespace ld::serve
