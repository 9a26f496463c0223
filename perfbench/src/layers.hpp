// Traced calls into the library's public layer functions, shared by the
// workloads' traced passes.  Each helper opens one span per public call so
// the per-layer numbers come from outside the library:
//
//   graph.generate     cli::make_graph                      (graph / gen)
//   model.competencies cli::make_competencies               (ld/model)
//   model.instance     model::Instance constructor (approval CSR)
//   mech.act           Mechanism::act_into over all voters  (ld/mech)
//   delegation.resolve DelegationOutcome::finish_rebuild    (ld/delegation)
//   tally              the public tally entry matching the EvalOptions
//   election.pd        exact_/approx_direct_probability     (ld/election)

#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/mech/mechanism.hpp"
#include "ld/model/instance.hpp"
#include "rng/rng.hpp"

namespace perfbench {

/// Build an instance the way the CLI, sweep cells and the serve cache do
/// (one RNG drives graph, then competencies), with a span per layer.
ld::model::Instance traced_instance(Tracer& tracer, const std::string& graph_spec,
                                    const std::string& competency_spec, std::size_t n,
                                    double alpha, ld::rng::Rng& rng,
                                    std::uint64_t parent, std::uint64_t request);

/// What a replication replay observed.
struct ReplayStats {
    double pm_mean = 0.0;     ///< mean per-replication P^M (Welford, in order)
    double pd = 0.0;          ///< P^D from the matching public entry
    double sinks_mean = 0.0;  ///< mean voting sinks per replication
};

/// Replay `replications` single-thread replications of `options` through
/// the public layer calls, drawing from `rng` exactly as a one-thread
/// estimate would.  Spans: election.pd once, then per replication a
/// `replication` span with mech.act, delegation.resolve and tally inside.
ReplayStats replay_replications(Tracer& tracer, const ld::mech::Mechanism& mechanism,
                                const ld::model::Instance& instance, ld::rng::Rng& rng,
                                const ld::election::EvalOptions& options,
                                std::size_t replications, std::uint64_t parent,
                                std::uint64_t request);

/// Wall time of the same replays run untraced and traced, for the tracing
/// overhead: share() = (traced − untraced) / untraced.
struct TraceOverhead {
    double untraced_s = 0.0;
    double traced_s = 0.0;
    std::size_t pairs = 0;
    double share() const { return untraced_s > 0 ? (traced_s - untraced_s) / untraced_s : 0.0; }
};

/// replay_replications from `seed` twice: once with tracing off and once
/// on `tracer` under a `replay` span (the order alternates between calls
/// so neither run always finds warm caches).  Both wall times go to
/// `overhead`; returns the traced replay's stats.
ReplayStats replay_with_overhead(Tracer& tracer, const ld::mech::Mechanism& mechanism,
                                 const ld::model::Instance& instance, std::uint64_t seed,
                                 const ld::election::EvalOptions& options,
                                 std::size_t replications, std::uint64_t request,
                                 TraceOverhead& overhead);

/// The per-layer metrics every workload reports from its replays:
/// mech.act_s, delegation.resolve_s, tally.s (mean seconds per
/// replication), tally.sinks_mean, tally.share (tally / replication time),
/// election.pd_s (mean per call) and the replicated time, for the
/// driver-share and parallel-efficiency ratios.
struct LayerBreakdown {
    double act_s = 0.0;
    double resolve_s = 0.0;
    double tally_s = 0.0;
    double pd_s = 0.0;
    double replication_s = 0.0;  ///< mean traced time of one replication
    double generate_s = 0.0;     ///< mean per graph.generate call
    double instance_s = 0.0;     ///< mean per model.instance call
};

LayerBreakdown layer_breakdown(const std::vector<Span>& spans);

/// Add the per-layer metrics shared by all workloads to `result`.
/// `estimate_wall_s` is the median wall time of one estimate over
/// `estimate_reps` replications on `threads` workers; `sinks_mean` comes
/// from the replays; `overhead_share` is TraceOverhead::share().
void add_shared_layer_metrics(Result& result, const LayerBreakdown& layers,
                              double sinks_mean, double estimate_wall_s,
                              std::size_t estimate_reps, std::size_t threads,
                              double overhead_share);

}  // namespace perfbench
