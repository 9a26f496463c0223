#include "layers.hpp"

#include "ld/cli/specs.hpp"
#include "ld/delegation/delegation_graph.hpp"
#include "ld/election/tally.hpp"
#include "stats/running_stats.hpp"

namespace perfbench {

namespace election = ld::election;

ld::model::Instance traced_instance(Tracer& tracer, const std::string& graph_spec,
                                    const std::string& competency_spec, std::size_t n,
                                    double alpha, ld::rng::Rng& rng,
                                    std::uint64_t parent, std::uint64_t request) {
    ld::graph::Graph graph = [&] {
        const ScopedSpan span(tracer, "graph.generate", parent, request);
        return ld::cli::make_graph(graph_spec, n, rng);
    }();
    ld::model::CompetencyVector competencies = [&] {
        const ScopedSpan span(tracer, "model.competencies", parent, request);
        return ld::cli::make_competencies(competency_spec, graph.vertex_count(), rng);
    }();
    const ScopedSpan span(tracer, "model.instance", parent, request);
    return ld::model::Instance(std::move(graph), std::move(competencies), alpha);
}

ReplayStats replay_replications(Tracer& tracer, const ld::mech::Mechanism& mechanism,
                                const ld::model::Instance& instance, ld::rng::Rng& rng,
                                const election::EvalOptions& options,
                                std::size_t replications, std::uint64_t parent,
                                std::uint64_t request) {
    ReplayStats out;
    {
        const ScopedSpan span(tracer, "election.pd", parent, request);
        out.pd = options.approximate_tally
                     ? election::approx_direct_probability(instance, options.initial_weights)
                     : election::exact_direct_probability_weighted(instance,
                                                                   options.initial_weights);
    }
    ld::delegation::DelegationOutcome outcome;
    ld::delegation::DelegationOutcome::ResolveScratch scratch;
    election::TallyScratch tally;
    ld::stats::RunningStats pm;
    ld::stats::RunningStats sinks;
    const auto& p = instance.competencies();
    for (std::size_t r = 0; r < replications; ++r) {
        const ScopedSpan rep(tracer, "replication", parent, request);
        {
            const ScopedSpan span(tracer, "mech.act", rep.id(), request);
            auto& actions = outcome.begin_rebuild();
            actions.resize(instance.voter_count());
            for (ld::graph::Vertex v = 0; v < instance.voter_count(); ++v) {
                mechanism.act_into(instance, v, rng, actions[v]);
            }
        }
        {
            const ScopedSpan span(tracer, "delegation.resolve", rep.id(), request);
            outcome.finish_rebuild(options.initial_weights, options.cycle_policy, scratch);
        }
        double value = 0.0;
        {
            const ScopedSpan span(tracer, "tally", rep.id(), request);
            if (options.approximate_tally) {
                value = election::approx_correct_probability(outcome, p, tally);
            } else if (options.tally_epsilon > 0.0) {
                value = election::truncated_correct_probability(outcome, p,
                                                                options.tally_epsilon, tally);
            } else {
                value = election::exact_correct_probability(outcome, p, tally);
            }
        }
        pm.add(value);
        sinks.add(static_cast<double>(outcome.stats().voting_sink_count));
    }
    out.pm_mean = pm.mean();
    out.sinks_mean = sinks.mean();
    return out;
}

ReplayStats replay_with_overhead(Tracer& tracer, const ld::mech::Mechanism& mechanism,
                                 const ld::model::Instance& instance, std::uint64_t seed,
                                 const election::EvalOptions& options,
                                 std::size_t replications, std::uint64_t request,
                                 TraceOverhead& overhead) {
    Tracer off(false);
    ReplayStats traced;
    const auto untraced_run = [&] {
        ld::rng::Rng rng(seed);
        const auto t0 = Clock::now();
        replay_replications(off, mechanism, instance, rng, options, replications, 0, 0);
        overhead.untraced_s += seconds_between(t0, Clock::now());
    };
    const auto traced_run = [&] {
        ld::rng::Rng rng(seed);
        const auto t0 = Clock::now();
        const ScopedSpan replay(tracer, "replay", 0, request);
        traced = replay_replications(tracer, mechanism, instance, rng, options, replications,
                                     replay.id(), request);
        overhead.traced_s += seconds_between(t0, Clock::now());
    };
    if (overhead.pairs++ % 2 == 0) {
        untraced_run();
        traced_run();
    } else {
        traced_run();
        untraced_run();
    }
    return traced;
}

LayerBreakdown layer_breakdown(const std::vector<Span>& spans) {
    const auto totals = Tracer::totals(spans);
    const auto per = [&](const std::string& name, const std::string& unit_name) {
        const std::size_t count = span_count(totals, unit_name);
        return count == 0 ? 0.0 : total_time(totals, name) / static_cast<double>(count);
    };
    LayerBreakdown b;
    b.act_s = per("mech.act", "replication");
    b.resolve_s = per("delegation.resolve", "replication");
    b.tally_s = per("tally", "replication");
    b.replication_s = per("replication", "replication");
    b.pd_s = per("election.pd", "election.pd");
    b.generate_s = per("graph.generate", "graph.generate");
    b.instance_s = per("model.instance", "model.instance");
    return b;
}

void add_shared_layer_metrics(Result& result, const LayerBreakdown& layers,
                              double sinks_mean, double estimate_wall_s,
                              std::size_t estimate_reps, std::size_t threads,
                              double overhead_share) {
    const double reps = static_cast<double>(estimate_reps);
    const double capacity = static_cast<double>(threads) * estimate_wall_s;
    const double layer_sum =
        layers.pd_s + reps * (layers.act_s + layers.resolve_s + layers.tally_s);
    const double rep_sum = layers.act_s + layers.resolve_s + layers.tally_s;
    result.add("graph.generate_s", layers.generate_s, "s");
    result.add("model.instance_s", layers.instance_s, "s");
    result.add("mech.act_s", layers.act_s, "s");
    result.add("delegation.resolve_s", layers.resolve_s, "s");
    result.add("tally.s", layers.tally_s, "s");
    result.add("tally.sinks_mean", sinks_mean, "count");
    result.add("tally.share", rep_sum > 0 ? layers.tally_s / rep_sum : 0.0, "ratio");
    result.add("election.pd_s", layers.pd_s, "s");
    result.add("evaluator.driver_share", capacity > 0 ? 1.0 - layer_sum / capacity : 0.0,
               "ratio");
    result.add("engine.parallel_eff",
               capacity > 0 ? reps * layers.replication_s / capacity : 0.0, "ratio");
    result.add("trace.overhead_share", overhead_share, "ratio");
}

}  // namespace perfbench
