// [PERF] google-benchmark microbenchmarks of the library hot paths, plus
// the two estimator ablations called out in DESIGN.md §6:
//
//  * exact-inner-step (Rao–Blackwell) vs naive vote-sampling estimation,
//  * path-compressed sink resolution throughput,
//  * generator throughput (configuration-model d-regular vs Erdős–Rényi),
//  * Poisson-binomial / weighted-sum DP cost.

#include <benchmark/benchmark.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "gen/factory.hpp"
#include "graph/generators.hpp"
#include "ld/cli/specs.hpp"
#include "ld/delegation/incremental.hpp"
#include "ld/delegation/realize.hpp"
#include "ld/game/delegation_game.hpp"
#include "ld/model/competency_gen.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/tally.hpp"
#include "ld/election/tally_delta.hpp"
#include "ld/election/workspace.hpp"
#include "ld/experiments/workloads.hpp"
#include "ld/model/instance.hpp"
#include "ld/mech/approval_size_threshold.hpp"
#include "ld/mech/complete_graph_threshold.hpp"
#include "prob/convolve.hpp"
#include "prob/poisson_binomial.hpp"
#include "prob/weighted_bernoulli_sum.hpp"
#include "support/build_info.hpp"
#include "support/cpu_features.hpp"

namespace {

using namespace ld;

void BM_GenerateComplete(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(graph::make_complete(n));
    }
    state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_GenerateComplete)->Arg(100)->Arg(400)->Complexity();

void BM_GenerateDRegular(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(graph::make_random_d_regular(rng, n, 16));
    }
}
BENCHMARK(BM_GenerateDRegular)->Arg(1000)->Arg(4000)->Arg(100000);

// Graph and instance assembly (docs/ARCHITECTURE.md, "Graph assembly"):
// Graph::from_csr's checks on a copy of a cl:2.5,8 CSR, and the Instance
// build (approval lists) on dregular:8 with sweep_sparse's competencies.
// Copies and the previous build's teardown stay outside the timing; at
// n = 4000 the instance build fits in one block and runs inline.
void BM_FromCsr(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(7);
    const graph::Graph source = cli::make_graph("cl:2.5,8", n, rng);
    const std::vector<std::size_t> offsets(source.offsets().begin(),
                                           source.offsets().end());
    std::vector<graph::Vertex> neighbours;
    for (graph::Vertex v = 0; v < n; ++v) {
        const auto row = source.neighbours(v);
        neighbours.insert(neighbours.end(), row.begin(), row.end());
    }
    std::optional<graph::Graph> built;
    for (auto _ : state) {
        state.PauseTiming();
        built.reset();
        auto offsets_copy = offsets;
        auto neighbours_copy = neighbours;
        state.ResumeTiming();
        built.emplace(
            graph::Graph::from_csr(std::move(offsets_copy), std::move(neighbours_copy)));
    }
}
BENCHMARK(BM_FromCsr)->Arg(100000)->Arg(200000)->Unit(benchmark::kMillisecond);

void BM_BuildInstance(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(8);
    const graph::Graph graph = cli::make_graph("dregular:8", n, rng);
    const model::CompetencyVector p =
        cli::make_competencies("uniform:0.45,0.555", n, rng);
    std::optional<model::Instance> built;
    for (auto _ : state) {
        state.PauseTiming();
        built.reset();
        graph::Graph graph_copy = graph;
        model::CompetencyVector p_copy = p;
        state.ResumeTiming();
        built.emplace(std::move(graph_copy), std::move(p_copy), 0.05);
    }
}
BENCHMARK(BM_BuildInstance)->Arg(4000)->Arg(200000)->Unit(benchmark::kMillisecond);

void BM_GenerateErdosRenyi(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(graph::make_erdos_renyi_gnp(rng, n, 16.0 / static_cast<double>(n)));
    }
}
BENCHMARK(BM_GenerateErdosRenyi)->Arg(1000)->Arg(10000);

void BM_GenerateBarabasi(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(graph::make_barabasi_albert(rng, n, 8));
    }
}
BENCHMARK(BM_GenerateBarabasi)->Arg(1000)->Arg(10000);

// Streaming facade throughput (docs/GENERATORS.md): full pipeline —
// config -> streaming cells -> chunked CSR -> Graph.  Items/s counts
// realized (deduplicated) edges, so families are comparable despite
// with-replacement draws.  `Threads` 0 runs the passes on the whole pool.
template <gen::Family F, std::size_t Threads = 1>
void BM_GenerateStreaming(benchmark::State& state) {
    gen::GeneratorConfig config;
    config.family = F;
    config.n = static_cast<std::size_t>(state.range(0));
    config.seed = 17;
    config.threads = Threads;
    if constexpr (F == gen::Family::Gnp) config.p = 16.0 / static_cast<double>(config.n);
    if constexpr (F == gen::Family::BarabasiAlbert) config.degree = 8;
    if constexpr (F == gen::Family::Rmat) config.edges = config.n * 8;
    config.validate();
    std::size_t edges = 0;
    for (auto _ : state) {
        const graph::Graph g = gen::generate_graph(config);
        edges = g.edge_count();
        benchmark::DoNotOptimize(edges);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(edges) * state.iterations());
}
BENCHMARK(BM_GenerateStreaming<gen::Family::Gnp>)
    ->Name("BM_GenerateStreamingGnp")->Arg(10000)->Arg(100000);
BENCHMARK(BM_GenerateStreaming<gen::Family::BarabasiAlbert>)
    ->Name("BM_GenerateStreamingBa")->Arg(10000)->Arg(100000);
BENCHMARK(BM_GenerateStreaming<gen::Family::ChungLu>)
    ->Name("BM_GenerateStreamingChungLu")->Arg(10000)->Arg(100000);
BENCHMARK(BM_GenerateStreaming<gen::Family::Hyperbolic>)
    ->Name("BM_GenerateStreamingHyperbolic")->Arg(10000)->Arg(100000);
BENCHMARK(BM_GenerateStreaming<gen::Family::Rmat>)
    ->Name("BM_GenerateStreamingRmat")->Arg(10000)->Arg(100000);
// Pooled rows: whether the degree and scatter passes keep every worker
// busy on the heavy-tailed families (Chung–Lu's heavy rows, hyperbolic's
// few unequal layer-pair cells).  UseRealTime so the fan-out shows as
// wall-clock.
BENCHMARK(BM_GenerateStreaming<gen::Family::ChungLu, 0>)
    ->Name("BM_GenerateStreamingChungLuPooled")->Arg(200000)->UseRealTime();
BENCHMARK(BM_GenerateStreaming<gen::Family::Hyperbolic, 0>)
    ->Name("BM_GenerateStreamingHyperbolicPooled")->Arg(200000)->UseRealTime();

void BM_RealizeDelegation(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(4);
    const auto inst = experiments::d_regular_instance(rng, n, 16, 0.05, 0.01, 0.3);
    const mech::ApprovalSizeThreshold m(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(delegation::realize(m, inst, rng));
    }
}
BENCHMARK(BM_RealizeDelegation)->Arg(1000)->Arg(10000);

// Ablation: path-compressed sink resolution (library) vs naive per-voter
// pointer chasing.  The naive variant re-walks each voter's chain, i.e.
// O(n · path) instead of O(n α(n)).
void BM_SinkResolutionNaive(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    // A single long chain: voter i delegates to i+1, last voter votes —
    // the worst case for naive chasing.
    std::vector<mech::Action> actions;
    actions.reserve(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        actions.push_back(mech::Action::delegate_to(static_cast<graph::Vertex>(i + 1)));
    }
    actions.push_back(mech::Action::vote());
    for (auto _ : state) {
        // Naive: chase pointers from every voter independently.
        std::vector<std::uint64_t> weights(n, 0);
        for (std::size_t v = 0; v < n; ++v) {
            std::size_t cur = v;
            while (actions[cur].kind == mech::ActionKind::Delegate) {
                cur = actions[cur].targets.front();
            }
            ++weights[cur];
        }
        benchmark::DoNotOptimize(weights);
    }
}
BENCHMARK(BM_SinkResolutionNaive)->Arg(1000)->Arg(4000);

void BM_SinkResolutionPathCompressed(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<mech::Action> actions;
    actions.reserve(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        actions.push_back(mech::Action::delegate_to(static_cast<graph::Vertex>(i + 1)));
    }
    actions.push_back(mech::Action::vote());
    for (auto _ : state) {
        delegation::DelegationOutcome outcome(actions);
        benchmark::DoNotOptimize(outcome.weights());
    }
}
BENCHMARK(BM_SinkResolutionPathCompressed)->Arg(1000)->Arg(4000);

void BM_PoissonBinomial(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<double> probs(n, 0.49);
    for (auto _ : state) {
        benchmark::DoNotOptimize(prob::PoissonBinomial(probs).majority_probability());
    }
}
BENCHMARK(BM_PoissonBinomial)->Arg(100)->Arg(1000)->Arg(4000);

void BM_WeightedSumTally(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(5);
    const auto inst = experiments::complete_pc_instance(rng, n, 0.05, 0.01, 0.3);
    const mech::ApprovalSizeThreshold m(1);
    const auto out = delegation::realize(m, inst, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            election::exact_correct_probability(out, inst.competencies()));
    }
}
BENCHMARK(BM_WeightedSumTally)->Arg(500)->Arg(2000);

// Tentpole ablation: the certified ε-truncated tally on the same instance
// family as BM_WeightedSumTally.  The live DP window hugs the W/2
// threshold instead of spanning [0, W], so per-realization cost drops
// from O(#sinks·W) to ~O(#sinks·σ_W) with a proven |ΔP| ≤ ε/2.
void BM_TallyTruncated(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(5);  // same stream as BM_WeightedSumTally: same realization
    const auto inst = experiments::complete_pc_instance(rng, n, 0.05, 0.01, 0.3);
    const mech::ApprovalSizeThreshold m(1);
    const auto out = delegation::realize(m, inst, rng);
    election::TallyScratch scratch;
    const double eps = 1e-12;
    for (auto _ : state) {
        benchmark::DoNotOptimize(election::truncated_correct_probability(
            out, inst.competencies(), eps, scratch));
    }
}
BENCHMARK(BM_TallyTruncated)->Arg(500)->Arg(2000);

// The truncation pays off most in the Lemma-3 regime — at most √n
// delegators, so the weight profile is ~n unit-weight sinks and the DP
// variance is Θ(n) while the support is Θ(n) wide: the live window
// O(σ·√log(1/ε)) is a vanishing fraction of the exact buffer.  The
// exact/truncated pair below shares one deterministic √n-budget outcome.
delegation::DelegationOutcome budget_outcome(std::size_t n) {
    std::vector<mech::Action> actions;
    actions.reserve(n);
    const auto budget = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
    for (std::size_t i = 0; i < n; ++i) {
        if (i < budget) {
            actions.push_back(
                mech::Action::delegate_to(static_cast<graph::Vertex>(i + budget)));
        } else {
            actions.push_back(mech::Action::vote());
        }
    }
    return delegation::DelegationOutcome(actions);
}

void BM_TallyExactBudget(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(9);
    const auto p = model::uniform_competencies(rng, n, 0.45, 0.65);
    const auto out = budget_outcome(n);
    election::TallyScratch scratch;
    for (auto _ : state) {
        benchmark::DoNotOptimize(election::exact_correct_probability(out, p, scratch));
    }
}
BENCHMARK(BM_TallyExactBudget)->Arg(500)->Arg(2000);

void BM_TallyTruncatedBudget(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(9);  // same stream as BM_TallyExactBudget: same profile
    const auto p = model::uniform_competencies(rng, n, 0.45, 0.65);
    const auto out = budget_outcome(n);
    election::TallyScratch scratch;
    const double eps = 1e-12;
    for (auto _ : state) {
        benchmark::DoNotOptimize(election::truncated_correct_probability(
            out, p, eps, scratch));
    }
}
BENCHMARK(BM_TallyTruncatedBudget)->Arg(500)->Arg(2000);

// Tentpole: the incremental churn engine vs from-scratch re-evaluation.
// One churn step is "voter v toggles between delegating to v+1 and voting
// directly"; both variants start from the same pre-churned state (every
// third voter delegates) and both report the certified-ε live probability
// after each step.
//
//  * BM_PatchEval     — DynamicResolution::set_* + LiveTally::apply_sink_
//    changes: O(depth + log n · window) per step.
//  * BM_FullEval      — rebuild DelegationOutcome from actions and run the
//    ε-truncated DP: O(n + #sinks · window) per step, the cost a server
//    would pay re-loading and re-evaluating the instance.
//
// The acceptance claim (docs/CHURN.md): patch+re-eval ≥ 10× faster than
// full re-resolve+re-tally at n = 10⁵.
constexpr double kChurnEps = 1e-9;

std::vector<mech::Action> churn_base_actions(std::size_t n) {
    std::vector<mech::Action> actions(n, mech::Action::vote());
    for (std::size_t v = 0; v + 1 < n; v += 3) {
        actions[v] = mech::Action::delegate_to(static_cast<graph::Vertex>(v + 1));
    }
    return actions;
}

void BM_PatchEval(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(12);
    const auto comps = model::uniform_competencies(rng, n, 0.35, 0.65);
    delegation::DynamicResolution res;
    res.reset(delegation::DelegationOutcome(churn_base_actions(n)));
    election::LiveTally tally;
    tally.reset(comps.values(), res, kChurnEps);
    std::size_t step = 0;
    for (auto _ : state) {
        const auto v = static_cast<graph::Vertex>((step * 3) % (n - 1));
        const auto patch = (step & 1)
                               ? res.set_vote(v)
                               : res.set_delegate(v, v + 1);
        tally.apply_sink_changes({patch.changes.data(), patch.change_count});
        benchmark::DoNotOptimize(tally.correct_probability());
        ++step;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PatchEval)->Arg(10000)->Arg(100000);

// BM_PatchEval's adjacent slots share almost their whole root path, so it
// flatters the one-combine-per-dirty-node flush.  Serve's churn mix
// re-delegates random voters to random targets, whose two root paths
// share only their top few nodes: here a random voter delegates to a
// random other voter and then votes again, from the all-vote profile a
// serve session is born at, with serve_mixed's competency spread.
void BM_PatchEvalServeMix(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(14);
    const auto comps = model::uniform_competencies(rng, n, 0.45, 0.555);
    delegation::DynamicResolution res;
    res.reset_all_vote(n);
    election::LiveTally tally;
    tally.reset(comps.values(), res, kChurnEps);
    graph::Vertex v = 0;
    std::size_t step = 0;
    for (auto _ : state) {
        delegation::DynamicResolution::PatchResult patch;
        if (step & 1) {
            patch = res.set_vote(v);
        } else {
            v = static_cast<graph::Vertex>(rng.next_below(n));
            auto to = static_cast<graph::Vertex>(rng.next_below(n - 1));
            if (to >= v) ++to;
            patch = res.set_delegate(v, to);
        }
        tally.apply_sink_changes({patch.changes.data(), patch.change_count});
        benchmark::DoNotOptimize(tally.correct_probability());
        ++step;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PatchEvalServeMix)->Arg(100000);

void BM_FullEval(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(12);  // same stream as BM_PatchEval: same competencies
    const auto comps = model::uniform_competencies(rng, n, 0.35, 0.65);
    auto actions = churn_base_actions(n);
    election::TallyScratch scratch;
    std::size_t step = 0;
    for (auto _ : state) {
        const auto v = static_cast<graph::Vertex>((step * 3) % (n - 1));
        if (step & 1) {
            actions[v] = mech::Action::vote();
        } else {
            actions[v] = mech::Action::delegate_to(v + 1);
        }
        const delegation::DelegationOutcome outcome(actions);
        benchmark::DoNotOptimize(election::truncated_correct_probability(
            outcome, comps, kChurnEps, scratch));
        ++step;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullEval)->Arg(10000)->Arg(100000);

// Best-response dynamics on the incremental engine: selfish utilities read
// the sink cache in O(1), so a full convergence run is O(deviations · depth)
// instead of one O(n) re-resolution per candidate probe.
void BM_GameIncremental(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(13);
    const auto inst = experiments::d_regular_instance(rng, n, 8, 0.05, 0.01, 0.3);
    game::GameOptions opts;
    opts.utility = game::Utility::Selfish;
    opts.shuffle_seed = 99;
    std::size_t deviations = 0;
    for (auto _ : state) {
        rng::Rng run_rng(13);
        const auto result = game::best_response_dynamics(inst, run_rng, opts);
        deviations = result.deviations;
        benchmark::DoNotOptimize(result);
    }
    state.counters["deviations"] = static_cast<double>(deviations);
}
BENCHMARK(BM_GameIncremental)->Arg(2000)->Arg(10000);

// Ablation: exact-inner-step estimator vs naive vote sampling at matched
// wall-clock-ish budgets.  Compare std_error per unit work in the counters.
void BM_EstimatorRaoBlackwell(benchmark::State& state) {
    rng::Rng rng(6);
    const auto inst = experiments::complete_pc_instance(rng, 61, 0.05, 0.02, 0.2);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.replications = 100;
    double last_se = 0.0;
    for (auto _ : state) {
        const auto est = election::estimate_correct_probability(m, inst, rng, opts);
        last_se = est.std_error;
        benchmark::DoNotOptimize(est);
    }
    state.counters["std_error"] = last_se;
}
BENCHMARK(BM_EstimatorRaoBlackwell);

// Full estimate_gain through the replication engine at 1/2/4 worker
// threads (pool path).  UseRealTime so fan-out shows up as wall-clock, not
// summed CPU time.  On a single-core host the thread counts record but the
// curve is flat — interpret scaling numbers on multi-core machines only.
void BM_EstimateGain(benchmark::State& state) {
    rng::Rng rng(8);
    const auto inst = experiments::complete_pc_instance(rng, 201, 0.05, 0.01, 0.3);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.replications = 200;
    opts.threads = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(election::estimate_gain(m, inst, rng, opts));
    }
}
BENCHMARK(BM_EstimateGain)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Adaptive stopping: estimate_gain runs batches until the P^M standard
// error reaches the target instead of a fixed count.  The replications
// counter records where it stopped — the speed claim is reps-not-run.
void BM_EstimateGainAdaptive(benchmark::State& state) {
    rng::Rng rng(8);
    const auto inst = experiments::complete_pc_instance(rng, 201, 0.05, 0.01, 0.3);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.target_std_error = 5e-4;
    opts.adaptive_batch = 50;
    opts.max_replications = 2000;
    opts.tally_epsilon = 1e-12;
    std::size_t last_reps = 0;
    for (auto _ : state) {
        const auto report = election::estimate_gain(m, inst, rng, opts);
        last_reps = report.pm.replications;
        benchmark::DoNotOptimize(report);
    }
    state.counters["replications"] = static_cast<double>(last_reps);
}
BENCHMARK(BM_EstimateGainAdaptive);

// Certified stopping: the anytime-valid confidence sequence decides
// "gain >= gamma" instead of chasing a fixed SE target.  Costs one
// boundary evaluation per batch plus per-index seeding; the counters
// record where it stopped and how many looks it spent.
void BM_EstimateGainCertified(benchmark::State& state) {
    rng::Rng rng(8);
    const auto inst = experiments::complete_pc_instance(rng, 201, 0.05, 0.01, 0.3);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.certify.gamma = 0.05;
    opts.certify.delta = 0.01;
    opts.adaptive_batch = 50;
    opts.max_replications = 2000;
    opts.tally_epsilon = 1e-12;
    std::size_t last_reps = 0, last_looks = 0;
    for (auto _ : state) {
        const auto report = election::estimate_gain(m, inst, rng, opts);
        last_reps = report.pm.replications;
        if (report.pm.certified) last_looks = report.pm.certified->looks;
        benchmark::DoNotOptimize(report);
    }
    state.counters["replications"] = static_cast<double>(last_reps);
    state.counters["looks"] = static_cast<double>(last_looks);
}
BENCHMARK(BM_EstimateGainCertified);

// Workspace reuse: realize_into through one ReplicationWorkspace (the
// steady-state inner loop) vs the allocating realize() above.  At
// n = 2·10⁵ the per-voter arrays no longer fit in L2, the regime where
// sink resolution dominates a sweep replication.
void BM_RealizeDelegationWorkspace(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(4);
    const auto inst = experiments::d_regular_instance(rng, n, 16, 0.05, 0.01, 0.3);
    const mech::ApprovalSizeThreshold m(1);
    election::ReplicationWorkspace ws;
    for (auto _ : state) {
        delegation::realize_into(ws.outcome, ws.resolve, m, inst, rng);
        benchmark::DoNotOptimize(ws.outcome);
    }
}
BENCHMARK(BM_RealizeDelegationWorkspace)->Arg(1000)->Arg(10000)->Arg(200000);

// The replication loop's path for the threshold mechanisms: the delegator
// list is built once, as an estimate builds it, and each realization
// draws and walks the listed voters only.  Arg 2: 0 = threshold:1,
// 1 = alg1:sqrt.
void BM_RealizeListedWorkspace(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Rng rng(4);
    const auto inst = experiments::d_regular_instance(rng, n, 16, 0.05, 0.01, 0.3);
    const mech::ApprovalSizeThreshold threshold(1);
    const auto alg1 = mech::CompleteGraphThreshold::with_sqrt_threshold();
    const mech::Mechanism& m =
        state.range(1) == 0 ? static_cast<const mech::Mechanism&>(threshold) : alg1;
    state.SetLabel(m.name());
    const auto list = delegation::DelegatorList::of(m, inst);
    election::ReplicationWorkspace ws;
    for (auto _ : state) {
        delegation::realize_listed_into(ws.outcome, ws.resolve, *list, inst, rng);
        benchmark::DoNotOptimize(ws.outcome);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_RealizeListedWorkspace)
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({200000, 0})
    ->Args({200000, 1});

void BM_EstimatorNaive(benchmark::State& state) {
    rng::Rng rng(7);
    const auto inst = experiments::complete_pc_instance(rng, 61, 0.05, 0.02, 0.2);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.replications = 100;
    double last_se = 0.0;
    for (auto _ : state) {
        const auto est = election::estimate_correct_probability_naive(m, inst, rng, opts);
        last_se = est.std_error;
        benchmark::DoNotOptimize(est);
    }
    state.counters["std_error"] = last_se;
}
BENCHMARK(BM_EstimatorNaive);

// Pin the dispatched kernels to one tier for the duration of a benchmark
// run, restoring the previous tier afterwards so auto-tier benchmarks in
// the same process are unaffected.
class TierPin {
public:
    explicit TierPin(support::SimdTier tier) : prev_(prob::kernel_tier()) {
        prob::set_kernel_tier(tier);
    }
    ~TierPin() { prob::set_kernel_tier(prev_); }
    TierPin(const TierPin&) = delete;
    TierPin& operator=(const TierPin&) = delete;

private:
    support::SimdTier prev_;
};

// Tentpole ablation: the raw two-point convolution step per tier.  The
// w = 1 dense regime is the BM_PoissonBinomial inner loop — the interior
// stream `out[s] = in[s]·q + in[s−1]·p` — isolated from the DP driver.
void convolve_simd_bench(benchmark::State& state, support::SimdTier tier) {
    TierPin pin(tier);
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<double> in(n, 1.0 / static_cast<double>(n));
    std::vector<double> out(n + 1, 0.0);
    for (auto _ : state) {
        prob::convolve_two_point(in.data(), out.data(), n, 1, 0.49);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<benchmark::IterationCount>(n));
}

// The product tree's window convolution per tier, at the size of the
// root's children at n = 10⁵, ε = 1e-9 (2107 and 1421 entries) — the
// largest combine a live-tally patch runs.
void window_convolve_bench(benchmark::State& state, support::SimdTier tier) {
    TierPin pin(tier);
    constexpr std::size_t kLarger = 2107;
    constexpr std::size_t kSmaller = 1421;
    std::vector<double> f(kSmaller, 1.0 / kSmaller);
    std::vector<double> in(kLarger, 1.0 / kLarger);
    std::vector<double> padded;
    const double* in_padded = prob::detail::pad_window(in.data(), in.size(), padded);
    std::vector<double> out(kSmaller + kLarger - 1);
    const prob::detail::WindowConvolveFn kernel = prob::detail::window_convolve_kernel();
    for (auto _ : state) {
        kernel(f.data(), f.size(), in_padded, in.size(), out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<benchmark::IterationCount>(kSmaller * kLarger));
}

// Register the per-tier benchmarks for tiers this host can execute, so an
// absent ISA shows up in bench_diff as an added/removed benchmark rather
// than a failure.  Scalar always registers — it is the cross-host anchor.
void register_simd_benchmarks() {
    using support::SimdTier;
    for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512}) {
        if (!support::simd_tier_supported(tier)) continue;
        const std::string name = support::simd_tier_name(tier);
        benchmark::RegisterBenchmark(
            ("BM_ConvolveSimd/" + name).c_str(),
            [tier](benchmark::State& s) { convolve_simd_bench(s, tier); })
            ->Arg(2000);
        benchmark::RegisterBenchmark(
            ("BM_WindowConvolve/" + name).c_str(),
            [tier](benchmark::State& s) { window_convolve_bench(s, tier); });
    }
}

}  // namespace

// Custom main so every snapshot records which *library* build type
// produced it (`context.liquidd_build_type`): google-benchmark's own
// `library_build_type` describes the installed benchmark .so, not this
// repo's flags, and `bench_diff --strict` gates on the repo's type.
int main(int argc, char** argv) {
    benchmark::AddCustomContext("liquidd_build_type",
                                ld::support::build_info().build_type);
    register_simd_benchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
