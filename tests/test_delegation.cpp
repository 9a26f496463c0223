// Tests for delegation-graph realization: sink resolution, weight
// accumulation, statistics, abstention semantics, and cycle detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "graph/generators.hpp"
#include "ld/cli/specs.hpp"
#include "ld/delegation/delegation_graph.hpp"
#include "ld/delegation/realize.hpp"
#include "ld/mech/approval_size_threshold.hpp"
#include "ld/mech/best_neighbour.hpp"
#include "ld/mech/direct.hpp"
#include "ld/mech/rank_proportional.hpp"
#include "ld/mech/unrestricted_abstaining.hpp"
#include "ld/mech/weighted_delegates.hpp"
#include "ld/model/competency_gen.hpp"
#include "support/expect.hpp"

namespace {

namespace g = ld::graph;
namespace mech = ld::mech;
namespace model = ld::model;
using ld::delegation::DelegationOutcome;
using ld::mech::Action;
using ld::rng::Rng;
using ld::support::ContractViolation;

TEST(DelegationOutcome, AllVotersVotingAreTheirOwnSinks) {
    std::vector<Action> actions(5, Action::vote());
    const DelegationOutcome out(std::move(actions));
    EXPECT_TRUE(out.functional());
    for (g::Vertex v = 0; v < 5; ++v) {
        EXPECT_EQ(out.sink_of(v), v);
        EXPECT_EQ(out.weights()[v], 1u);
    }
    EXPECT_EQ(out.stats().voting_sink_count, 5u);
    EXPECT_EQ(out.stats().delegator_count, 0u);
    EXPECT_EQ(out.stats().max_weight, 1u);
    EXPECT_EQ(out.stats().cast_weight, 5u);
    EXPECT_EQ(out.stats().longest_path, 0u);
}

TEST(DelegationOutcome, ChainResolvesToTerminalVoter) {
    // 0 -> 1 -> 2 -> 3 (votes).
    std::vector<Action> actions{Action::delegate_to(1), Action::delegate_to(2),
                                Action::delegate_to(3), Action::vote()};
    const DelegationOutcome out(std::move(actions));
    for (g::Vertex v = 0; v < 4; ++v) EXPECT_EQ(out.sink_of(v), 3u);
    EXPECT_EQ(out.weights()[3], 4u);
    EXPECT_EQ(out.stats().max_weight, 4u);
    EXPECT_EQ(out.stats().voting_sink_count, 1u);
    EXPECT_EQ(out.stats().longest_path, 3u);
    EXPECT_EQ(out.voting_sinks(), (std::vector<g::Vertex>{3}));
}

TEST(DelegationOutcome, StarDelegation) {
    // Everyone delegates to voter 0 (the Figure 1 disaster).
    std::vector<Action> actions(9, Action::delegate_to(0));
    actions[0] = Action::vote();
    const DelegationOutcome out(std::move(actions));
    EXPECT_EQ(out.weights()[0], 9u);
    EXPECT_EQ(out.stats().voting_sink_count, 1u);
    EXPECT_EQ(out.stats().delegator_count, 8u);
    EXPECT_EQ(out.stats().longest_path, 1u);
}

TEST(DelegationOutcome, SelfDelegationCountsAsVoting) {
    std::vector<Action> actions{Action::delegate_to(0), Action::delegate_to(0)};
    const DelegationOutcome out(std::move(actions));
    EXPECT_EQ(out.sink_of(0), 0u);
    EXPECT_EQ(out.sink_of(1), 0u);
    EXPECT_EQ(out.weights()[0], 2u);
}

TEST(DelegationOutcome, CycleIsRejected) {
    std::vector<Action> actions{Action::delegate_to(1), Action::delegate_to(0)};
    EXPECT_THROW(DelegationOutcome(std::move(actions)), ContractViolation);
}

TEST(DelegationOutcome, LongCycleIsRejected) {
    std::vector<Action> actions;
    for (g::Vertex v = 0; v < 10; ++v) {
        actions.push_back(Action::delegate_to((v + 1) % 10));
    }
    EXPECT_THROW(DelegationOutcome(std::move(actions)), ContractViolation);
}

// Under Discard, a walk lost to a cycle is no delegation path, so two
// numberings of one shape (a 2-cycle with a tail) report the same
// longest path: none, as no chain ends at a voter or an abstainer.
TEST(DelegationOutcome, DiscardedCyclesLeaveLongestPathAloneUnderAnyNumbering) {
    using ld::delegation::CyclePolicy;
    for (const std::vector<g::Vertex>& next : {std::vector<g::Vertex>{1, 0, 1},
                                                std::vector<g::Vertex>{2, 2, 1}}) {
        std::vector<Action> actions;
        for (const g::Vertex t : next) actions.push_back(Action::delegate_to(t));
        const DelegationOutcome out(std::move(actions), {}, CyclePolicy::Discard);
        EXPECT_EQ(out.cycle_losses(), 3u);
        EXPECT_EQ(out.stats().longest_path, 0u);
    }
}

// Runs `build` and expects a ContractViolation whose message contains
// `message`.
template <typename Build>
void expect_contract_message(Build build, const std::string& message) {
    try {
        build();
        ADD_FAILURE() << "no ContractViolation; expected: " << message;
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
    }
}

TEST(DelegationOutcome, ValidationOfMalformedActions) {
    struct Case {
        std::vector<Action> actions;
        std::vector<std::uint64_t> initial_weights;
        std::string message;
    };
    Action vote_with_target = Action::vote();
    vote_with_target.targets.push_back(0);
    Action abstain_with_weights = Action::abstain();
    abstain_with_weights.target_weights.push_back(1.0);
    const std::vector<Case> cases{
        {{Action{ld::mech::ActionKind::Delegate, {}, {}}},
         {},
         "DelegationOutcome: delegation without target"},
        {{Action::delegate_to(7)}, {}, "DelegationOutcome: target out of range"},
        {{Action::vote(), Action::delegate_to_many({0, 2})},
         {},
         "DelegationOutcome: target out of range"},
        {{vote_with_target, Action::vote()},
         {},
         "DelegationOutcome: non-delegation with targets"},
        {{abstain_with_weights, Action::vote()},
         {},
         "DelegationOutcome: non-delegation with target weights"},
        {{Action::delegate_weighted({1, 2}, {1.0}), Action::vote(), Action::vote()},
         {},
         "DelegationOutcome: target weights must match targets"},
        {{Action::delegate_weighted({1, 2}, {1.0, 0.0}), Action::vote(), Action::vote()},
         {},
         "DelegationOutcome: target weights must be positive"},
        {{Action::vote(), Action::vote()},
         {1, 2, 3},
         "DelegationOutcome: initial weights must be empty or one per voter"},
    };
    // The rebuild path reuses one outcome and one scratch that a larger,
    // valid round filled first, so stale state cannot mask a check.
    DelegationOutcome reused;
    DelegationOutcome::ResolveScratch scratch;
    for (const Case& c : cases) {
        SCOPED_TRACE(c.message);
        expect_contract_message(
            [&] { DelegationOutcome(c.actions, c.initial_weights); }, c.message);
        reused.begin_rebuild() = std::vector<Action>(12, Action::vote());
        reused.finish_rebuild({}, ld::delegation::CyclePolicy::Throw, scratch);
        expect_contract_message(
            [&] {
                reused.begin_rebuild() = c.actions;
                reused.finish_rebuild(c.initial_weights,
                                      ld::delegation::CyclePolicy::Throw, scratch);
            },
            c.message);
    }
}

TEST(DelegationOutcome, AbstainerDiscardsIncomingVotes) {
    // 0 -> 1 (abstains); 2 votes.
    std::vector<Action> actions{Action::delegate_to(1), Action::abstain(),
                                Action::vote()};
    const DelegationOutcome out(std::move(actions));
    EXPECT_EQ(out.sink_of(0), DelegationOutcome::kNoSink);
    EXPECT_EQ(out.sink_of(1), DelegationOutcome::kNoSink);
    EXPECT_EQ(out.sink_of(2), 2u);
    EXPECT_EQ(out.stats().cast_weight, 1u);
    EXPECT_EQ(out.stats().abstainer_count, 1u);
    EXPECT_EQ(out.stats().voting_sink_count, 1u);
}

TEST(DelegationOutcome, WeightsSumToCastWeightPlusDiscarded) {
    Rng rng(1);
    const model::Instance inst(g::make_complete(80),
                               model::uniform_competencies(rng, 80, 0.1, 0.9), 0.05);
    const mech::ApprovalSizeThreshold m(1);
    for (int rep = 0; rep < 10; ++rep) {
        const auto out = ld::delegation::realize(m, inst, rng);
        const auto& w = out.weights();
        const auto total = std::accumulate(w.begin(), w.end(), std::uint64_t{0});
        EXPECT_EQ(total, out.stats().cast_weight);
        EXPECT_EQ(total, 80u);  // no abstentions: every vote lands somewhere
    }
}

TEST(DelegationOutcome, SinksNeverDelegatedAndHoldTheirOwnVote) {
    Rng rng(2);
    const model::Instance inst(g::make_complete(60),
                               model::uniform_competencies(rng, 60, 0.1, 0.9), 0.05);
    const mech::ApprovalSizeThreshold m(2);
    const auto out = ld::delegation::realize(m, inst, rng);
    for (g::Vertex s : out.voting_sinks()) {
        EXPECT_EQ(out.action(s).kind, ld::mech::ActionKind::Vote);
        EXPECT_EQ(out.sink_of(s), s);
        EXPECT_GE(out.weights()[s], 1u);
    }
}

TEST(DelegationOutcome, LongestPathMatchesDigraphLongestPath) {
    Rng rng(3);
    const model::Instance inst(g::make_complete(50),
                               model::uniform_competencies(rng, 50, 0.1, 0.9), 0.02);
    const mech::BestNeighbour m;
    const auto out = ld::delegation::realize(m, inst, rng);
    EXPECT_EQ(out.stats().longest_path, out.as_digraph().longest_path_length());
}

TEST(DelegationOutcome, AsDigraphHasOneArcPerDelegator) {
    std::vector<Action> actions{Action::delegate_to(2), Action::vote(), Action::vote()};
    const DelegationOutcome out(std::move(actions));
    const auto d = out.as_digraph();
    EXPECT_EQ(d.arc_count(), 1u);
    EXPECT_EQ(d.successors(0).size(), 1u);
    EXPECT_EQ(d.successors(0)[0], 2u);
}

TEST(DelegationOutcome, MultiTargetOutcomesAreNotFunctional) {
    std::vector<Action> actions{Action::delegate_to_many({1, 2, 3}), Action::vote(),
                                Action::vote(), Action::vote()};
    const DelegationOutcome out(std::move(actions));
    EXPECT_FALSE(out.functional());
    EXPECT_THROW(out.weights(), ContractViolation);
    EXPECT_THROW(out.sink_of(0), ContractViolation);
    EXPECT_THROW(out.voting_sinks(), ContractViolation);
    EXPECT_EQ(out.stats().delegator_count, 1u);
}

// What DelegationOutcome must report for a functional realization,
// computed voter by voter by chasing delegation arcs one at a time.
struct NaiveResolution {
    bool has_cycle = false;
    std::vector<g::Vertex> sink;
    std::vector<std::uint64_t> weights;
    std::vector<g::Vertex> voting_sinks;
    ld::delegation::DelegationStats stats;
    std::size_t cycle_losses = 0;
};

// A voter's walk stops at a voter who votes, delegates to itself or
// abstains; a walk that has not stopped after n arcs is lost to a cycle,
// and a lost voter's walk is no delegation path, so it leaves
// longest_path alone.
NaiveResolution naive_resolution(const std::vector<Action>& actions,
                                 const std::vector<std::uint64_t>& initial_weights) {
    using ld::mech::ActionKind;
    const std::size_t n = actions.size();
    const auto next = [&](g::Vertex v) { return actions[v].targets.front(); };
    const auto stops = [&](g::Vertex v) {
        return actions[v].kind != ActionKind::Delegate || next(v) == v;
    };
    NaiveResolution r;
    r.sink.assign(n, DelegationOutcome::kNoSink);
    r.weights.assign(n, 0);
    for (g::Vertex v = 0; v < n; ++v) {
        if (actions[v].kind == ActionKind::Delegate) ++r.stats.delegator_count;
        if (actions[v].kind == ActionKind::Abstain) ++r.stats.abstainer_count;
        g::Vertex u = v;
        std::size_t arcs = 0;
        while (!stops(u) && arcs < n) {
            u = next(u);
            ++arcs;
        }
        if (stops(u)) {
            if (actions[u].kind != ActionKind::Abstain) {
                r.sink[v] = u;
                r.weights[u] += initial_weights.empty() ? 1 : initial_weights[v];
            }
            r.stats.longest_path = std::max(r.stats.longest_path, arcs);
            continue;
        }
        r.has_cycle = true;
        ++r.cycle_losses;
    }
    for (g::Vertex v = 0; v < n; ++v) {
        if (r.weights[v] == 0) continue;
        r.voting_sinks.push_back(v);
        r.stats.max_weight = std::max(r.stats.max_weight, r.weights[v]);
        r.stats.cast_weight += r.weights[v];
    }
    r.stats.voting_sink_count = r.voting_sinks.size();
    return r;
}

void expect_matches(const DelegationOutcome& out, const NaiveResolution& want) {
    ASSERT_TRUE(out.functional());
    ASSERT_EQ(out.voter_count(), want.sink.size());
    for (g::Vertex v = 0; v < want.sink.size(); ++v) {
        ASSERT_EQ(out.sink_of(v), want.sink[v]) << "voter " << v;
    }
    EXPECT_EQ(out.weights(), want.weights);
    EXPECT_EQ(out.voting_sinks(), want.voting_sinks);
    const auto& s = out.stats();
    EXPECT_EQ(s.delegator_count, want.stats.delegator_count);
    EXPECT_EQ(s.abstainer_count, want.stats.abstainer_count);
    EXPECT_EQ(s.voting_sink_count, want.stats.voting_sink_count);
    EXPECT_EQ(s.max_weight, want.stats.max_weight);
    EXPECT_EQ(s.cast_weight, want.stats.cast_weight);
    EXPECT_EQ(s.longest_path, want.stats.longest_path);
    EXPECT_EQ(out.cycle_losses(), want.cycle_losses);
}

// Random single-target actions over n voters: votes, abstentions,
// self-delegations, runs of v -> v + 1 (long chains, some draining into
// abstainers) and arcs to random voters.  With `acyclic`, random arcs only
// point to higher-numbered voters; otherwise they close cycles with tails.
std::vector<Action> random_actions(Rng& rng, std::size_t n, double chain_share,
                                   bool acyclic) {
    std::vector<Action> actions(n);
    for (g::Vertex v = 0; v < n; ++v) {
        const double u = rng.next_double();
        const bool last = v + 1 == n;
        if (u < 0.12 || (acyclic && last && u >= 0.22)) {
            actions[v] = Action::vote();
        } else if (u < 0.17) {
            actions[v] = Action::abstain();
        } else if (u < 0.22) {
            actions[v] = Action::delegate_to(v);
        } else if (u < 0.22 + chain_share * 0.78 && !last) {
            actions[v] = Action::delegate_to(v + 1);
        } else if (acyclic) {
            actions[v] = Action::delegate_to(
                static_cast<g::Vertex>(v + 1 + rng.next_below(n - v - 1)));
        } else {
            actions[v] = Action::delegate_to(static_cast<g::Vertex>(rng.next_below(n)));
        }
    }
    return actions;
}

std::vector<std::uint64_t> random_weights(Rng& rng, std::size_t n) {
    std::vector<std::uint64_t> w(n);
    for (auto& x : w) x = rng.next_below(5);  // zero weights included
    return w;
}

TEST(DelegationOutcome, MatchesNaiveResolutionOnRandomActions) {
    using ld::delegation::CyclePolicy;
    Rng rng(19);
    // Besides fresh outcomes, one outcome and one scratch are rebuilt every
    // trial, so n changes between rounds; every 40th round is multi-target.
    // Stale state from an earlier round would show up as a mismatch.
    DelegationOutcome reused;
    DelegationOutcome::ResolveScratch scratch;
    std::size_t cycles_seen = 0;
    for (int trial = 0; trial < 400; ++trial) {
        SCOPED_TRACE(trial);
        const std::size_t n = 1 + rng.next_below(trial % 4 == 0 ? 400 : 40);
        const double chain_share = trial % 3 == 0 ? 0.97 : 0.5;
        const bool acyclic = trial % 2 == 0;
        const auto actions = random_actions(rng, n, chain_share, acyclic);
        const auto weights =
            trial % 5 < 2 ? random_weights(rng, n) : std::vector<std::uint64_t>{};
        const auto want = naive_resolution(actions, weights);
        cycles_seen += want.has_cycle;
        if (want.has_cycle) {
            EXPECT_THROW(DelegationOutcome(actions, weights, CyclePolicy::Throw),
                         ContractViolation);
        } else {
            expect_matches(DelegationOutcome(actions, weights, CyclePolicy::Throw), want);
        }
        expect_matches(DelegationOutcome(actions, weights, CyclePolicy::Discard), want);

        if (trial % 40 == 20) {
            auto& multi = reused.begin_rebuild();
            multi.assign(6, Action::vote());
            multi[0] = Action::delegate_to_many({1, 2});
            multi[3] = Action::delegate_to(4);
            multi[5] = Action::abstain();
            reused.finish_rebuild({}, CyclePolicy::Discard, scratch);
            EXPECT_FALSE(reused.functional());
            EXPECT_EQ(reused.stats().delegator_count, 2u);
            EXPECT_EQ(reused.stats().abstainer_count, 1u);
            EXPECT_EQ(reused.cycle_losses(), 0u);
        }
        reused.begin_rebuild() = actions;
        reused.finish_rebuild(weights, CyclePolicy::Discard, scratch);
        expect_matches(reused, want);
    }
    EXPECT_GT(cycles_seen, 50u);
}

// Each voter's successor code, as Mechanism::successors_into writes it.
std::vector<g::Vertex> successor_codes(const std::vector<Action>& actions) {
    std::vector<g::Vertex> next;
    for (g::Vertex v = 0; v < actions.size(); ++v) {
        next.push_back(mech::successor_of(actions[v], v, actions.size()));
    }
    return next;
}

// A contract message without its " [file:line in function]" suffix.
std::string without_location(const ContractViolation& e) {
    std::string what = e.what();
    const std::size_t at = what.rfind(" [");
    return at == std::string::npos ? what : what.substr(0, at);
}

// Hand-built shapes the walk must resolve exactly: long chains in both
// numberings, one-hop paths onto an abstainer and onto a voter already
// lost to a cycle, a chain draining into a cycle, self-delegations and
// zero initial weights.  Both rebuilds run on one reused outcome and
// scratch, against the naive reference.
TEST(DelegationOutcome, WalkResolvesHandBuiltShapes) {
    using ld::delegation::CyclePolicy;
    struct Shape {
        std::string name;
        std::vector<Action> actions;
        std::vector<std::uint64_t> initial_weights;
        CyclePolicy policy = CyclePolicy::Throw;
    };
    const auto delegations = [](const std::vector<g::Vertex>& to) {
        std::vector<Action> actions;
        for (g::Vertex v = 0; v < to.size(); ++v) {
            actions.push_back(to[v] == v ? Action::vote() : Action::delegate_to(to[v]));
        }
        return actions;
    };
    const std::size_t n = 300;
    std::vector<g::Vertex> ascending(n), descending(n);
    for (g::Vertex v = 0; v < n; ++v) {
        ascending[v] = v + 1 == n ? v : v + 1;  // 0 -> 1 -> ... -> n-1 votes
        descending[v] = v == 0 ? 0 : v - 1;     // n-1 -> ... -> 1 -> 0 votes
    }
    std::vector<Action> onto_abstainer{Action::delegate_to(1), Action::abstain(),
                                       Action::vote(), Action::delegate_to(1)};
    std::vector<Action> self_delegation{Action::delegate_to(0), Action::delegate_to(0),
                                        Action::delegate_to(3), Action::delegate_to(3),
                                        Action::delegate_to(2)};
    const std::vector<Shape> shapes{
        {"chain, ascending", delegations(ascending), {}},
        {"chain, descending", delegations(descending), {}},
        {"chain, ascending, weighted", delegations(ascending),
         std::vector<std::uint64_t>(n, 3)},
        {"one hop onto an abstainer", onto_abstainer, {}},
        {"one hop onto an abstainer, discard", onto_abstainer, {}, CyclePolicy::Discard},
        // 0 <-> 1 is walked first; 2 and 4 then step onto lost voters.
        {"one hop onto a lost voter", delegations({1, 0, 0, 3, 1}), {},
         CyclePolicy::Discard},
        // 0 -> 1 -> 2 -> 3 -> 4 -> 2: the tail drains into the cycle.
        {"chain draining into a cycle", delegations({1, 2, 3, 4, 2, 5}), {},
         CyclePolicy::Discard},
        {"self-delegation", self_delegation, {}},
        {"self-delegation, weighted", self_delegation, {2, 0, 5, 1, 4}},
        // Voter 0 votes with no weight and no incoming votes; voter 1 votes
        // with no weight of its own and holds voter 2's.
        {"zero initial weight", delegations({0, 1, 1, 3, 0}), {0, 0, 3, 1, 0}},
    };
    // Each shape also runs padded with mech::kListFrom voters who vote, so
    // the walk classifies it on both sides of that cut.
    const auto padded = [](std::vector<Action> actions,
                           std::vector<std::uint64_t> initial_weights) {
        actions.resize(actions.size() + mech::kListFrom, Action::vote());
        if (!initial_weights.empty()) initial_weights.resize(actions.size(), 2);
        return std::pair(std::move(actions), std::move(initial_weights));
    };
    DelegationOutcome from_actions;
    DelegationOutcome from_successors;
    DelegationOutcome::ResolveScratch scratch;
    for (const Shape& shape : shapes) {
        for (const bool pad : {false, true}) {
            SCOPED_TRACE(shape.name + (pad ? ", padded" : ""));
            const auto [actions, initial_weights] =
                pad ? padded(shape.actions, shape.initial_weights)
                    : std::pair(shape.actions, shape.initial_weights);
            const auto want = naive_resolution(actions, initial_weights);
            from_actions.begin_rebuild() = actions;
            from_actions.finish_rebuild(initial_weights, shape.policy, scratch);
            expect_matches(from_actions, want);
            scratch.next = successor_codes(actions);
            from_successors.rebuild_from_successors(initial_weights, shape.policy,
                                                    scratch);
            expect_matches(from_successors, want);
        }
    }

    // Refusals under Throw, each with its exact message.
    struct Refusal {
        std::string name;
        std::vector<g::Vertex> next;
        std::string message;
    };
    const std::vector<Refusal> refusals{
        {"out-of-range target", {0, 7, 1},
         "Precondition violated: DelegationOutcome: target out of range"},
        {"cycle", {1, 2, 1, 3},
         "Precondition violated: DelegationOutcome: delegation cycle detected"},
    };
    for (const Refusal& refusal : refusals) {
        for (const bool pad : {false, true}) {
            SCOPED_TRACE(refusal.name + (pad ? ", padded" : ""));
            const auto expect_refused = [&](auto rebuild) {
                try {
                    rebuild();
                    ADD_FAILURE() << "no ContractViolation";
                } catch (const ContractViolation& e) {
                    EXPECT_EQ(without_location(e), refusal.message);
                }
            };
            std::vector<Action> actions;
            for (const g::Vertex t : refusal.next) {
                actions.push_back(Action::delegate_to(t));
            }
            if (pad) actions = padded(std::move(actions), {}).first;
            // An out-of-range target of a padded shape is out of range of
            // the padded voters too.
            std::vector<g::Vertex> next = refusal.next;
            if (refusal.name == "out-of-range target" && pad) {
                actions[1] = Action::delegate_to(static_cast<g::Vertex>(actions.size()));
                next[1] = static_cast<g::Vertex>(actions.size());
            }
            expect_refused([&] {
                from_actions.begin_rebuild() = actions;
                from_actions.finish_rebuild({}, CyclePolicy::Throw, scratch);
            });
            expect_refused([&] {
                scratch.next = next;
                for (g::Vertex v = next.size(); v < actions.size(); ++v) {
                    scratch.next.push_back(v);
                }
                from_successors.rebuild_from_successors({}, CyclePolicy::Throw, scratch);
            });
        }
    }
}

// Random realizations on both sides of mech::kListFrom, where the walk
// switches its classification and gather loops, against the naive
// reference; each is rebuilt both ways on one reused outcome and scratch.
TEST(DelegationOutcome, MatchesNaiveResolutionAcrossTheListCut) {
    using ld::delegation::CyclePolicy;
    Rng rng(43);
    DelegationOutcome from_actions;
    DelegationOutcome from_successors;
    DelegationOutcome::ResolveScratch scratch;
    std::size_t cycles_seen = 0;
    int trial = 0;
    for (const std::size_t n : {mech::kListFrom - 1, mech::kListFrom, mech::kListFrom + 1,
                                2 * mech::kListFrom + 37}) {
        for (const bool acyclic : {true, false}) {
            for (const bool weighted : {false, true}) {
                SCOPED_TRACE("n " + std::to_string(n) + " trial " +
                             std::to_string(trial));
                const double chain_share = trial++ % 2 == 0 ? 0.97 : 0.5;
                const auto actions = random_actions(rng, n, chain_share, acyclic);
                const auto weights =
                    weighted ? random_weights(rng, n) : std::vector<std::uint64_t>{};
                const auto want = naive_resolution(actions, weights);
                cycles_seen += want.has_cycle;
                from_actions.begin_rebuild() = actions;
                from_actions.finish_rebuild(weights, CyclePolicy::Discard, scratch);
                expect_matches(from_actions, want);
                scratch.next = successor_codes(actions);
                from_successors.rebuild_from_successors(weights, CyclePolicy::Discard,
                                                        scratch);
                expect_matches(from_successors, want);
            }
        }
    }
    EXPECT_GT(cycles_seen, 0u);
}

TEST(Realize, BestNeighbourOnApprovalChainCompressesPaths) {
    // Path graph with ascending competencies: everyone's best approved
    // neighbour is the next voter; delegation forms one long chain.
    const std::size_t n = 30;
    std::vector<double> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = 0.1 + 0.8 * static_cast<double>(i) / n;
    Rng rng(4);
    const model::Instance inst(g::make_path(n), model::CompetencyVector(std::move(p)),
                               0.01);
    const mech::BestNeighbour m;
    const auto out = ld::delegation::realize(m, inst, rng);
    EXPECT_EQ(out.stats().voting_sink_count, 1u);
    EXPECT_EQ(out.sink_of(0), static_cast<g::Vertex>(n - 1));
    EXPECT_EQ(out.weights()[n - 1], n);
    EXPECT_EQ(out.stats().longest_path, n - 1);
}

TEST(Realize, ExpectedDirectVoterCountClosedForm) {
    Rng rng(5);
    const model::Instance inst(g::make_complete(40),
                               model::uniform_competencies(rng, 40, 0.1, 0.9), 0.05);
    const mech::ApprovalSizeThreshold m(3);
    const double expected = ld::delegation::expected_direct_voter_count(m, inst);
    ASSERT_GE(expected, 0.0);
    // The mechanism is deterministic in who delegates; realize once and
    // compare.
    const auto out = ld::delegation::realize(m, inst, rng);
    EXPECT_NEAR(expected,
                static_cast<double>(inst.voter_count() - out.stats().delegator_count),
                1e-9);
}

TEST(Realize, DirectVotingHasNoClosedFormGap) {
    Rng rng(6);
    const model::Instance inst(g::make_complete(10),
                               model::uniform_competencies(rng, 10, 0.3, 0.7), 0.05);
    const mech::DirectVoting direct;
    EXPECT_DOUBLE_EQ(ld::delegation::expected_direct_voter_count(direct, inst), 10.0);
}

// A single-target mechanism that votes, abstains, delegates to itself or
// to an approved neighbour, so the identity test below reaches every kind
// of decision a mechanism can draw.
class EveryDecision final : public mech::Mechanism {
public:
    std::string name() const override { return "EveryDecision"; }

    Action act(const model::Instance& instance, g::Vertex v, Rng& rng) const override {
        const auto approved = instance.approved_neighbours_view(v);
        switch (rng.next_below(4)) {
            case 0: return Action::abstain();
            case 1: return Action::delegate_to(v);
            case 2: return Action::vote();
            default:
                if (approved.empty()) return Action::vote();
                return Action::delegate_to(approved[rng.next_below(approved.size())]);
        }
    }

    bool may_abstain() const override { return true; }
};

// The per-voter Action path: act_into every voter into the outcome's own
// buffer, then one finish_rebuild.
void rebuild_from_actions(DelegationOutcome& out,
                          DelegationOutcome::ResolveScratch& scratch,
                          const mech::Mechanism& mechanism,
                          const model::Instance& instance, Rng& rng,
                          std::span<const std::uint64_t> weights,
                          ld::delegation::CyclePolicy policy) {
    auto& actions = out.begin_rebuild();
    actions.resize(instance.voter_count());
    for (g::Vertex v = 0; v < instance.voter_count(); ++v) {
        mechanism.act_into(instance, v, rng, actions[v]);
    }
    out.finish_rebuild(weights, policy, scratch);
}

void expect_same_outcome(const DelegationOutcome& got, const DelegationOutcome& want) {
    ASSERT_EQ(got.voter_count(), want.voter_count());
    ASSERT_EQ(got.functional(), want.functional());
    for (g::Vertex v = 0; v < want.voter_count(); ++v) {
        const Action a = got.action(v);
        const Action b = want.action(v);
        ASSERT_EQ(a.kind, b.kind) << "voter " << v;
        ASSERT_EQ(a.targets, b.targets) << "voter " << v;
        ASSERT_EQ(a.target_weights, b.target_weights) << "voter " << v;
    }
    const auto& s = got.stats();
    const auto& t = want.stats();
    EXPECT_EQ(s.delegator_count, t.delegator_count);
    EXPECT_EQ(s.abstainer_count, t.abstainer_count);
    EXPECT_EQ(s.voting_sink_count, t.voting_sink_count);
    EXPECT_EQ(s.max_weight, t.max_weight);
    EXPECT_EQ(s.cast_weight, t.cast_weight);
    EXPECT_EQ(s.longest_path, t.longest_path);
    EXPECT_EQ(got.cycle_losses(), want.cycle_losses());
    const g::Digraph got_arcs = got.as_digraph();
    const g::Digraph want_arcs = want.as_digraph();
    ASSERT_EQ(got_arcs.arc_count(), want_arcs.arc_count());
    for (g::Vertex v = 0; v < want.voter_count(); ++v) {
        ASSERT_TRUE(std::ranges::equal(got_arcs.successors(v), want_arcs.successors(v)))
            << "voter " << v;
    }
    if (!want.functional()) return;
    for (g::Vertex v = 0; v < want.voter_count(); ++v) {
        ASSERT_EQ(got.sink_of(v), want.sink_of(v)) << "voter " << v;
    }
    EXPECT_EQ(got.weights(), want.weights());
    EXPECT_EQ(got.voting_sinks(), want.voting_sinks());
}

TEST(Realize, RealizeIntoMatchesTheActionPathForEveryMechanism) {
    using ld::delegation::CyclePolicy;
    const mech::ApprovalSizeThreshold unrestricted_inner(1);
    std::vector<std::pair<std::string, std::unique_ptr<mech::Mechanism>>> mechanisms;
    // Every head of the mechanism spec table, both alg2 modes and nested
    // abstain wrappers included.
    for (const char* spec :
         {"direct", "threshold:2", "alg1:log", "alg1:sqrt", "alg1:lin,0.25",
          "alg2:6,2,pop", "alg2:6,1,nbr", "fraction:0.333", "best", "capped:5",
          "noisy:1,0.25", "multi:3,1", "abstain:0.4/threshold:1",
          "abstain:0.3/multi:3,1", "abstain:0.3/abstain:0.5/noisy:1,0.2"}) {
        mechanisms.emplace_back(spec, ld::cli::make_mechanism(spec));
    }
    mechanisms.emplace_back("rank", std::make_unique<mech::RankProportional>(1, 2.0));
    mechanisms.emplace_back("weighted",
                            std::make_unique<mech::WeightedDelegates>(3, 1, 0.5));
    mechanisms.emplace_back(
        "unrestricted",
        std::make_unique<mech::UnrestrictedAbstaining>(unrestricted_inner, 0.2));
    mechanisms.emplace_back("every-decision", std::make_unique<EveryDecision>());

    // One outcome and one scratch are rebuilt by both paths in turn while n
    // changes; stale state from an earlier build would show as a mismatch.
    DelegationOutcome reused;
    DelegationOutcome::ResolveScratch reused_scratch;
    Rng setup(31);
    std::size_t cycle_losses = 0;
    for (int trial = 0; trial < 12; ++trial) {
        const std::size_t n = 2 + setup.next_below(trial % 3 == 0 ? 300 : 60);
        const bool complete = trial % 2 == 1;
        const double p = std::min(1.0, 4.0 / static_cast<double>(n));
        g::Graph graph =
            complete ? g::make_complete(n) : g::make_erdos_renyi_gnp(setup, n, p);
        const model::Instance instance(
            std::move(graph), model::uniform_competencies(setup, n, 0.2, 0.9), 0.02);
        const auto weights =
            trial % 4 < 2 ? random_weights(setup, n) : std::vector<std::uint64_t>{};
        for (const auto& [spec, mechanism] : mechanisms) {
            SCOPED_TRACE(spec + " trial " + std::to_string(trial) + " n " +
                         std::to_string(n));
            const CyclePolicy policy = spec.find("noisy") != std::string::npos
                                           ? CyclePolicy::Discard
                                           : CyclePolicy::Throw;
            const std::uint64_t seed = setup.next();
            Rng want_rng(seed);
            DelegationOutcome want;
            DelegationOutcome::ResolveScratch want_scratch;
            rebuild_from_actions(want, want_scratch, *mechanism, instance, want_rng,
                                 weights, policy);
            const std::uint64_t want_next = want_rng.next();
            cycle_losses += want.cycle_losses();

            Rng rng(seed);
            ld::delegation::realize_into(reused, reused_scratch, *mechanism, instance,
                                         rng, weights, policy);
            expect_same_outcome(reused, want);
            EXPECT_EQ(rng.next(), want_next);

            Rng again(seed);
            rebuild_from_actions(reused, reused_scratch, *mechanism, instance, again,
                                 weights, policy);
            expect_same_outcome(reused, want);
            EXPECT_EQ(again.next(), want_next);
        }
    }
    EXPECT_GT(cycle_losses, 0u);
}

// The walk lists the delegators from mech::kListFrom voters on and
// branches per voter below it; on both sides of the cut realize_into must
// match the per-voter Action path, Rng position included.
TEST(Realize, RealizeIntoMatchesTheActionPathAcrossTheListCut) {
    using ld::delegation::CyclePolicy;
    DelegationOutcome reused;
    DelegationOutcome::ResolveScratch reused_scratch;
    Rng setup(47);
    for (const std::size_t n :
         {mech::kListFrom - 1, mech::kListFrom, 3 * mech::kListFrom}) {
        const model::Instance instance(g::make_erdos_renyi_gnp(setup, n, 6.0 / n),
                                       model::uniform_competencies(setup, n, 0.3, 0.7),
                                       0.05);
        for (const char* spec : {"threshold:1", "threshold:3", "alg1:sqrt", "alg1:log",
                                 "fraction:0.333", "abstain:0.3/threshold:1"}) {
            SCOPED_TRACE(std::string(spec) + " n " + std::to_string(n));
            const auto mechanism = ld::cli::make_mechanism(spec);
            const std::uint64_t seed = setup.next();
            Rng want_rng(seed);
            DelegationOutcome want;
            DelegationOutcome::ResolveScratch want_scratch;
            rebuild_from_actions(want, want_scratch, *mechanism, instance, want_rng, {},
                                 CyclePolicy::Throw);
            Rng rng(seed);
            ld::delegation::realize_into(reused, reused_scratch, *mechanism, instance,
                                         rng, {}, CyclePolicy::Throw);
            expect_same_outcome(reused, want);
            EXPECT_EQ(rng.next(), want_rng.next());
        }
    }
}

// The listed rebuild makes the checks every rebuild makes, with the same
// messages, and pools and loses votes as the general walk does.  A
// rebuild that failed a check leaves no state the next one would keep.
TEST(DelegationOutcome, ListedRebuildKeepsTheChecks) {
    using ld::delegation::CyclePolicy;
    Rng setup(59);
    const std::size_t n = 40;
    const model::Instance instance(g::make_complete(n),
                                   model::uniform_competencies(setup, n, 0.3, 0.7), 0.05);
    const mech::ApprovalSizeThreshold mechanism(1);
    const auto list = ld::delegation::DelegatorList::of(mechanism, instance);
    ASSERT_NE(list, nullptr);
    const auto voters = list->voters();
    ASSERT_GE(voters.size(), 3u);
    const auto p = instance.competencies().values();
    const auto best = static_cast<g::Vertex>(std::ranges::max_element(p) - p.begin());

    // Every listed voter delegates to the best voter, who votes; then
    // `edit` rewrites some targets.  Each rebuild is compared with one
    // from the whole successor array.
    DelegationOutcome out;
    DelegationOutcome::ResolveScratch scratch;
    const auto rebuild = [&](auto edit, CyclePolicy policy) {
        const std::span<g::Vertex> next = out.begin_listed(*list);
        for (const g::Vertex v : voters) next[v] = best;
        edit(next);
        DelegationOutcome::ResolveScratch want_scratch;
        want_scratch.next.assign(next.begin(), next.end());
        out.finish_listed(*list, policy, scratch);
        DelegationOutcome want;
        want.rebuild_from_successors({}, policy, want_scratch);
        expect_same_outcome(out, want);
    };
    const auto no_edit = [](std::span<g::Vertex>) {};
    // Two listed voters delegate to each other, a third into them.
    const auto cycle = [&](std::span<g::Vertex> next) {
        next[voters[0]] = voters[1];
        next[voters[1]] = voters[0];
        next[voters[2]] = voters[0];
    };
    expect_contract_message(
        [&] {
            rebuild([&](std::span<g::Vertex> next) { next[voters[1]] = n; },
                    CyclePolicy::Throw);
        },
        "DelegationOutcome: target out of range");
    rebuild(no_edit, CyclePolicy::Throw);
    expect_contract_message([&] { rebuild(cycle, CyclePolicy::Throw); },
                            "DelegationOutcome: delegation cycle detected");
    rebuild(no_edit, CyclePolicy::Throw);
    EXPECT_EQ(out.weights()[best], voters.size() + 1);
    rebuild(cycle, CyclePolicy::Discard);
    EXPECT_EQ(out.cycle_losses(), 3u);
    EXPECT_EQ(out.sink_of(voters[2]), DelegationOutcome::kNoSink);
    rebuild(no_edit, CyclePolicy::Discard);
    EXPECT_EQ(out.cycle_losses(), 0u);
    EXPECT_EQ(out.stats().cast_weight, n);
}

// A threshold mechanism's replications can run from its delegator list:
// on both sides of mech::kListFrom, one outcome and one scratch go through
// three listed rebuilds, a general one and a listed one again (which
// must prepare anew), each compared with a fresh outcome resolved from
// the whole successor array over the same draws.  Each mechanism lists
// its own delegators, so a state kept for the previous list shows.
TEST(Realize, ListedRealizationMatchesTheGeneralPath) {
    using ld::delegation::CyclePolicy;
    using ld::delegation::DelegatorList;
    DelegationOutcome reused;
    DelegationOutcome::ResolveScratch reused_scratch;
    Rng setup(53);
    for (const std::size_t n :
         {mech::kListFrom - 1, mech::kListFrom, 3 * mech::kListFrom}) {
        const model::Instance instance(g::make_erdos_renyi_gnp(setup, n, 6.0 / n),
                                       model::uniform_competencies(setup, n, 0.3, 0.7),
                                       0.05);
        for (const char* spec : {"threshold:1", "threshold:2", "alg1:sqrt", "alg1:log",
                                 "alg1:lin,0.3", "fraction:0.3"}) {
            const auto mechanism = ld::cli::make_mechanism(spec);
            const auto list = DelegatorList::of(*mechanism, instance);
            ASSERT_NE(list, nullptr) << spec;
            for (int rebuild = 0; rebuild < 5; ++rebuild) {
                SCOPED_TRACE(std::string(spec) + " n " + std::to_string(n) + " rebuild " +
                             std::to_string(rebuild));
                const std::uint64_t seed = setup.next();
                Rng want_rng(seed);
                DelegationOutcome want;
                DelegationOutcome::ResolveScratch want_scratch;
                want_scratch.next.resize(n);
                mechanism->successors_into(instance, want_rng, want_scratch.next);
                want.rebuild_from_successors({}, CyclePolicy::Throw, want_scratch);

                Rng rng(seed);
                if (rebuild == 3) {
                    ld::delegation::realize_into(reused, reused_scratch, *mechanism,
                                                 instance, rng);
                } else {
                    ld::delegation::realize_listed_into(reused, reused_scratch, *list,
                                                        instance, rng);
                }
                expect_same_outcome(reused, want);
                EXPECT_EQ(rng.next(), want_rng.next());
            }
        }
    }
}

}  // namespace
