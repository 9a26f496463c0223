// Differential suite for the incremental delegation-churn engine
// (docs/CHURN.md): DynamicResolution pinned bit-identical to the scratch
// DelegationOutcome reference under randomized patch sequences
// (delegate/vote/abstain retargets, cycle-inducing patches, component
// splits, weighted voters), the FactorTree certified-truncation contract
// against brute-force enumeration, LiveTally agreement with the exact DP
// within its certified error bound under every SIMD kernel tier, the
// serve-side instance.patch epoch/conflict/cycle semantics, and the
// best-response game rebase (shuffle-seed reproducibility, viscous decay).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "ld/delegation/delegation_graph.hpp"
#include "ld/delegation/incremental.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/tally.hpp"
#include "ld/election/tally_delta.hpp"
#include "ld/game/delegation_game.hpp"
#include "ld/model/competency.hpp"
#include "ld/model/competency_gen.hpp"
#include "ld/model/instance.hpp"
#include "ld/serve/instance_cache.hpp"
#include "ld/serve/router.hpp"
#include "prob/convolve.hpp"
#include "prob/factor_tree.hpp"
#include "rng/rng.hpp"
#include "support/cpu_features.hpp"
#include "support/json.hpp"

namespace {

namespace delegation = ld::delegation;
namespace election = ld::election;
namespace game = ld::game;
namespace g = ld::graph;
namespace json = ld::support::json;
namespace mech = ld::mech;
namespace model = ld::model;
namespace serve = ld::serve;
using delegation::DelegationOutcome;
using delegation::DynamicResolution;
using ld::prob::FactorTree;
using ld::rng::Rng;
using ld::support::SimdTier;
using Vertex = g::Vertex;

// ------------------------------------------------------------ helpers

/// Pin the kernel tier for a scope (same idiom as test_simd_kernels.cpp).
class TierGuard {
public:
    explicit TierGuard(SimdTier tier)
        : previous_(ld::prob::kernel_tier()),
          pinned_(ld::prob::set_kernel_tier(tier)) {}
    ~TierGuard() { ld::prob::set_kernel_tier(previous_); }
    bool pinned() const noexcept { return pinned_; }

    TierGuard(const TierGuard&) = delete;
    TierGuard& operator=(const TierGuard&) = delete;

private:
    SimdTier previous_;
    bool pinned_;
};

constexpr std::array<SimdTier, 3> kAllTiers = {
    SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512};

/// Re-resolve the live state from scratch — the reference the incremental
/// engine must match bit-for-bit.
DelegationOutcome reference_outcome(const DynamicResolution& res,
                                    std::span<const std::uint64_t> weights = {}) {
    return DelegationOutcome(res.actions(), weights);
}

/// EXPECT_EQ every derived quantity against the scratch re-resolution.
void expect_matches_reference(const DynamicResolution& res,
                              std::span<const std::uint64_t> weights = {}) {
    const DelegationOutcome ref = reference_outcome(res, weights);
    ASSERT_TRUE(ref.functional());
    const std::size_t n = res.voter_count();
    ASSERT_EQ(ref.voter_count(), n);
    for (Vertex v = 0; v < n; ++v) {
        EXPECT_EQ(res.sink_of(v), ref.sink_of(v)) << "sink of voter " << v;
    }
    EXPECT_EQ(res.weights(), ref.weights());
    EXPECT_EQ(res.voting_sinks(), ref.voting_sinks());
    EXPECT_EQ(res.cast_weight(), ref.stats().cast_weight);
    EXPECT_EQ(res.voting_sink_count(), ref.stats().voting_sink_count);
    const delegation::DelegationStats a = res.stats();
    const delegation::DelegationStats& b = ref.stats();
    EXPECT_EQ(a.delegator_count, b.delegator_count);
    EXPECT_EQ(a.abstainer_count, b.abstainer_count);
    EXPECT_EQ(a.voting_sink_count, b.voting_sink_count);
    EXPECT_EQ(a.max_weight, b.max_weight);
    EXPECT_EQ(a.cast_weight, b.cast_weight);
    EXPECT_EQ(a.longest_path, b.longest_path);
    // Depths: re-derive by walking the target chain independently.
    for (Vertex v = 0; v < n; ++v) {
        std::size_t depth = 0;
        Vertex cur = v;
        while (res.kind(cur) == mech::ActionKind::Delegate &&
               res.target(cur) != cur) {
            cur = res.target(cur);
            ++depth;
        }
        EXPECT_EQ(res.depth_of(v), depth) << "depth of voter " << v;
    }
}

/// One random patch against `res` (delegate-biased mix, self-delegation
/// and cycle attempts included).  Returns the PatchResult.
DynamicResolution::PatchResult random_patch(DynamicResolution& res, Rng& rng) {
    const std::size_t n = res.voter_count();
    const Vertex v = static_cast<Vertex>(rng.next_below(n));
    const std::uint64_t roll = rng.next_below(8);
    if (roll < 5) {
        return res.set_delegate(v, static_cast<Vertex>(rng.next_below(n)));
    }
    if (roll < 7) return res.set_vote(v);
    return res.set_abstain(v);
}

// ------------------------------------------ DynamicResolution differential

TEST(DynamicResolution, RandomPatchSequenceMatchesScratchResolution) {
    constexpr std::size_t kVoters = 48;
    DynamicResolution res;
    res.reset_all_vote(kVoters);
    expect_matches_reference(res);

    Rng rng(101);
    std::size_t applied = 0;
    std::size_t rejected = 0;
    for (int step = 0; step < 400; ++step) {
        const auto before = res.actions();
        const auto weights_before = res.weights();
        const auto result = random_patch(res, rng);
        if (result.cycle_rejected) {
            ++rejected;
            // A rejected patch must leave the state untouched.
            EXPECT_FALSE(result.applied);
            EXPECT_EQ(result.change_count, 0u);
            const auto after = res.actions();
            ASSERT_EQ(after.size(), before.size());
            for (std::size_t i = 0; i < after.size(); ++i) {
                EXPECT_EQ(after[i].kind, before[i].kind);
                EXPECT_EQ(after[i].targets, before[i].targets);
            }
            EXPECT_EQ(res.weights(), weights_before);
            continue;
        }
        applied += result.applied ? 1 : 0;
        expect_matches_reference(res);
        // The reported SinkChange deltas must reconstruct the new pooled
        // weights from the old ones.
        std::map<Vertex, std::uint64_t> pooled;
        for (Vertex s = 0; s < kVoters; ++s) {
            if (weights_before[s] != 0) pooled[s] = weights_before[s];
        }
        for (std::size_t c = 0; c < result.change_count; ++c) {
            const auto& change = result.changes[c];
            if (change.weight == 0) {
                pooled.erase(change.sink);
            } else {
                pooled[change.sink] = change.weight;
            }
        }
        const auto now = res.weights();
        std::map<Vertex, std::uint64_t> expected;
        for (Vertex s = 0; s < kVoters; ++s) {
            if (now[s] != 0) expected[s] = now[s];
        }
        EXPECT_EQ(pooled, expected);
    }
    // The sequence must actually exercise both paths.
    EXPECT_GT(applied, 100u);
    EXPECT_GT(rejected, 0u);
}

TEST(DynamicResolution, WeightedVotersMatchScratchResolution) {
    constexpr std::size_t kVoters = 32;
    std::vector<std::uint64_t> weights(kVoters);
    Rng wrng(7);
    for (auto& w : weights) w = 1 + wrng.next_below(9);

    DynamicResolution res;
    res.reset_all_vote(kVoters, weights);
    for (Vertex v = 0; v < kVoters; ++v) {
        EXPECT_EQ(res.initial_weight(v), weights[v]);
    }
    Rng rng(2024);
    for (int step = 0; step < 200; ++step) {
        const auto result = random_patch(res, rng);
        if (result.cycle_rejected) continue;
        if (step % 10 == 0) expect_matches_reference(res, weights);
    }
    expect_matches_reference(res, weights);
}

TEST(DynamicResolution, ResetFromResolvedOutcomeMatches) {
    // A star of delegators into voter 0, two abstainers, one side chain.
    std::vector<mech::Action> actions(10, mech::Action::vote());
    actions[1] = mech::Action::delegate_to(0);
    actions[2] = mech::Action::delegate_to(0);
    actions[3] = mech::Action::delegate_to(2);
    actions[4] = mech::Action::abstain();
    actions[5] = mech::Action::delegate_to(4);  // drains into an abstainer
    actions[6] = mech::Action::delegate_to(7);
    const DelegationOutcome outcome(actions);

    DynamicResolution res;
    res.reset(outcome);
    expect_matches_reference(res);
    EXPECT_EQ(res.sink_of(3), 0u);
    EXPECT_EQ(res.sink_of(5), DynamicResolution::kNoSink);
    EXPECT_EQ(res.pooled_weight(0), 4u);

    // And patches continue correctly from the imported state.
    const auto patch = res.set_vote(2);
    EXPECT_TRUE(patch.applied);
    expect_matches_reference(res);
    EXPECT_EQ(res.sink_of(3), 2u);
    EXPECT_EQ(res.pooled_weight(0), 2u);
}

TEST(DynamicResolution, ChainSplitReportsBothSinkChanges) {
    DynamicResolution res;
    res.reset_all_vote(4);
    ASSERT_TRUE(res.set_delegate(0, 1).applied);
    ASSERT_TRUE(res.set_delegate(1, 2).applied);
    ASSERT_TRUE(res.set_delegate(2, 3).applied);
    EXPECT_EQ(res.pooled_weight(3), 4u);

    // Splitting the chain at 1 moves {0,1} to sink 1 and shrinks sink 3.
    const auto split = res.set_vote(1);
    EXPECT_TRUE(split.applied);
    EXPECT_EQ(split.change_count, 2u);
    expect_matches_reference(res);
    EXPECT_EQ(res.pooled_weight(1), 2u);
    EXPECT_EQ(res.pooled_weight(3), 2u);
    EXPECT_EQ(res.sink_of(0), 1u);
}

TEST(DynamicResolution, PatchesAreAbsoluteAndIdempotent) {
    DynamicResolution res;
    res.reset_all_vote(6);
    ASSERT_TRUE(res.set_delegate(2, 5).applied);
    // Replaying the identical patch is a no-op: the serve layer's
    // at-least-once delivery depends on absolute assignments.
    const auto replay = res.set_delegate(2, 5);
    EXPECT_FALSE(replay.applied);
    EXPECT_FALSE(replay.cycle_rejected);
    EXPECT_EQ(replay.change_count, 0u);
    expect_matches_reference(res);

    // Self-delegation counts as voting (matches DelegationOutcome).
    ASSERT_TRUE(res.set_delegate(3, 3).applied);
    EXPECT_TRUE(res.is_voting(3));
    expect_matches_reference(res);
}

TEST(DynamicResolution, CyclePatchesAreRejectedWithoutStateChange) {
    DynamicResolution res;
    res.reset_all_vote(5);
    ASSERT_TRUE(res.set_delegate(0, 1).applied);
    ASSERT_TRUE(res.set_delegate(1, 2).applied);

    const auto cycle = res.set_delegate(2, 0);
    EXPECT_TRUE(cycle.cycle_rejected);
    EXPECT_FALSE(cycle.applied);
    expect_matches_reference(res);
    EXPECT_EQ(res.sink_of(0), 2u);

    // A 1-cycle through a fresh edge is caught too.
    ASSERT_TRUE(res.set_delegate(3, 4).applied);
    EXPECT_TRUE(res.set_delegate(4, 3).cycle_rejected);
    expect_matches_reference(res);
}

// -------------------------------------------------- FactorTree certified

/// Brute-force P[S > threshold] over m two-point factors (m <= ~16).
double brute_force_tail(const std::vector<std::uint64_t>& weights,
                        const std::vector<double>& probs,
                        std::uint64_t threshold) {
    const std::size_t m = weights.size();
    double tail = 0.0;
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << m); ++mask) {
        std::uint64_t sum = 0;
        double prob = 1.0;
        for (std::size_t i = 0; i < m; ++i) {
            if (mask >> i & 1) {
                sum += weights[i];
                prob *= probs[i];
            } else {
                prob *= 1.0 - probs[i];
            }
        }
        if (sum > threshold) tail += prob;
    }
    return tail;
}

TEST(FactorTree, ExactTreeMatchesBruteForce) {
    Rng rng(11);
    std::vector<std::uint64_t> weights(12);
    std::vector<double> probs(12);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        weights[i] = 1 + rng.next_below(7);
        probs[i] = 0.05 + 0.9 * static_cast<double>(rng.next_below(1000)) / 1000.0;
    }
    FactorTree tree;
    tree.reset(weights.size(), 0.0);
    tree.begin_bulk();
    for (std::size_t i = 0; i < weights.size(); ++i) {
        tree.set_factor(i, weights[i], probs[i]);
    }
    tree.end_bulk();
    EXPECT_EQ(tree.error_bound(), 0.0);
    std::uint64_t total = 0;
    for (const auto w : weights) total += w;
    EXPECT_EQ(tree.total_weight(), total);
    for (std::uint64_t t : {std::uint64_t{0}, total / 3, total / 2, total}) {
        EXPECT_NEAR(tree.tail_above(t), brute_force_tail(weights, probs, t), 1e-12);
    }
    EXPECT_NEAR(tree.majority_probability(),
                brute_force_tail(weights, probs, total / 2), 1e-12);
}

TEST(FactorTree, IncrementalUpdatesMatchFreshRebuild) {
    for (const double epsilon : {0.0, 1e-6}) {
        Rng rng(23);
        constexpr std::size_t kSlots = 33;  // off a power of two on purpose
        FactorTree incremental;
        incremental.reset(kSlots, epsilon);
        // Random set/clear/update churn.
        for (int step = 0; step < 300; ++step) {
            const std::size_t slot = rng.next_below(kSlots);
            if (rng.next_below(5) == 0) {
                incremental.clear_factor(slot);
            } else {
                incremental.set_factor(
                    slot, rng.next_below(10),
                    static_cast<double>(rng.next_below(1001)) / 1000.0);
            }
            EXPECT_LE(incremental.error_bound(), epsilon);
        }
        // A tree built fresh from the final leaf state must agree: same
        // leaves, same node shape => same windows, bit for bit.
        FactorTree fresh;
        fresh.reset(kSlots, epsilon);
        fresh.begin_bulk();
        for (std::size_t slot = 0; slot < kSlots; ++slot) {
            if (incremental.has_factor(slot)) {
                fresh.set_factor(slot, incremental.factor_weight(slot),
                                 incremental.factor_p(slot));
            }
        }
        fresh.end_bulk();
        EXPECT_EQ(incremental.total_weight(), fresh.total_weight());
        EXPECT_EQ(incremental.majority_probability(), fresh.majority_probability());
        for (std::uint64_t t = 0; t <= incremental.total_weight(); t += 7) {
            EXPECT_EQ(incremental.tail_above(t), fresh.tail_above(t));
        }
    }
}

TEST(FactorTree, TruncatedTreeStaysInsideCertifiedBound) {
    Rng rng(31);
    std::vector<std::uint64_t> weights(14);
    std::vector<double> probs(14);
    FactorTree tree;
    const double epsilon = 1e-4;
    tree.reset(weights.size(), epsilon);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        weights[i] = 1 + rng.next_below(5);
        probs[i] = static_cast<double>(100 + rng.next_below(801)) / 1000.0;
        tree.set_factor(i, weights[i], probs[i]);
    }
    // Churn a few leaves so the bound reflects recomputed nodes.
    for (int step = 0; step < 50; ++step) {
        const std::size_t i = rng.next_below(weights.size());
        probs[i] = static_cast<double>(100 + rng.next_below(801)) / 1000.0;
        tree.set_factor(i, weights[i], probs[i]);
    }
    ASSERT_LE(tree.error_bound(), epsilon);
    const std::uint64_t total = tree.total_weight();
    for (std::uint64_t t : {total / 4, total / 2, 3 * total / 4}) {
        const double exact = brute_force_tail(weights, probs, t);
        EXPECT_NEAR(tree.tail_above(t), exact, tree.error_bound() + 1e-12);
    }
}

/// Random factor probability: exactly 0 or 1 about one time in four each.
double random_factor_p(Rng& rng) {
    const std::uint64_t roll = rng.next_below(4);
    if (roll == 0) return 0.0;
    if (roll == 1) return 1.0;
    return 0.05 + 0.9 * static_cast<double>(rng.next_below(1000)) / 1000.0;
}

TEST(FactorTree, TailFromRootChildrenMatchesBruteForce) {
    // The root is never built: every tail is read off its two children
    // (or, with one slot, off the leaf).  Check every threshold, with
    // inactive slots, zero weights and certain factors in the mix.
    Rng rng(41);
    for (const std::size_t slots : {1, 2, 3, 5, 12}) {
        for (int trial = 0; trial < 6; ++trial) {
            for (const double epsilon : {0.0, 1e-3}) {
                FactorTree tree;
                tree.reset(slots, epsilon);
                std::vector<std::uint64_t> weights;
                std::vector<double> probs;
                tree.begin_bulk();
                for (std::size_t slot = 0; slot < slots; ++slot) {
                    if (rng.next_below(4) == 0) continue;  // stays inactive
                    weights.push_back(rng.next_below(6));  // 0 included
                    probs.push_back(random_factor_p(rng));
                    tree.set_factor(slot, weights.back(), probs.back());
                }
                tree.end_bulk();
                ASSERT_LE(tree.error_bound(), epsilon);
                if (epsilon == 0.0) {
                    EXPECT_EQ(tree.error_bound(), 0.0);
                }
                const double tolerance = tree.error_bound() + 1e-12;
                const std::uint64_t total = tree.total_weight();
                for (std::uint64_t t = 0; t <= total + 1; ++t) {
                    EXPECT_NEAR(tree.tail_above(t), brute_force_tail(weights, probs, t),
                                tolerance)
                        << "slots=" << slots << " eps=" << epsilon << " t=" << t;
                }
                EXPECT_EQ(tree.majority_probability(),
                          total == 0 ? 0.0 : tree.tail_above(total / 2));
            }
        }
    }
}

TEST(FactorTree, TwoLeafPatchesAgreeInBulkOneAtATimeAndRebuilt) {
    // A two-leaf patch flushed once (each shared ancestor combined once)
    // must leave the same windows as two single-leaf updates and as a
    // fresh build of the same leaves: same leaves, same node shape.
    constexpr std::size_t kSlots = 37;  // capacity 64: right half is [32, 37)
    constexpr std::size_t kHalf = 32;
    for (const double epsilon : {0.0, 1e-6}) {
        Rng rng(53);
        FactorTree bulk;
        FactorTree single;
        bulk.reset(kSlots, epsilon);
        single.reset(kSlots, epsilon);
        auto change = [&](std::size_t slot, bool clear, std::uint64_t weight, double p) {
            for (FactorTree* tree : {&bulk, &single}) {
                if (clear) {
                    tree->clear_factor(slot);
                } else {
                    tree->set_factor(slot, weight, p);
                }
            }
        };
        for (int step = 0; step < 90; ++step) {
            std::size_t first = rng.next_below(kSlots);
            std::size_t second = first;  // shape 0: the same leaf twice
            if (step % 3 == 1) {         // siblings
                first = std::min(first & ~std::size_t{1}, kSlots - 3);
                second = first + 1;
            } else if (step % 3 == 2) {  // opposite halves of the tree
                first = rng.next_below(kHalf);
                second = kHalf + rng.next_below(kSlots - kHalf);
            }
            bulk.begin_bulk();
            for (const std::size_t slot : {first, second}) {
                const bool clear = rng.next_below(5) == 0;
                const std::uint64_t weight = rng.next_below(10);
                const double p = random_factor_p(rng);
                change(slot, clear, weight, p);
            }
            bulk.end_bulk();

            FactorTree fresh;
            fresh.reset(kSlots, epsilon);
            fresh.begin_bulk();
            for (std::size_t slot = 0; slot < kSlots; ++slot) {
                if (single.has_factor(slot)) {
                    fresh.set_factor(slot, single.factor_weight(slot),
                                     single.factor_p(slot));
                }
            }
            fresh.end_bulk();

            ASSERT_EQ(bulk.total_weight(), single.total_weight());
            ASSERT_EQ(bulk.total_weight(), fresh.total_weight());
            EXPECT_LE(bulk.error_bound(), epsilon);
            for (std::uint64_t t = 0; t <= bulk.total_weight() + 1; ++t) {
                const double tail = bulk.tail_above(t);
                EXPECT_EQ(tail, single.tail_above(t)) << "step " << step << " t=" << t;
                EXPECT_EQ(tail, fresh.tail_above(t)) << "step " << step << " t=" << t;
            }
        }
    }
}

// ------------------------------------------------------- LiveTally delta

/// Drive one randomized churn sequence (delegation + competency patches)
/// and return (P^M, P^D) after every step; checks each step against the
/// exact DP within the certified error bound.
std::vector<std::pair<double, double>> run_live_tally_sequence(double epsilon) {
    constexpr std::size_t kVoters = 36;
    Rng rng(77);
    std::vector<double> p(kVoters);
    for (auto& x : p) {
        x = 0.1 + 0.8 * static_cast<double>(rng.next_below(1000)) / 1000.0;
    }
    DynamicResolution res;
    res.reset_all_vote(kVoters);
    election::LiveTally tally;
    tally.reset(p, res, epsilon);

    std::vector<mech::Action> all_vote(kVoters, mech::Action::vote());
    std::vector<std::pair<double, double>> trace;
    for (int step = 0; step < 150; ++step) {
        if (rng.next_below(4) == 0) {
            const Vertex v = static_cast<Vertex>(rng.next_below(kVoters));
            p[v] = 0.05 + 0.9 * static_cast<double>(rng.next_below(1000)) / 1000.0;
            tally.set_competency(res, v, p[v]);
        } else {
            const auto patch = random_patch(res, rng);
            if (patch.cycle_rejected) continue;
            tally.apply_sink_changes({patch.changes.data(), patch.change_count});
        }
        const model::CompetencyVector comp{std::vector<double>(p)};
        const double exact_pm =
            election::exact_correct_probability(reference_outcome(res), comp);
        const double exact_pd = election::exact_correct_probability(
            DelegationOutcome(all_vote), comp);
        EXPECT_NEAR(tally.correct_probability(), exact_pm,
                    tally.error_bound() + 1e-12);
        EXPECT_NEAR(tally.direct_probability(), exact_pd,
                    tally.direct_error_bound() + 1e-12);
        EXPECT_LE(tally.error_bound(), epsilon);
        EXPECT_LE(tally.direct_error_bound(), epsilon);
        trace.emplace_back(tally.correct_probability(), tally.direct_probability());
    }
    return trace;
}

TEST(LiveTally, PatchSequenceTracksExactTallyWithinBound) {
    run_live_tally_sequence(0.0);
    run_live_tally_sequence(1e-8);
}

TEST(LiveTally, ResultsAreBitIdenticalAcrossKernelTiers) {
    // FactorTree combines on the tier table's window convolution, whose
    // tiers add the same products in the same order, so the live tally
    // must not move by a single bit when the kernels change tier — while
    // the *reference* DP inside run_live_tally_sequence re-verifies
    // agreement under each tier.
    const auto baseline = run_live_tally_sequence(1e-9);
    for (const SimdTier tier : kAllTiers) {
        TierGuard guard(tier);
        if (!guard.pinned()) continue;  // host lacks the ISA
        const auto pinned = run_live_tally_sequence(1e-9);
        ASSERT_EQ(pinned.size(), baseline.size());
        for (std::size_t i = 0; i < pinned.size(); ++i) {
            EXPECT_EQ(pinned[i].first, baseline[i].first);
            EXPECT_EQ(pinned[i].second, baseline[i].second);
        }
    }
}

// ------------------------------------------------- serve: instance.patch

constexpr const char* kGraph = "complete";
constexpr const char* kCompetencies = "uniform:0.3,0.7";
constexpr std::size_t kN = 30;
constexpr double kAlpha = 0.05;
constexpr std::uint64_t kSeed = 9;

serve::Request make_request(const std::string& method, json::Object params) {
    serve::Request request;
    request.id = json::Value(1.0);
    request.method = method;
    request.params = json::Value(std::move(params));
    request.admitted_at = std::chrono::steady_clock::now();
    return request;
}

json::Value call(serve::Router& router, const std::string& method,
                 json::Object params) {
    return json::parse(router.handle(make_request(method, std::move(params))));
}

std::string load_instance(serve::Router& router) {
    json::Object load;
    load.emplace("graph", json::Value(std::string(kGraph)));
    load.emplace("competencies", json::Value(std::string(kCompetencies)));
    load.emplace("n", json::Value(static_cast<double>(kN)));
    load.emplace("alpha", json::Value(kAlpha));
    load.emplace("seed", json::Value(static_cast<double>(kSeed)));
    const json::Value response = call(router, "instance.load", std::move(load));
    EXPECT_TRUE(response.at("ok").as_bool()) << json::dump(response);
    return response.at("result").at("instance").as_string();
}

json::Value op_delegate(std::size_t voter, std::size_t to) {
    json::Object op;
    op.emplace("op", json::Value(std::string("delegate")));
    op.emplace("voter", json::Value(static_cast<double>(voter)));
    op.emplace("to", json::Value(static_cast<double>(to)));
    return json::Value(std::move(op));
}

json::Value patch_request(serve::Router& router, const std::string& fingerprint,
                          json::Array ops,
                          std::optional<double> expect_epoch = {}) {
    json::Object params;
    params.emplace("instance", json::Value(fingerprint));
    params.emplace("ops", json::Value(std::move(ops)));
    if (expect_epoch) params.emplace("expect_epoch", json::Value(*expect_epoch));
    return call(router, "instance.patch", std::move(params));
}

TEST(ServePatch, EpochAdvancesAndSummaryTracksExactTally) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    const std::string fingerprint = load_instance(router);

    json::Array ops;
    ops.push_back(op_delegate(0, 1));
    ops.push_back(op_delegate(2, 1));
    const json::Value first = patch_request(router, fingerprint, std::move(ops));
    ASSERT_TRUE(first.at("ok").as_bool()) << json::dump(first);
    const json::Value& result = first.at("result");
    EXPECT_EQ(result.at("epoch").as_number(), 1.0);
    EXPECT_EQ(result.at("applied").as_number(), 2.0);
    EXPECT_EQ(result.at("rejected").as_number(), 0.0);
    EXPECT_EQ(result.at("voting_sinks").as_number(), static_cast<double>(kN - 2));
    EXPECT_EQ(result.at("cast_weight").as_number(), static_cast<double>(kN));

    // The live pm must match the exact DP of the same delegation state on
    // the same instance, within the certified bound.
    bool was_hit = false;
    serve::InstanceCache reference;
    const auto entry =
        reference.load(kGraph, kCompetencies, kN, kAlpha, kSeed, &was_hit);
    std::vector<mech::Action> actions(kN, mech::Action::vote());
    actions[0] = mech::Action::delegate_to(1);
    actions[2] = mech::Action::delegate_to(1);
    const double exact_pm = election::exact_correct_probability(
        DelegationOutcome(std::move(actions)), entry->instance.competencies());
    const double exact_pd = election::exact_direct_probability(entry->instance);
    const double pm_bound = result.at("pm_error_bound").as_number();
    const double pd_bound = result.at("pd_error_bound").as_number();
    EXPECT_NEAR(result.at("pm").as_number(), exact_pm, pm_bound + 1e-12);
    EXPECT_NEAR(result.at("pd").as_number(), exact_pd, pd_bound + 1e-12);
    EXPECT_NEAR(result.at("gain").as_number(),
                result.at("pm").as_number() - result.at("pd").as_number(), 1e-15);

    // expect_epoch guards the next write; a stale value is a conflict.
    json::Array more;
    more.push_back(op_delegate(3, 1));
    const json::Value second =
        patch_request(router, fingerprint, std::move(more), 1.0);
    ASSERT_TRUE(second.at("ok").as_bool()) << json::dump(second);
    EXPECT_EQ(second.at("result").at("epoch").as_number(), 2.0);

    json::Array stale_ops;
    stale_ops.push_back(op_delegate(4, 1));
    const json::Value stale =
        patch_request(router, fingerprint, std::move(stale_ops), 7.0);
    EXPECT_EQ(stale.at("error").at("code").as_string(), "conflict");
}

TEST(ServePatch, CycleOpsRejectedPerOpInsideOkResponse) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    const std::string fingerprint = load_instance(router);

    json::Array ops;
    ops.push_back(op_delegate(0, 1));
    ops.push_back(op_delegate(1, 0));  // would close a cycle
    const json::Value response = patch_request(router, fingerprint, std::move(ops));
    ASSERT_TRUE(response.at("ok").as_bool()) << json::dump(response);
    const json::Value& result = response.at("result");
    EXPECT_EQ(result.at("applied").as_number(), 1.0);
    EXPECT_EQ(result.at("rejected").as_number(), 1.0);
    const json::Array& per_op = result.at("results").as_array();
    ASSERT_EQ(per_op.size(), 2u);
    EXPECT_TRUE(per_op[0].at("applied").as_bool());
    EXPECT_FALSE(per_op[1].at("applied").as_bool());
    EXPECT_EQ(per_op[1].at("reason").as_string(), "cycle");
    // Rejected ops still advance the epoch: the epoch numbers requests.
    EXPECT_EQ(result.at("epoch").as_number(), 1.0);
}

TEST(ServePatch, StateReportsDelegationShape) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    const std::string fingerprint = load_instance(router);

    json::Array ops;
    ops.push_back(op_delegate(0, 1));
    ops.push_back(op_delegate(1, 2));
    {
        json::Object abstain;
        abstain.emplace("op", json::Value(std::string("abstain")));
        abstain.emplace("voter", json::Value(5.0));
        ops.push_back(json::Value(std::move(abstain)));
    }
    ASSERT_TRUE(patch_request(router, fingerprint, std::move(ops))
                    .at("ok")
                    .as_bool());

    json::Object params;
    params.emplace("instance", json::Value(fingerprint));
    const json::Value state = call(router, "instance.state", std::move(params));
    ASSERT_TRUE(state.at("ok").as_bool()) << json::dump(state);
    const json::Value& result = state.at("result");
    EXPECT_EQ(result.at("epoch").as_number(), 1.0);
    EXPECT_EQ(result.at("delegators").as_number(), 2.0);
    EXPECT_EQ(result.at("abstainers").as_number(), 1.0);
    EXPECT_EQ(result.at("max_weight").as_number(), 3.0);
    EXPECT_EQ(result.at("longest_path").as_number(), 2.0);
    EXPECT_EQ(result.at("cast_weight").as_number(), static_cast<double>(kN - 1));
}

TEST(ServePatch, UnknownInstanceIsNotFound) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    json::Array ops;
    ops.push_back(op_delegate(0, 1));
    const json::Value response = patch_request(router, "0xdead", std::move(ops));
    EXPECT_EQ(response.at("error").at("code").as_string(), "not_found");
    json::Object params;
    params.emplace("instance", json::Value(std::string("0xdead")));
    EXPECT_EQ(call(router, "instance.state", std::move(params))
                  .at("error")
                  .at("code")
                  .as_string(),
              "not_found");
}

/// Counts no JSON number may carry: too large for any integer type, negative,
/// fractional, and one step past 2⁵³ (where doubles start skipping integers).
const std::array<double, 4> kBadCounts = {1e300, -1.0, 2.5, 9007199254740994.0};

TEST(ServePatch, OutOfRangeCountsAreBadRequestsAndLeaveTheEpoch) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    const std::string fingerprint = load_instance(router);
    json::Array first;
    first.push_back(op_delegate(0, 1));
    ASSERT_TRUE(patch_request(router, fingerprint, std::move(first)).at("ok").as_bool());

    auto live_epoch = [&] {
        json::Object params;
        params.emplace("instance", json::Value(fingerprint));
        return call(router, "instance.state", std::move(params))
            .at("result")
            .at("epoch")
            .as_number();
    };
    for (const double bad : kBadCounts) {
        for (const std::string field : {"voter", "to", "expect_epoch"}) {
            json::Object op;
            op.emplace("op", json::Value(std::string("delegate")));
            op.emplace("voter", json::Value(field == "voter" ? bad : 3.0));
            op.emplace("to", json::Value(field == "to" ? bad : 1.0));
            json::Array ops;
            ops.emplace_back(std::move(op));
            std::optional<double> expect_epoch;
            if (field == "expect_epoch") expect_epoch = bad;
            const json::Value response =
                patch_request(router, fingerprint, std::move(ops), expect_epoch);
            ASSERT_FALSE(response.at("ok").as_bool()) << field << " = " << bad;
            EXPECT_EQ(response.at("error").at("code").as_string(), "bad_request")
                << field << " = " << bad;
            EXPECT_EQ(live_epoch(), 1.0) << field << " = " << bad;
        }
    }
}

TEST(ServeParams, InstanceLoadRejectsOutOfRangeCounts) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    for (const double bad : kBadCounts) {
        for (const std::string field : {"n", "seed"}) {
            json::Object load;
            load.emplace("graph", json::Value(std::string(kGraph)));
            load.emplace("competencies", json::Value(std::string(kCompetencies)));
            load.emplace("n", json::Value(field == "n" ? bad : static_cast<double>(kN)));
            load.emplace("alpha", json::Value(kAlpha));
            load.emplace("seed",
                         json::Value(field == "seed" ? bad : static_cast<double>(kSeed)));
            const json::Value response = call(router, "instance.load", std::move(load));
            ASSERT_FALSE(response.at("ok").as_bool()) << field << " = " << bad;
            EXPECT_EQ(response.at("error").at("code").as_string(), "bad_request")
                << field << " = " << bad;
        }
    }
    EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------- game on the engine

TEST(GameIncremental, ShuffleSeedReplaysTrajectoryExactly) {
    Rng instance_rng(3);
    const model::Instance inst(
        g::make_complete(24),
        model::uniform_competencies(instance_rng, 24, 0.2, 0.8), 0.05);

    game::GameOptions opts;
    opts.utility = game::Utility::Selfish;
    opts.shuffle_seed = 123;
    opts.record_trajectory = true;

    // Different caller-rng histories must not matter once shuffle_seed is
    // pinned: the trajectory replays byte-identically.
    Rng rng_a(5);
    Rng rng_b(99);
    rng_b.next();
    rng_b.next();
    const auto a = game::best_response_dynamics(inst, rng_a, opts);
    const auto b = game::best_response_dynamics(inst, rng_b, opts);
    ASSERT_TRUE(a.converged);
    EXPECT_EQ(a.profile, b.profile);
    EXPECT_EQ(a.deviations, b.deviations);
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    EXPECT_GT(a.trajectory.size(), 0u);
    for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
        EXPECT_EQ(a.trajectory[i].round, b.trajectory[i].round);
        EXPECT_EQ(a.trajectory[i].voter, b.trajectory[i].voter);
        EXPECT_EQ(a.trajectory[i].from, b.trajectory[i].from);
        EXPECT_EQ(a.trajectory[i].to, b.trajectory[i].to);
        EXPECT_EQ(a.trajectory[i].correct_probability,
                  b.trajectory[i].correct_probability);
        EXPECT_EQ(a.trajectory[i].gain, b.trajectory[i].gain);
    }
    EXPECT_TRUE(game::is_equilibrium(inst, a.profile, game::Utility::Selfish));
    // The final probability is re-derived by the exact DP.
    EXPECT_EQ(a.group_correct_probability,
              election::exact_correct_probability(
                  game::realize_profile(inst, a.profile), inst.competencies()));
}

TEST(GameIncremental, ViscousDecayStopsLongChains) {
    // 0 — 1 — 2 — 3 ascending: classic selfish chains 0→1→2→3, but with
    // viscosity 0.1 a delegated vote at depth d is worth 0.1^d of the
    // sink's competency, so every voter keeps their own vote.
    const model::Instance inst(g::make_path(4),
                               model::CompetencyVector({0.3, 0.5, 0.7, 0.9}),
                               0.05);
    Rng rng(1);
    game::GameOptions opts;
    opts.utility = game::Utility::Selfish;
    opts.viscosity = 0.1;
    const auto result = game::best_response_dynamics(inst, rng, opts);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.deviations, 0u);
    for (Vertex v = 0; v < 4; ++v) EXPECT_EQ(result.profile[v], v);
}

TEST(GameIncremental, CooperativeWithTruncatedTallyStillExactAtTheEnd) {
    Rng instance_rng(4);
    const model::Instance inst(
        g::make_complete(16),
        model::uniform_competencies(instance_rng, 16, 0.3, 0.7), 0.05);
    Rng rng(8);
    game::GameOptions opts;
    opts.utility = game::Utility::Cooperative;
    opts.shuffle_seed = 42;
    opts.tally_epsilon = 1e-9;
    const auto result = game::best_response_dynamics(inst, rng, opts);
    EXPECT_TRUE(result.converged);
    // Truncation is allowed along the trajectory, never in the final answer.
    EXPECT_EQ(result.group_correct_probability,
              election::exact_correct_probability(
                  game::realize_profile(inst, result.profile),
                  inst.competencies()));
    EXPECT_GE(result.gain_vs_direct, 0.0);
}

}  // namespace
