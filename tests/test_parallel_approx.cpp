// Tests for the parallel replication runner and the Lemma-4 approximate
// tally path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fnv1a.hpp"
#include "graph/generators.hpp"
#include "ld/cli/specs.hpp"
#include "ld/delegation/realize.hpp"
#include "ld/election/engine.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/election/tally.hpp"
#include "ld/mech/approval_size_threshold.hpp"
#include "ld/mech/direct.hpp"
#include "ld/mech/multi_delegate.hpp"
#include "ld/model/competency_gen.hpp"
#include "support/expect.hpp"

namespace {

namespace election = ld::election;
namespace g = ld::graph;
namespace mech = ld::mech;
namespace model = ld::model;
using ld::rng::Rng;
using ld::support::ContractViolation;
using ld::test::fnv1a_fold;
using ld::test::kFnvOffset;

model::Instance pc_instance(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    return model::Instance(g::make_complete(n),
                           model::pc_competencies(rng, n, 0.02, 0.25), 0.05);
}

TEST(ParallelEval, MatchesSequentialWithinError) {
    const auto inst = pc_instance(150, 1);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions seq;
    seq.replications = 400;
    election::EvalOptions par = seq;
    par.threads = 4;

    Rng rng_a(7), rng_b(7);
    const auto est_seq = election::estimate_correct_probability(m, inst, rng_a, seq);
    const auto est_par = election::estimate_correct_probability(m, inst, rng_b, par);
    EXPECT_EQ(est_par.replications, 400u);
    EXPECT_NEAR(est_par.value, est_seq.value,
                4.0 * (est_seq.std_error + est_par.std_error) + 1e-6);
}

TEST(ParallelEval, DeterministicForFixedSeedAndThreads) {
    const auto inst = pc_instance(100, 2);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.replications = 120;
    opts.threads = 3;
    Rng rng_a(11), rng_b(11);
    const auto r1 = election::estimate_correct_probability(m, inst, rng_a, opts);
    const auto r2 = election::estimate_correct_probability(m, inst, rng_b, opts);
    EXPECT_DOUBLE_EQ(r1.value, r2.value);
    EXPECT_DOUBLE_EQ(r1.std_error, r2.std_error);
}

TEST(ParallelEval, MoreThreadsThanReplicationsIsFine) {
    const auto inst = pc_instance(40, 3);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.replications = 3;
    opts.threads = 16;
    Rng rng(1);
    const auto est = election::estimate_correct_probability(m, inst, rng, opts);
    EXPECT_EQ(est.replications, 3u);
}

TEST(ParallelEval, ZeroThreadsRejected) {
    const auto inst = pc_instance(20, 4);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.threads = 0;
    Rng rng(1);
    EXPECT_THROW(election::estimate_correct_probability(m, inst, rng, opts),
                 ContractViolation);
}

// The fields computed with +, −, ×, ÷ and sqrt alone.  The intervals
// (`ci`, `gain_ci`, the certificate's endpoints) go through libm's log
// and exp, so they stay out of the pin.
void fold_estimate(std::uint64_t& hash, const election::Estimate& e) {
    fnv1a_fold(hash, e.value);
    fnv1a_fold(hash, e.std_error);
    fnv1a_fold(hash, std::uint64_t{e.replications});
    if (e.certified) {
        fnv1a_fold(hash, std::uint64_t{e.certified->replications});
        fnv1a_fold(hash, std::uint64_t{e.certified->looks});
        fnv1a_fold(hash, static_cast<std::uint64_t>(e.certified->stop));
    }
}

void fold_gain(std::uint64_t& hash, const election::GainReport& r) {
    fold_estimate(hash, r.pm);
    fnv1a_fold(hash, r.pd);
    fnv1a_fold(hash, r.mean_delegators);
    fnv1a_fold(hash, r.mean_max_weight);
    fnv1a_fold(hash, r.mean_sinks);
    fnv1a_fold(hash, r.mean_longest_path);
}

// Every seeded estimate comes out of the replication loop, so its reports
// and the caller's Rng position are pinned per stop rule: fixed count,
// standard-error target and certificate, each over thread counts, tally
// routes and mechanisms (two with sampled inner steps, one that can form
// cycles).  The threads-vs-seeding contract is part of the pin: fixed and
// SE runs key their streams by (seed, threads), certified runs by
// (seed, replication index).
TEST(ParallelEval, ReportsMatchRecordedDigests) {
    const auto inst = [] {
        Rng build(3);
        auto graph = g::make_random_d_regular(build, 48, 6);
        auto p = model::uniform_competencies(build, 48, 0.5, 0.57);
        return model::Instance(std::move(graph), std::move(p), 0.05);
    }();
    std::vector<std::uint64_t> weights(inst.voter_count());
    for (std::size_t i = 0; i < weights.size(); ++i) weights[i] = 1 + (i * 7) % 5;

    struct StopRule {
        const char* name;
        election::EvalOptions options;
        std::uint64_t digest;
    };
    StopRule rules[] = {
        {"fixed", {}, 0x43c3875f55bb7180ULL},
        {"se-target", {}, 0x93f36573759f2d56ULL},
        {"certified", {}, 0xcf93e1c942736cabULL},
    };
    rules[0].options.replications = 77;
    rules[1].options.target_std_error = 3e-3;
    rules[1].options.adaptive_batch = 24;
    rules[1].options.max_replications = 500;
    rules[2].options.certify.gamma = 0.02;
    rules[2].options.certify.delta = 0.05;
    rules[2].options.adaptive_batch = 24;
    rules[2].options.max_replications = 400;

    const char* mechanisms[] = {"threshold:1", "multi:3,1", "abstain:0.2/threshold:1",
                                "noisy:1,0.1"};
    for (const StopRule& rule : rules) {
        std::uint64_t hash = kFnvOffset;
        std::uint64_t seed = 1;
        for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
            for (const double eps : {1e-12, 0.0}) {
                for (const char* spec : mechanisms) {
                    const auto m = ld::cli::make_mechanism(spec);
                    election::EvalOptions opts = rule.options;
                    opts.threads = threads;
                    opts.tally_epsilon = eps;
                    if (!m->approval_respecting()) {
                        opts.cycle_policy = ld::delegation::CyclePolicy::Discard;
                    }
                    Rng rng_p(seed++);
                    const auto pm =
                        election::estimate_correct_probability(*m, inst, rng_p, opts);
                    fold_estimate(hash, pm);
                    fnv1a_fold(hash, rng_p.next());
                    Rng rng_g(seed++);
                    fold_gain(hash, election::estimate_gain(*m, inst, rng_g, opts));
                    fnv1a_fold(hash, rng_g.next());
                    opts.initial_weights = weights;
                    Rng rng_w(seed++);
                    fold_gain(hash, election::estimate_gain(*m, inst, rng_w, opts));
                    fnv1a_fold(hash, rng_w.next());
                }
            }
        }
        EXPECT_EQ(hash, rule.digest) << rule.name << std::hex << " digest 0x" << hash;
    }
}

// Every report field, the intervals included, for the tests below that
// compare reports of one tree against recorded digests or fresh engines.
void fold_every_field(std::uint64_t& hash, const election::Estimate& e) {
    fold_estimate(hash, e);
    fnv1a_fold(hash, e.ci.lo);
    fnv1a_fold(hash, e.ci.hi);
    if (e.certified) {
        fnv1a_fold(hash, e.certified->lo);
        fnv1a_fold(hash, e.certified->hi);
        fnv1a_fold(hash, e.certified->delta);
        fnv1a_fold(hash, e.certified->numerical_error);
    }
}

void fold_every_field(std::uint64_t& hash, const election::GainReport& r) {
    fold_gain(hash, r);
    fold_every_field(hash, r.pm);
    fnv1a_fold(hash, r.gain);
    fnv1a_fold(hash, r.gain_ci.lo);
    fnv1a_fold(hash, r.gain_ci.hi);
    if (r.certified_gain) {
        fnv1a_fold(hash, r.certified_gain->lo);
        fnv1a_fold(hash, r.certified_gain->hi);
    }
}

model::Instance dregular_instance(std::size_t n, std::uint64_t seed) {
    Rng build(seed);
    auto graph = ld::cli::make_graph("dregular:8", n, build);
    auto p = ld::cli::make_competencies("uniform:0.3,0.7", n, build);
    return model::Instance(std::move(graph), std::move(p), 0.05);
}

// The paper's threshold mechanisms fix who delegates on an instance and
// draw only the delegate, so their replications can run on a voter list
// built once per estimate.  Their reports, every field, and the caller's
// Rng position are pinned per stop rule over both calls, 1 and 3
// threads, the three tally routes (a certificate refuses the normal one)
// and an instance on each side of mech::kListFrom.
TEST(ParallelEval, ThresholdMechanismsMatchRecordedDigests) {
    const model::Instance instances[] = {dregular_instance(600, 5),
                                         dregular_instance(3000, 6)};
    ASSERT_LT(instances[0].voter_count(), mech::kListFrom);
    ASSERT_GT(instances[1].voter_count(), mech::kListFrom);

    struct StopRule {
        const char* name;
        election::EvalOptions options;
        std::uint64_t digest;
    };
    StopRule rules[] = {
        {"fixed", {}, 0x3a8d2772bf86cd9cULL},
        {"se-target", {}, 0x7e646975242105b4ULL},
        {"certified", {}, 0x9b29ab2d10e294b2ULL},
    };
    rules[0].options.replications = 10;
    rules[1].options.target_std_error = 2e-3;
    rules[1].options.adaptive_batch = 6;
    rules[1].options.max_replications = 30;
    rules[2].options.certify.gamma = 0.01;
    rules[2].options.certify.delta = 0.05;
    rules[2].options.adaptive_batch = 6;
    rules[2].options.max_replications = 30;

    const char* mechanisms[] = {"threshold:1", "threshold:2",   "alg1:sqrt",
                                "alg1:log",    "alg1:lin,0.3", "fraction:0.3"};
    for (const StopRule& rule : rules) {
        std::uint64_t hash = kFnvOffset;
        std::uint64_t seed = 1;
        for (const model::Instance& inst : instances) {
            for (const std::size_t threads : {1u, 3u}) {
                for (const double eps : {1e-12, 0.0, -1.0}) {  // -1: the normal route
                    if (eps < 0.0 && rule.options.certify.enabled()) continue;
                    for (const char* spec : mechanisms) {
                        const auto m = ld::cli::make_mechanism(spec);
                        election::EvalOptions opts = rule.options;
                        opts.threads = threads;
                        opts.approximate_tally = eps < 0.0;
                        opts.tally_epsilon = std::max(eps, 0.0);
                        Rng rng_p(seed++);
                        fold_every_field(hash, election::estimate_correct_probability(
                                                   *m, inst, rng_p, opts));
                        fnv1a_fold(hash, rng_p.next());
                        Rng rng_g(seed++);
                        fold_every_field(hash,
                                         election::estimate_gain(*m, inst, rng_g, opts));
                        fnv1a_fold(hash, rng_g.next());
                    }
                }
            }
        }
        EXPECT_EQ(hash, rule.digest) << rule.name << std::hex << " digest 0x" << hash;
    }
}

void expect_same_report(const election::GainReport& got,
                        const election::GainReport& want) {
    EXPECT_EQ(got.pm.value, want.pm.value);
    EXPECT_EQ(got.pm.std_error, want.pm.std_error);
    EXPECT_EQ(got.pm.ci.lo, want.pm.ci.lo);
    EXPECT_EQ(got.pm.ci.hi, want.pm.ci.hi);
    EXPECT_EQ(got.pm.replications, want.pm.replications);
    EXPECT_EQ(got.pm.certified.has_value(), want.pm.certified.has_value());
    EXPECT_EQ(got.pd, want.pd);
    EXPECT_EQ(got.gain, want.gain);
    EXPECT_EQ(got.gain_ci.lo, want.gain_ci.lo);
    EXPECT_EQ(got.gain_ci.hi, want.gain_ci.hi);
    EXPECT_EQ(got.mean_delegators, want.mean_delegators);
    EXPECT_EQ(got.mean_max_weight, want.mean_max_weight);
    EXPECT_EQ(got.mean_sinks, want.mean_sinks);
    EXPECT_EQ(got.mean_longest_path, want.mean_longest_path);
    EXPECT_EQ(got.certified_gain.has_value(), want.certified_gain.has_value());
}

// One engine's workspaces run listed and unlisted mechanisms on three
// instances in turn; state a workspace keeps for one estimate must never
// leak into the next, so each report matches a fresh engine's.
TEST(ParallelEval, WorkspaceReuseAcrossMechanismsAndInstances) {
    const model::Instance a = dregular_instance(3000, 21);
    const model::Instance b = dregular_instance(3000, 22);
    const model::Instance c = dregular_instance(700, 23);
    struct Step {
        const char* spec;
        const model::Instance* instance;
    };
    const Step steps[] = {{"threshold:1", &a}, {"noisy:1,0.1", &a}, {"alg1:sqrt", &b},
                          {"multi:3,1", &a},   {"threshold:1", &c}, {"threshold:1", &a}};
    election::ReplicationEngine reused;
    std::uint64_t seed = 61;
    for (const Step& step : steps) {
        SCOPED_TRACE(std::string(step.spec) + " n " +
                     std::to_string(step.instance->voter_count()));
        const auto m = ld::cli::make_mechanism(step.spec);
        election::EvalOptions opts;
        opts.replications = 12;
        opts.threads = 3;
        opts.approximate_tally = true;
        if (!m->approval_respecting()) {
            opts.cycle_policy = ld::delegation::CyclePolicy::Discard;
        }
        opts.engine = &reused;
        Rng rng_reused(seed);
        const auto got = election::estimate_gain(*m, *step.instance, rng_reused, opts);
        election::ReplicationEngine fresh;
        opts.engine = &fresh;
        Rng rng_fresh(seed++);
        const auto want = election::estimate_gain(*m, *step.instance, rng_fresh, opts);
        expect_same_report(got, want);
        EXPECT_EQ(rng_reused.next(), rng_fresh.next());
    }
}

TEST(ParallelEval, PooledThreadCountsAgreeWithinError) {
    const auto inst = pc_instance(130, 13);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions base;
    base.replications = 300;

    std::vector<election::Estimate> estimates;
    for (std::size_t threads : {1u, 2u, 4u}) {
        auto opts = base;
        opts.threads = threads;
        Rng rng(31);
        estimates.push_back(election::estimate_correct_probability(m, inst, rng, opts));
    }
    for (std::size_t i = 1; i < estimates.size(); ++i) {
        EXPECT_NEAR(estimates[i].value, estimates[0].value,
                    4.0 * (estimates[i].std_error + estimates[0].std_error) + 1e-6);
        EXPECT_EQ(estimates[i].replications, 300u);
    }
}

TEST(ParallelEval, WorkspaceReuseAcrossDifferentInstanceSizes) {
    // Two consecutive estimates through one engine exercise workspace
    // buffers sized by the *first* instance on the larger/smaller second
    // one; results must match fresh-engine evaluations exactly.
    const auto small = pc_instance(60, 14);
    const auto large = pc_instance(180, 15);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions reused_opts;
    reused_opts.replications = 80;
    reused_opts.threads = 2;

    election::ReplicationEngine reused;
    reused_opts.engine = &reused;
    Rng rng_a(41), rng_b(42);
    const auto large_reused = election::estimate_gain(m, large, rng_a, reused_opts);
    const auto small_reused = election::estimate_gain(m, small, rng_b, reused_opts);

    auto fresh_opts = reused_opts;
    election::ReplicationEngine fresh_a, fresh_b;
    Rng rng_c(41), rng_d(42);
    fresh_opts.engine = &fresh_a;
    const auto large_fresh = election::estimate_gain(m, large, rng_c, fresh_opts);
    fresh_opts.engine = &fresh_b;
    const auto small_fresh = election::estimate_gain(m, small, rng_d, fresh_opts);

    EXPECT_DOUBLE_EQ(large_reused.pm.value, large_fresh.pm.value);
    EXPECT_DOUBLE_EQ(large_reused.mean_max_weight, large_fresh.mean_max_weight);
    EXPECT_DOUBLE_EQ(small_reused.pm.value, small_fresh.pm.value);
    EXPECT_DOUBLE_EQ(small_reused.mean_max_weight, small_fresh.mean_max_weight);
}

TEST(ParallelEval, MultiDelegationWithoutInnerSamplesRejectedUpFront) {
    const auto inst = pc_instance(30, 16);
    const mech::MultiDelegate m(3, 3);
    election::EvalOptions opts;
    opts.replications = 10;
    opts.inner_samples = 0;  // no exact inner step exists for multi-delegation
    opts.cycle_policy = ld::delegation::CyclePolicy::Discard;
    Rng rng(1);
    EXPECT_THROW(election::estimate_correct_probability(m, inst, rng, opts),
                 ContractViolation);
}

TEST(ParallelEval, GainValidatesOptionsBeforeTheDirectBaseline) {
    // P^D is a full exact DP; an invalid call must fail on the evaluator's
    // own precondition before paying for it.
    const auto inst = pc_instance(30, 17);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.initial_weights.assign(inst.voter_count() + 1, 1);
    Rng rng(1);
    try {
        election::estimate_gain(m, inst, rng, opts);
        FAIL() << "estimate_gain accepted a wrong-length initial_weights";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("estimate: initial_weights"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ParallelEval, GainReportViaThreads) {
    const auto inst = pc_instance(200, 5);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions opts;
    opts.replications = 200;
    opts.threads = 4;
    Rng rng(2);
    const auto report = election::estimate_gain(m, inst, rng, opts);
    EXPECT_GT(report.gain, 0.2);  // PC regime: delegation rescues the vote
    EXPECT_GT(report.mean_delegators, 100.0);
    EXPECT_GE(report.mean_max_weight, 1.0);
}

TEST(ApproxTally, CloseToExactOnModerateInstances) {
    Rng rng(6);
    const auto inst = pc_instance(300, 7);
    const mech::ApprovalSizeThreshold m(1);
    for (int rep = 0; rep < 10; ++rep) {
        const auto out = ld::delegation::realize(m, inst, rng);
        const double exact =
            election::exact_correct_probability(out, inst.competencies());
        const double approx =
            election::approx_correct_probability(out, inst.competencies());
        EXPECT_NEAR(approx, exact, 0.05);
    }
}

TEST(ApproxTally, HandlesDegenerateCases) {
    // All abstain → 0.
    {
        std::vector<ld::mech::Action> actions{ld::mech::Action::delegate_to(1),
                                              ld::mech::Action::abstain()};
        const ld::delegation::DelegationOutcome out(std::move(actions));
        EXPECT_EQ(election::approx_correct_probability(
                      out, model::CompetencyVector({0.5, 0.5})),
                  0.0);
    }
    // Deterministic dictator (p = 1) → 1; (p = 0) → 0.
    for (double p : {0.0, 1.0}) {
        std::vector<ld::mech::Action> actions{ld::mech::Action::vote(),
                                              ld::mech::Action::delegate_to(0)};
        const ld::delegation::DelegationOutcome out(std::move(actions));
        EXPECT_EQ(election::approx_correct_probability(
                      out, model::CompetencyVector({p, 0.5})),
                  p);
    }
}

TEST(ApproxTally, EvaluatorFlagProducesSimilarGain) {
    const auto inst = pc_instance(250, 8);
    const mech::ApprovalSizeThreshold m(1);
    election::EvalOptions exact_opts;
    exact_opts.replications = 150;
    auto approx_opts = exact_opts;
    approx_opts.approximate_tally = true;
    Rng rng_a(3), rng_b(3);
    const auto exact = election::estimate_gain(m, inst, rng_a, exact_opts);
    const auto approx = election::estimate_gain(m, inst, rng_b, approx_opts);
    EXPECT_NEAR(approx.gain, exact.gain, 0.05);
}

TEST(ApproxTally, ScalesToHugeInstances) {
    // n = 50k would be prohibitive for the exact DP; the approximation
    // finishes quickly and agrees with the Condorcet limit.
    Rng rng(9);
    const std::size_t n = 50000;
    std::vector<ld::mech::Action> actions(n, ld::mech::Action::vote());
    const ld::delegation::DelegationOutcome out(std::move(actions));
    const auto p = model::uniform_competencies(rng, n, 0.51, 0.55);
    const double approx = election::approx_correct_probability(out, p);
    EXPECT_GT(approx, 0.999);  // mean 0.53, margin ~ 30 sigma
}

}  // namespace
