// Tests for the CLI spec factories, flag parsing, and end-to-end runs.

#include <gtest/gtest.h>

#include <sstream>

#include "graph/properties.hpp"
#include "graph/restrictions.hpp"
#include "ld/cli/runner.hpp"
#include "ld/cli/specs.hpp"
#include "ld/mech/mechanism.hpp"
#include "ld/model/instance.hpp"
#include "ld/model/competency_gen.hpp"
#include "malformed_specs.hpp"
#include "prob/convolve.hpp"
#include "support/cpu_features.hpp"
#include "support/expect.hpp"
#include "support/json.hpp"
#include <fstream>
#include <cstdio>
#include "graph/generators.hpp"

namespace {

namespace cli = ld::cli;
namespace g = ld::graph;
using ld::cli::SpecError;
using ld::rng::Rng;

TEST(GraphSpecs, BuildEveryFamily) {
    Rng rng(1);
    EXPECT_TRUE(g::is_complete(cli::make_graph("complete", 8, rng)));
    EXPECT_EQ(cli::make_graph("star", 8, rng).degree(0), 7u);
    EXPECT_TRUE(g::is_d_regular(cli::make_graph("cycle", 8, rng), 2));
    EXPECT_EQ(cli::make_graph("path", 8, rng).edge_count(), 7u);
    EXPECT_TRUE(g::is_d_regular(cli::make_graph("dregular:4", 10, rng), 4));
    EXPECT_GE(cli::make_graph("dout:3", 12, rng).edge_count(), 12u);
    EXPECT_EQ(cli::make_graph("gnm:11", 10, rng).edge_count(), 11u);
    EXPECT_EQ(cli::make_graph("ba:2", 20, rng).vertex_count(), 20u);
    EXPECT_EQ(cli::make_graph("ws:4,0.1", 20, rng).vertex_count(), 20u);
    EXPECT_EQ(cli::make_graph("twotier:3,1", 20, rng).vertex_count(), 20u);
    EXPECT_TRUE(g::min_degree_at_least(cli::make_graph("mindeg:3", 20, rng), 3));
    EXPECT_TRUE(g::max_degree_at_most(cli::make_graph("maxdeg:4", 20, rng), 4));
    const auto er = cli::make_graph("er:0.3", 30, rng);
    EXPECT_EQ(er.vertex_count(), 30u);
}

TEST(GraphSpecs, ErrorsAreDiagnosed) {
    Rng rng(2);
    EXPECT_THROW(cli::make_graph("nope", 5, rng), SpecError);
    EXPECT_THROW(cli::make_graph("dregular:abc", 5, rng), SpecError);
    EXPECT_THROW(cli::make_graph("ws:4", 10, rng), SpecError);        // missing beta
    EXPECT_THROW(cli::make_graph("dregular:2.5", 10, rng), SpecError);  // non-integer
    EXPECT_THROW(cli::make_graph("file:/no/such/file", 5, rng), SpecError);
}

// Counts are range-checked before the cast to an integer (casting NaN, inf
// or 1e300 to size_t is undefined), on the legacy heads and the facade.
TEST(GraphSpecs, NonFiniteAndHugeCountsAreRejected) {
    Rng rng(2);
    EXPECT_THROW(cli::make_graph("dout:1e300", 10, rng), SpecError);
    EXPECT_THROW(cli::make_graph("dregular:nan", 10, rng), SpecError);
    EXPECT_THROW(cli::make_graph("ba:inf", 10, rng), SpecError);
    EXPECT_THROW(cli::make_graph("rmat:nan", 16, rng), SpecError);
}

// Every malformed spec is a SpecError that quotes the spec and carries no
// source location, whether the parser or a builder's precondition refused
// it.
TEST(SpecErrors, MalformedSpecsAreQuotedWithoutASourceLocation) {
    using ld::test::SpecKind;
    for (const auto& [kind, spec] : ld::test::kMalformedSpecs) {
        SCOPED_TRACE(spec);
        Rng rng(4);
        try {
            if (kind == SpecKind::Graph) cli::make_graph(spec, 64, rng);
            if (kind == SpecKind::Competencies) cli::make_competencies(spec, 64, rng);
            if (kind == SpecKind::Mechanism) cli::make_mechanism(spec);
            ADD_FAILURE() << "no SpecError";
        } catch (const SpecError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("'" + std::string(spec) + "'"), std::string::npos)
                << what;
            EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
            EXPECT_EQ(what.find(".hpp:"), std::string::npos) << what;
        }
    }
}

// Fields keep std::stod's number syntax: exponents, hex, a leading dot.
TEST(SpecErrors, NumberSyntaxOfStodStaysAccepted) {
    Rng rng(5);
    EXPECT_TRUE(g::is_d_regular(cli::make_graph("dregular:4e0", 10, rng), 4));
    EXPECT_TRUE(g::is_d_regular(cli::make_graph("dregular:0x4", 10, rng), 4));
    EXPECT_EQ(cli::make_competencies("uniform:.3,7e-1", 10, rng).size(), 10u);
}

TEST(CompetencySpecs, BuildEveryProfile) {
    Rng rng(3);
    EXPECT_EQ(cli::make_competencies("uniform:0.2,0.8", 50, rng).size(), 50u);
    EXPECT_NEAR(cli::make_competencies("pc:0.1,0.2", 200, rng).mean(), 0.4, 1e-6);
    EXPECT_EQ(cli::make_competencies("beta:2,5", 10, rng).size(), 10u);
    EXPECT_EQ(cli::make_competencies("twopoint:0.2,0.8,0.5", 10, rng).size(), 10u);
    const auto star = cli::make_competencies("star:0.75,0.55", 5, rng);
    EXPECT_DOUBLE_EQ(star[0], 0.75);
    const auto constant = cli::make_competencies("const:0.6", 4, rng);
    for (double p : constant.values()) EXPECT_DOUBLE_EQ(p, 0.6);
    EXPECT_EQ(cli::make_competencies("tnormal:0.5,0.1,0.2,0.8", 20, rng).size(), 20u);
    EXPECT_EQ(cli::make_competencies("figure2", 9, rng).size(), 9u);
    EXPECT_THROW(cli::make_competencies("figure2", 10, rng), SpecError);
    EXPECT_THROW(cli::make_competencies("gauss:1", 5, rng), SpecError);
}

TEST(MechanismSpecs, BuildEveryMechanism) {
    for (const char* spec :
         {"direct", "threshold:2", "alg1:log", "alg1:sqrt", "alg1:lin,0.25",
          "alg2:8,2,pop", "alg2:8,2,nbr", "fraction:0.333", "best", "noisy:1,0.1",
          "multi:3,1", "capped:20", "abstain:0.5/threshold:2"}) {
        const auto m = cli::make_mechanism(spec);
        ASSERT_NE(m, nullptr) << spec;
        EXPECT_FALSE(m->name().empty()) << spec;
    }
}

TEST(MechanismSpecs, NestedAbstainWrapsInner) {
    const auto m = cli::make_mechanism("abstain:0.3/alg1:sqrt");
    EXPECT_TRUE(m->may_abstain());
    EXPECT_NE(m->name().find("Algorithm1"), std::string::npos);
}

TEST(MechanismSpecs, ErrorsAreDiagnosed) {
    EXPECT_THROW(cli::make_mechanism("nope"), SpecError);
    EXPECT_THROW(cli::make_mechanism("alg1:cubic"), SpecError);
    EXPECT_THROW(cli::make_mechanism("alg2:8,2,sideways"), SpecError);
    EXPECT_THROW(cli::make_mechanism("alg2:8"), SpecError);
    EXPECT_THROW(cli::make_mechanism("abstain:0.5"), SpecError);
    EXPECT_THROW(cli::make_mechanism("multi:2,1"), SpecError);
}

TEST(OptionParsing, DefaultsAndOverrides) {
    const auto defaults = cli::parse_options({});
    EXPECT_EQ(defaults.n, 100u);
    EXPECT_EQ(defaults.graph_spec, "complete");
    EXPECT_FALSE(defaults.audit);

    const auto parsed = cli::parse_options(
        {"--graph", "ba:3", "--n", "250", "--alpha", "0.1", "--reps", "50", "--seed",
         "9", "--audit", "--discard-cycles", "--mechanism", "best", "--competencies",
         "const:0.5", "--dot", "/tmp/out.dot"});
    EXPECT_EQ(parsed.graph_spec, "ba:3");
    EXPECT_EQ(parsed.n, 250u);
    EXPECT_DOUBLE_EQ(parsed.alpha, 0.1);
    EXPECT_EQ(parsed.eval.replications, 50u);
    EXPECT_EQ(parsed.seed, 9u);
    EXPECT_TRUE(parsed.audit);
    EXPECT_EQ(parsed.eval.cycle_policy, ld::delegation::CyclePolicy::Discard);
    EXPECT_EQ(parsed.mechanism_spec, "best");
    ASSERT_TRUE(parsed.dot_path.has_value());
    EXPECT_EQ(*parsed.dot_path, "/tmp/out.dot");
}

TEST(OptionParsing, ErrorsAreDiagnosed) {
    EXPECT_THROW(cli::parse_options({"--bogus"}), SpecError);
    EXPECT_THROW(cli::parse_options({"--n"}), SpecError);
    EXPECT_THROW(cli::parse_options({"--n", "many"}), SpecError);
}

// Numeric flags are checked before any cast: counts must be finite, whole
// and below 2^64; reals must be finite.
TEST(OptionParsing, NonFiniteAndOutOfRangeNumbersAreRejected) {
    for (const char* value : {"nan", "inf", "-inf", "1e300", "1e400", "-1", "2.5"}) {
        SCOPED_TRACE(value);
        EXPECT_THROW(cli::parse_options({"--n", value}), SpecError);
        EXPECT_THROW(cli::parse_options({"--seed", value}), SpecError);
        EXPECT_THROW(cli::parse_options({"--threads", value}), SpecError);
        EXPECT_THROW(cli::parse_sweep_options({"a.json", "--shard", std::string(value) + "/4"}),
                     SpecError);
    }
    for (const char* value : {"nan", "inf", "1e400"}) {
        SCOPED_TRACE(value);
        EXPECT_THROW(cli::parse_options({"--alpha", value}), SpecError);
        EXPECT_THROW(cli::parse_options({"--tally-eps", value}), SpecError);
        EXPECT_THROW(cli::parse_game_options({"--viscosity", value}), SpecError);
        EXPECT_THROW(cli::parse_game_options({"--tally-eps", value}), SpecError);
        EXPECT_THROW(cli::parse_serve_options({"--socket", "s", "--tally-eps", value}),
                     SpecError);
    }
    // A tally ε out of [0, 1) is refused by run, serve and game alike, with
    // a message that names the flag and carries no source location.
    const auto expect_eps_refused = [](const auto& parse) {
        try {
            parse();
            ADD_FAILURE() << "accepted";
        } catch (const SpecError& e) {
            EXPECT_EQ(std::string(e.what()), "--tally-eps: must be in [0, 1)");
        }
    };
    for (const std::string value : {"2", "-1"}) {
        SCOPED_TRACE(value);
        expect_eps_refused([&] { cli::parse_options({"--tally-eps", value}); });
        expect_eps_refused(
            [&] { cli::parse_serve_options({"--socket", "s", "--tally-eps", value}); });
        expect_eps_refused([&] { cli::parse_game_options({"--tally-eps", value}); });
    }
    EXPECT_EQ(cli::parse_options({"--n", "1e3"}).n, 1000u);
    EXPECT_EQ(cli::parse_options({"--seed", "0x10"}).seed, 16u);

    // An alpha that parses but is not > 0 is refused when the instance is
    // built, as a SpecError rather than a library precondition.
    cli::Options options;
    options.alpha = -1.0;
    options.n = 10;
    options.eval.replications = 5;
    std::ostringstream out;
    EXPECT_THROW(cli::run(options, out), SpecError);
}

TEST(Runner, HelpPrintsUsage) {
    cli::Options options;
    options.help = true;
    std::ostringstream out;
    EXPECT_EQ(cli::run(options, out), 0);
    EXPECT_NE(out.str().find("usage: liquidd"), std::string::npos);
}

TEST(Runner, EndToEndGainReport) {
    cli::Options options;
    options.graph_spec = "complete";
    options.competency_spec = "pc:0.02,0.2";
    options.mechanism_spec = "threshold:1";
    options.n = 60;
    options.eval.replications = 40;
    std::ostringstream out;
    EXPECT_EQ(cli::run(options, out), 0);
    const std::string text = out.str();
    EXPECT_NE(text.find("P^D (exact)"), std::string::npos);
    EXPECT_NE(text.find("gain"), std::string::npos);
    EXPECT_NE(text.find("ApprovalSizeThreshold"), std::string::npos);
}

TEST(Runner, AuditSectionAppearsOnRequest) {
    cli::Options options;
    options.n = 40;
    options.eval.replications = 20;
    options.audit = true;
    std::ostringstream out;
    EXPECT_EQ(cli::run(options, out), 0);
    EXPECT_NE(out.str().find("Lemma 3 audit"), std::string::npos);
    EXPECT_NE(out.str().find("Lemma 5 audit"), std::string::npos);
}

TEST(Runner, NoisyMechanismRequiresDiscardFlag) {
    cli::Options options;
    options.mechanism_spec = "noisy:1,0.2";
    options.n = 30;
    options.eval.replications = 10;
    std::ostringstream out;
    EXPECT_THROW(cli::run(options, out), SpecError);
    options.eval.cycle_policy = ld::delegation::CyclePolicy::Discard;
    EXPECT_EQ(cli::run(options, out), 0);
}

TEST(OptionParsing, MetricsOutFlag) {
    const auto parsed = cli::parse_options({"--metrics-out", "/tmp/m.json"});
    ASSERT_TRUE(parsed.metrics_out.has_value());
    EXPECT_EQ(*parsed.metrics_out, "/tmp/m.json");
    EXPECT_THROW(cli::parse_options({"--metrics-out"}), SpecError);
}

TEST(OptionParsing, SimdFlag) {
    EXPECT_EQ(cli::parse_options({}).simd, "auto");
    EXPECT_EQ(cli::parse_options({"--simd", "scalar"}).simd, "scalar");
    EXPECT_THROW(cli::parse_options({"--simd"}), SpecError);
}

TEST(Runner, SimdUnknownTierIsAHardError) {
    cli::Options options;
    options.n = 20;
    options.eval.replications = 5;
    options.simd = "sse9";
    std::ostringstream out;
    EXPECT_THROW(cli::run(options, out), SpecError);
}

TEST(Runner, SimdScalarPinRunsAndRestores) {
    // `scalar` is executable on every host, so pinning it must succeed;
    // restore the auto tier afterwards so later tests see the default.
    const ld::support::SimdTier before = ld::prob::kernel_tier();
    cli::Options options;
    options.n = 40;
    options.eval.replications = 20;
    options.simd = "scalar";
    std::ostringstream out;
    EXPECT_EQ(cli::run(options, out), 0);
    EXPECT_EQ(ld::prob::kernel_tier(), ld::support::SimdTier::kScalar);
    ASSERT_TRUE(ld::prob::set_kernel_tier(before));
}

TEST(Runner, MetricsOutWritesParseableJson) {
    const std::string path = ::testing::TempDir() + "/liquidd_metrics_test.json";
    cli::Options options;
    options.n = 40;
    options.eval.replications = 30;
    options.eval.threads = 2;
    options.metrics_out = path;
    std::ostringstream out;
    EXPECT_EQ(cli::run(options, out), 0);
    EXPECT_NE(out.str().find("wrote metrics report"), std::string::npos);

    namespace json = ld::support::json;
    const json::Value doc = json::parse_file(path);
    EXPECT_EQ(doc.at("schema").as_string(), "liquidd.metrics.v1");
    // The run must have been counted: at least this call's replications
    // (the process-wide registry may hold more from earlier calls).
    EXPECT_GE(doc.at("counters").at("engine.replications").as_number(), 30.0);
    EXPECT_GE(doc.at("counters").at("engine.workspace_created").as_number(), 1.0);
    const json::Value& latency = doc.at("histograms").at("estimate.latency");
    EXPECT_GE(latency.at("count").as_number(), 1.0);
    EXPECT_GT(latency.at("total_seconds").as_number(), 0.0);
    EXPECT_TRUE(doc.at("derived").contains("replications_per_sec"));
    EXPECT_GT(doc.at("derived").at("replications_per_sec").as_number(), 0.0);
    EXPECT_TRUE(doc.at("gauges").contains("pool.queue_depth"));
    std::remove(path.c_str());
}

TEST(Runner, DotExportWritesAFile) {
    const std::string path = ::testing::TempDir() + "/liquidd_cli_test.dot";
    cli::Options options;
    options.n = 12;
    options.eval.replications = 5;
    options.dot_path = path;
    std::ostringstream out;
    EXPECT_EQ(cli::run(options, out), 0);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_NE(first_line.find("digraph"), std::string::npos);
    std::remove(path.c_str());
}

}  // namespace
