// Pins what the evaluation knobs of `liquidd run`, sweep specs and served
// evals mean, each through its front's own entry point: the spec
// fingerprints sweep checkpoints record, the message each front gives a
// refused value, and the numbers a sweep row and a served eval report,
// against a direct estimate_gain call whose EvalOptions are written out by
// hand.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ld/cli/runner.hpp"
#include "ld/cli/specs.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/experiments/sweep.hpp"
#include "ld/serve/router.hpp"
#include "support/json.hpp"

namespace {

namespace cli = ld::cli;
namespace exp = ld::experiments;
namespace json = ld::support::json;
namespace serve = ld::serve;
using ld::election::EvalOptions;
using ld::stats::CsBoundary;

constexpr const char* kGraph = "complete";
constexpr const char* kCompetencies = "uniform:0.3,0.7";
constexpr std::size_t kN = 120;
constexpr double kAlpha = 0.05;

/// A one-cell sweep spec over the fixed instance; `top` holds extra
/// top-level members (each followed by ", ").
std::string sweep_text(const std::string& mechanism, const std::string& options,
                       const std::string& top = "") {
    return R"({"name": "knobs", "seed": 5, )" + top +
           R"("axes": {"n": [120], "alpha": [0.05], "graph": ["complete"],
           "competencies": ["uniform:0.3,0.7"], "mechanism": [")" +
           mechanism + R"("]}, "options": )" + options + "}";
}

exp::SweepSpec sweep_spec(const std::string& options, const std::string& top = "",
                          const std::string& mechanism = "threshold:1") {
    return exp::SweepSpec::from_json(json::parse(sweep_text(mechanism, options, top)));
}

/// The full message of what `fn` throws, or "accepted" when it throws
/// nothing.
template <typename Fn>
std::string refusal(Fn fn) {
    try {
        fn();
    } catch (const std::exception& e) {
        return e.what();
    }
    return "accepted";
}

/// Run `spec` to a JSON-lines file and return its rows.
std::vector<json::Value> sweep_rows(const exp::SweepSpec& spec, const std::string& tag) {
    exp::SweepOptions options;
    options.output_path = ::testing::TempDir() + "/eval_knobs_" + tag + ".jsonl";
    options.quiet = true;
    exp::SweepEngine(spec, options).run(std::cout);
    std::vector<json::Value> rows;
    std::ifstream in(options.output_path);
    for (std::string line; std::getline(in, line);) rows.push_back(json::parse(line));
    return rows;
}

/// The one-shot path, written out: one Rng at `seed` builds the instance,
/// then drives the replications.
ld::election::GainReport direct(const std::string& mechanism, std::uint64_t seed,
                                const EvalOptions& eval) {
    ld::rng::Rng rng(seed);
    const auto instance = cli::make_instance(kGraph, kCompetencies, kN, kAlpha, rng);
    const auto m = cli::make_mechanism(mechanism);
    return ld::election::estimate_gain(*m, instance, rng, eval);
}

// Fingerprints ------------------------------------------------------------

TEST(EvalKnobs, SweepFingerprintsMatchRecordedValues) {
    const std::string dir = std::string(LIQUIDD_SOURCE_DIR) + "/examples/sweeps/";
    const std::pair<const char*, std::uint64_t> examples[] = {
        {"alpha_grid.json", 0xc1bd7de21626afd9ULL},
        {"ci_smoke.json", 0x81a97e00f5925b93ULL},
        {"fig1_star.json", 0xce3997fe1a7d4823ULL},
    };
    for (const auto& [file, fingerprint] : examples) {
        EXPECT_EQ(exp::SweepSpec::load(dir + file).fingerprint(), fingerprint) << file;
    }

    // Every options key off its default.  `approximate` excludes
    // certification, so two specs share the keys between them.
    const auto certified = sweep_spec(
        R"({"threads": 3, "inner_samples": 5, "discard_cycles": true, "target_se": 0.01,
            "adaptive_batch": 32, "max_reps": 5000, "tally_eps": 0.001,
            "certify_gamma": 0.02, "certify_delta": 0.05,
            "certify_boundary": "hoeffding"})",
        R"("replications": 33, )");
    EXPECT_EQ(certified.fingerprint(), 0x74aff49d36fccd65ULL);
    const auto approximate = sweep_spec(
        R"({"threads": 2, "inner_samples": 3, "discard_cycles": true, "approximate": true,
            "target_se": 0.02, "adaptive_batch": 16, "max_reps": 700, "tally_eps": 0,
            "certify_gamma": -0.1, "certify_boundary": "eb"})",
        R"("replications": 44, )");
    EXPECT_EQ(approximate.fingerprint(), 0x7a650a2cc32e2dfcULL);

    // The fingerprint hashes the boundary as written.
    const std::pair<const char*, std::uint64_t> boundaries[] = {
        {"eb", 0xdbf8cfb094f4513dULL},
        {"empirical-bernstein", 0xbcd298f6833b71adULL},
        {"empirical_bernstein", 0x9c4ab39a0bcf716fULL},
        {"hoeffding", 0xd1617eff4034181eULL},
    };
    for (const auto& [boundary, fingerprint] : boundaries) {
        const std::string options =
            std::string(R"({"certify_boundary": ")") + boundary + "\"}";
        EXPECT_EQ(sweep_spec(options).fingerprint(), fingerprint) << boundary;
    }
}

// Refusals ----------------------------------------------------------------

TEST(EvalKnobs, RunRefusalMessages) {
    const auto parse = [](const std::vector<std::string>& args) {
        return refusal([&] { cli::parse_options(args); });
    };
    EXPECT_EQ(parse({"--reps", "x"}), "--reps: not a finite number: 'x'");
    EXPECT_EQ(parse({"--threads", "-1"}),
              "--threads: not a whole number in [0, 2^64): -1");
    EXPECT_EQ(parse({"--target-se", "-1"}), "--target-se: must be >= 0");
    EXPECT_EQ(parse({"--max-reps", "0"}), "--max-reps: must be >= 1");
    EXPECT_EQ(parse({"--tally-eps", "1"}), "--tally-eps: must be in [0, 1)");
    EXPECT_EQ(parse({"--certify", "x", "0.1"}),
              "--certify <gamma>: not a finite number: 'x'");
    EXPECT_EQ(parse({"--certify", "0.05", "1.5"}), "--certify: delta must be in (0, 1)");
    EXPECT_EQ(parse({"--cs-boundary", "gaussian"}),
              "--cs-boundary: unknown confidence-sequence boundary (want hoeffding, "
              "empirical_bernstein, or eb): gaussian");

    // --approx and --discard-cycles take no value; a mechanism that can
    // make cycles is refused without --discard-cycles.
    const auto run = [](const std::vector<std::string>& args) {
        return refusal([&] {
            std::ostringstream out;
            cli::run(cli::parse_options(args), out);
        });
    };
    EXPECT_EQ(run({"--mechanism", "noisy:1,0.2", "--n", "20", "--reps", "5"}),
              "mechanism 'noisy:1,0.2' can create delegation cycles; pass "
              "--discard-cycles");
    // Refused as usage errors naming the flag, before anything is built.
    EXPECT_EQ(parse({"--reps", "0"}), "--reps: must be >= 1");
    EXPECT_EQ(parse({"--approx", "--certify", "0", "0.05"}),
              "--certify: certification is incompatible with approximate tallies");
}

TEST(EvalKnobs, SweepRefusalMessages) {
    const auto parse = [](const std::string& options, const std::string& top = "") {
        return refusal([&] { sweep_spec(options, top); });
    };
    EXPECT_EQ(parse("{}", R"("replications": 0, )"),
              "sweep spec: replications: must be >= 1");
    EXPECT_EQ(parse(R"({"threads": -1})"),
              "sweep spec: options.threads: expected a non-negative integer");
    EXPECT_EQ(parse(R"({"inner_samples": -1})"),
              "sweep spec: options.inner_samples: expected a non-negative integer");
    EXPECT_EQ(parse(R"({"discard_cycles": 1})"),
              "sweep spec: options.discard_cycles: expected bool");
    EXPECT_EQ(parse(R"({"approximate": 1})"),
              "sweep spec: options.approximate: expected bool");
    EXPECT_EQ(parse(R"({"target_se": -1})"),
              "sweep spec: options.target_se: must be >= 0");
    EXPECT_EQ(parse(R"({"target_se": "x"})"),
              "sweep spec: options.target_se: expected a number");
    EXPECT_EQ(parse(R"({"adaptive_batch": 0})"),
              "sweep spec: options.adaptive_batch: must be >= 1");
    EXPECT_EQ(parse(R"({"max_reps": 0})"), "sweep spec: options.max_reps: must be >= 1");
    EXPECT_EQ(parse(R"({"tally_eps": 1})"),
              "sweep spec: options.tally_eps: must be in [0, 1)");
    EXPECT_EQ(parse(R"({"certify_gamma": "x"})"),
              "sweep spec: options.certify_gamma: expected a number");
    EXPECT_EQ(parse(R"({"certify_delta": 1})"),
              "sweep spec: options.certify_delta: must be in [0, 1)");
    EXPECT_EQ(parse(R"({"certify_boundary": 3})"),
              "sweep spec: options.certify_boundary: expected string");
    EXPECT_EQ(parse(R"({"certify_boundary": "gaussian"})"),
              "sweep spec: options.certify_boundary: unknown confidence-sequence "
              "boundary (want hoeffding, empirical_bernstein, or eb): gaussian");
    EXPECT_EQ(parse(R"({"max_replications": 10})"),
              "sweep spec: options.max_replications: unknown option");

    const auto run = [](const exp::SweepSpec& spec) {
        return refusal([&] { sweep_rows(spec, "refused"); });
    };
    EXPECT_EQ(run(sweep_spec("{}", "", "noisy:1,0.2")),
              "sweep cell #0 (n=120, graph=complete, competencies=uniform:0.3,0.7, "
              "mechanism=noisy:1,0.2): mechanism 'noisy:1,0.2' can create delegation "
              "cycles; set options.discard_cycles");
    // A count past 2^53 is refused, as served evals refuse it.
    EXPECT_EQ(parse(R"({"threads": 1e16})"),
              "sweep spec: options.threads: expected a non-negative integer");
    // Refused when the spec is read, before any instance is built.
    EXPECT_EQ(parse(R"({"approximate": true, "certify_delta": 0.05})"),
              "sweep spec: options.certify_delta: certification is incompatible with "
              "approximate tallies");
    // inner_samples 0 is refused only for a multi-delegation cell, before
    // its instance is built: the graph file is never opened.
    EXPECT_EQ(parse(R"({"inner_samples": 0})"), "accepted");
    EXPECT_EQ(run(sweep_spec(R"({"inner_samples": 0})")), "accepted");
    auto multi = sweep_spec(R"({"inner_samples": 0})", "", "multi:3,1");
    multi.graphs = {"file:/nonexistent/graph.txt"};
    EXPECT_EQ(run(multi),
              "sweep cell #0 (n=120, graph=file:/nonexistent/graph.txt, "
              "competencies=uniform:0.3,0.7, mechanism=multi:3,1): sweep spec: "
              "options.inner_samples: must be >= 1 for multi-delegation mechanisms");
}

/// Serve's eval params: the fixed instance plus `extra`'s members.
json::Object eval_params(const std::string& extra) {
    json::Object params = json::parse(R"({"mechanism": "threshold:1", "graph": "complete",
        "competencies": "uniform:0.3,0.7", "n": 120, "alpha": 0.05, "seed": 3,
        "replications": 20, "threads": 1})")
                              .as_object();
    const json::Value more = json::parse(extra);
    for (const auto& [key, value] : more.as_object()) params[key] = value;
    return params;
}

json::Value serve_eval(serve::Router& router, const std::string& extra) {
    serve::Request request;
    request.id = json::Value(1.0);
    request.method = "eval";
    request.params = json::Value(eval_params(extra));
    request.admitted_at = std::chrono::steady_clock::now();
    return json::parse(router.handle(request));
}

TEST(EvalKnobs, ServeRefusalMessages) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    const auto refused = [&](const std::string& extra) -> std::string {
        const json::Value response = serve_eval(router, extra);
        if (response.at("ok").as_bool()) return "accepted";
        EXPECT_EQ(response.at("error").at("code").as_string(), "bad_request") << extra;
        return refusal([&] {
            throw std::runtime_error(response.at("error").at("message").as_string());
        });
    };
    EXPECT_EQ(refused(R"({"replications": 0})"),
              "params.replications: must be in [1, 1000000]");
    EXPECT_EQ(refused(R"({"threads": 1025})"), "params.threads: must be in [0, 1024]");
    EXPECT_EQ(refused(R"({"threads": -1})"),
              "params.threads: expected a non-negative integer <= 2^53");
    EXPECT_EQ(refused(R"({"inner_samples": 1e16})"),
              "params.inner_samples: expected a non-negative integer <= 2^53");
    EXPECT_EQ(refused(R"({"mechanism": "multi:3,1", "inner_samples": 0})"),
              "params.inner_samples: must be >= 1 for multi-delegation mechanisms");
    EXPECT_EQ(refused(R"({"approximate": 1})"), "params.approximate: expected a bool");
    EXPECT_EQ(refused(R"({"discard_cycles": 1})"),
              "params.discard_cycles: expected a bool");
    EXPECT_EQ(refused(R"({"mechanism": "noisy:1,0.2"})"),
              "params.mechanism: 'noisy:1,0.2' can create delegation cycles; set "
              "\"discard_cycles\": true");
    EXPECT_EQ(refused(R"({"target_se": -1})"), "params.target_se: must be >= 0");
    EXPECT_EQ(refused(R"({"target_se": "x"})"), "params.target_se: expected a number");
    EXPECT_EQ(refused(R"({"max_replications": 0})"),
              "params.max_replications: must be in [1, 1000000]");
    EXPECT_EQ(refused(R"({"tally_eps": 1})"), "params.tally_eps: must be in [0, 1)");
    EXPECT_EQ(refused(R"({"certify_delta": 1})"),
              "params.certify_delta: must be in [0, 1)");
    EXPECT_EQ(refused(R"({"certify_delta": 0.05, "certify_gamma": "x"})"),
              "params.certify_gamma: expected a number");
    EXPECT_EQ(refused(R"({"certify_delta": 0.05, "certify_boundary": 3})"),
              "params.certify_boundary: expected a non-empty string");
    EXPECT_EQ(refused(R"({"certify_delta": 0.05, "certify_boundary": "gaussian"})"),
              "params.certify_boundary: unknown confidence-sequence boundary (want "
              "hoeffding, empirical_bernstein, or eb): gaussian");
    EXPECT_EQ(refused(R"({"certify_delta": 0.05, "approximate": true})"),
              "params.certify_delta: certification is incompatible with approximate "
              "tallies");
    // Checked with certification off too, as sweeps check them.
    EXPECT_EQ(refused(R"({"certify_gamma": "x"})"),
              "params.certify_gamma: expected a number");
    EXPECT_EQ(refused(R"({"certify_boundary": "gaussian"})"),
              "params.certify_boundary: unknown confidence-sequence boundary (want "
              "hoeffding, empirical_bernstein, or eb): gaussian");
    EXPECT_EQ(refused(R"({"inner_samples": 0})"), "accepted");
}

// Results -----------------------------------------------------------------

/// One evaluation setting as each front spells it, and by hand.
struct Setting {
    const char* label;
    const char* mechanism;
    std::string sweep_options;  ///< a sweep's `options` (replications is top-level)
    std::string serve_params;   ///< a served eval's extra params
    EvalOptions eval;
};

std::vector<Setting> settings() {
    std::vector<Setting> out;
    const auto add = [&](const char* label, const char* mechanism, std::string sweep,
                         std::string params, auto&& edit) {
        EvalOptions eval;
        eval.replications = 40;
        eval.threads = 1;
        edit(eval);
        out.push_back({label, mechanism, std::move(sweep), std::move(params), eval});
    };
    add("fixed", "threshold:1", "{}", "{}", [](EvalOptions&) {});
    add("se_target", "threshold:1", R"({"target_se": 0.02, "max_reps": 640})",
        R"({"target_se": 0.02, "max_replications": 640})", [](EvalOptions& e) {
            e.target_std_error = 0.02;
            e.max_replications = 640;
        });
    for (const auto& [boundary, value] :
         {std::pair{"eb", CsBoundary::EmpiricalBernstein},
          std::pair{"hoeffding", CsBoundary::Hoeffding}}) {
        const std::string certify = std::string(R"({"certify_gamma": 0.05, )") +
                                    R"("certify_delta": 0.05, "certify_boundary": ")" +
                                    boundary + "\", ";
        add(boundary, "threshold:1", certify + R"("max_reps": 2000})",
            certify + R"("max_replications": 2000})", [value](EvalOptions& e) {
                e.certify = {0.05, 0.05, value};
                e.max_replications = 2000;
            });
    }
    add("exact", "threshold:1", R"({"tally_eps": 0})", R"({"tally_eps": 0})",
        [](EvalOptions& e) { e.tally_epsilon = 0.0; });
    add("default_eps", "alg1:sqrt", "{}", "{}", [](EvalOptions&) {});
    const std::string approximate = R"({"approximate": true})";
    add("approximate", "threshold:1", approximate, approximate,
        [](EvalOptions& e) { e.approximate_tally = true; });
    const std::string discard = R"({"discard_cycles": true})";
    add("noisy", "noisy:1,0.2", discard, discard,
        [](EvalOptions& e) { e.cycle_policy = ld::delegation::CyclePolicy::Discard; });
    return out;
}

TEST(EvalKnobs, SweepRowsMatchDirectCalls) {
    for (const Setting& s : settings()) {
        SCOPED_TRACE(s.label);
        const auto spec =
            sweep_spec(s.sweep_options, R"("replications": 40, )", s.mechanism);
        const auto rows = sweep_rows(spec, s.label);
        ASSERT_EQ(rows.size(), 1u);
        const json::Value& row = rows[0];
        const auto expected = direct(s.mechanism, exp::derive_cell_seed(5, 0), s.eval);
        EXPECT_EQ(row.at("pd").as_number(), expected.pd);
        EXPECT_EQ(row.at("pm").as_number(), expected.pm.value);
        EXPECT_EQ(row.at("pm_stderr").as_number(), expected.pm.std_error);
        EXPECT_EQ(row.at("gain").as_number(), expected.gain);
        EXPECT_EQ(row.at("gain_ci_lo").as_number(), expected.gain_ci.lo);
        EXPECT_EQ(row.at("gain_ci_hi").as_number(), expected.gain_ci.hi);
        EXPECT_EQ(row.at("replications").as_number(),
                  static_cast<double>(expected.pm.replications));
        ASSERT_EQ(expected.certified_gain.has_value(), s.eval.certify.enabled());
        if (expected.certified_gain) {
            EXPECT_EQ(row.at("cert_gain_lo").as_number(), expected.certified_gain->lo);
            EXPECT_EQ(row.at("cert_gain_hi").as_number(), expected.certified_gain->hi);
            EXPECT_EQ(row.at("cert_stop").as_string(),
                      ld::stats::cert_stop_name(expected.pm.certified->stop));
        } else {
            EXPECT_EQ(row.at("cert_gain_lo").as_string(), "");
            EXPECT_EQ(row.at("cert_stop").as_string(), "");
        }
    }
}

TEST(EvalKnobs, ServeEvalsMatchDirectCalls) {
    serve::InstanceCache cache;
    serve::Router router({}, cache);
    for (const Setting& s : settings()) {
        SCOPED_TRACE(s.label);
        json::Object extra = json::parse(s.serve_params).as_object();
        extra["mechanism"] = json::Value(std::string(s.mechanism));
        extra["replications"] = json::Value(40.0);
        const json::Value response = serve_eval(router, json::dump(json::Value(extra)));
        ASSERT_TRUE(response.at("ok").as_bool()) << json::dump(response);
        const json::Value& result = response.at("result");
        const auto expected = direct(s.mechanism, 3, s.eval);
        EXPECT_EQ(result.at("pd").as_number(), expected.pd);
        EXPECT_EQ(result.at("pm").as_number(), expected.pm.value);
        EXPECT_EQ(result.at("pm_stderr").as_number(), expected.pm.std_error);
        EXPECT_EQ(result.at("gain").as_number(), expected.gain);
        EXPECT_EQ(result.at("gain_ci_lo").as_number(), expected.gain_ci.lo);
        EXPECT_EQ(result.at("gain_ci_hi").as_number(), expected.gain_ci.hi);
        EXPECT_EQ(result.at("replications").as_number(),
                  static_cast<double>(expected.pm.replications));
        EXPECT_EQ(result.at("tally_eps").as_number(), s.eval.tally_epsilon);
        ASSERT_EQ(expected.certified_gain.has_value(), s.eval.certify.enabled());
        EXPECT_EQ(result.find("cert_stop") != nullptr, s.eval.certify.enabled());
        if (expected.certified_gain) {
            const auto& cert = *expected.pm.certified;
            EXPECT_EQ(result.at("cert_gain_lo").as_number(), expected.certified_gain->lo);
            EXPECT_EQ(result.at("cert_gain_hi").as_number(), expected.certified_gain->hi);
            EXPECT_EQ(result.at("cert_pm_lo").as_number(), cert.lo);
            EXPECT_EQ(result.at("cert_pm_hi").as_number(), cert.hi);
            EXPECT_EQ(result.at("cert_delta").as_number(), cert.delta);
            EXPECT_EQ(result.at("cert_stop").as_string(),
                      ld::stats::cert_stop_name(cert.stop));
            EXPECT_EQ(result.at("cert_looks").as_number(),
                      static_cast<double>(cert.looks));
        }
    }
}

}  // namespace
