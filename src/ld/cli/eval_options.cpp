#include "ld/cli/eval_options.hpp"

#include <string_view>
#include <type_traits>

#include "ld/cli/specs.hpp"
#include "support/thread_pool.hpp"

namespace ld::cli {

namespace {

namespace json = support::json;
using E = election::EvalOptions;
using enum delegation::CyclePolicy;

/// One knob: its name on each front ("" where the front lacks it), its
/// kind ('c' count, 'r' real, 'b' bool, 's' boundary name) and the field
/// it sets.  check_eval holds the ranges.
struct Knob {
    const char* names[3];  ///< run flag, sweep-spec path, served-eval key
    char kind;
    void (*set)(E&, double) = nullptr;
};

template <auto f>
void put(E& e, double v) { e.*f = static_cast<std::decay_t<decltype(e.*f)>>(v); }

// clang-format off
const Knob kKnobs[] = {
    {{"--reps", "replications", "replications"}, 'c', put<&E::replications>},
    {{"--threads", "options.threads", "threads"}, 'c', put<&E::threads>},
    {{"", "options.inner_samples", "inner_samples"}, 'c', put<&E::inner_samples>},
    {{"--discard-cycles", "options.discard_cycles", "discard_cycles"}, 'b',
     [](E& e, double v) { e.cycle_policy = v != 0 ? Discard : Throw; }},
    {{"--approx", "options.approximate", "approximate"}, 'b', put<&E::approximate_tally>},
    {{"--target-se", "options.target_se", "target_se"}, 'r', put<&E::target_std_error>},
    {{"", "options.adaptive_batch", ""}, 'c', put<&E::adaptive_batch>},
    {{"--max-reps", "options.max_reps", "max_replications"}, 'c',
     put<&E::max_replications>},
    {{"--tally-eps", "options.tally_eps", "tally_eps"}, 'r', put<&E::tally_epsilon>},
    {{"--certify", "options.certify_gamma", "certify_gamma"}, 'r',
     [](E& e, double v) { e.certify.gamma = v; }},
    {{"--certify", "options.certify_delta", "certify_delta"}, 'r',
     [](E& e, double v) { e.certify.delta = v; }},
    {{"--cs-boundary", "options.certify_boundary", "certify_boundary"}, 's'},
};

/// How a front words a refusal: before a knob's name, before a JSON key to form
/// it, a JSON count, bool or string of the wrong type, around a cycle maker's spec.
struct Style { const char *prefix, *keys, *count, *flag, *text, *cycles, *hint; };
const Style kStyles[] = {
    {"", "", "", "", "", "mechanism '",
     "' can create delegation cycles; pass --discard-cycles"},
    {"sweep spec: ", "options.", "expected a non-negative integer", "expected bool",
     "expected string", "mechanism '",
     "' can create delegation cycles; set options.discard_cycles"},
    {"params.", "", "expected a non-negative integer <= 2^53", "expected a bool",
     "expected a non-empty string", "params.mechanism: '",
     "' can create delegation cycles; set \"discard_cycles\": true"},
};
// clang-format on

/// The knob `front` calls `name`, or null.
const Knob* find(EvalFront front, std::string_view name) {
    for (const Knob& knob : kKnobs) {
        if (!name.empty() && name == knob.names[front]) return &knob;
    }
    return nullptr;
}

[[noreturn]] void refuse(EvalFront front, const std::string& name,
                         std::string_view what) {
    throw SpecError(kStyles[front].prefix + name + ": " + std::string(what));
}

void set_boundary(E& eval, const std::string& text, EvalFront front,
                  const std::string& name) {
    const auto boundary = stats::parse_cs_boundary(text);
    if (!boundary) {
        refuse(front, name,
               "unknown confidence-sequence boundary (want hoeffding, "
               "empirical_bernstein, or eb): " + text);
    }
    eval.certify.boundary = *boundary;
}

}  // namespace

void read_eval_json(const json::Value& object, EvalFront front, E& eval) {
    const Style& words = kStyles[front];
    for (const auto& [key, value] : object.as_object()) {
        const std::string name = words.keys + key;
        const Knob* knob = find(front, name);
        if (!knob && front == Sweep) refuse(front, name, "unknown option");
        if (!knob) continue;
        const bool text = value.is_string() &&
                          !(front == Serve && value.as_string().empty());
        // A value of the wrong type, in the front's words.
        const char* fault =
            knob->kind == 'b'    ? (value.is_bool() ? nullptr : words.flag)
            : knob->kind == 's'  ? (text ? nullptr : words.text)
            : !value.is_number() ? "expected a number"
            : knob->kind == 'c' && !json::count_of(value.as_number()) ? words.count
                                                                      : nullptr;
        if (fault) refuse(front, name, fault);
        if (knob->kind == 's') set_boundary(eval, value.as_string(), front, name);
        else knob->set(eval, value.is_bool() ? value.as_bool() : value.as_number());
    }
}

bool read_eval_flag(const std::string& flag,
                    const std::function<const std::string&()>& next, E& eval) {
    if (flag == "--certify") {  // both values; a δ of 0 would leave certification off
        eval.certify.gamma = parse_double(next(), "--certify <gamma>");
        eval.certify.delta = parse_double(next(), "--certify <delta>");
        if (eval.certify.delta > 0.0 && eval.certify.delta < 1.0) return true;
        throw SpecError("--certify: delta must be in (0, 1)");
    }
    const Knob* knob = find(Run, flag);
    if (!knob) return false;
    if (knob->kind == 'b') knob->set(eval, 1.0);
    else if (knob->kind == 's') set_boundary(eval, next(), Run, flag);
    else if (knob->kind == 'c') knob->set(eval, double(parse_size(next(), flag)));
    else knob->set(eval, parse_double(next(), flag));
    return true;
}

void check_eval(const E& eval, EvalFront front, const mech::Mechanism* mechanism,
                const std::string& spec) {
    // Knobs by sweep path; a front checks only the knobs it reads.
    const auto need = [&](bool ok, std::string_view path, std::string_view what) {
        const char* name = find(Sweep, path)->names[front];
        if (!ok && *name) refuse(front, name, what);
    };
    const auto unit = [](double v) { return v >= 0.0 && v < 1.0; };
    need(eval.replications >= 1, "replications", "must be >= 1");
    need(eval.target_std_error >= 0.0, "options.target_se", "must be >= 0");
    need(eval.adaptive_batch >= 1, "options.adaptive_batch", "must be >= 1");
    need(eval.max_replications >= 1, "options.max_reps", "must be >= 1");
    need(unit(eval.tally_epsilon), "options.tally_eps", "must be in [0, 1)");
    need(unit(eval.certify.delta), "options.certify_delta", "must be in [0, 1)");
    need(!eval.approximate_tally || !eval.certify.enabled(), "options.certify_delta",
         "certification is incompatible with approximate tallies");
    if (!mechanism) return;
    if (!mechanism->approval_respecting() && eval.cycle_policy != Discard) {
        throw SpecError(kStyles[front].cycles + spec + kStyles[front].hint);
    }
    need(!mechanism->multi_delegation() || eval.inner_samples >= 1,
         "options.inner_samples", "must be >= 1 for multi-delegation mechanisms");
}

std::size_t resolve_threads(std::size_t threads) {
    return threads == 0 ? support::ThreadPool::global().worker_count() : threads;
}

}  // namespace ld::cli
