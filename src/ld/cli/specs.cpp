#include "ld/cli/specs.hpp"

#include <cmath>
#include <fstream>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "gen/factory.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "ld/mech/abstaining.hpp"
#include "ld/mech/approval_size_threshold.hpp"
#include "ld/mech/best_neighbour.hpp"
#include "ld/mech/capped_target.hpp"
#include "ld/mech/complete_graph_threshold.hpp"
#include "ld/mech/d_out_sampling.hpp"
#include "ld/mech/direct.hpp"
#include "ld/mech/fraction_approved.hpp"
#include "ld/mech/multi_delegate.hpp"
#include "ld/mech/noisy_threshold.hpp"
#include "ld/model/competency_gen.hpp"
#include "support/expect.hpp"

namespace ld::cli {

namespace {

using gen::Family;
using Config = gen::GeneratorConfig;
using Mech = std::unique_ptr<mech::Mechanism>;
using rng::Rng;
constexpr auto npos = std::string_view::npos;

[[noreturn]] void fail(const std::string& spec, const std::string& what) {
    throw SpecError("'" + spec + "': " + what);
}

/// One spec's fields, checked against its row, plus what builders take.
struct Fields {
    std::string spec;
    std::vector<std::string> text;  ///< each field as written
    std::vector<double> num;        ///< its value (NaN for keywords and text)
    std::size_t n = 0;
    Rng* rng = nullptr;

    std::size_t size() const { return text.size(); }
    double operator[](std::size_t i) const { return num[i]; }
    std::size_t c(std::size_t i) const { return static_cast<std::size_t>(num[i]); }
};
using F = const Fields&;

/// Read `rest` as the fields `list` names: 'c' a count, 'r' a real, 'k' a
/// keyword, 's' the rest verbatim (a path or an inner spec).  A field ends
/// at a ',', or at a '/' if one follows it in `list`; the fields after a
/// '|' are optional, all together.
Fields parse_fields(const std::string& spec, std::string_view rest,
                    std::string_view list) {
    Fields f{spec, {}, {}};
    std::size_t pos = rest.empty() ? npos : 0;
    std::size_t required = 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
        const char kind = list[i];
        if (kind == '|' || kind == '/') continue;
        ++total;
        if (list.find('|') > i) required = total;
        if (pos == npos) continue;
        const char sep = i + 1 < list.size() && list[i + 1] == '/' ? '/' : ',';
        const std::size_t end = kind == 's' ? npos : rest.find(sep, pos);
        const std::string& token =
            f.text.emplace_back(rest.substr(pos, end == npos ? npos : end - pos));
        pos = end == npos ? npos : end + 1;
        const std::string field = "'" + spec + "' field " + std::to_string(total);
        f.num.push_back(kind == 'c'   ? static_cast<double>(parse_size(token, field))
                        : kind == 'r' ? parse_double(token, field)
                                      : NAN);
    }
    if (pos != npos || (f.size() != required && f.size() != total)) {
        const std::string more = total > required ? " or " + std::to_string(total) : "";
        fail(spec, "expected " + std::to_string(required) + more + " field(s)");
    }
    return f;
}

/// The row whose '|'-separated names include `head`, or null.
template <typename Row, std::size_t N>
const Row* find_row(const Row (&rows)[N], std::string_view head) {
    for (const Row& row : rows) {
        for (std::string_view names = row.names;;) {
            const std::size_t bar = names.find('|');
            if (names.substr(0, bar) == head) return &row;
            if (bar == npos) break;
            names.remove_prefix(bar + 1);
        }
    }
    return nullptr;
}

/// `text`'s row in `rows` and its checked fields; `spec` names it in errors.
template <typename Row, std::size_t N>
std::pair<const Row*, Fields> parse(const Row (&rows)[N], const char* kind,
                                    const std::string& spec, std::string_view text) {
    const std::size_t colon = text.find(':');
    const Row* row = find_row(rows, text.substr(0, colon));
    if (!row) fail(spec, "unknown " + std::string(kind) + " head");
    const std::string_view rest = colon == npos ? "" : text.substr(colon + 1);
    return {row, parse_fields(spec, rest, row->fields)};
}

/// Run a builder on checked fields.  A precondition it raises refuses a
/// value of the spec: report its text without the " [file:line in fn]".
template <typename Build>
auto checked(const std::string& spec, Build build) {
    try {
        return build();
    } catch (const support::ContractViolation& e) {
        const std::string what = e.what();
        const std::size_t file = std::min(what.find(".cpp:"), what.find(".hpp:"));
        fail(spec, what.substr(0, file == npos ? npos : what.rfind(" [", file)));
    }
}

/// Parse `spec` against `rows` and run its row's builder on `n` and `rng`.
template <typename Row, std::size_t N>
auto build(const Row (&rows)[N], const char* kind, const std::string& spec,
           std::size_t n = 0, Rng* rng = nullptr) {
    auto parsed = parse(rows, kind, spec, spec);
    parsed.second.n = n;
    parsed.second.rng = rng;
    return checked(spec, [&] { return parsed.first->build(parsed.second); });
}

/// Abstaining wrapper that owns its inner mechanism (the library wrapper
/// borrows; factories must own).
struct OwningAbstaining final : mech::Mechanism {
    OwningAbstaining(Mech m, double q) : inner(std::move(m)), wrapper(*inner, q) {}
    std::string name() const override { return wrapper.name(); }
    mech::Action act(const model::Instance& i, graph::Vertex v, Rng& r) const override {
        return wrapper.act(i, v, r);
    }
    bool may_abstain() const override { return true; }
    bool multi_delegation() const override { return wrapper.multi_delegation(); }
    bool approval_respecting() const override { return inner->approval_respecting(); }

    Mech inner;
    mech::Abstaining wrapper;
};

/// One head of a kind: its '|'-separated names, its fields (see
/// parse_fields) and its builder.  A graph head may also configure the
/// streaming facade (reached as `gen:<head>`); a graph head with no
/// builder routes through the facade without `gen:` too.
template <typename Built>
struct Row {
    const char* names;
    const char* fields;
    Built (*build)(F);
    void (*configure)(F, Config&) = nullptr;
};

void power_law(F f, Config& c, Family family) {
    c.family = family;
    c.gamma = f[0];
    c.avg_degree = f[1];
    if (f.size() == 3) c.max_weight = f[2];
}

// clang-format off
const Row<graph::Graph> kGraphs[] = {
    {"complete", "", [](F f) { return graph::make_complete(f.n); },
     [](F, Config& c) { c.family = Family::Complete; }},
    {"star", "", [](F f) { return graph::make_star(f.n); },
     [](F, Config& c) { c.family = Family::Star; }},
    {"cycle", "", [](F f) { return graph::make_cycle(f.n); }},
    {"path", "", [](F f) { return graph::make_path(f.n); }},
    {"dregular", "c", [](F f) { return graph::make_random_d_regular(*f.rng, f.n, f.c(0)); },
     [](F f, Config& c) { c.family = Family::DRegular; c.degree = f.c(0); }},
    {"dout", "c", [](F f) { return graph::make_d_out(*f.rng, f.n, f.c(0)); },
     [](F f, Config& c) { c.family = Family::DOut; c.degree = f.c(0); }},
    {"er|gnp", "r", [](F f) { return graph::make_erdos_renyi_gnp(*f.rng, f.n, f[0]); },
     [](F f, Config& c) { c.family = Family::Gnp; c.p = f[0]; }},
    {"gnm", "c", [](F f) { return graph::make_erdos_renyi_gnm(*f.rng, f.n, f.c(0)); },
     [](F f, Config& c) { c.family = Family::Gnm; c.edges = f.c(0); }},
    {"ba", "c", [](F f) { return graph::make_barabasi_albert(*f.rng, f.n, f.c(0)); },
     [](F f, Config& c) { c.family = Family::BarabasiAlbert; c.degree = f.c(0); }},
    {"ws", "cr", [](F f) { return graph::make_watts_strogatz(*f.rng, f.n, f.c(0), f[1]); },
     [](F f, Config& c) { c.family = Family::WattsStrogatz; c.degree = f.c(0); c.beta = f[1]; }},
    {"twotier", "cc", [](F f) { return graph::make_two_tier(*f.rng, f.n, f.c(0), f.c(1)); }},
    {"mindeg", "c", [](F f) { return graph::make_min_degree_at_least(*f.rng, f.n, f.c(0)); }},
    {"maxdeg", "c",
     [](F f) { return graph::make_bounded_degree(*f.rng, f.n, f.c(0), f.n * f.c(0) / 4); }},
    {"file", "s", [](F f) {
         std::ifstream in(f.text[0]);
         if (!in) fail(f.spec, "cannot open '" + f.text[0] + "'");
         return graph::read_edge_list(in);
     }},
    {"cl|chunglu", "rr|r", nullptr, [](F f, Config& c) { power_law(f, c, Family::ChungLu); }},
    {"hyper|girg|hyperbolic", "rr|r", nullptr,
     [](F f, Config& c) { power_law(f, c, Family::Hyperbolic); }},
    {"rmat", "c|rrr", nullptr, [](F f, Config& c) {
         c.family = Family::Rmat;
         c.edges = f.c(0);
         if (f.size() == 4) std::tie(c.rmat_a, c.rmat_b, c.rmat_c) = std::tuple(f[1], f[2], f[3]);
     }},
};

const Row<model::CompetencyVector> kCompetencies[] = {
    {"uniform", "rr", [](F f) { return model::uniform_competencies(*f.rng, f.n, f[0], f[1]); }},
    {"pc", "rr", [](F f) { return model::pc_competencies(*f.rng, f.n, f[0], f[1]); }},
    {"beta", "rr", [](F f) { return model::beta_competencies(*f.rng, f.n, f[0], f[1]); }},
    {"twopoint", "rrr",
     [](F f) { return model::two_point_competencies(*f.rng, f.n, f[0], f[1], f[2]); }},
    {"star", "rr", [](F f) { return model::star_competencies(f.n, f[0], f[1]); }},
    {"tnormal", "rrrr",
     [](F f) { return model::truncated_normal_competencies(*f.rng, f.n, f[0], f[1], f[2], f[3]); }},
    {"const", "r", [](F f) { return model::CompetencyVector(std::vector(f.n, f[0])); }},
    {"figure2", "", [](F f) {
         support::expects(f.n == 9, "figure2 competencies require n = 9");
         return model::figure2_competencies();
     }},
};

const Row<Mech> kMechanisms[] = {
    {"direct", "", [](F) -> Mech { return std::make_unique<mech::DirectVoting>(); }},
    {"threshold", "c",
     [](F f) -> Mech { return std::make_unique<mech::ApprovalSizeThreshold>(f.c(0)); }},
    {"alg1", "k|r", [](F f) -> Mech {
         using T = mech::CompleteGraphThreshold;
         const std::string& kind = f.text[0];
         if (f.size() == 2 && kind == "lin") return std::make_unique<T>(T::with_linear_threshold(f[1]));
         if (f.size() == 1 && kind == "log") return std::make_unique<T>(T::with_log_threshold());
         if (f.size() == 1 && kind == "sqrt") return std::make_unique<T>(T::with_sqrt_threshold());
         fail(f.spec, "expected alg1:log | alg1:sqrt | alg1:lin,<frac>");
     }},
    {"alg2", "cck", [](F f) -> Mech {
         using mech::SampleSource;
         if (f.text[2] != "pop" && f.text[2] != "nbr") fail(f.spec, "mode must be pop or nbr");
         return std::make_unique<mech::DOutSampling>(
             f.c(0), f.c(1),
             f.text[2] == "pop" ? SampleSource::Population : SampleSource::Neighbourhood);
     }},
    {"fraction", "r", [](F f) -> Mech { return std::make_unique<mech::FractionApproved>(f[0]); }},
    {"best", "", [](F) -> Mech { return std::make_unique<mech::BestNeighbour>(); }},
    {"capped", "c", [](F f) -> Mech { return std::make_unique<mech::CappedTarget>(f.c(0)); }},
    {"noisy", "cr",
     [](F f) -> Mech { return std::make_unique<mech::NoisyThreshold>(f.c(0), f[1]); }},
    {"multi", "cc",
     [](F f) -> Mech { return std::make_unique<mech::MultiDelegate>(f.c(0), f.c(1)); }},
    {"abstain", "r/s",
     [](F f) -> Mech { return std::make_unique<OwningAbstaining>(make_mechanism(f.text[1]), f[0]); }},
};
// clang-format on

}  // namespace

double parse_double(const std::string& text, const std::string& context) {
    std::size_t used = 0;
    double value = NAN;
    try {
        value = std::stod(text, &used);
    } catch (const std::exception&) {  // not a number, or out of double range
    }
    if (used != text.size() || !std::isfinite(value)) {
        throw SpecError(context + ": not a finite number: '" + text + "'");
    }
    return value;
}

std::optional<std::size_t> count_of(double value) {
    // Range-check before casting (casting NaN, inf or >= 2^64 is UB); NaN
    // fails the first test.
    if (!(value >= 0.0 && value < 0x1p64) || value != std::floor(value)) return {};
    return static_cast<std::size_t>(value);
}

std::size_t parse_size(const std::string& text, const std::string& context) {
    const std::optional<std::size_t> count = count_of(parse_double(text, context));
    if (!count) throw SpecError(context + ": not a whole number in [0, 2^64): " + text);
    return *count;
}

bool is_generator_spec(const std::string& spec) {
    const std::string head = spec.substr(0, spec.find(':'));
    const auto* row = find_row(kGraphs, head);
    return head == "gen" || (row && !row->build);
}

gen::GeneratorConfig parse_generator_spec(const std::string& spec, std::size_t n,
                                          std::uint64_t seed) {
    if (!is_generator_spec(spec)) fail(spec, "not a generator spec");
    std::string_view text = spec;
    if (text.starts_with("gen:")) text.remove_prefix(4);
    const auto parsed = parse(kGraphs, "graph", spec, text);
    if (!parsed.first->configure) fail(spec, "no streaming generator for this head");
    // threads = 0 (auto): the generated edge set is thread-invariant.
    Config config{.n = n, .seed = seed, .shard = {}, .threads = 0};
    parsed.first->configure(parsed.second, config);
    checked(spec, [&] { config.validate(); });
    return config;
}

graph::Graph make_graph(const std::string& spec, std::size_t n, rng::Rng& rng) {
    if (!is_generator_spec(spec)) return build(kGraphs, "graph", spec, n, &rng);
    // One seed draw keeps the surrounding rng stream position independent
    // of how many cells the facade generates.
    const Config config = parse_generator_spec(spec, n, rng.next());
    return checked(spec, [&] { return gen::generate_graph(config); });
}

model::CompetencyVector make_competencies(const std::string& spec, std::size_t n,
                                          rng::Rng& rng) {
    return build(kCompetencies, "competency", spec, n, &rng);
}

std::unique_ptr<mech::Mechanism> make_mechanism(const std::string& spec) {
    return build(kMechanisms, "mechanism", spec);
}

model::Instance make_instance(const std::string& graph, const std::string& competencies,
                              std::size_t n, double alpha, rng::Rng& rng) {
    if (!(alpha > 0.0 && std::isfinite(alpha))) {
        throw SpecError("alpha: the approval margin must be finite and > 0");
    }
    auto g = make_graph(graph, n, rng);
    auto p = make_competencies(competencies, g.vertex_count(), rng);
    return model::Instance(std::move(g), std::move(p), alpha);
}

}  // namespace ld::cli
