#include "ld/cli/specs.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
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

/// Split "head:rest" (rest may be empty).
std::pair<std::string, std::string> split_head(const std::string& spec, char sep = ':') {
    const auto pos = spec.find(sep);
    if (pos == std::string::npos) return {spec, ""};
    return {spec.substr(0, pos), spec.substr(pos + 1)};
}

/// Parse comma-separated doubles; throws SpecError on junk or wrong count.
std::vector<double> parse_numbers(const std::string& text, std::size_t expected,
                                  const std::string& context) {
    std::vector<double> values;
    std::size_t start = 0;
    while (start <= text.size() && !text.empty()) {
        const auto comma = text.find(',', start);
        const std::string token =
            text.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        try {
            std::size_t used = 0;
            values.push_back(std::stod(token, &used));
            if (used != token.size()) throw std::invalid_argument(token);
        } catch (const std::exception&) {
            throw SpecError(context + ": cannot parse number '" + token + "'");
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    if (values.size() != expected) {
        throw SpecError(context + ": expected " + std::to_string(expected) +
                        " parameter(s), got " + std::to_string(values.size()));
    }
    return values;
}

std::size_t as_count(double value, const std::string& context) {
    // Range-check before casting (casting NaN, inf or >= 2^64 is UB); NaN
    // fails the first test.
    if (!(value >= 0.0 && value < 0x1p64) || value != std::floor(value)) {
        throw SpecError(context + ": expected a non-negative integer");
    }
    return static_cast<std::size_t>(value);
}

/// Abstaining wrapper that owns its inner mechanism (the library wrapper
/// borrows; factories must own).
class OwningAbstaining final : public mech::Mechanism {
public:
    OwningAbstaining(std::unique_ptr<mech::Mechanism> inner, double q)
        : inner_(std::move(inner)), wrapper_(*inner_, q) {}

    std::string name() const override { return wrapper_.name(); }
    mech::Action act(const model::Instance& instance, graph::Vertex v,
                     rng::Rng& rng) const override {
        return wrapper_.act(instance, v, rng);
    }
    bool may_abstain() const override { return true; }
    bool multi_delegation() const override { return wrapper_.multi_delegation(); }
    bool approval_respecting() const override { return inner_->approval_respecting(); }

private:
    std::unique_ptr<mech::Mechanism> inner_;
    mech::Abstaining wrapper_;
};

/// Number of comma-separated fields ("" has zero).
std::size_t field_count(const std::string& text) {
    if (text.empty()) return 0;
    return static_cast<std::size_t>(std::count(text.begin(), text.end(), ',')) + 1;
}

}  // namespace

bool is_generator_spec(const std::string& spec) {
    const auto head = split_head(spec).first;
    return head == "gen" || head == "cl" || head == "hyper" || head == "girg" ||
           head == "rmat";
}

gen::GeneratorConfig parse_generator_spec(const std::string& spec, std::size_t n,
                                          std::uint64_t seed) {
    const auto [head, rest] = split_head(spec);
    std::string family;
    std::string params;
    if (head == "gen") {
        std::tie(family, params) = split_head(rest);
    } else if (head == "cl") {
        family = "chunglu";
        params = rest;
    } else if (head == "hyper" || head == "girg") {
        family = "hyperbolic";
        params = rest;
    } else if (head == "rmat") {
        family = "rmat";
        params = rest;
    } else {
        throw SpecError("not a generator spec '" + spec + "'");
    }
    if (family == "er") family = "gnp";  // accept the legacy head's name

    gen::GeneratorConfig config;
    config.n = n;
    config.seed = seed;
    config.threads = 0;  // auto: the generated edge set is thread-invariant
    try {
        config.family = gen::parse_family(family);
    } catch (const support::ContractViolation&) {
        throw SpecError("unknown generator family '" + family + "' in '" + spec + "'");
    }

    const std::size_t fields = field_count(params);
    switch (config.family) {
        case gen::Family::Complete:
        case gen::Family::Star:
            if (fields != 0) throw SpecError(spec + ": takes no parameters");
            break;
        case gen::Family::Gnp:
            config.p = parse_numbers(params, 1, spec)[0];
            break;
        case gen::Family::Gnm:
            config.edges = as_count(parse_numbers(params, 1, spec)[0], spec);
            break;
        case gen::Family::DOut:
        case gen::Family::DRegular:
        case gen::Family::BarabasiAlbert:
            config.degree = as_count(parse_numbers(params, 1, spec)[0], spec);
            break;
        case gen::Family::WattsStrogatz: {
            const auto v = parse_numbers(params, 2, spec);
            config.degree = as_count(v[0], spec);
            config.beta = v[1];
            break;
        }
        case gen::Family::ChungLu:
        case gen::Family::Hyperbolic: {
            if (fields < 2 || fields > 3) {
                throw SpecError(spec + ": expected <gamma>,<avgdeg>[,<maxw>]");
            }
            const auto v = parse_numbers(params, fields, spec);
            config.gamma = v[0];
            config.avg_degree = v[1];
            if (fields == 3) config.max_weight = v[2];
            break;
        }
        case gen::Family::Rmat: {
            if (fields != 1 && fields != 4) {
                throw SpecError(spec + ": expected <m>[,<a>,<b>,<c>]");
            }
            const auto v = parse_numbers(params, fields, spec);
            config.edges = as_count(v[0], spec);
            if (fields == 4) {
                config.rmat_a = v[1];
                config.rmat_b = v[2];
                config.rmat_c = v[3];
            }
            break;
        }
    }
    config.validate();
    return config;
}

graph::Graph make_graph(const std::string& spec, std::size_t n, rng::Rng& rng) {
    if (is_generator_spec(spec)) {
        // One seed draw keeps the surrounding rng stream position
        // independent of how many cells the facade generates.
        return gen::generate_graph(parse_generator_spec(spec, n, rng.next()));
    }
    const auto [head, rest] = split_head(spec);
    if (head == "complete") return graph::make_complete(n);
    if (head == "star") return graph::make_star(n);
    if (head == "cycle") return graph::make_cycle(n);
    if (head == "path") return graph::make_path(n);
    if (head == "dregular") {
        const auto v = parse_numbers(rest, 1, spec);
        return graph::make_random_d_regular(rng, n, as_count(v[0], spec));
    }
    if (head == "dout") {
        const auto v = parse_numbers(rest, 1, spec);
        return graph::make_d_out(rng, n, as_count(v[0], spec));
    }
    if (head == "er") {
        const auto v = parse_numbers(rest, 1, spec);
        return graph::make_erdos_renyi_gnp(rng, n, v[0]);
    }
    if (head == "gnm") {
        const auto v = parse_numbers(rest, 1, spec);
        return graph::make_erdos_renyi_gnm(rng, n, as_count(v[0], spec));
    }
    if (head == "ba") {
        const auto v = parse_numbers(rest, 1, spec);
        return graph::make_barabasi_albert(rng, n, as_count(v[0], spec));
    }
    if (head == "ws") {
        const auto v = parse_numbers(rest, 2, spec);
        return graph::make_watts_strogatz(rng, n, as_count(v[0], spec), v[1]);
    }
    if (head == "twotier") {
        const auto v = parse_numbers(rest, 2, spec);
        return graph::make_two_tier(rng, n, as_count(v[0], spec), as_count(v[1], spec));
    }
    if (head == "mindeg") {
        const auto v = parse_numbers(rest, 1, spec);
        return graph::make_min_degree_at_least(rng, n, as_count(v[0], spec));
    }
    if (head == "maxdeg") {
        const auto v = parse_numbers(rest, 1, spec);
        const std::size_t cap = as_count(v[0], spec);
        return graph::make_bounded_degree(rng, n, cap, n * cap / 4);
    }
    if (head == "file") {
        std::ifstream in(rest);
        if (!in) throw SpecError("file: cannot open '" + rest + "'");
        return graph::read_edge_list(in);
    }
    throw SpecError("unknown graph spec '" + spec + "'");
}

model::CompetencyVector make_competencies(const std::string& spec, std::size_t n,
                                          rng::Rng& rng) {
    const auto [head, rest] = split_head(spec);
    if (head == "uniform") {
        const auto v = parse_numbers(rest, 2, spec);
        return model::uniform_competencies(rng, n, v[0], v[1]);
    }
    if (head == "pc") {
        const auto v = parse_numbers(rest, 2, spec);
        return model::pc_competencies(rng, n, v[0], v[1]);
    }
    if (head == "beta") {
        const auto v = parse_numbers(rest, 2, spec);
        return model::beta_competencies(rng, n, v[0], v[1]);
    }
    if (head == "twopoint") {
        const auto v = parse_numbers(rest, 3, spec);
        return model::two_point_competencies(rng, n, v[0], v[1], v[2]);
    }
    if (head == "star") {
        const auto v = parse_numbers(rest, 2, spec);
        return model::star_competencies(n, v[0], v[1]);
    }
    if (head == "tnormal") {
        const auto v = parse_numbers(rest, 4, spec);
        return model::truncated_normal_competencies(rng, n, v[0], v[1], v[2], v[3]);
    }
    if (head == "const") {
        const auto v = parse_numbers(rest, 1, spec);
        return model::CompetencyVector(std::vector<double>(n, v[0]));
    }
    if (head == "figure2") {
        if (n != 9) throw SpecError("figure2 competencies require n = 9");
        return model::figure2_competencies();
    }
    throw SpecError("unknown competency spec '" + spec + "'");
}

std::unique_ptr<mech::Mechanism> make_mechanism(const std::string& spec) {
    const auto [head, rest] = split_head(spec);
    if (head == "direct") return std::make_unique<mech::DirectVoting>();
    if (head == "threshold") {
        const auto v = parse_numbers(rest, 1, spec);
        return std::make_unique<mech::ApprovalSizeThreshold>(as_count(v[0], spec));
    }
    if (head == "alg1") {
        const auto [kind, param] = split_head(rest, ',');
        if (kind == "log") {
            return std::make_unique<mech::CompleteGraphThreshold>(
                mech::CompleteGraphThreshold::with_log_threshold());
        }
        if (kind == "sqrt") {
            return std::make_unique<mech::CompleteGraphThreshold>(
                mech::CompleteGraphThreshold::with_sqrt_threshold());
        }
        if (kind == "lin") {
            const auto v = parse_numbers(param, 1, spec);
            return std::make_unique<mech::CompleteGraphThreshold>(
                mech::CompleteGraphThreshold::with_linear_threshold(v[0]));
        }
        throw SpecError("alg1 expects log | sqrt | lin,<frac>");
    }
    if (head == "alg2") {
        // alg2:<d>,<j>,pop|nbr
        const auto last_comma = rest.rfind(',');
        if (last_comma == std::string::npos) {
            throw SpecError("alg2 expects <d>,<j>,pop|nbr");
        }
        const std::string mode = rest.substr(last_comma + 1);
        const auto v = parse_numbers(rest.substr(0, last_comma), 2, spec);
        mech::SampleSource source;
        if (mode == "pop") source = mech::SampleSource::Population;
        else if (mode == "nbr") source = mech::SampleSource::Neighbourhood;
        else throw SpecError("alg2 mode must be pop or nbr");
        return std::make_unique<mech::DOutSampling>(as_count(v[0], spec),
                                                    as_count(v[1], spec), source);
    }
    if (head == "fraction") {
        const auto v = parse_numbers(rest, 1, spec);
        return std::make_unique<mech::FractionApproved>(v[0]);
    }
    if (head == "best") return std::make_unique<mech::BestNeighbour>();
    if (head == "capped") {
        const auto v = parse_numbers(rest, 1, spec);
        return std::make_unique<mech::CappedTarget>(as_count(v[0], spec));
    }
    if (head == "noisy") {
        const auto v = parse_numbers(rest, 2, spec);
        return std::make_unique<mech::NoisyThreshold>(as_count(v[0], spec), v[1]);
    }
    if (head == "multi") {
        const auto v = parse_numbers(rest, 2, spec);
        return std::make_unique<mech::MultiDelegate>(as_count(v[0], spec),
                                                     as_count(v[1], spec));
    }
    if (head == "abstain") {
        // abstain:<q>/<inner-spec>
        const auto slash = rest.find('/');
        if (slash == std::string::npos) throw SpecError("abstain expects <q>/<inner>");
        const auto v = parse_numbers(rest.substr(0, slash), 1, spec);
        auto inner = make_mechanism(rest.substr(slash + 1));
        return std::make_unique<OwningAbstaining>(std::move(inner), v[0]);
    }
    throw SpecError("unknown mechanism spec '" + spec + "'");
}

}  // namespace ld::cli
