// The spec grammar of `liquidd run`, sweeps and `liquidd serve`: compact
// names for graphs, competency profiles and mechanisms.  A spec is
// `head[:fields]` with comma-separated fields; each head is one row of a
// table in specs.cpp that lists its fields (count, real or keyword) and
// its builder.
//
//   graphs      : complete | star | cycle | path | dregular:<d> | dout:<d>
//                 | er:<p> (alias gnp) | gnm:<m> | ba:<m> | ws:<k>,<beta>
//                 | twotier:<hubs>,<spokes> | mindeg:<d> | maxdeg:<cap>
//                 | file:<path>            (edge-list format, see graph/io)
//                 streaming facade (chunked CSR, docs/GENERATORS.md):
//                 | cl:<gamma>,<avgdeg>[,<maxw>]     (Chung–Lu; alias chunglu)
//                 | hyper:<gamma>,<avgdeg>[,<maxw>]  (1-D GIRG; girg, hyperbolic)
//                 | rmat:<m>[,<a>,<b>,<c>]           (Kronecker/R-MAT)
//                 | gen:<head>[:<fields>]  (the facade builder of a head above;
//                   all but cycle, path, twotier, mindeg, maxdeg, file)
//   competencies: uniform:<lo>,<hi> | pc:<a>,<spread> | beta:<a>,<b>
//                 | twopoint:<low>,<high>,<frac> | star:<centre>,<leaf>
//                 | tnormal:<mu>,<sigma>,<lo>,<hi> | const:<p> | figure2
//   mechanisms  : direct | threshold:<j> | alg1:log | alg1:sqrt
//                 | alg1:lin,<frac> | alg2:<d>,<j>,pop | alg2:<d>,<j>,nbr
//                 | fraction:<f> | best | capped:<degree-cap>
//                 | noisy:<j>,<eta> | multi:<m>,<j>
//                 | abstain:<q>/<inner-spec>
//
// [Bracketed] fields come all together or not at all; numbers take
// std::stod's syntax.  Every field is checked before anything is built,
// and every failure is a SpecError that quotes the spec: an unknown head;
// the wrong number of fields; a number that does not parse or is not
// finite; a count that is fractional, negative or >= 2^64; or a value a
// builder's precondition refuses (`ws:3,0.2`, `gen:gnp:2`, `multi:2,1`),
// with the precondition's text but not its source location.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "gen/config.hpp"
#include "graph/graph.hpp"
#include "ld/mech/mechanism.hpp"
#include "ld/model/instance.hpp"
#include "rng/rng.hpp"

namespace ld::cli {

/// Thrown on an unknown, malformed or out-of-domain spec or flag value.
class SpecError : public std::runtime_error {
public:
    explicit SpecError(const std::string& what) : std::runtime_error(what) {}
};

/// `text` as a finite number in std::stod's syntax, then (parse_size) as
/// a count: whole and in [0, 2^64), checked before the cast (count_of).
/// `context` names the value in the SpecError.
double parse_double(const std::string& text, const std::string& context);
std::optional<std::size_t> count_of(double value);
std::size_t parse_size(const std::string& text, const std::string& context);

graph::Graph make_graph(const std::string& spec, std::size_t n, rng::Rng& rng);

/// Whether `spec` routes through the streaming generation facade: a
/// `gen:` spec, or a head with no other builder (cl, hyper, girg, rmat).
bool is_generator_spec(const std::string& spec);

/// A streaming-facade graph spec as a GeneratorConfig of the given size
/// and seed (execution shape at its defaults, but threads = 0, auto).
gen::GeneratorConfig parse_generator_spec(const std::string& spec, std::size_t n,
                                          std::uint64_t seed);

model::CompetencyVector make_competencies(const std::string& spec, std::size_t n,
                                          rng::Rng& rng);

/// The returned object owns any wrapped inner mechanism.
std::unique_ptr<mech::Mechanism> make_mechanism(const std::string& spec);

/// The graph, then the competencies, both drawn from `rng`, as one
/// Instance with approval margin `alpha` (finite and > 0).
model::Instance make_instance(const std::string& graph, const std::string& competencies,
                              std::size_t n, double alpha, rng::Rng& rng);

}  // namespace ld::cli
