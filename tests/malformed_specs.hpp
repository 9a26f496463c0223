// Malformed graph, competency and mechanism specs, one or more per kind of
// fault the spec grammar refuses.  The spec tests build each one and
// expect a SpecError; the serve tests send each one and expect
// bad_request.

#pragma once

namespace ld::test {

enum class SpecKind { Graph, Competencies, Mechanism };

struct MalformedSpec {
    SpecKind kind;
    const char* spec;
};

inline constexpr MalformedSpec kMalformedSpecs[] = {
    // A real field that is not finite, or overflows.
    {SpecKind::Graph, "er:nan"},
    {SpecKind::Graph, "er:1e400"},
    {SpecKind::Competencies, "uniform:nan,0.7"},
    {SpecKind::Competencies, "uniform:0.3,inf"},
    // A count field that is not finite, or overflows.
    {SpecKind::Graph, "dregular:inf"},
    {SpecKind::Graph, "dout:1e400"},
    {SpecKind::Mechanism, "threshold:nan"},
    // Fractional, negative and >= 2^64 counts.
    {SpecKind::Graph, "dregular:2.5"},
    {SpecKind::Graph, "gnm:-1"},
    {SpecKind::Graph, "rmat:1e20"},
    {SpecKind::Mechanism, "capped:18446744073709551616"},
    // The wrong number of fields.
    {SpecKind::Graph, "ws:4"},
    {SpecKind::Graph, "complete:3"},
    {SpecKind::Graph, "cl:2.5,8,1,2"},
    {SpecKind::Graph, "rmat:10,0.5"},
    {SpecKind::Competencies, "pc:0.1"},
    {SpecKind::Mechanism, "alg2:8"},
    {SpecKind::Mechanism, "abstain:0.5"},
    // An unknown head, or a head with no facade builder under gen:.
    {SpecKind::Graph, "nope"},
    {SpecKind::Graph, "gen:nosuch:1"},
    {SpecKind::Graph, "gen:cycle"},
    {SpecKind::Competencies, "gauss:1"},
    {SpecKind::Mechanism, "cubic"},
    // Values out of the builder's domain.
    {SpecKind::Graph, "ws:3,0.2"},
    {SpecKind::Graph, "gen:gnp:2"},
    {SpecKind::Competencies, "const:1.5"},
    {SpecKind::Mechanism, "fraction:nan"},
    {SpecKind::Mechanism, "multi:2,1"},
    {SpecKind::Mechanism, "alg1:cubic"},
    {SpecKind::Mechanism, "alg2:8,2,sideways"},
    {SpecKind::Mechanism, "abstain:2/threshold:1"},
};

}  // namespace ld::test
