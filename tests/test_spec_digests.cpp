// Pins what every head and alias of the spec grammar builds, by FNV-1a
// digest: the graph's edges, the competency values, the mechanism's name
// plus the actions it draws on a fixed instance, and in each case the
// caller Rng's next draw after the build.  A rewrite of the spec parser
// must leave every digest where it is.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "fnv1a.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "ld/cli/specs.hpp"
#include "ld/model/competency_gen.hpp"
#include "ld/model/instance.hpp"

namespace {

using ld::rng::Rng;
using ld::test::fnv1a_fold;
using ld::test::fnv1a_fold_edges;
using ld::test::kFnvOffset;

struct SpecDigest {
    const char* spec;
    std::uint64_t digest;
};

void fold_text(std::uint64_t& hash, const std::string& text) {
    fnv1a_fold(hash, text.size());
    for (const char c : text) fnv1a_fold(hash, static_cast<std::uint8_t>(c));
}

std::string hex(std::uint64_t value) {
    char buffer[24];
    std::snprintf(buffer, sizeof buffer, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

TEST(SpecDigests, GraphHeadsBuildTheRecordedGraphs) {
    const std::string path = ::testing::TempDir() + "spec_digest_edges.txt";
    {
        std::ofstream out(path);
        ld::graph::write_edge_list(out, ld::graph::make_cycle(10));
    }
    const SpecDigest rows[] = {
        {"complete", 0x7c7bafa937f97b09ULL},
        {"star", 0x2589a9155c50243fULL},
        {"cycle", 0x24502bb2920feeccULL},
        {"path", 0x3fb214676eed83bcULL},
        {"dregular:4", 0x805a54837db740adULL},
        {"dout:3", 0xba17f3c6f9a1da00ULL},
        {"er:0.1", 0xfc03722f41770b08ULL},
        {"gnm:100", 0xb59eb56b3d6aeef6ULL},
        {"ba:3", 0x65cf3c7c65e4c5ddULL},
        {"ws:4,0.2", 0xb6298ca94d974f89ULL},
        {"twotier:3,1", 0xf50cce444e671af0ULL},
        {"mindeg:3", 0x020fb47f2a2f9886ULL},
        {"maxdeg:4", 0x16fcdb76b741da9cULL},
        {"gen:complete", 0x69512d6c08bcd985ULL},
        {"gen:star", 0x2d731ecd77868affULL},
        {"gen:gnp:0.1", 0x7532f92956e55dc9ULL},
        {"gen:er:0.1", 0x7532f92956e55dc9ULL},
        {"gen:gnm:100", 0xf7cafac30099376fULL},
        {"gen:dout:3", 0xafa069eacb70bbb7ULL},
        {"gen:dregular:4", 0xeb7abf9d3fa09326ULL},
        {"gen:ba:3", 0x70a74ef5476d92edULL},
        {"gen:ws:4,0.2", 0xa3bd5c0a80e747aeULL},
        {"gen:chunglu:2.5,6", 0x1bd4d1d446e4cfcfULL},
        {"gen:chunglu:2.5,6,20", 0xc8069e5f98bfcdc2ULL},
        {"gen:hyperbolic:2.7,6", 0x72815dad53b3e67cULL},
        {"gen:hyperbolic:2.7,6,20", 0x4ee9e5b3fd822bc5ULL},
        {"gen:rmat:300", 0x72a00810f7d68e1dULL},
        {"gen:rmat:300,0.5,0.2,0.2", 0x9bac12fc4aabacbaULL},
        {"cl:2.5,6", 0x1bd4d1d446e4cfcfULL},
        {"cl:2.5,6,20", 0xc8069e5f98bfcdc2ULL},
        {"hyper:2.7,6", 0x72815dad53b3e67cULL},
        {"hyper:2.7,6,20", 0x4ee9e5b3fd822bc5ULL},
        {"girg:2.7,6", 0x72815dad53b3e67cULL},
        {"girg:2.7,6,20", 0x4ee9e5b3fd822bc5ULL},
        {"rmat:300", 0x72a00810f7d68e1dULL},
        {"rmat:300,0.5,0.2,0.2", 0x9bac12fc4aabacbaULL},
    };
    const auto digest_of = [](const std::string& spec, std::size_t n) {
        Rng rng(21);
        std::uint64_t hash = kFnvOffset;
        fnv1a_fold_edges(hash, ld::cli::make_graph(spec, n, rng).edges());
        fnv1a_fold(hash, rng.next());
        return hash;
    };
    for (const SpecDigest& row : rows) {
        const std::uint64_t hash = digest_of(row.spec, 64);
        EXPECT_EQ(hash, row.digest) << row.spec << " digest=" << hex(hash);
    }
    const std::uint64_t file_hash = digest_of("file:" + path, 10);
    EXPECT_EQ(file_hash, 0x8ee572d7e680db1aULL) << "file: digest=" << hex(file_hash);
}

TEST(SpecDigests, CompetencyHeadsBuildTheRecordedProfiles) {
    const SpecDigest rows[] = {
        {"uniform:0.3,0.7", 0x73f441d32ec58616ULL},
        {"pc:0.02,0.25", 0xef0fa2ea34593dfdULL},
        {"beta:8,8.3", 0xdc60666a5599e6fbULL},
        {"twopoint:0.3,0.8,0.2", 0xbe277f2fe91b1e22ULL},
        {"star:0.75,0.55", 0xafd04bef35b71206ULL},
        {"tnormal:0.5,0.1,0.2,0.8", 0xf58707276d5470f2ULL},
        {"const:0.6", 0xe7576155726a3642ULL},
        {"figure2", 0xb9b818a88463882aULL},
    };
    for (const SpecDigest& row : rows) {
        const std::size_t n = std::string(row.spec) == "figure2" ? 9 : 40;
        Rng rng(22);
        std::uint64_t hash = kFnvOffset;
        const auto competencies = ld::cli::make_competencies(row.spec, n, rng);
        for (const double p : competencies.values()) fnv1a_fold(hash, p);
        fnv1a_fold(hash, rng.next());
        EXPECT_EQ(hash, row.digest) << row.spec << " digest=" << hex(hash);
    }
}

TEST(SpecDigests, MechanismHeadsDrawTheRecordedActions) {
    Rng setup(23);
    const ld::model::Instance instance(
        ld::graph::make_complete(24),
        ld::model::uniform_competencies(setup, 24, 0.3, 0.7), 0.05);
    const SpecDigest rows[] = {
        {"direct", 0x8cf2f5277ba9a91dULL},
        {"threshold:2", 0x242e307ad331e990ULL},
        {"alg1:log", 0xa2b10f1882a54d74ULL},
        {"alg1:sqrt", 0x35cd1c06e11d65fdULL},
        {"alg1:lin,0.25", 0x417e26ca2c26c4f0ULL},
        {"alg2:8,2,pop", 0x06129c17509d6eb7ULL},
        {"alg2:8,2,nbr", 0x49e938fa40412c70ULL},
        {"fraction:0.333", 0x97bdb48375f1b910ULL},
        {"best", 0x3e0e11ebec2c0480ULL},
        {"capped:3", 0xa5918501e6485173ULL},
        {"noisy:1,0.2", 0x6b069113483e6d5dULL},
        {"multi:3,1", 0x6cff6ff531d066cbULL},
        {"abstain:0.5/threshold:2", 0x3c9f69177d42b0e8ULL},
        {"abstain:0.3/abstain:0.5/alg2:8,2,nbr", 0xf3c92022b6bc069eULL},
    };
    for (const SpecDigest& row : rows) {
        const auto mechanism = ld::cli::make_mechanism(row.spec);
        Rng rng(24);
        std::uint64_t hash = kFnvOffset;
        fold_text(hash, mechanism->name());
        for (ld::graph::Vertex v = 0; v < instance.voter_count(); ++v) {
            const ld::mech::Action action = mechanism->act(instance, v, rng);
            fnv1a_fold(hash, static_cast<std::uint8_t>(action.kind));
            fnv1a_fold(hash, action.targets.size());
            for (const ld::graph::Vertex t : action.targets) fnv1a_fold(hash, t);
            fnv1a_fold(hash, action.target_weights.size());
            for (const double w : action.target_weights) fnv1a_fold(hash, w);
        }
        fnv1a_fold(hash, rng.next());
        EXPECT_EQ(hash, row.digest) << row.spec << " digest=" << hex(hash);
    }
}

}  // namespace
