// Property test for the JSON layer: parse(dump(v)) == v for randomized
// values — nested arrays/objects, strings full of escapes and control
// characters, and doubles from the nasty corners of IEEE 754.  The
// round-trip contract is what the sweep checkpoints, metrics reports,
// and the liquidd.rpc.v1 wire format all lean on: a value serialized by
// one process must reparse bit-identically in another.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace {

namespace json = ld::support::json;

using Generator = std::mt19937_64;

double random_double(Generator& gen) {
    // Mix uniform draws with reinterpreted random bit patterns so the
    // mantissa corners (denormals, near-integer magnitudes, tiny
    // exponents) all show up; NaN/infinity are unrepresentable in JSON
    // and filtered out.
    static const double corners[] = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        -1.0 / 3.0,
        1e-9,
        1e300,
        -1e300,
        3.141592653589793,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),      // smallest normal
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::epsilon(),
        9007199254740993.0,  // > 2^53: rounds to an even mantissa
    };
    std::uniform_int_distribution<int> pick(0, 3);
    switch (pick(gen)) {
        case 0:
            return corners[std::uniform_int_distribution<std::size_t>(
                0, std::size(corners) - 1)(gen)];
        case 1:
            return std::uniform_real_distribution<double>(-1e6, 1e6)(gen);
        case 2: {
            // Random bits: any finite double, denormals included.
            double value;
            do {
                const std::uint64_t bits = gen();
                std::memcpy(&value, &bits, sizeof value);
            } while (!std::isfinite(value));
            return value;
        }
        default:
            return static_cast<double>(
                std::uniform_int_distribution<std::int64_t>(-1'000'000, 1'000'000)(gen));
    }
}

std::string random_string(Generator& gen) {
    // ASCII with every escape class: quotes, backslashes, control
    // characters (the \u00XX path), plus embedded multi-byte UTF-8.
    static const char pool[] =
        "abc XYZ 019 \" \\ / \b \f \n \r \t \x01 \x1f {}[]:,";
    static const char* utf8[] = {"é", "→", "\U0001F4A1"};
    std::uniform_int_distribution<int> length(0, 24);
    std::uniform_int_distribution<int> kind(0, 9);
    std::string out;
    const int n = length(gen);
    for (int i = 0; i < n; ++i) {
        if (kind(gen) == 0) {
            out += utf8[std::uniform_int_distribution<std::size_t>(
                0, std::size(utf8) - 1)(gen)];
        } else {
            out += pool[std::uniform_int_distribution<std::size_t>(
                0, sizeof(pool) - 2)(gen)];
        }
    }
    return out;
}

json::Value random_value(Generator& gen, int depth) {
    // Leaves only at depth 0; containers get rarer as they nest.
    std::uniform_int_distribution<int> pick(0, depth > 0 ? 5 : 3);
    switch (pick(gen)) {
        case 0:
            return json::Value(nullptr);
        case 1:
            return json::Value(std::bernoulli_distribution(0.5)(gen));
        case 2:
            return json::Value(random_double(gen));
        case 3:
            return json::Value(random_string(gen));
        case 4: {
            json::Array array;
            const int n = std::uniform_int_distribution<int>(0, 4)(gen);
            for (int i = 0; i < n; ++i) array.push_back(random_value(gen, depth - 1));
            return json::Value(std::move(array));
        }
        default: {
            json::Object object;
            const int n = std::uniform_int_distribution<int>(0, 4)(gen);
            for (int i = 0; i < n; ++i) {
                object.emplace(random_string(gen), random_value(gen, depth - 1));
            }
            return json::Value(std::move(object));
        }
    }
}

TEST(JsonRoundTrip, RandomValuesSurviveCompactAndPrettyDumps) {
    Generator gen(20260806);
    for (int trial = 0; trial < 500; ++trial) {
        const json::Value value = random_value(gen, 4);
        const std::string compact = json::dump(value);
        EXPECT_TRUE(json::parse(compact) == value)
            << "trial " << trial << ": " << compact;
        const std::string pretty = json::dump(value, 2);
        EXPECT_TRUE(json::parse(pretty) == value)
            << "trial " << trial << ": " << pretty;
        // dump is deterministic: the round-tripped value re-dumps to the
        // same bytes (objects are ordered maps, numbers are canonical).
        EXPECT_EQ(json::dump(json::parse(compact)), compact) << "trial " << trial;
    }
}

TEST(JsonRoundTrip, ExtremeDoublesAreExact) {
    const double cases[] = {
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        9007199254740993.0,
        1.7976931348623155e308,
        4.9406564584124654e-324,
        -2.2250738585072014e-308,
    };
    for (const double expected : cases) {
        const json::Value parsed = json::parse(json::dump(json::Value(expected)));
        EXPECT_EQ(parsed.as_number(), expected) << expected;
    }
    // NaN and infinity have no JSON rendering: the serializer must
    // refuse rather than emit something a reader would reject.
    EXPECT_THROW(json::dump(json::Value(std::numeric_limits<double>::quiet_NaN())),
                 json::Error);
    EXPECT_THROW(json::dump(json::Value(std::numeric_limits<double>::infinity())),
                 json::Error);
}

TEST(JsonRoundTrip, EscapeHeavyStringsSurvive) {
    const std::string cases[] = {
        "",
        "\"\\\"",
        std::string("\x00\x01\x02", 3),  // embedded NUL
        "line\nbreak\r\n\ttab",
        "\x7f high ÿ bit",
        "é→\U0001F4A1",
        "ends with backslash \\",
    };
    for (const auto& expected : cases) {
        const json::Value parsed = json::parse(json::dump(json::Value(expected)));
        EXPECT_EQ(parsed.as_string(), expected) << json::quote(expected);
    }
}

// A \u surrogate pair is one code point, written as one 4-byte UTF-8
// sequence; a surrogate alone has no UTF-8 form, so it is malformed input
// instead of bytes a reply would echo back.
TEST(JsonParse, SurrogatePairsDecodeAndLoneSurrogatesThrow) {
    const json::Value pair = json::parse(R"("\ud83d\ude00")");
    EXPECT_EQ(pair.as_string(), "\xF0\x9F\x98\x80");
    EXPECT_EQ(json::parse(json::dump(pair)), pair);
    EXPECT_EQ(json::parse(R"("\u0041\u00e9\u2192")").as_string(), "Aé→");
    for (const char* text : {R"("\ud800")", R"("\udc00")", R"("\ud800A")",
                             R"("\ud800\u0041")", R"("\udc00\ud800")"}) {
        EXPECT_THROW(json::parse(text), json::Error) << text;
    }
}

// `depth` nested arrays, or objects {"k": ...}, around a 1.
std::string nested(std::size_t depth, bool objects) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += objects ? "{\"k\":" : "[";
    text += "1";
    for (std::size_t i = 0; i < depth; ++i) text += objects ? "}" : "]";
    return text;
}

TEST(JsonParse, MillionOpenBracketsThrowInsteadOfOverflowingTheStack) {
    EXPECT_THROW(json::parse(std::string(1000000, '[')), json::Error);
}

// A literal past the double range would parse to ±inf, which readers do
// not range-check and format_number cannot render.  Underflow stays
// finite and parses.
TEST(JsonParse, OverflowingNumbersAreErrors) {
    EXPECT_THROW(json::parse("1e400"), json::Error);
    EXPECT_THROW(json::parse("-1e400"), json::Error);
    EXPECT_THROW(json::parse(R"({"id":1e400,"method":"health"})"), json::Error);
    EXPECT_EQ(json::parse("1e-400").as_number(), 0.0);
}

TEST(JsonParse, NestingIsCappedAtMaxDepth) {
    for (const bool objects : {false, true}) {
        SCOPED_TRACE(objects ? "objects" : "arrays");
        const json::Value deepest = json::parse(nested(json::kMaxDepth, objects));
        const json::Value* v = &deepest;
        for (std::size_t i = 0; i < json::kMaxDepth; ++i) {
            v = objects ? &v->at("k") : &v->as_array().at(0);
        }
        EXPECT_EQ(v->as_number(), 1.0);
        EXPECT_THROW(json::parse(nested(json::kMaxDepth + 1, objects)), json::Error);
    }
    // The cap counts open containers, not containers seen: siblings at the
    // cap depth parse.
    const std::string inner = nested(json::kMaxDepth - 1, false);
    EXPECT_NO_THROW(json::parse("[" + inner + "," + inner + "]"));
}

}  // namespace
