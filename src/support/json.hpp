// Minimal JSON document model, recursive-descent parser, and serializer.
// The parser is enough to read google-benchmark snapshots
// (tools/bench_diff), liquidd metrics reports, and sweep specs /
// checkpoint manifests; the serializer (write/dump) round-trips a Value
// so that checkpoints re-emit bit-identically (numbers are formatted with
// a single shared function, see format_number).

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ld::support::json {

/// Thrown on malformed input (with a byte offset) or on type-mismatched
/// access.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// One JSON value.  Numbers are doubles (google-benchmark emits times in
/// scientific notation; 53 bits of mantissa are plenty for ns readings).
class Value {
public:
    Value() : data_(nullptr) {}
    Value(std::nullptr_t) : data_(nullptr) {}
    Value(bool b) : data_(b) {}
    Value(double d) : data_(d) {}
    Value(std::string s) : data_(std::move(s)) {}
    Value(Array a) : data_(std::move(a)) {}
    Value(Object o) : data_(std::move(o)) {}

    bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(data_); }
    bool is_bool() const noexcept { return std::holds_alternative<bool>(data_); }
    bool is_number() const noexcept { return std::holds_alternative<double>(data_); }
    bool is_string() const noexcept { return std::holds_alternative<std::string>(data_); }
    bool is_array() const noexcept { return std::holds_alternative<Array>(data_); }
    bool is_object() const noexcept { return std::holds_alternative<Object>(data_); }

    bool as_bool() const;
    double as_number() const;
    const std::string& as_string() const;
    const Array& as_array() const;
    const Object& as_object() const;

    /// Object member access; at() throws Error when the key is missing,
    /// find() returns nullptr.
    bool contains(const std::string& key) const;
    const Value& at(const std::string& key) const;
    const Value* find(const std::string& key) const;

    /// Deep structural equality (same alternative, equal contents).
    /// Doubles compare with ==, which is exactly the round-trip contract:
    /// parse(dump(v)) == v because format_number keeps 17 digits.
    friend bool operator==(const Value& a, const Value& b) { return a.data_ == b.data_; }

private:
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Deepest container nesting `parse` accepts; deeper documents are an
/// Error, not a stack overflow.
inline constexpr std::size_t kMaxDepth = 256;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an Error; so is nesting deeper than kMaxDepth).
Value parse(std::string_view text);

/// Parse the file at `path`; Error on unreadable file or bad JSON.
Value parse_file(const std::string& path);

/// `d` as a count when it is one — finite, non-negative, whole and at most
/// 2⁵³, past which doubles skip integers — else nullopt.  The range checks
/// come before the cast, so no value ever reaches a cast it overflows.
std::optional<std::uint64_t> count_of(double d) noexcept;

/// Canonical number rendering used by the serializer: round-trip precision
/// (17 significant digits, so parse(format_number(x)) == x), integral
/// doubles without a decimal point.  Throws Error on NaN/infinity, which
/// JSON cannot represent.
std::string format_number(double value);

/// `text` as a quoted, escaped JSON string literal.
std::string quote(const std::string& text);

/// Serialize `value` to `os`.  `indent` 0 emits one compact line (JSONL
/// rows); positive values pretty-print with that many spaces per level.
void write(std::ostream& os, const Value& value, int indent = 0);

/// write() into a string.
std::string dump(const Value& value, int indent = 0);

}  // namespace ld::support::json
