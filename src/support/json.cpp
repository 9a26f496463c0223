#include "support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace ld::support::json {

namespace {

[[noreturn]] void type_error(const char* wanted) {
    throw Error(std::string("json: value is not ") + wanted);
}

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value parse_document() {
        Value v = parse_value();
        skip_whitespace();
        if (pos_ != text_.size()) fail("trailing garbage after document");
        return v;
    }

private:
    Value parse_value() {
        skip_whitespace();
        if (pos_ >= text_.size()) fail("unexpected end of input");
        switch (text_[pos_]) {
            case '{':
            case '[': {
                // Containers recurse: cap their depth so no document can
                // exhaust the stack.
                if (++depth_ > kMaxDepth) {
                    fail("nesting deeper than " + std::to_string(kMaxDepth));
                }
                Value nested = text_[pos_] == '{' ? parse_object() : parse_array();
                --depth_;
                return nested;
            }
            case '"': return Value(parse_string());
            case 't': expect_word("true"); return Value(true);
            case 'f': expect_word("false"); return Value(false);
            case 'n': expect_word("null"); return Value(nullptr);
            default: return parse_number();
        }
    }

    Value parse_object() {
        consume('{');
        Object object;
        skip_whitespace();
        if (peek() == '}') {
            ++pos_;
            return Value(std::move(object));
        }
        for (;;) {
            skip_whitespace();
            std::string key = parse_string();
            skip_whitespace();
            consume(':');
            object.emplace(std::move(key), parse_value());
            skip_whitespace();
            const char ch = peek();
            if (ch == ',') {
                ++pos_;
                continue;
            }
            if (ch == '}') {
                ++pos_;
                return Value(std::move(object));
            }
            fail("expected ',' or '}' in object");
        }
    }

    Value parse_array() {
        consume('[');
        Array array;
        skip_whitespace();
        if (peek() == ']') {
            ++pos_;
            return Value(std::move(array));
        }
        for (;;) {
            array.push_back(parse_value());
            skip_whitespace();
            const char ch = peek();
            if (ch == ',') {
                ++pos_;
                continue;
            }
            if (ch == ']') {
                ++pos_;
                return Value(std::move(array));
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string parse_string() {
        consume('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char ch = text_[pos_++];
            if (ch == '"') return out;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    // A high surrogate and the \u low surrogate after it
                    // are one code point; a surrogate alone has no UTF-8.
                    unsigned code = parse_hex4();
                    if (code >= 0xDC00 && code <= 0xDFFF) fail("lone low surrogate");
                    if (code >= 0xD800 && code <= 0xDBFF) {
                        unsigned low = 0;
                        if (text_.substr(pos_, 2) == "\\u") {
                            pos_ += 2;
                            low = parse_hex4();
                        }
                        if (low < 0xDC00 || low > 0xDFFF) fail("lone high surrogate");
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                    append_utf8(out, code);
                    break;
                }
                default: fail("unknown escape character");
            }
        }
    }

    /// The four hex digits of a \u escape, as a UTF-16 code unit.
    unsigned parse_hex4() {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char hex = text_[pos_++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') code |= unsigned(hex - '0');
            else if (hex >= 'a' && hex <= 'f') code |= unsigned(hex - 'a' + 10);
            else if (hex >= 'A' && hex <= 'F') code |= unsigned(hex - 'A' + 10);
            else fail("bad hex digit in \\u escape");
        }
        return code;
    }

    /// `code` (at most 0x10FFFF, no surrogate) as UTF-8.
    static void append_utf8(std::string& out, unsigned code) {
        static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
        const int tail = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
        out += static_cast<char>(kLead[tail] | code >> (6 * tail));
        for (int i = tail - 1; i >= 0; --i) {
            out += static_cast<char>(0x80 | ((code >> (6 * i)) & 0x3F));
        }
    }

    Value parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) fail("expected a value");
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        const double parsed = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) fail("malformed number");
        // A literal past the double range (1e400) would parse to ±inf,
        // which no reader range-checks and format_number cannot render.
        if (!std::isfinite(parsed)) fail("number out of range");
        return Value(parsed);
    }

    void expect_word(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word) fail("unexpected token");
        pos_ += word.size();
    }

    void skip_whitespace() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() const {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void consume(char expected) {
        if (pos_ >= text_.size() || text_[pos_] != expected) {
            fail(std::string("expected '") + expected + "'");
        }
        ++pos_;
    }

    [[noreturn]] void fail(const std::string& message) const {
        throw Error("json: " + message + " at byte " + std::to_string(pos_));
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;  // containers open at pos_
};

}  // namespace

bool Value::as_bool() const {
    if (!is_bool()) type_error("a bool");
    return std::get<bool>(data_);
}

double Value::as_number() const {
    if (!is_number()) type_error("a number");
    return std::get<double>(data_);
}

const std::string& Value::as_string() const {
    if (!is_string()) type_error("a string");
    return std::get<std::string>(data_);
}

const Array& Value::as_array() const {
    if (!is_array()) type_error("an array");
    return std::get<Array>(data_);
}

const Object& Value::as_object() const {
    if (!is_object()) type_error("an object");
    return std::get<Object>(data_);
}

bool Value::contains(const std::string& key) const { return find(key) != nullptr; }

const Value& Value::at(const std::string& key) const {
    const Value* v = find(key);
    if (!v) throw Error("json: missing key '" + key + "'");
    return *v;
}

const Value* Value::find(const std::string& key) const {
    if (!is_object()) type_error("an object");
    const auto& object = std::get<Object>(data_);
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("json: cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str());
}

std::string format_number(double value) {
    if (!std::isfinite(value)) throw Error("json: cannot serialize non-finite number");
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return os.str();
}

std::optional<std::uint64_t> count_of(double d) noexcept {
    // Written so that NaN fails the range test too.
    if (!(d >= 0.0 && d <= 0x1p53) || d != std::floor(d)) return std::nullopt;
    return static_cast<std::uint64_t>(d);
}

std::string quote(const std::string& text) {
    std::string out = "\"";
    for (const char raw : text) {
        const auto ch = static_cast<unsigned char>(raw);
        switch (ch) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (ch < 0x20) {
                    static const char hex[] = "0123456789abcdef";
                    out += "\\u00";
                    out += hex[ch >> 4];
                    out += hex[ch & 0xf];
                } else {
                    out += raw;
                }
        }
    }
    out += '"';
    return out;
}

namespace {

void write_value(std::ostream& os, const Value& value, int indent, int depth) {
    const auto newline_pad = [&](int levels) {
        if (indent <= 0) return;
        os << '\n' << std::string(static_cast<std::size_t>(indent) * levels, ' ');
    };
    if (value.is_null()) {
        os << "null";
    } else if (value.is_bool()) {
        os << (value.as_bool() ? "true" : "false");
    } else if (value.is_number()) {
        os << format_number(value.as_number());
    } else if (value.is_string()) {
        os << quote(value.as_string());
    } else if (value.is_array()) {
        const Array& array = value.as_array();
        if (array.empty()) {
            os << "[]";
            return;
        }
        os << '[';
        for (std::size_t i = 0; i < array.size(); ++i) {
            if (i) os << (indent > 0 ? "," : ", ");
            newline_pad(depth + 1);
            write_value(os, array[i], indent, depth + 1);
        }
        newline_pad(depth);
        os << ']';
    } else {
        const Object& object = value.as_object();
        if (object.empty()) {
            os << "{}";
            return;
        }
        os << '{';
        std::size_t i = 0;
        for (const auto& [key, member] : object) {
            if (i++) os << (indent > 0 ? "," : ", ");
            newline_pad(depth + 1);
            os << quote(key) << ": ";
            write_value(os, member, indent, depth + 1);
        }
        newline_pad(depth);
        os << '}';
    }
}

}  // namespace

void write(std::ostream& os, const Value& value, int indent) {
    write_value(os, value, indent, 0);
}

std::string dump(const Value& value, int indent) {
    std::ostringstream os;
    write(os, value, indent);
    return os.str();
}

}  // namespace ld::support::json
