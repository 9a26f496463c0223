#include "ld/serve/params.hpp"

namespace ld::serve {

void bad_param(const std::string& key, const std::string& what) {
    throw ProtocolError(ErrorCode::BadRequest, "params." + key + ": " + what);
}

const json::Value& require(const json::Value& params, const std::string& key) {
    if (!params.is_object()) {
        throw ProtocolError(ErrorCode::BadRequest, "params object required");
    }
    const json::Value* value = params.find(key);
    if (!value) bad_param(key, "missing");
    return *value;
}

std::string require_string(const json::Value& params, const std::string& key) {
    const json::Value& value = require(params, key);
    if (!value.is_string() || value.as_string().empty()) {
        bad_param(key, "expected a non-empty string");
    }
    return value.as_string();
}

double require_number(const json::Value& params, const std::string& key) {
    const json::Value& value = require(params, key);
    if (!value.is_number()) bad_param(key, "expected a number");
    return value.as_number();
}

std::uint64_t require_count(const json::Value& params, const std::string& key) {
    const std::optional<std::uint64_t> count =
        json::count_of(require_number(params, key));
    if (!count) bad_param(key, "expected a non-negative integer <= 2^53");
    return *count;
}

}  // namespace ld::serve
