// Typed access to request params, shared by the router and the live
// sessions: every mismatch is a BadRequest naming the key.

#pragma once

#include <cstdint>
#include <string>

#include "ld/serve/protocol.hpp"

namespace ld::serve {

[[noreturn]] void bad_param(const std::string& key, const std::string& what);

const json::Value& require(const json::Value& params, const std::string& key);

std::string require_string(const json::Value& params, const std::string& key);

double require_number(const json::Value& params, const std::string& key);

/// params[key] as a count (`json::count_of`); BadRequest otherwise.
std::uint64_t require_count(const json::Value& params, const std::string& key);

}  // namespace ld::serve
