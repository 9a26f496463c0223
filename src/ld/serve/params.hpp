// Typed access to request params, shared by the router and the live
// sessions: every mismatch is a BadRequest naming the key.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "ld/serve/protocol.hpp"

namespace ld::serve {

/// Largest count a param may carry: 2⁵³, past which doubles skip integers.
inline constexpr double kMaxParamCount = 9007199254740992.0;

/// `d` as a count when it is one — finite, non-negative, whole and at most
/// 2⁵³ — else nullopt.  The range checks come before the cast, so no value
/// ever reaches a cast it overflows.
std::optional<std::uint64_t> count_of(double d) noexcept;

[[noreturn]] void bad_param(const std::string& key, const std::string& what);

const json::Value& require(const json::Value& params, const std::string& key);

std::string require_string(const json::Value& params, const std::string& key);

double require_number(const json::Value& params, const std::string& key);

/// params[key] as a count (`count_of`); BadRequest otherwise.
std::uint64_t require_count(const json::Value& params, const std::string& key);

}  // namespace ld::serve
