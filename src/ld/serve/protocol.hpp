// The `liquidd.rpc.v1` wire protocol: newline-delimited JSON over a
// Unix-domain or TCP-loopback stream.  One request per line, one response
// per line, matched by the client-chosen `id` (docs/SERVING.md §4 says
// which responses keep request order on a connection).
//
//   request:  {"id": <string|number>, "method": "<name>",
//              "params": {...}, "deadline_ms": <number, optional>}
//   success:  {"id": ..., "ok": true, "result": {...}}
//   failure:  {"id": ..., "ok": false,
//              "error": {"code": "<ErrorCode>", "message": "..."}}
//
// On connect the server speaks first with a handshake line:
//   {"schema": "liquidd.rpc.v1", "server": "liquidd",
//    "build": {...}, "methods": [...]}
//
// Protocol reference with per-method params/results: docs/SERVING.md.

#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <string_view>

#include "support/json.hpp"

namespace ld::serve {

namespace json = support::json;

inline constexpr std::string_view kSchema = "liquidd.rpc.v1";

/// Machine-readable failure classes.  Stable strings — clients switch on
/// them (loadgen counts per-code; CI asserts no protocol errors).
enum class ErrorCode {
    BadRequest,       ///< unparseable line / missing or ill-typed fields
    UnknownMethod,    ///< method not in the handshake list
    Overloaded,       ///< admission queue full — back off and retry
    DeadlineExceeded, ///< request expired before execution finished
    NotFound,         ///< instance fingerprint not in the cache
    Conflict,         ///< instance.patch expect_epoch mismatch — refetch state
    ShuttingDown,     ///< server is draining; no new work accepted
    Internal,         ///< evaluation threw (bug or bad spec params)
};

std::string_view error_code_name(ErrorCode code) noexcept;

/// Thrown by parse/validate helpers; carries the response error code.
class ProtocolError : public std::runtime_error {
public:
    ProtocolError(ErrorCode code, const std::string& what)
        : std::runtime_error(what), code_(code) {}
    ErrorCode code() const noexcept { return code_; }

private:
    ErrorCode code_;
};

/// One parsed request, stamped with its admission time so deadline
/// checks need no further clock reads at parse sites.
struct Request {
    json::Value id;      ///< echoed verbatim (null when the client sent none)
    std::string method;
    json::Value params;  ///< object, or null when absent
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::chrono::steady_clock::time_point admitted_at;

    bool expired(std::chrono::steady_clock::time_point now) const noexcept {
        return deadline.has_value() && now > *deadline;
    }
};

/// Parse one request line.  Throws ProtocolError(BadRequest) on anything
/// malformed; the caller still gets the id (best effort) for the error
/// response via `id_of_line`.
Request parse_request(std::string_view line, std::chrono::steady_clock::time_point now);

/// Best-effort id extraction from a possibly malformed request line, so
/// error responses stay correlated when parse_request throws.
json::Value id_of_line(std::string_view line) noexcept;

/// Render a success response line (no trailing newline).
std::string render_result(const json::Value& id, json::Object result);

/// Render a failure response line (no trailing newline).
std::string render_error(const json::Value& id, ErrorCode code,
                         const std::string& message);

/// The server's opening line: schema, build info, method list.
std::string render_handshake();

}  // namespace ld::serve
