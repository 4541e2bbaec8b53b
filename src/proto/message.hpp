// Typed protocol messages and their line-oriented text codec.
//
// The control plane of the debugger framework: clients drive a session
// through Requests and get Responses back; the session pushes
// asynchronous Events (breakpoint hits, divergences, engine-state
// changes) on the side. Everything is line-oriented text so whole debug
// scenarios can live in version-controlled script files and transcripts
// diff cleanly.
//
// Wire shapes:
//   request   verb arg1 "arg with spaces" ...
//   response  ok                          (body lines prefixed "| ")
//             error <code>: <message>
//   event     * <kind> [@<t>ns] <detail>
//
// Parsing never throws: malformed input comes back as a structured
// ParseResult / error Response, so nothing propagates exceptions across
// the wire.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rt/des.hpp"

namespace gmdf::proto {

/// One client request: a verb plus positional arguments.
struct Request {
    std::string verb;
    std::vector<std::string> args;

    friend bool operator==(const Request&, const Request&) = default;
};

/// Machine-readable error classes (kebab-case on the wire).
enum class ErrorCode {
    None,
    BadRequest,  ///< unparsable request line
    UnknownVerb, ///< verb not in the registry
    BadArgument, ///< wrong arity / unparsable argument
    NotFound,    ///< named element / handle does not exist
    BadState,    ///< verb is valid but the session cannot honour it now
    Internal,    ///< handler failure (caught, never thrown to the client)
};

[[nodiscard]] const char* to_string(ErrorCode code);

/// Inverse of to_string(ErrorCode); nullopt for unknown spellings.
[[nodiscard]] std::optional<ErrorCode> error_code_from_string(std::string_view text);

/// One reply. Ok responses carry zero or more body lines; error
/// responses carry a code and a one-line message.
struct Response {
    ErrorCode code = ErrorCode::None;
    std::string message;            ///< error responses only
    std::vector<std::string> body;  ///< ok responses only

    [[nodiscard]] bool ok() const { return code == ErrorCode::None; }

    [[nodiscard]] static Response make_ok(std::vector<std::string> body = {}) {
        Response r;
        r.body = std::move(body);
        return r;
    }
    [[nodiscard]] static Response make_error(ErrorCode code, std::string message) {
        Response r;
        r.code = code;
        r.message = std::move(message);
        return r;
    }
};

/// One asynchronous notification queued by the session controller.
struct Event {
    enum class Kind { BreakpointHit, Divergence, StateChange };

    Kind kind = Kind::StateChange;
    /// Simulated time of the triggering command; absent for events that
    /// carry no timestamp (engine FSM moves).
    std::optional<rt::SimTime> t;
    std::string detail;
};

[[nodiscard]] const char* to_string(Event::Kind kind);

/// Result of parsing one request line: either a request or an error
/// message (never both, never neither).
struct ParseResult {
    std::optional<Request> request;
    std::string error;

    [[nodiscard]] bool ok() const { return request.has_value(); }
};

/// Hard ceiling on one request line. Network clients control the bytes
/// they send; without a bound a hostile or broken peer could grow a
/// "line" without limit before the parser ever sees a newline.
inline constexpr std::size_t kMaxRequestLine = 16 * 1024;

/// `exit` is another name for `quit`; every other verb names itself.
/// The one home of that alias: the parser, the hub's router and
/// is_quit_line read verbs through it.
[[nodiscard]] std::string_view canonical_verb(std::string_view verb);

/// Whether the trimmed request `line` is a bare `quit` (or `exit`),
/// unaddressed or after an `@<session>` prefix: the request that ends
/// the exchange. The server closes the connection once it has answered
/// one, and the script runner stops there.
[[nodiscard]] bool is_quit_line(std::string_view line);

/// Parses one request line. Tokens are whitespace-separated; a token may
/// be double-quoted to carry spaces, with \" \\ \n \t escapes. The verb
/// comes back through canonical_verb. Errors (empty line, oversized
/// line, unterminated quote, bad escape) come back structured.
[[nodiscard]] ParseResult parse_request(std::string_view line);

/// Formats a request so that parse_request(format_request(r)) == r, up
/// to canonical_verb.
[[nodiscard]] std::string format_request(const Request& req);

/// Formats a response (multi-line, newline-terminated).
[[nodiscard]] std::string format_response(const Response& resp);

/// Parses text produced by format_response back into a Response — the
/// network client's half of the codec seam, so a remote ScriptClient
/// returns the same typed Response an in-process controller would.
/// Round-trips: parse_response(format_response(r)) reformats to the
/// same bytes. nullopt for text format_response cannot have produced.
[[nodiscard]] std::optional<Response> parse_response(std::string_view text);

/// Formats one event line (newline-terminated).
[[nodiscard]] std::string format_event(const Event& ev);

/// Quotes `token` if needed so it survives tokenization as one argument.
[[nodiscard]] std::string quote_token(std::string_view token);

/// Parses a non-negative decimal integer argument in full; nullopt on
/// anything else — empty, a sign, a fraction (so "remove 1.9" cannot
/// act on breakpoint 1), junk — and on values past UINT64_MAX, which
/// would otherwise wrap to a different number. Callers bound the value.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);

} // namespace gmdf::proto
