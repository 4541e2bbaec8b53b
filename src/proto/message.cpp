#include "proto/message.hpp"

#include <cctype>
#include <limits>
#include <sstream>

namespace gmdf::proto {

const char* to_string(ErrorCode code) {
    switch (code) {
    case ErrorCode::None: return "ok";
    case ErrorCode::BadRequest: return "bad-request";
    case ErrorCode::UnknownVerb: return "unknown-verb";
    case ErrorCode::BadArgument: return "bad-argument";
    case ErrorCode::NotFound: return "not-found";
    case ErrorCode::BadState: return "bad-state";
    case ErrorCode::Internal: return "internal";
    }
    return "?";
}

std::optional<ErrorCode> error_code_from_string(std::string_view text) {
    for (ErrorCode code : {ErrorCode::None, ErrorCode::BadRequest, ErrorCode::UnknownVerb,
                           ErrorCode::BadArgument, ErrorCode::NotFound,
                           ErrorCode::BadState, ErrorCode::Internal})
        if (text == to_string(code)) return code;
    return std::nullopt;
}

const char* to_string(Event::Kind kind) {
    switch (kind) {
    case Event::Kind::BreakpointHit: return "breakpoint-hit";
    case Event::Kind::Divergence: return "divergence";
    case Event::Kind::StateChange: return "state-change";
    }
    return "?";
}

namespace {

ParseResult parse_error(std::string message) {
    ParseResult r;
    r.error = std::move(message);
    return r;
}

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

} // namespace

std::string_view canonical_verb(std::string_view verb) {
    return verb == "exit" ? "quit" : verb;
}

bool is_quit_line(std::string_view line) {
    if (!line.empty() && line.front() == '@') {
        // The verb starts at the first non-blank after the session tag.
        const std::size_t verb = line.find_first_not_of(" \t", line.find_first_of(" \t"));
        if (verb == std::string_view::npos) return false;
        line.remove_prefix(verb);
    }
    return canonical_verb(line) == "quit";
}

ParseResult parse_request(std::string_view line) {
    if (line.size() > kMaxRequestLine)
        return parse_error("request line of " + std::to_string(line.size()) +
                           " bytes exceeds the " + std::to_string(kMaxRequestLine) +
                           "-byte limit");
    std::vector<std::string> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
        if (is_space(line[i])) {
            ++i;
            continue;
        }
        std::string token;
        if (line[i] == '"') {
            ++i;
            bool closed = false;
            while (i < line.size()) {
                char c = line[i];
                if (c == '"') {
                    closed = true;
                    ++i;
                    break;
                }
                if (c == '\\') {
                    if (i + 1 >= line.size())
                        return parse_error("dangling escape at end of line");
                    char esc = line[i + 1];
                    switch (esc) {
                    case '"': token.push_back('"'); break;
                    case '\\': token.push_back('\\'); break;
                    case 'n': token.push_back('\n'); break;
                    case 't': token.push_back('\t'); break;
                    default:
                        return parse_error(std::string("bad escape '\\") + esc + "'");
                    }
                    i += 2;
                    continue;
                }
                token.push_back(c);
                ++i;
            }
            if (!closed) return parse_error("unterminated quote");
            if (i < line.size() && !is_space(line[i]))
                return parse_error("text after closing quote");
        } else {
            while (i < line.size() && !is_space(line[i])) {
                if (line[i] == '"') return parse_error("quote inside bare token");
                token.push_back(line[i]);
                ++i;
            }
        }
        tokens.push_back(std::move(token));
    }
    if (tokens.empty()) return parse_error("empty request");
    Request req;
    req.verb = canonical_verb(tokens.front());
    req.args.assign(std::make_move_iterator(tokens.begin() + 1),
                    std::make_move_iterator(tokens.end()));
    ParseResult r;
    r.request = std::move(req);
    return r;
}

std::string quote_token(std::string_view token) {
    bool needs_quotes = token.empty();
    for (char c : token)
        if (is_space(c) || c == '"' || c == '\\' || c == '\n' || c == '\t')
            needs_quotes = true;
    if (!needs_quotes) return std::string(token);
    std::string out = "\"";
    for (char c : token) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
    if (text.empty()) return std::nullopt;
    std::uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9') return std::nullopt;
        auto digit = static_cast<std::uint64_t>(c - '0');
        if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            return std::nullopt;
        v = v * 10 + digit;
    }
    return v;
}

std::string format_request(const Request& req) {
    std::string out = quote_token(req.verb);
    for (const std::string& arg : req.args) {
        out.push_back(' ');
        out += quote_token(arg);
    }
    return out;
}

std::string format_response(const Response& resp) {
    std::string out;
    if (resp.ok()) {
        out = "ok\n";
        for (const std::string& line : resp.body) {
            out += "| ";
            out += line;
            out.push_back('\n');
        }
    } else {
        out = "error ";
        out += to_string(resp.code);
        out += ": ";
        out += resp.message;
        out.push_back('\n');
    }
    return out;
}

std::optional<Response> parse_response(std::string_view text) {
    // format_response always newline-terminates its last line.
    if (text.empty() || text.back() != '\n') return std::nullopt;
    text.remove_suffix(1);
    std::vector<std::string_view> lines;
    while (true) {
        std::size_t nl = text.find('\n');
        if (nl == std::string_view::npos) {
            lines.push_back(text);
            break;
        }
        lines.push_back(text.substr(0, nl));
        text.remove_prefix(nl + 1);
    }
    if (lines.empty()) return std::nullopt;
    if (lines.front() == "ok") {
        Response r;
        for (std::size_t i = 1; i < lines.size(); ++i) {
            if (!lines[i].starts_with("| ")) return std::nullopt;
            r.body.emplace_back(lines[i].substr(2));
        }
        return r;
    }
    if (lines.size() != 1 || !lines.front().starts_with("error ")) return std::nullopt;
    std::string_view rest = lines.front().substr(6);
    std::size_t sep = rest.find(": ");
    if (sep == std::string_view::npos) return std::nullopt;
    auto code = error_code_from_string(rest.substr(0, sep));
    if (!code.has_value() || *code == ErrorCode::None) return std::nullopt;
    return Response::make_error(*code, std::string(rest.substr(sep + 2)));
}

std::string format_event(const Event& ev) {
    std::ostringstream os;
    os << "* " << to_string(ev.kind);
    if (ev.t.has_value()) os << " @" << *ev.t << "ns";
    if (!ev.detail.empty()) os << " " << ev.detail;
    os << "\n";
    return os.str();
}

} // namespace gmdf::proto
