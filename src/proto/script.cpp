#include "proto/script.hpp"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <ostream>

namespace gmdf::proto {

namespace {

std::string_view trim(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
        s.remove_suffix(1);
    return s;
}

/// ScriptClient face of one SessionController.
class ControllerClient final : public ScriptClient {
public:
    explicit ControllerClient(SessionController& controller) : controller_(&controller) {}

    Response execute_line(std::string_view line) override {
        return controller_->execute_line(line);
    }

    std::vector<std::string> drain_event_lines() override {
        std::vector<std::string> out;
        for (const Event& ev : controller_->drain_events())
            out.push_back(format_event(ev));
        return out;
    }

private:
    SessionController* controller_;
};

// ---- .gds extension language -----------------------------------------------

std::vector<std::string> split_tokens(std::string_view line) {
    std::vector<std::string> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
        std::size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
        if (i > start) tokens.emplace_back(line.substr(start, i - start));
    }
    return tokens;
}

std::string join(const std::vector<std::string>& tokens, std::size_t first,
                 std::size_t last) {
    std::string out;
    for (std::size_t i = first; i < last; ++i) {
        if (!out.empty()) out += ' ';
        out += tokens[i];
    }
    return out;
}

bool is_comparison_op(std::string_view token) {
    return token == "==" || token == "!=" || token == "<" || token == ">" ||
           token == "<=" || token == ">=" || token == "contains";
}

std::string first_word(std::string_view line) {
    std::size_t end = line.find_first_of(" \t");
    return std::string(end == std::string_view::npos ? line : line.substr(0, end));
}

/// One parsed script construct.
struct Node {
    enum class Kind { Request, Comment, Let, Expect, ExpectBlock, Repeat, If };
    Kind kind = Kind::Request;
    int line = 0;
    std::string text;  ///< trimmed source line (pre-substitution)
    std::string name;  ///< let: variable name
    std::string query; ///< let: value; repeat: count; expect/if/expect-block: query
    std::string op;    ///< expect/if
    std::string value; ///< expect/if
    std::vector<std::string> expected;  ///< expect-block: literal "| " lines
    std::vector<Node> body, else_body;  ///< repeat/if
};

struct SrcLine {
    int no = 0;
    std::string text;
};

struct ParseError {
    int line = 0;
    std::string text;
    std::string message;
};

bool starts_block(std::string_view word) {
    return word == "repeat" || word == "if" || word == "expect-block";
}

/// Parses lines[i..] into `body` until a terminator ("end", and "else"
/// when `stop_at_else`) or end of input. Returns the terminator index
/// (== lines.size() when input ran out).
std::size_t parse_body(const std::vector<SrcLine>& lines, std::size_t i,
                       bool stop_at_else, std::vector<Node>& body,
                       std::optional<ParseError>& err);

std::optional<Node> parse_line(const std::vector<SrcLine>& lines, std::size_t& i,
                               std::optional<ParseError>& err) {
    const SrcLine& src = lines[i];
    Node n;
    n.line = src.no;
    n.text = src.text;
    const std::string word = first_word(src.text);
    const std::vector<std::string> tokens = split_tokens(src.text);

    auto fail = [&](std::string message) -> std::optional<Node> {
        err = ParseError{src.no, src.text, std::move(message)};
        return std::nullopt;
    };

    if (src.text.front() == '#') {
        n.kind = Node::Kind::Comment;
        ++i;
        return n;
    }
    if (word == "let") {
        if (tokens.size() < 3) return fail("usage: let <name> <value>");
        n.kind = Node::Kind::Let;
        n.name = tokens[1];
        n.query = join(tokens, 2, tokens.size());
        ++i;
        return n;
    }
    if (word == "expect") {
        // The op is the last comparison token; the query may span words.
        std::size_t op_at = 0;
        for (std::size_t t = tokens.size(); t-- > 1;)
            if (is_comparison_op(tokens[t])) {
                op_at = t;
                break;
            }
        if (op_at < 2 || op_at + 1 >= tokens.size())
            return fail("usage: expect <query> <op> <value>");
        n.kind = Node::Kind::Expect;
        n.query = join(tokens, 1, op_at);
        n.op = tokens[op_at];
        n.value = join(tokens, op_at + 1, tokens.size());
        ++i;
        return n;
    }
    if (word == "expect-block") {
        if (tokens.size() < 2) return fail("usage: expect-block <query>");
        n.kind = Node::Kind::ExpectBlock;
        n.query = join(tokens, 1, tokens.size());
        ++i;
        while (i < lines.size() && lines[i].text != "end") {
            if (lines[i].text.front() != '|')
                err = ParseError{lines[i].no, lines[i].text,
                                 "expect-block lines must start with '|'"};
            if (err.has_value()) return std::nullopt;
            n.expected.push_back(lines[i].text);
            ++i;
        }
        if (i >= lines.size()) return fail("expect-block without matching 'end'");
        ++i; // consume end
        return n;
    }
    if (word == "repeat") {
        if (tokens.size() != 2) return fail("usage: repeat <count>");
        n.kind = Node::Kind::Repeat;
        n.query = tokens[1];
        std::size_t stop = parse_body(lines, i + 1, /*stop_at_else=*/false, n.body, err);
        if (err.has_value()) return std::nullopt;
        if (stop >= lines.size()) return fail("repeat without matching 'end'");
        i = stop + 1;
        return n;
    }
    if (word == "if") {
        std::size_t op_at = 0;
        for (std::size_t t = tokens.size(); t-- > 1;)
            if (is_comparison_op(tokens[t])) {
                op_at = t;
                break;
            }
        if (op_at < 2 || op_at + 1 >= tokens.size())
            return fail("usage: if <query> <op> <value>");
        n.kind = Node::Kind::If;
        n.query = join(tokens, 1, op_at);
        n.op = tokens[op_at];
        n.value = join(tokens, op_at + 1, tokens.size());
        std::size_t stop = parse_body(lines, i + 1, /*stop_at_else=*/true, n.body, err);
        if (err.has_value()) return std::nullopt;
        if (stop >= lines.size()) return fail("if without matching 'end'");
        if (lines[stop].text == "else") {
            stop = parse_body(lines, stop + 1, /*stop_at_else=*/false, n.else_body, err);
            if (err.has_value()) return std::nullopt;
            if (stop >= lines.size()) return fail("if without matching 'end'");
        }
        i = stop + 1;
        return n;
    }
    if (word == "end" || word == "else") return fail("'" + word + "' outside a block");

    n.kind = Node::Kind::Request;
    ++i;
    return n;
}

std::size_t parse_body(const std::vector<SrcLine>& lines, std::size_t i,
                       bool stop_at_else, std::vector<Node>& body,
                       std::optional<ParseError>& err) {
    while (i < lines.size()) {
        if (lines[i].text == "end") return i;
        if (stop_at_else && lines[i].text == "else") return i;
        auto node = parse_line(lines, i, err);
        if (!node.has_value()) return lines.size();
        body.push_back(std::move(*node));
    }
    return i;
}

/// Execution state threaded through a whole run_script call.
struct Exec {
    ScriptClient& client;
    std::ostream& out;
    const ScriptOptions& options;
    ScriptResult& result;
    std::vector<std::pair<std::string, std::string>> vars;
    bool stopped = false; ///< quit, failed expect, or malformed construct

    void diagnose(int line, const std::string& text, std::string message) {
        result.diagnostics.push_back({line, text, std::move(message)});
    }

    void fail(int line, const std::string& text, const std::string& message) {
        if (options.echo) out << "! line " << line << ": " << message << "\n";
        diagnose(line, text, message);
        result.failed = true;
        stopped = true;
    }
};

const std::string* lookup(const Exec& e, std::string_view name) {
    for (const auto& [k, v] : e.vars)
        if (k == name) return &v;
    return nullptr;
}

bool ident_char(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
}

/// Expands $name references ($$ is a literal $). False on an unknown
/// variable, with its name in `bad`.
bool substitute(const Exec& e, std::string_view text, std::string& out,
                std::string& bad) {
    out.clear();
    std::size_t i = 0;
    while (i < text.size()) {
        if (text[i] != '$') {
            out += text[i++];
            continue;
        }
        if (i + 1 < text.size() && text[i + 1] == '$') {
            out += '$';
            i += 2;
            continue;
        }
        std::size_t start = i + 1, end = start;
        while (end < text.size() && ident_char(text[end])) ++end;
        if (end == start) { // bare '$': literal
            out += '$';
            ++i;
            continue;
        }
        std::string name(text.substr(start, end - start));
        const std::string* value = lookup(e, name);
        if (value == nullptr) {
            bad = name;
            return false;
        }
        out += *value;
        i = end;
    }
    return true;
}

/// Substitutes into `raw`, failing the script on unknown variables.
bool expand(Exec& e, const Node& n, const std::string& raw, std::string& out) {
    std::string bad;
    if (substitute(e, raw, out, bad)) return true;
    e.fail(n.line, n.text, "unknown variable '$" + bad + "'");
    return false;
}

bool numeric(const std::string& s, double& v) {
    if (s.empty()) return false;
    char* end = nullptr;
    v = std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0';
}

bool compare(const std::string& op, const std::string& actual,
             const std::string& wanted) {
    double a = 0, w = 0;
    if (numeric(actual, a) && numeric(wanted, w)) {
        if (op == "==") return a == w;
        if (op == "!=") return a != w;
        if (op == "<") return a < w;
        if (op == ">") return a > w;
        if (op == "<=") return a <= w;
        if (op == ">=") return a >= w;
    }
    if (op == "==") return actual == wanted;
    if (op == "!=") return actual != wanted;
    if (op == "<") return actual < wanted;
    if (op == ">") return actual > wanted;
    if (op == "<=") return actual <= wanted;
    if (op == ">=") return actual >= wanted;
    return false; // contains handled by the caller
}

/// Runs a condition query and evaluates `<op> <value>` against its
/// response: `contains` searches every body line; other ops compare the
/// last whitespace token of the first body line. Error responses yield
/// an empty actual (conditions are probes — they never fail the script).
bool evaluate(Exec& e, const std::string& query, const std::string& op,
              const std::string& wanted, std::string& actual) {
    Response resp = e.client.execute_line(query);
    ++e.result.requests;
    for (const std::string& ev : e.client.drain_event_lines()) e.out << ev;
    actual.clear();
    if (!resp.ok()) {
        actual = "error " + std::string(to_string(resp.code)) + ": " + resp.message;
        return op == "contains" ? actual.find(wanted) != std::string::npos
                                : compare(op, "", wanted);
    }
    if (op == "contains") {
        for (const std::string& line : resp.body)
            if (line.find(wanted) != std::string::npos) return true;
        actual = resp.body.empty() ? "" : resp.body.front();
        return false;
    }
    if (!resp.body.empty()) {
        const std::vector<std::string> tokens = split_tokens(resp.body.front());
        if (!tokens.empty()) actual = tokens.back();
    }
    return compare(op, actual, wanted);
}

void exec_body(Exec& e, const std::vector<Node>& body);

void exec_node(Exec& e, const Node& n) {
    switch (n.kind) {
    case Node::Kind::Comment:
        if (e.options.echo) e.out << n.text << "\n";
        return;
    case Node::Kind::Request: {
        std::string line;
        if (!expand(e, n, n.text, line)) return;
        if (e.options.echo) e.out << "> " << line << "\n";
        const bool is_quit = is_quit_line(line);
        Response resp = e.client.execute_line(line);
        ++e.result.requests;
        if (!resp.ok()) {
            ++e.result.errors;
            e.diagnose(n.line, line,
                       "error " + std::string(to_string(resp.code)) + ": " +
                           resp.message);
        }
        e.out << format_response(resp);
        for (const std::string& ev : e.client.drain_event_lines()) e.out << ev;
        if (is_quit) {
            e.result.quit = true;
            e.stopped = true;
        }
        return;
    }
    case Node::Kind::Let: {
        std::string value;
        if (!expand(e, n, n.query, value)) return;
        if (e.options.echo) e.out << "> let " << n.name << " " << value << "\n";
        for (auto& [k, v] : e.vars)
            if (k == n.name) {
                v = value;
                return;
            }
        e.vars.emplace_back(n.name, std::move(value));
        return;
    }
    case Node::Kind::Repeat: {
        std::string count_text;
        if (!expand(e, n, n.query, count_text)) return;
        double count = 0;
        if (!numeric(count_text, count) || count < 0 || count > 100000 ||
            count != static_cast<double>(static_cast<long>(count))) {
            e.fail(n.line, n.text, "repeat count '" + count_text + "' is not a count");
            return;
        }
        if (e.options.echo) e.out << "> repeat " << count_text << "\n";
        for (long i = 0; i < static_cast<long>(count) && !e.stopped; ++i)
            exec_body(e, n.body);
        if (e.options.echo && !e.stopped) e.out << "> end\n";
        return;
    }
    case Node::Kind::If: {
        std::string query, value;
        if (!expand(e, n, n.query, query) || !expand(e, n, n.value, value)) return;
        if (e.options.echo)
            e.out << "> if " << query << " " << n.op << " " << value << "\n";
        std::string actual;
        const bool taken = evaluate(e, query, n.op, value, actual);
        exec_body(e, taken ? n.body : n.else_body);
        if (e.options.echo && !e.stopped) e.out << "> end\n";
        return;
    }
    case Node::Kind::Expect: {
        std::string query, value;
        if (!expand(e, n, n.query, query) || !expand(e, n, n.value, value)) return;
        if (e.options.echo)
            e.out << "> expect " << query << " " << n.op << " " << value << "\n";
        std::string actual;
        if (evaluate(e, query, n.op, value, actual)) return;
        e.fail(n.line, n.text,
               "expect failed: '" + query + "' " + n.op + " '" + value +
                   "' (actual '" + actual + "')");
        return;
    }
    case Node::Kind::ExpectBlock: {
        std::string query;
        if (!expand(e, n, n.query, query)) return;
        if (e.options.echo) e.out << "> expect-block " << query << "\n";
        Response resp = e.client.execute_line(query);
        ++e.result.requests;
        for (const std::string& ev : e.client.drain_event_lines()) e.out << ev;
        std::vector<std::string> got;
        if (!resp.ok())
            got.push_back("error " + std::string(to_string(resp.code)) + ": " +
                          resp.message);
        for (const std::string& line : resp.body) got.push_back("| " + line);
        const std::size_t n_lines = std::max(got.size(), n.expected.size());
        for (std::size_t i = 0; i < n_lines; ++i) {
            std::string want, have;
            if (i < n.expected.size() && !expand(e, n, n.expected[i], want)) return;
            if (i < got.size()) have = got[i];
            if (std::string_view(trim(want)) == std::string_view(trim(have))) continue;
            e.fail(n.line + static_cast<int>(i) + 1,
                   i < n.expected.size() ? n.expected[i] : "",
                   "expect-block mismatch: got '" + have + "', wanted '" + want + "'");
            return;
        }
        return;
    }
    }
}

void exec_body(Exec& e, const std::vector<Node>& body) {
    for (const Node& n : body) {
        if (e.stopped) return;
        exec_node(e, n);
    }
}

} // namespace

ScriptResult run_script(ScriptClient& client, std::istream& in, std::ostream& out,
                        const ScriptOptions& options) {
    ScriptResult result;
    Exec e{client, out, options, result, {}, false};

    std::vector<SrcLine> chunk;
    int depth = 0;
    int lineno = 0;
    std::string raw;
    while (!e.stopped) {
        if (!options.prompt.empty()) out << options.prompt << std::flush;
        if (!std::getline(in, raw)) break;
        ++lineno;
        std::string_view line = trim(raw);
        if (line.empty()) continue;
        if (depth == 0 && line.front() == '#') {
            if (options.echo) out << line << "\n";
            continue;
        }

        const std::string word = first_word(line);
        if (starts_block(word)) {
            ++depth;
        } else if (line == "end") {
            if (depth == 0) {
                e.fail(lineno, std::string(line), "'end' outside a block");
                break;
            }
            --depth;
        }
        chunk.push_back({lineno, std::string(line)});
        if (depth > 0) continue;

        std::optional<ParseError> err;
        std::vector<Node> nodes;
        std::size_t i = 0;
        while (i < chunk.size() && !err.has_value()) {
            auto node = parse_line(chunk, i, err);
            if (node.has_value()) nodes.push_back(std::move(*node));
        }
        chunk.clear();
        if (err.has_value()) {
            e.fail(err->line, err->text, err->message);
            break;
        }
        exec_body(e, nodes);
    }
    if (depth > 0 && !e.stopped && !chunk.empty())
        e.fail(chunk.front().no, chunk.front().text,
               "'" + first_word(chunk.front().text) + "' without matching 'end'");
    return result;
}

ScriptResult run_script(SessionController& controller, std::istream& in,
                        std::ostream& out, const ScriptOptions& options) {
    ControllerClient client(controller);
    return run_script(client, in, out, options);
}

} // namespace gmdf::proto
