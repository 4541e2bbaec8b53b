#include "net/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "proto/message.hpp"

namespace gmdf::net {

namespace {

std::string_view trim_view(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
        s.remove_suffix(1);
    return s;
}

/// HTTP detection magic: like kMagic, exactly 4 bytes, so the Detect
/// buffer decides among frame / HTTP / line at the same prefix length.
constexpr std::string_view kHttpGet = "GET ";

} // namespace

Server::Server(hub::HubController& hub, ServerConfig config)
    : hub_(hub), config_(std::move(config)) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
    if (!loop_.listen(config_.host, config_.port, error)) return false;
    hub_.set_event_sink([this](int session_id, std::string_view session_name,
                               const std::string& line) {
        fan_out_event(session_id, session_name, line);
    });
    // The hub calls both on the serving thread (inside a request or a
    // GET /metrics), so reading stats_ and connections_ needs no lock.
    hub_.set_net_stats_provider({[this] { return stats_lines(); },
                                 [this](obs::Registry& reg) { publish_metrics(reg); }});
    return true;
}

void Server::stop() {
    for (auto& conn : connections_) close_connection(*conn);
    connections_.clear();
    if (loop_.listening()) {
        loop_.close();
        hub_.set_event_sink(nullptr);
        hub_.set_net_stats_provider({});
    }
}

int Server::poll_once(int timeout_ms) {
    const int ready = loop_.wait(
        timeout_ms, [this](int fd) { accept_connection(fd); },
        [this](void* tag, bool failed) {
            // A draining connection reads no more; its flush decides.
            Connection& conn = *static_cast<Connection*>(tag);
            if (failed || (!conn.draining && !read_connection(conn))) conn.closing = true;
        });
    if (ready < 0) return -1;

    // Idle sweep: runs on quiet cycles too — an abandoned connection
    // with no traffic at all must still age out.
    if (config_.idle_timeout_ms > 0) {
        const auto now = std::chrono::steady_clock::now();
        const auto limit = std::chrono::milliseconds(config_.idle_timeout_ms);
        for (auto& conn : connections_) {
            if (conn->closing || conn->draining || now - conn->last_activity < limit)
                continue;
            ++stats_.idle_closed;
            conn->closing = true;
        }
    }

    // Resume paused fan-out where the pipe has drained, then push
    // whatever is writable without waiting for the next write edge.
    for (auto& conn : connections_) {
        flush_pending_events(*conn);
        if (!write_connection(*conn) ||
            (conn->draining && conn->out_pos >= conn->outbuf.size()))
            conn->closing = true;
    }

    // Close, then erase: a close releases the client's hub context, and
    // the events that raises fan out over connections_.
    for (auto& conn : connections_)
        if (conn->closing) close_connection(*conn);
    std::erase_if(connections_, [](const auto& conn) { return conn->closing; });
    return ready;
}

void Server::run(const std::atomic<bool>& stop_flag, int timeout_ms) {
    while (!stop_flag.load(std::memory_order_relaxed)) poll_once(timeout_ms);
}

void Server::accept_connection(int fd) {
    if (static_cast<int>(connections_.size()) >= config_.max_connections) {
        ++stats_.refused;
        ::close(fd);
        return;
    }
    auto conn = std::make_unique<Connection>();
    if (!loop_.add(fd, conn.get())) {
        ::close(fd);
        return;
    }
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity = std::chrono::steady_clock::now();
    // A fresh client starts on the same session the hub's own REPL
    // would: the seed (root) current.
    conn->ctx.current = hub_.root_context().current;
    // Over the high-water mark the client is still owed a structured
    // "busy" — which needs its codec, so the shed reply waits for
    // the first bytes (magic or a line) before drain+close.
    if (config_.accept_high_water > 0 &&
        static_cast<int>(connections_.size()) >= config_.accept_high_water) {
        conn->shed = true;
        ++stats_.busy_shed;
    }
    connections_.push_back(std::move(conn));
    ++stats_.accepted;
}

bool Server::read_connection(Connection& conn) {
    char chunk[16384];
    while (true) {
        ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            conn.bytes_in += static_cast<std::uint64_t>(n);
            stats_.bytes_in += static_cast<std::uint64_t>(n);
            conn.last_activity = std::chrono::steady_clock::now();
            switch (conn.mode) {
            case Connection::Mode::Detect:
                conn.detect_buf.append(chunk, static_cast<std::size_t>(n));
                if (conn.detect_buf.size() >= kMagic.size()) {
                    // Both magics are 4 bytes: "GMDF" selects the frame
                    // codec, "GET " one-shot HTTP (the /metrics scrape
                    // surface, which keeps its buffered bytes), anything
                    // else the line codec.
                    if (std::string_view(conn.detect_buf).starts_with(kMagic)) {
                        conn.mode = Connection::Mode::Frame;
                        conn.frames.feed(
                            std::string_view(conn.detect_buf).substr(kMagic.size()));
                        conn.detect_buf.clear();
                    } else if (std::string_view(conn.detect_buf).starts_with(kHttpGet)) {
                        conn.mode = Connection::Mode::Http;
                    } else {
                        conn.mode = Connection::Mode::Line;
                        conn.lines.feed(conn.detect_buf);
                        conn.detect_buf.clear();
                    }
                } else if (!kMagic.starts_with(conn.detect_buf) &&
                           !kHttpGet.starts_with(conn.detect_buf)) {
                    conn.mode = Connection::Mode::Line;
                    conn.lines.feed(conn.detect_buf);
                    conn.detect_buf.clear();
                }
                break;
            case Connection::Mode::Frame:
                conn.frames.feed({chunk, static_cast<std::size_t>(n)});
                break;
            case Connection::Mode::Line:
                conn.lines.feed({chunk, static_cast<std::size_t>(n)});
                break;
            case Connection::Mode::Http:
                conn.detect_buf.append(chunk, static_cast<std::size_t>(n));
                break;
            }
            if (!process_input(conn)) return true; // draining: flush, then close
            continue;
        }
        if (n == 0) return false; // peer closed: release and tear down
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
    }
}

bool Server::process_input(Connection& conn) {
    if (conn.shed && conn.mode != Connection::Mode::Detect) {
        shed_busy(conn);
        return false; // drain the busy reply, then close
    }
    if (conn.mode == Connection::Mode::Http) return process_http(conn);
    if (conn.mode == Connection::Mode::Frame) {
        Frame frame;
        while (true) {
            FrameReader::Status st = conn.frames.next(frame);
            if (st == FrameReader::Status::NeedMore) return true;
            if (st == FrameReader::Status::Error) {
                protocol_error(conn, conn.frames.error());
                return false;
            }
            if (!conn.hello_done) {
                int version = frame.type == FrameType::Hello
                                  ? parse_hello(frame.payload)
                                  : -1;
                if (version < 0) {
                    protocol_error(conn, "expected hello '" + hello_payload() +
                                             "' as the first frame");
                    return false;
                }
                if (version != kProtocolVersion) {
                    protocol_error(conn, "protocol version " +
                                             std::to_string(version) +
                                             " unsupported (server speaks " +
                                             std::to_string(kProtocolVersion) + ")");
                    return false;
                }
                conn.hello_done = true;
                queue_bytes(conn, encode_frame(FrameType::Hello, hello_payload()));
                continue;
            }
            if (frame.type == FrameType::Ping) {
                // Heartbeat: echo the payload back; the recv already
                // refreshed the idle clock, which is the point.
                queue_bytes(conn, encode_frame(FrameType::Ping, frame.payload));
                ++stats_.pings;
                continue;
            }
            if (frame.type != FrameType::Request) {
                protocol_error(conn, "clients send only request frames after the "
                                     "hello");
                return false;
            }
            if (!handle_request(conn, frame.payload)) return false;
        }
    }

    std::string line;
    while (true) {
        LineReader::Status st = conn.lines.next(line);
        if (st == LineReader::Status::NeedMore) return true;
        if (st == LineReader::Status::Error) {
            protocol_error(conn, conn.lines.error());
            return false;
        }
        // Interactive line clients get script-style blank/comment
        // tolerance instead of "empty request" errors.
        std::string_view trimmed = trim_view(line);
        if (trimmed.empty() || trimmed.front() == '#') continue;
        if (!handle_request(conn, trimmed)) return false;
    }
}

// One-shot HTTP/1.0 serving for scrape clients (curl, Prometheus): read
// one request, answer it, drain, close. Only GET reaches here (the
// sniffer keyed on "GET "); /metrics gets the exposition, anything else
// a 404.
bool Server::process_http(Connection& conn) {
    const std::string& buf = conn.detect_buf;
    std::size_t header_end = buf.find("\r\n\r\n");
    if (header_end == std::string::npos) header_end = buf.find("\n\n");
    if (header_end == std::string::npos) {
        if (buf.size() > kMaxLine) {
            protocol_error(conn, "oversized http request");
            return false;
        }
        return true; // headers still arriving
    }
    std::string_view request_line = std::string_view(buf).substr(0, buf.find_first_of("\r\n"));
    // "GET <path>[?query] HTTP/1.x" — the target is the second token.
    std::string_view path = request_line.substr(kHttpGet.size());
    path = path.substr(0, path.find_first_of(" \t"));
    path = path.substr(0, path.find('?'));

    std::string status = "200 OK";
    std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
    std::string body;
    if (path == "/metrics") {
        ++stats_.scrapes;
        body = hub_.prometheus_text();
    } else {
        status = "404 Not Found";
        content_type = "text/plain; charset=utf-8";
        body = "not found (try /metrics)\n";
    }
    std::string response = "HTTP/1.0 " + status +
                           "\r\nContent-Type: " + content_type +
                           "\r\nContent-Length: " + std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n" + body;
    queue_bytes(conn, response);
    conn.detect_buf.clear();
    conn.draining = true;
    return false; // flush the response, then close
}

bool Server::handle_request(Connection& conn, std::string_view line) {
    ++conn.requests;
    ++stats_.requests;
    std::string_view trimmed = trim_view(line);
    const bool is_quit = proto::is_quit_line(trimmed);
    proto::Response resp = hub_.execute_line(trimmed, conn.ctx);
    send_response(conn, proto::format_response(resp));
    // Events raised while the request ran (breakpoints during `run`,
    // state changes, ...) belong to this request's transcript slot:
    // deliver them ahead of the done marker regardless of high water —
    // the pending queue's capacity already bounded them.
    flush_pending_events(conn, /*force=*/true);
    if (conn.mode == Connection::Mode::Frame)
        queue_bytes(conn, encode_frame(FrameType::Done, {}));
    if (is_quit) {
        conn.draining = true;
        return false;
    }
    return true;
}

void Server::send_response(Connection& conn, const std::string& formatted) {
    if (conn.mode == Connection::Mode::Frame)
        queue_bytes(conn, encode_frame(FrameType::Response, formatted));
    else
        queue_bytes(conn, formatted);
}

void Server::fan_out_event(int session_id, std::string_view session_name,
                           const std::string& line) {
    for (auto& conn : connections_) {
        // Only a session codec carries events: queued to a connection
        // still detecting its codec, to a frame client before its hello
        // echo or to an HTTP scrape, they would precede the awaited reply.
        const bool session_codec =
            conn->mode == Connection::Mode::Line ||
            (conn->mode == Connection::Mode::Frame && conn->hello_done);
        if (!session_codec || conn->fd < 0 || conn->draining) continue;
        if (!conn->ctx.allows(session_id, session_name)) continue;
        if (config_.event_queue_capacity != 0 &&
            conn->pending_events.size() >= config_.event_queue_capacity) {
            conn->pending_events.pop_front();
            ++conn->events_dropped;
            ++stats_.events_dropped;
        }
        conn->pending_events.push_back(line);
    }
}

void Server::flush_pending_events(Connection& conn, bool force) {
    if (conn.draining) return;
    while (!conn.pending_events.empty()) {
        // Backpressure: a slow client keeps its events parked (bounded,
        // drop-counted) instead of growing an unbounded write buffer.
        if (!force && conn.outbuf.size() - conn.out_pos >= config_.write_high_water) {
            // Count pause *transitions*, not every skipped flush, so the
            // counter reads as "how often fan-out stalled".
            if (!conn.bp_paused) {
                conn.bp_paused = true;
                ++stats_.backpressure_pauses;
            }
            return;
        }
        std::string& line = conn.pending_events.front();
        if (conn.mode == Connection::Mode::Frame)
            queue_bytes(conn, encode_frame(FrameType::Event, line));
        else
            queue_bytes(conn, line);
        ++stats_.events_sent;
        conn.pending_events.pop_front();
    }
    conn.bp_paused = false;
}

void Server::queue_bytes(Connection& conn, std::string_view bytes) {
    // Compact the consumed prefix before growing the buffer again.
    if (conn.out_pos > 0) {
        conn.outbuf.erase(0, conn.out_pos);
        conn.out_pos = 0;
    }
    conn.outbuf.append(bytes);
}

bool Server::write_connection(Connection& conn) {
    while (conn.out_pos < conn.outbuf.size()) {
        ssize_t n = ::send(conn.fd, conn.outbuf.data() + conn.out_pos,
                           conn.outbuf.size() - conn.out_pos, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_pos += static_cast<std::size_t>(n);
            conn.bytes_out += static_cast<std::uint64_t>(n);
            stats_.bytes_out += static_cast<std::uint64_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
        if (n < 0 && errno == EINTR) continue;
        return false; // broken pipe etc.
    }
    if (conn.out_pos >= conn.outbuf.size()) {
        conn.outbuf.clear();
        conn.out_pos = 0;
    }
    return true;
}

void Server::shed_busy(Connection& conn) {
    const std::string message =
        "busy: server at its accept high-water mark (" +
        std::to_string(config_.accept_high_water) + " connections); retry later";
    if (conn.mode == Connection::Mode::Frame)
        queue_bytes(conn, encode_frame(FrameType::Error, message));
    else if (conn.mode == Connection::Mode::Http)
        queue_bytes(conn, "HTTP/1.0 503 Service Unavailable\r\nContent-Type: "
                          "text/plain; charset=utf-8\r\nContent-Length: " +
                              std::to_string(message.size() + 1) +
                              "\r\nConnection: close\r\n\r\n" + message + "\n");
    else
        queue_bytes(conn, proto::format_response(proto::Response::make_error(
                              proto::ErrorCode::BadState, message)));
    conn.draining = true;
}

void Server::protocol_error(Connection& conn, const std::string& message) {
    ++stats_.protocol_errors;
    if (conn.mode == Connection::Mode::Frame)
        queue_bytes(conn, encode_frame(FrameType::Error, message));
    else
        queue_bytes(conn, proto::format_response(proto::Response::make_error(
                              proto::ErrorCode::BadRequest, message)));
    conn.draining = true; // flush the diagnosis, then close
}

void Server::close_connection(Connection& conn) {
    // One last best-effort flush so `quit` responses reach the client
    // even when the close happens outside the write path.
    (void)write_connection(conn);
    ::close(conn.fd);
    conn.fd = -1;
    hub_.release_context(conn.ctx);
    ++stats_.closed;
}

void Server::publish_metrics(obs::Registry& reg) const {
    const auto set = [&reg](std::string_view name, std::uint64_t v) {
        reg.counter(name).set(v);
    };
    set("net.accepted", stats_.accepted);
    set("net.closed", stats_.closed);
    set("net.refused", stats_.refused);
    set("net.protocol_errors", stats_.protocol_errors);
    set("net.requests", stats_.requests);
    set("net.bytes_in", stats_.bytes_in);
    set("net.bytes_out", stats_.bytes_out);
    set("net.events_sent", stats_.events_sent);
    set("net.events_dropped", stats_.events_dropped);
    set("net.pings", stats_.pings);
    set("net.idle_closed", stats_.idle_closed);
    set("net.busy_shed", stats_.busy_shed);
    set("net.scrapes", stats_.scrapes);
    set("net.backpressure_pauses", stats_.backpressure_pauses);
    reg.gauge("net.connections").set(static_cast<std::int64_t>(connections_.size()));
}

std::vector<std::string> Server::stats_lines() const {
    std::vector<std::string> body = {
        "net-listening " + config_.host + ":" + std::to_string(port()),
        "net-connections active " + std::to_string(connections_.size()) +
            " (accepted " + std::to_string(stats_.accepted) + ", closed " +
            std::to_string(stats_.closed) + ", refused " +
            std::to_string(stats_.refused) + ")",
        "net-requests " + std::to_string(stats_.requests),
        "net-bytes in " + std::to_string(stats_.bytes_in) + " out " +
            std::to_string(stats_.bytes_out),
        "net-events sent " + std::to_string(stats_.events_sent) + " dropped " +
            std::to_string(stats_.events_dropped),
        "net-protocol-errors " + std::to_string(stats_.protocol_errors),
    };
    // Robustness counters appear only once nonzero, so pre-existing
    // stats transcripts keep their shape.
    if (stats_.pings > 0) body.push_back("net-pings " + std::to_string(stats_.pings));
    if (stats_.idle_closed > 0)
        body.push_back("net-idle-closed " + std::to_string(stats_.idle_closed));
    if (stats_.busy_shed > 0)
        body.push_back("net-busy-shed " + std::to_string(stats_.busy_shed));
    for (const auto& conn : connections_) {
        const char* codec = conn->mode == Connection::Mode::Frame  ? "frame"
                            : conn->mode == Connection::Mode::Line ? "line"
                            : conn->mode == Connection::Mode::Http ? "http"
                                                                   : "detect";
        const hub::SessionRegistry* reg = &hub_.registry();
        std::string session = "-";
        for (const auto& e : reg->entries())
            if (e->id == conn->ctx.current) session = e->name;
        body.push_back("connection " + std::to_string(conn->id) + " codec=" + codec +
                       " session=" + session + " acl=" +
                       (conn->ctx.restricted ? "restricted" : "open") +
                       " requests=" + std::to_string(conn->requests) + " bytes-in=" +
                       std::to_string(conn->bytes_in) + " bytes-out=" +
                       std::to_string(conn->bytes_out) + " pending-events=" +
                       std::to_string(conn->pending_events.size()) +
                       " events-dropped=" + std::to_string(conn->events_dropped));
    }
    return body;
}

} // namespace gmdf::net
