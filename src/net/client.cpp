#include "net/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "net/loop.hpp"
#include "proto/message.hpp"

namespace gmdf::net {

namespace {

void set_error(std::string* error, std::string what) {
    if (error != nullptr) *error = std::move(what);
}

/// Starts every error Response a Channel builds itself.
constexpr std::string_view kTransportErrorPrefix = "network: ";

} // namespace

proto::Response transport_error(std::string what) {
    return proto::Response::make_error(proto::ErrorCode::Internal,
                                       std::string(kTransportErrorPrefix) + std::move(what));
}

bool is_transport_error(const proto::Response& resp) {
    return resp.code == proto::ErrorCode::Internal &&
           resp.message.starts_with(kTransportErrorPrefix);
}

bool split_host_port(std::string_view spec, std::string& host, std::uint16_t& port) {
    std::size_t colon = spec.rfind(':');
    if (colon == std::string_view::npos || colon == 0 || colon + 1 >= spec.size())
        return false;
    std::uint32_t value = 0;
    for (char c : spec.substr(colon + 1)) {
        if (c < '0' || c > '9') return false;
        value = value * 10 + static_cast<std::uint32_t>(c - '0');
        if (value > 65535) return false;
    }
    if (value == 0) return false;
    host.assign(spec.substr(0, colon));
    port = static_cast<std::uint16_t>(value);
    return true;
}

std::unique_ptr<Channel> Channel::connect(const std::string& host, std::uint16_t port,
                                          std::string* error) {
    int fd = dial_tcp(host, port, error);
    if (fd < 0) return nullptr;

    std::unique_ptr<Channel> channel(new Channel(fd));
    channel->host_ = host;
    channel->port_ = port;
    if (!channel->handshake(error)) return nullptr;
    return channel;
}

bool Channel::handshake(std::string* error) {
    std::string hello(kMagic);
    hello += encode_frame(FrameType::Hello, hello_payload());
    if (!send_all(hello)) {
        set_error(error, "handshake send failed: " + std::string(std::strerror(errno)));
        return false;
    }
    Frame reply;
    std::string read_error;
    if (!read_frame(reply, &read_error)) {
        set_error(error, "handshake: " + read_error);
        return false;
    }
    if (reply.type != FrameType::Hello ||
        parse_hello(reply.payload) != kProtocolVersion) {
        shutdown(); // includes a busy Error frame: the server shed us
        set_error(error, reply.type == FrameType::Error ? "server refused: " + reply.payload
                                                         : "unexpected handshake reply");
        return false;
    }
    return true;
}

Channel::~Channel() { shutdown(); }

void Channel::shutdown() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool Channel::send_all(std::string_view bytes) {
    while (!bytes.empty()) {
        ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n > 0) {
            bytes.remove_prefix(static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        shutdown();
        return false;
    }
    return true;
}

bool Channel::read_frame(Frame& out, std::string* error) {
    char chunk[16384];
    while (true) {
        FrameReader::Status st = frames_.next(out);
        if (st == FrameReader::Status::Ready) return true;
        if (st == FrameReader::Status::Error) {
            set_error(error, frames_.error());
            shutdown();
            return false;
        }
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n > 0) {
            frames_.feed({chunk, static_cast<std::size_t>(n)});
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        set_error(error, n == 0 ? "connection closed by server"
                                : std::string(std::strerror(errno)));
        shutdown();
        return false;
    }
}

std::optional<proto::Response> Channel::roundtrip(std::string_view line,
                                                  std::string* error) {
    if (!send_all(encode_frame(FrameType::Request, line))) {
        set_error(error, "send failed");
        return std::nullopt;
    }
    Frame frame;
    std::string read_error;
    while (true) {
        if (!read_frame(frame, &read_error)) {
            set_error(error, read_error);
            return std::nullopt;
        }
        switch (frame.type) {
        case FrameType::Event:
            events_.push_back(std::move(frame.payload));
            break;
        case FrameType::Ping:
            break; // heartbeat echo arriving late; ignore
        case FrameType::Response: {
            auto resp = proto::parse_response(frame.payload);
            if (!resp.has_value()) {
                // A byte flipped on the way broke the hub's answer. The
                // request did run, so a resend is at-least-once, as after
                // a cut.
                set_error(error, "unparsable response frame");
                return std::nullopt;
            }
            last_done_ = false;
            return *resp;
        }
        case FrameType::Error:
            // The server could not decode the request, so it did not run
            // it, and closes: a redial and one resend runs it exactly once.
            shutdown();
            set_error(error, "protocol error: " + frame.payload);
            return std::nullopt;
        case FrameType::Done:
            break; // stray marker (skipped drain); keep reading
        default:
            shutdown();
            return transport_error("unexpected frame from server");
        }
    }
}

void Channel::note_session(const proto::Response& resp) {
    if (!resp.ok()) return;
    for (const std::string& line : resp.body) {
        std::string_view v(line);
        if (v.starts_with("current ")) {
            v.remove_prefix(8);
            session_ = v == "(none)" ? std::string() : std::string(v);
        } else if (v.starts_with("attached ")) {
            v.remove_prefix(9);
            session_ = std::string(v.substr(0, v.find(' ')));
        }
    }
}

bool Channel::reconnect_once() {
    shutdown();
    frames_ = FrameReader{}; // a torn frame must not poison the redial
    last_done_ = true;
    fd_ = dial_tcp(host_, port_);
    if (fd_ < 0 || !handshake(nullptr)) return false;
    // Resume where the old connection was: a fresh server context starts
    // on the hub's root session, not ours.
    if (!session_.empty()) {
        std::optional<proto::Response> attached = roundtrip("attach " + session_,
                                                            nullptr);
        // A re-attach with no readable answer fails this redial; the
        // next attempt re-attaches.
        if (!attached.has_value() || is_transport_error(*attached)) return false;
        if (!last_done_) (void)drain_event_lines();
        // The session may be gone (closed while we were away): the
        // channel is still usable, just unattached.
        if (!attached->ok()) session_.clear();
    }
    return true;
}

bool Channel::try_reconnect() {
    using clock = std::chrono::steady_clock;
    const clock::time_point start = clock::now();
    int delay = reconnect_.base_delay_ms;
    for (int attempt = 0; attempt < reconnect_.max_attempts; ++attempt) {
        if (attempt > 0) {
            // Full jitter over [delay/2, delay]: deterministic per seed,
            // decorrelated across clients.
            jitter_state_ = jitter_state_ * 1664525u + 1013904223u;
            int lo = delay / 2;
            int span = delay - lo + 1;
            int sleep_ms = lo + static_cast<int>(jitter_state_ %
                                                 static_cast<std::uint32_t>(span));
            std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
            delay = std::min(delay * 2, reconnect_.max_delay_ms);
        }
        if (reconnect_once()) {
            ++reconnects_;
            reconnect_time_us_ += std::chrono::duration_cast<std::chrono::microseconds>(
                                      clock::now() - start)
                                      .count();
            return true;
        }
    }
    return false;
}

proto::Response Channel::execute_line(std::string_view line) {
    if (fd_ < 0 && !(reconnect_enabled_ && try_reconnect()))
        return transport_error("not connected");

    // A caller that skipped drain_event_lines() leaves the previous
    // request's tail on the wire; consume through its done marker first.
    if (!last_done_) (void)drain_event_lines();
    if (fd_ < 0 && !(reconnect_enabled_ && try_reconnect()))
        return transport_error("not connected");

    std::string error;
    std::optional<proto::Response> resp = roundtrip(line, &error);
    if (!resp.has_value() && reconnect_enabled_ && try_reconnect()) {
        // At-least-once: the cut may have landed after the server
        // executed the request but before the response reached us — the
        // retry re-runs it (see the class comment for why that is safe
        // for fleet workloads).
        resp = roundtrip(line, &error);
    }
    if (!resp.has_value())
        return transport_error(error.empty() ? "send failed" : error);
    note_session(*resp);
    return *resp;
}

bool Channel::ping() {
    if (fd_ < 0) return false;
    if (!last_done_) (void)drain_event_lines();
    if (fd_ < 0) return false;
    if (!send_all(encode_frame(FrameType::Ping, "hb"))) return false;
    Frame frame;
    while (read_frame(frame, nullptr)) {
        if (frame.type == FrameType::Ping) return true;
        if (frame.type == FrameType::Event) {
            events_.push_back(std::move(frame.payload));
            continue;
        }
        break; // anything else out of band is a protocol violation
    }
    shutdown();
    return false;
}

std::vector<std::string> Channel::drain_event_lines() {
    if (fd_ >= 0 && !last_done_) {
        Frame frame;
        std::string error;
        while (true) {
            if (!read_frame(frame, &error)) break;
            if (frame.type == FrameType::Done) break;
            if (frame.type == FrameType::Event)
                events_.push_back(std::move(frame.payload));
            else
                break; // response frames never precede the done marker
        }
        last_done_ = true;
    }
    std::vector<std::string> out(events_.begin(), events_.end());
    events_.clear();
    return out;
}

} // namespace gmdf::net
