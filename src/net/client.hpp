// net::Channel — a proto::ScriptClient that lives across a TCP socket.
//
// The client half of the frame codec: connect() dials a gmdf_serve
// instance, performs the magic + versioned-hello handshake, and then
// every execute_line() becomes a request frame. The server answers with
// a response frame, the event lines the request raised, and a done
// marker; Channel hands them back through the same ScriptClient
// interface an in-process HubController implements, so proto::run_script
// (and with it every .gds script and golden transcript) runs over the
// network unchanged.
//
// The socket is blocking — a script client has nothing useful to do
// while its one outstanding request is in flight. Load generators that
// want thousands of concurrent connections drive raw non-blocking
// sockets with the codec directly (see bench/bench_p5_net.cpp).
//
// Resilience (opt-in via set_reconnect): when a send or read fails
// mid-request, the server answers with a protocol-error frame (it could
// not decode the request, so it did not run it, and closes), or its
// response frame does not parse (a byte flipped on the way), the
// channel redials with exponential backoff plus deterministic jitter,
// re-shakes hands, re-attaches the session it was last on (tracked from
// "current <name>"/"attached <name>" response lines), and re-sends the
// failed request once. A redial counts only once its re-attach is
// answered. That is at-least-once delivery — a request the server
// finished executing before the cut or the broken answer may run twice;
// the fleet protocol's verbs are either idempotent or advance simulated
// time, which campaign workloads tolerate by design. With reconnect off
// (the default) failures surface exactly as before, as Internal
// "network: ..." error responses (is_transport_error tells them from
// the hub's own errors).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/codec.hpp"
#include "proto/script.hpp"

namespace gmdf::net {

class Channel final : public proto::ScriptClient {
public:
    /// Automatic redial policy; disabled unless set_reconnect() is
    /// called. Delays double from base to max per attempt, each with a
    /// deterministic jitter drawn from jitter_seed (so two clients with
    /// different seeds never stampede the server in lockstep, while a
    /// given test run stays reproducible).
    struct ReconnectConfig {
        int max_attempts = 5;
        int base_delay_ms = 10;
        int max_delay_ms = 1000;
        std::uint32_t jitter_seed = 1;
    };

    /// Dials host:port (IPv4 dotted quad or name) and shakes hands.
    /// Null on failure, with the reason in *error when provided.
    static std::unique_ptr<Channel> connect(const std::string& host,
                                            std::uint16_t port,
                                            std::string* error = nullptr);

    ~Channel() override;

    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    /// Sends one request and blocks for its response frame. Transport
    /// failures surface as transport_error() Responses, never exceptions —
    /// unless reconnect is enabled, in which case the channel redials,
    /// re-attaches, and retries the request once first.
    proto::Response execute_line(std::string_view line) override;

    /// Event lines for the last request (everything up to its done
    /// marker), plus any events the server pushed in between.
    std::vector<std::string> drain_event_lines() override;

    /// Heartbeat: sends a Ping frame and blocks for the echo. False on
    /// any transport failure (the connection is shut down; the next
    /// execute_line reconnects when enabled).
    bool ping();

    void set_reconnect(ReconnectConfig config) {
        reconnect_ = config;
        reconnect_enabled_ = true;
        jitter_state_ = config.jitter_seed;
    }

    /// Successful redials so far, and the wall-clock total they took
    /// (dial + handshake + re-attach) — the bench's resume latency.
    [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }
    [[nodiscard]] std::int64_t reconnect_time_us() const { return reconnect_time_us_; }

    /// The session this channel last selected ("current"/"attached"
    /// response lines); re-attached after a redial.
    [[nodiscard]] const std::string& session() const { return session_; }

private:
    explicit Channel(int fd) : fd_(fd) {}

    /// Magic + hello out, hello echo back. False leaves fd_ closed, with
    /// the reason in *error when provided.
    bool handshake(std::string* error);
    bool send_all(std::string_view bytes);
    /// Reads until a frame arrives; false on EOF/error.
    bool read_frame(Frame& out, std::string* error);
    void shutdown();
    /// One request/response cycle with no redial logic. nullopt on a
    /// retryable failure — send, EOF, errno, a server protocol-error
    /// frame or an unparsable response frame — with the reason in
    /// *error; an unexpected frame comes back as a non-retryable
    /// transport_error Response.
    std::optional<proto::Response> roundtrip(std::string_view line,
                                             std::string* error);
    /// Updates session_ from a successful response's body lines.
    void note_session(const proto::Response& resp);
    /// Redial + handshake + re-attach, once. False leaves fd_ closed.
    bool reconnect_once();
    /// Backoff loop over reconnect_once per the ReconnectConfig.
    bool try_reconnect();

    int fd_ = -1;
    std::string host_;
    std::uint16_t port_ = 0;
    FrameReader frames_;
    std::deque<std::string> events_; ///< buffered event lines
    bool last_done_ = true; ///< done marker for the last request consumed
    bool reconnect_enabled_ = false;
    ReconnectConfig reconnect_;
    std::uint32_t jitter_state_ = 1;
    std::string session_;
    std::uint64_t reconnects_ = 0;
    std::int64_t reconnect_time_us_ = 0;
};

/// An Internal error "network: <what>": the Channel's own account of a
/// failed transport (send, EOF, unparsable or protocol-error frame).
proto::Response transport_error(std::string what);

/// True when `resp` came from transport_error(), not from the hub.
bool is_transport_error(const proto::Response& resp);

/// Splits "host:port"; false when the port is missing or malformed.
bool split_host_port(std::string_view spec, std::string& host, std::uint16_t& port);

} // namespace gmdf::net
