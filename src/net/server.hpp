// net::Server — the hub behind a real TCP listener.
//
// A single-threaded net::EventLoop (epoll, loop.hpp) accepts N
// concurrent client connections and serves each one the same
// line-oriented protocol the in-process drivers speak, through a
// hub::HubController. Each connection owns:
//
//   - read/write buffers, fed in arbitrary slices across loop wakeups
//     (torn lines and torn frames reassemble; malformed or oversized
//     input gets a structured error and a close, never a crash),
//   - a codec: the '\n' line codec for netcat-style clients, or the
//     length-prefixed frame codec (codec.hpp) negotiated by the "GMDF"
//     magic + versioned hello,
//   - a hub::RouteContext — its own current session, @<session> ACL
//     allowlist (the attach/acl verbs), and the list of sessions it
//     opened,
//   - a bounded pending-event queue with write-side backpressure: when
//     a slow client's write buffer is above the high-water mark, event
//     fan-out to it pauses; when the pending queue overflows, the
//     oldest events drop and are counted per connection. Only frame
//     (after the hello) and line clients receive events.
//
// Disconnect and `quit` drain gracefully: queued responses flush before
// the close, and the hub releases only the sessions this client opened
// — a client can never tear down sessions it didn't open.
//
// NetStats is the only home of the server's counts. start() hands the
// hub a NetStatsProvider, so `session stats net` and the hub's scrapes
// (`metrics`, GET /metrics) read them from here; nothing is registered
// in obs::registry().
//
// The loop is deliberately single-threaded (connection handling is
// commingled with hub state, which is not locked); run() can live on a
// dedicated thread as long as nothing else touches the hub meanwhile.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "hub/controller.hpp"
#include "net/codec.hpp"
#include "net/loop.hpp"
#include "obs/metrics.hpp"

namespace gmdf::net {

struct ServerConfig {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0: ephemeral (read the bound one from port())
    int max_connections = 10000;
    /// Event fan-out to a connection pauses while its write buffer holds
    /// at least this many bytes (responses still queue — they are
    /// bounded by one per request).
    std::size_t write_high_water = 256 * 1024;
    /// Events parked per connection while fan-out is paused; beyond it
    /// the oldest drop, counted in the connection's events_dropped.
    std::size_t event_queue_capacity = 4096;
    /// Close a connection after this long without client input; 0 (the
    /// default) never idle-closes. Frame clients keep an idle connection
    /// alive with heartbeat Ping frames (echoed by the server).
    int idle_timeout_ms = 0;
    /// Accept load-shed high-water mark: with at least this many live
    /// connections, new clients get a structured "busy" reply in their
    /// own codec and are closed instead of being serviced. 0 disables.
    /// Distinct from max_connections, which refuses silently at the
    /// accept itself (the hard fd ceiling).
    int accept_high_water = 0;
};

/// Server-wide totals, counted live as the server works. Each connection
/// also keeps its own bytes, requests and drops for `session stats net`.
struct NetStats {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t refused = 0;         ///< accepted over max_connections
    std::uint64_t protocol_errors = 0; ///< malformed input, bad hello
    std::uint64_t requests = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t events_sent = 0;
    std::uint64_t events_dropped = 0; ///< backpressure drops, all connections
    std::uint64_t pings = 0;          ///< heartbeat frames echoed
    std::uint64_t idle_closed = 0;    ///< connections closed by the idle timeout
    std::uint64_t busy_shed = 0;      ///< connections shed at the high-water mark
    std::uint64_t scrapes = 0;        ///< GET /metrics requests served
    std::uint64_t backpressure_pauses = 0; ///< event fan-out stalls over high water
};

class Server {
public:
    explicit Server(hub::HubController& hub, ServerConfig config = {});
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Binds and listens; installs the hub event sink and net-stats
    /// provider. False (with the reason in *error) on socket failure.
    bool start(std::string* error = nullptr);

    /// Closes the listener and every connection (releasing their hub
    /// contexts); the hub's sink/provider hooks are uninstalled.
    void stop();

    /// The bound port (after start()).
    [[nodiscard]] std::uint16_t port() const { return loop_.port(); }

    /// One loop cycle: accept, read, execute, write, then close what
    /// finished. Returns the number of ready fds (the listener counting
    /// as one); blocks at most timeout_ms.
    int poll_once(int timeout_ms);

    /// Loops poll_once until `stop_flag` goes true.
    void run(const std::atomic<bool>& stop_flag, int timeout_ms = 20);

    [[nodiscard]] std::size_t active_connections() const { return connections_.size(); }
    [[nodiscard]] const NetStats& stats() const { return stats_; }

    /// The `session stats net` body: server totals plus one row per live
    /// connection.
    [[nodiscard]] std::vector<std::string> stats_lines() const;

private:
    struct Connection {
        int fd = -1;
        int id = 0;
        /// Http: a "GET " prefix instead of the GMDF magic switches the
        /// connection to one-shot HTTP serving (the /metrics scrape
        /// surface) — respond, drain, close.
        enum class Mode { Detect, Frame, Line, Http } mode = Mode::Detect;
        bool hello_done = false;
        bool bp_paused = false; ///< event fan-out paused over high water
        std::string detect_buf; ///< bytes held until the codec is known
                                ///< (and the request buffer in Http mode)
        FrameReader frames;
        LineReader lines;
        std::string outbuf;
        std::size_t out_pos = 0;
        std::deque<std::string> pending_events; ///< formatted lines awaiting flush
        hub::RouteContext ctx;
        bool draining = false; ///< close once outbuf flushes
        bool shed = false;     ///< over the high-water mark: busy reply, then close
        bool closing = false;  ///< closed and erased at the end of this cycle
        std::chrono::steady_clock::time_point last_activity{};
        std::uint64_t bytes_in = 0;
        std::uint64_t bytes_out = 0;
        std::uint64_t requests = 0;
        std::uint64_t events_dropped = 0;
    };

    void accept_connection(int fd);
    bool read_connection(Connection& conn); ///< false: close it now
    bool process_input(Connection& conn);
    bool process_http(Connection& conn); ///< false: response queued, drain+close
    bool handle_request(Connection& conn, std::string_view line);
    void send_response(Connection& conn, const std::string& formatted);
    void fan_out_event(int session_id, std::string_view session_name,
                       const std::string& line);
    /// force: ignore the write high-water mark (request-scoped events
    /// must land between their response and the done marker).
    void flush_pending_events(Connection& conn, bool force = false);
    void queue_bytes(Connection& conn, std::string_view bytes);
    bool write_connection(Connection& conn); ///< false: close it now
    void protocol_error(Connection& conn, const std::string& message);
    /// Busy reply in the connection's detected codec, then drain+close.
    void shed_busy(Connection& conn);
    void close_connection(Connection& conn);
    /// Writes stats_ and the open connection count into a hub scrape.
    void publish_metrics(obs::Registry& reg) const;

    hub::HubController& hub_;
    ServerConfig config_;
    EventLoop loop_;
    int next_conn_id_ = 1;
    std::vector<std::unique_ptr<Connection>> connections_;
    NetStats stats_;
};

} // namespace gmdf::net
