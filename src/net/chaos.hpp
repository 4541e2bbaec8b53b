// net::ChaosProxy — a deterministic network-fault injector for the
// debug service.
//
// A single-threaded epoll TCP proxy that sits between net::Channel
// clients and a net::Server, forwarding bytes in both directions while
// injecting faults drawn from a seeded PRNG: torn frames (a prefix of a
// chunk is delivered, then the connection is cut), stalls (a chunk is
// parked for 3 ms before forwarding), mid-request disconnects
// (the chunk is discarded and both sides closed), and byte corruption
// (one byte flipped, then forwarded — the codec's length/type guards
// turn this into a structured protocol error downstream).
//
// Each forwarded chunk (one read of at most 16 KiB) draws a fault with
// probability fault_rate, its kind uniform over all four; the whole
// schedule is a pure function of (seed, traffic), so a chaos run that
// found a weakness replays it. For tests that need a cut at an exact
// protocol position rather than a seeded one, the
// disconnect_after_chunks knob tears the Nth client→server chunk in
// half and cuts — once per proxy, so the client's reconnect succeeds.
//
// The proxy is transparent to the codec (it never parses frames) and
// accepts any number of sequential reconnections, dialing the upstream
// server fresh for each — exactly what a redialing Channel needs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/loop.hpp"

namespace gmdf::net {

struct ChaosConfig {
    std::string listen_host = "127.0.0.1";
    std::uint16_t listen_port = 0; ///< 0: ephemeral (read it from port())
    std::string upstream_host = "127.0.0.1";
    std::uint16_t upstream_port = 0;
    std::uint32_t seed = 1;
    /// Probability in [0,1] that a forwarded chunk draws one fault.
    double fault_rate = 0.0;
    /// Deterministic cut: tear the Nth client→server chunk in half and
    /// close the pair (0 disables). Fires once per proxy lifetime so
    /// the reconnected client gets a clean second run.
    int disconnect_after_chunks = 0;
};

struct ChaosStats {
    std::uint64_t connections = 0; ///< client connections proxied
    std::uint64_t chunks = 0;      ///< chunks forwarded, both directions
    std::uint64_t torn = 0;        ///< half-delivered chunks followed by a cut
    std::uint64_t stalls = 0;      ///< chunks parked before delivery
    std::uint64_t disconnects = 0; ///< chunks swallowed by an immediate cut
    std::uint64_t corruptions = 0; ///< chunks forwarded with one byte flipped
};

class ChaosProxy {
public:
    explicit ChaosProxy(ChaosConfig config);
    ~ChaosProxy();

    ChaosProxy(const ChaosProxy&) = delete;
    ChaosProxy& operator=(const ChaosProxy&) = delete;

    /// Binds and listens. False (reason in *error) on socket failure.
    bool start(std::string* error = nullptr);

    /// Closes the listener and every proxied pair.
    void stop();

    /// The bound port (after start()).
    [[nodiscard]] std::uint16_t port() const { return loop_.port(); }

    /// One loop cycle: accept, shuttle, inject, flush. Returns the
    /// number of ready fds; blocks at most timeout_ms (less when a
    /// stalled chunk's release is due sooner).
    int poll_once(int timeout_ms);

    /// Loops poll_once until `stop_flag` goes true. The short default
    /// timeout keeps stall releases timely.
    void run(const std::atomic<bool>& stop_flag, int timeout_ms = 5);

    [[nodiscard]] const ChaosStats& stats() const { return stats_; }

private:
    struct Pair;

    /// One socket of a proxied pair, and the bytes queued to it. Its
    /// readiness is reported under its own address.
    struct End {
        End(Pair* owner, int socket) : pair(owner), fd(socket) {}
        Pair* pair;
        int fd;
        std::string outbuf;
        std::size_t pos = 0;
        /// The buffer is parked until this instant (a past one parks nothing).
        std::chrono::steady_clock::time_point hold_until{};
        [[nodiscard]] bool pending() const { return pos < outbuf.size(); }
    };

    /// A client connection and its private upstream dial.
    struct Pair {
        Pair(int client_fd, int server_fd)
            : client(this, client_fd), server(this, server_fd) {}
        End client; ///< the accepted socket; queues server → client bytes
        End server; ///< the upstream dial; queues client → server bytes
        bool draining = false; ///< one side EOFed: flush, then close both
        int chunks_from_client = 0;
    };

    void accept_pair(int fd);
    /// Reads `from` until EAGAIN (its readiness is edge-triggered), EOF
    /// or a cut, routing each chunk through the fault injector.
    void shuttle(End& from);
    /// Applies at most one fault to a chunk read from `from`, then
    /// queues and flushes it to the pair's other end (unless it cut the
    /// pair).
    void inject(End& from, std::string chunk);
    void flush(End& to);
    void close_pair(Pair& pair);

    ChaosConfig config_;
    EventLoop loop_;
    std::vector<std::unique_ptr<Pair>> pairs_;
    std::mt19937 rng_;
    bool cut_fired_ = false; ///< disconnect_after_chunks is one-shot
    /// The earliest parked buffer's release, tracked by flush().
    std::chrono::steady_clock::time_point next_release_ =
        std::chrono::steady_clock::time_point::max();
    ChaosStats stats_;
};

} // namespace gmdf::net
