// Loopback plumbing for the TCP workloads: a frame-codec load generator
// driving up to a handful of connections from one thread, and an
// in-process hub::HubController + net::Server whose poll loop runs on a
// thread of its own (the shape gmdf_serve runs).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"
#include "hub/controller.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"

namespace perfbench {

/// One client connection speaking the frame codec.
struct Conn {
    int fd = -1;
    net::FrameReader reader{1 << 20};
    std::string out;
    std::size_t out_pos = 0;
    bool hello_done = false;
    bool waiting = false;            ///< a request is in flight
    std::string response;            ///< R payload of the last request
    std::vector<std::string> events; ///< E payloads not yet checked
    std::uint64_t wire_bytes = 0;    ///< bytes sent + received
};

class LoadGen {
public:
    LoadGen() = default;
    ~LoadGen() { close_all(); }
    LoadGen(const LoadGen&) = delete;
    LoadGen& operator=(const LoadGen&) = delete;

    /// Dials `n` connections and completes the magic + hello handshake.
    bool connect(std::uint16_t port, int n);

    /// Queues one request frame and writes what the socket takes.
    void send(Conn& c, std::string_view line);

    /// One poll(2) round over every connection; calls on_done(i) for each
    /// request whose done marker arrived. False on a disconnect or a
    /// protocol error (reason in error()). Timeout 0 spins (the client's
    /// CPU is not counted as the program's).
    bool step(int timeout_ms, const std::function<void(std::size_t)>& on_done);

    /// send + step until that request's done marker, spinning: set-up
    /// times then carry no client wake-ups.
    bool roundtrip(std::size_t i, std::string_view line);

    void close_all();

    std::vector<Conn> conns;
    [[nodiscard]] const std::string& error() const { return error_; }

    /// When set, a send stores the tracer clock there if it holds 0: the
    /// first send since the server loop last cleared it before a poll.
    /// The loop starts its busy span at that send rather than at the start
    /// of an idle wait, and sends made while it is busy cannot move it.
    std::atomic<std::uint64_t>* send_clock = nullptr;

private:
    bool flush(Conn& c);
    bool read(std::size_t i, const std::function<void(std::size_t)>& on_done);
    std::string error_;
};

/// Hub + server + the thread running Server::poll_once.
class ServerLoop {
public:
    /// Program counters sampled on the serving thread (the only thread
    /// that may touch the hub while it runs).
    struct Sample {
        std::uint64_t requests = 0;
        std::uint64_t wire_bytes = 0;
        std::uint64_t events = 0;
        std::uint64_t slices = 0;
        std::uint64_t checkpoints = 0;
        std::uint64_t restores = 0;
        std::uint64_t uart_cmds = 0; ///< engine commands ingested (monotonic sum)
    };

    ServerLoop(int pump_threads, std::string workload);
    ~ServerLoop() { stop(); }
    ServerLoop(const ServerLoop&) = delete;
    ServerLoop& operator=(const ServerLoop&) = delete;

    /// Samples after the `first_mark`-th request, then every `every`
    /// requests (0: only first_mark and the final sample). Set before
    /// start().
    void set_marks(std::uint64_t first_mark, std::uint64_t every) {
        next_mark_ = first_mark;
        every_ = every;
    }

    bool start(std::string* error);

    /// While set, the serving thread polls without sleeping. Set-ups run
    /// this way so their time is the set-up's work, not the host's
    /// thread wake-up latency; measured phases never do.
    void set_spin(bool on) { spin_.store(on, std::memory_order_relaxed); }
    /// Stops and joins the serving thread; samples() is readable after.
    void stop();
    /// Stops the serving thread, runs fn(), and starts the thread again.
    /// fn() may use other hubs: the registry counts it moves are kept out
    /// of this loop's samples, since every hub in the process adds to the
    /// one registry.
    void run_paused(const std::function<void()>& fn);

    [[nodiscard]] std::uint16_t port() const { return server_.port(); }
    [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
    [[nodiscard]] const Sample& final_sample() const { return final_; }

    /// The first client send since the last traced poll (0: none yet).
    std::atomic<std::uint64_t> first_send_ns{0};

private:
    void loop();
    Sample sample();

    hub::HubController hub_;
    net::Server server_;
    std::string workload_;
    std::uint64_t next_mark_ = 0;
    std::uint64_t every_ = 0;
    std::uint64_t uart_seen_ = 0; ///< last engine-command total observed
    std::uint64_t uart_sum_ = 0;  ///< positive increments (rewinds restore it)
    std::vector<Sample> samples_;
    Sample final_;
    Sample foreign_; ///< registry counts moved by other hubs (run_paused)
    std::atomic<bool> stop_{false};
    std::atomic<bool> spin_{false};
    std::thread thread_; ///< last: joins before the members above go away
};

/// Splits an event line "[name] ..." into its session tag.
std::string event_session(std::string_view line);

} // namespace perfbench
