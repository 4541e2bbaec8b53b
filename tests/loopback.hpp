// Loopback fixtures shared by the net, chaos and obs tests: a hub +
// net::Server whose loop runs on a background thread, and raw sockets
// for driving it byte by byte.
#pragma once

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "hub/controller.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/loop.hpp"
#include "net/server.hpp"

namespace gmdf::test {

// Hub (one blinker session named `session`) + server + loop on a
// background thread, waking at least every 5 ms so idle sweeps run
// often. The loop owns the hub while running (it is single-threaded by
// design), so tests talk to it exclusively through sockets and only
// inspect server internals after join().
class LoopbackServer {
public:
    explicit LoopbackServer(net::ServerConfig config = {},
                            const std::string& session = "blinker") {
        EXPECT_NE(hub.open("blinker", session), nullptr);
        server.emplace(hub, std::move(config));
        std::string error;
        if (!server->start(&error)) ADD_FAILURE() << "start: " << error;
        thread = std::thread([this] { server->run(stop_flag, /*timeout_ms=*/5); });
    }

    ~LoopbackServer() { join(); }

    /// Stops the loop; server state is safe to inspect afterwards.
    void join() {
        if (!thread.joinable()) return;
        stop_flag.store(true);
        thread.join();
    }

    [[nodiscard]] std::uint16_t port() const { return server->port(); }

    std::unique_ptr<net::Channel> dial() {
        std::string error;
        auto channel = net::Channel::connect("127.0.0.1", port(), &error);
        EXPECT_NE(channel, nullptr) << error;
        return channel;
    }

    hub::HubController hub;
    std::optional<net::Server> server;
    std::atomic<bool> stop_flag{false};
    std::thread thread;
};

/// A blocking loopback socket whose reads time out after 5 s, so a hung
/// read fails the test instead of the run.
inline int raw_dial(std::uint16_t port) {
    std::string error;
    int fd = net::dial_tcp("127.0.0.1", port, &error);
    EXPECT_GE(fd, 0) << error;
    timeval tv{5, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
}

inline void raw_send(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
        ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        ASSERT_GT(n, 0) << std::strerror(errno);
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
}

/// Reads until `out` contains `until`, or by default until the peer
/// closes; either way no longer than the rcv timeout.
inline std::string raw_read(int fd, std::string_view until = {}) {
    std::string out;
    char chunk[4096];
    while (until.empty() || out.find(until) == std::string::npos) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) break;
        out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
}

/// Reads until `reader` decodes one frame into `frame`. False on EOF, a
/// codec error (reason in reader.error()) or the rcv timeout.
inline bool raw_read_frame(int fd, net::FrameReader& reader, net::Frame& frame) {
    char chunk[4096];
    while (true) {
        const net::FrameReader::Status st = reader.next(frame);
        if (st != net::FrameReader::Status::NeedMore)
            return st == net::FrameReader::Status::Ready;
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) return false;
        reader.feed({chunk, static_cast<std::size_t>(n)});
    }
}

} // namespace gmdf::test
