#include "tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.hpp"

namespace perfbench {

// ---- LoadGen ----------------------------------------------------------------

bool LoadGen::connect(std::uint16_t port, int n) {
    for (int i = 0; i < n; ++i) {
        Conn c;
        c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (c.fd < 0) {
            error_ = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
            error_ = std::string("connect: ") + std::strerror(errno);
            ::close(c.fd);
            return false;
        }
        int one = 1;
        (void)setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        const int flags = fcntl(c.fd, F_GETFL, 0);
        (void)fcntl(c.fd, F_SETFL, flags | O_NONBLOCK);
        c.out = std::string(net::kMagic) +
                net::encode_frame(net::FrameType::Hello, net::hello_payload());
        conns.push_back(std::move(c));
        if (!flush(conns.back())) return false;
    }
    const auto all_hello = [this] {
        for (const Conn& c : conns)
            if (!c.hello_done) return false;
        return true;
    };
    while (!all_hello())
        if (!step(1000, {})) return false;
    return true;
}

void LoadGen::send(Conn& c, std::string_view line) {
    if (c.out_pos > 0) {
        c.out.erase(0, c.out_pos);
        c.out_pos = 0;
    }
    c.out += net::encode_frame(net::FrameType::Request, line);
    c.waiting = true;
    if (send_clock != nullptr) {
        std::uint64_t none = 0;
        (void)send_clock->compare_exchange_strong(none, obs::tracer().now_ns(),
                                                  std::memory_order_relaxed);
    }
    (void)flush(c); // a failure resurfaces as POLLERR/EOF in step()
}

bool LoadGen::flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            c.out_pos += static_cast<std::size_t>(n);
            c.wire_bytes += static_cast<std::uint64_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
        if (n < 0 && errno == EINTR) continue;
        error_ = std::string("send: ") + std::strerror(errno);
        return false;
    }
    return true;
}

bool LoadGen::read(std::size_t i, const std::function<void(std::size_t)>& on_done) {
    Conn& c = conns[i];
    char buf[65536];
    while (true) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            c.wire_bytes += static_cast<std::uint64_t>(n);
            c.reader.feed({buf, static_cast<std::size_t>(n)});
            continue;
        }
        if (n == 0) {
            error_ = "server closed connection " + std::to_string(i);
            return false;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        error_ = std::string("recv: ") + std::strerror(errno);
        return false;
    }
    net::Frame frame;
    while (true) {
        const auto st = c.reader.next(frame);
        if (st == net::FrameReader::Status::NeedMore) return true;
        if (st == net::FrameReader::Status::Error) {
            error_ = "bad frame on connection " + std::to_string(i) + ": " +
                     c.reader.error();
            return false;
        }
        switch (frame.type) {
        case net::FrameType::Hello: c.hello_done = true; break;
        case net::FrameType::Response: c.response = std::move(frame.payload); break;
        case net::FrameType::Event: c.events.push_back(std::move(frame.payload)); break;
        case net::FrameType::Done:
            c.waiting = false;
            if (on_done) on_done(i);
            break;
        case net::FrameType::Ping: break;
        default:
            error_ = "protocol error on connection " + std::to_string(i) + ": " +
                     frame.payload;
            return false;
        }
    }
}

bool LoadGen::step(int timeout_ms, const std::function<void(std::size_t)>& on_done) {
    pollfd fds[16];
    const std::size_t n = conns.size();
    for (std::size_t i = 0; i < n; ++i) {
        fds[i].fd = conns[i].fd;
        fds[i].events = POLLIN;
        if (conns[i].out_pos < conns[i].out.size()) fds[i].events |= POLLOUT;
        fds[i].revents = 0;
    }
    const int ready = ::poll(fds, n, timeout_ms);
    if (ready < 0) {
        if (errno == EINTR) return true;
        error_ = std::string("poll: ") + std::strerror(errno);
        return false;
    }
    for (std::size_t i = 0; i < n && ready > 0; ++i) {
        if (fds[i].revents == 0) continue;
        if ((fds[i].revents & POLLOUT) != 0 && !flush(conns[i])) return false;
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !read(i, on_done))
            return false;
    }
    return true;
}

bool LoadGen::roundtrip(std::size_t i, std::string_view line) {
    send(conns[i], line);
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (conns[i].waiting) {
        if (!step(0, {})) return false;
        if (Clock::now() > deadline) {
            error_ = "no response to '" + std::string(line) + "'";
            return false;
        }
    }
    return true;
}

void LoadGen::close_all() {
    for (Conn& c : conns)
        if (c.fd >= 0) ::close(c.fd);
    conns.clear();
}

// ---- ServerLoop -------------------------------------------------------------

ServerLoop::ServerLoop(int pump_threads, std::string workload)
    : server_(hub_), workload_(std::move(workload)) {
    hub_.scheduler().set_threads(pump_threads);
}

bool ServerLoop::start(std::string* error) {
    if (!server_.start(error)) return false;
    thread_ = std::thread([this] { loop(); });
    return true;
}

void ServerLoop::stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    server_.stop();
}

void ServerLoop::run_paused(const std::function<void()>& fn) {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    const Sample before = sample();
    fn();
    const Sample after = sample();
    foreign_.slices += after.slices - before.slices;
    foreign_.checkpoints += after.checkpoints - before.checkpoints;
    foreign_.restores += after.restores - before.restores;
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { loop(); });
}

ServerLoop::Sample ServerLoop::sample() {
    const net::NetStats& st = server_.stats();
    obs::Registry& reg = obs::registry();
    Sample s;
    s.requests = st.requests;
    s.wire_bytes = st.bytes_in + st.bytes_out;
    s.events = st.events_sent;
    s.slices = reg.histogram("hub.pump.slice_ns").snapshot().count - foreign_.slices;
    s.checkpoints = reg.histogram("replay.capture_ns").snapshot().count - foreign_.checkpoints;
    s.restores = reg.histogram("replay.restore_ns").snapshot().count - foreign_.restores;
    s.uart_cmds = uart_sum_;
    return s;
}

void ServerLoop::loop() {
    obs::Tracer& tr = obs::tracer();
    const auto engine_commands = [this] {
        std::uint64_t total = 0;
        for (const auto& e : hub_.registry().entries())
            total += e->session().engine().stats().commands;
        return total;
    };
    while (!stop_.load(std::memory_order_relaxed)) {
        const bool tracing = tr.enabled();
        if (tracing) first_send_ns.store(0, std::memory_order_relaxed);
        const std::uint64_t called = tracing ? tr.now_ns() : 0;
        const int active = server_.poll_once(spin_.load(std::memory_order_relaxed) ? 0 : 5);
        if (active <= 0) continue;
        if (tracing) {
            // A send whose time the store above cleared began before the
            // call, so for it the span starts at the call.
            const std::uint64_t woke =
                std::max(called, first_send_ns.load(std::memory_order_relaxed));
            record_span("net.poll_once", workload_, server_.stats().requests, woke,
                        tr.now_ns());
        }
        // Rewinds restore the engine's counter, so the run-wide UART total
        // is the sum of its increases.
        const std::uint64_t cmds = engine_commands();
        if (cmds > uart_seen_) uart_sum_ += cmds - uart_seen_;
        uart_seen_ = cmds;
        if (server_.stats().requests >= next_mark_) {
            samples_.push_back(sample());
            next_mark_ = every_ > 0 ? next_mark_ + every_ : UINT64_MAX;
        }
    }
    final_ = sample();
}

std::string event_session(std::string_view line) {
    if (line.empty() || line.front() != '[') return {};
    const std::size_t end = line.find(']');
    return end == std::string_view::npos ? std::string() : std::string(line.substr(1, end - 1));
}

} // namespace perfbench
