#include "net/chaos.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace gmdf::net {

namespace {

/// How long a stalled chunk is parked before delivery.
constexpr int kStallMs = 3;

/// Fire-and-forget delivery of a torn prefix right before a cut; the
/// kernel buffer takes a half frame without blocking.
void send_best_effort(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
        ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            return;
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
}

} // namespace

ChaosProxy::ChaosProxy(ChaosConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

ChaosProxy::~ChaosProxy() { stop(); }

bool ChaosProxy::start(std::string* error) {
    return loop_.listen(config_.listen_host, config_.listen_port, error);
}

void ChaosProxy::stop() {
    for (auto& pair : pairs_) close_pair(*pair);
    pairs_.clear();
    loop_.close();
}

void ChaosProxy::accept_pair(int fd) {
    // Blocking: the upstream is local and live wherever the proxy runs.
    const int upstream = dial_tcp(config_.upstream_host, config_.upstream_port);
    if (upstream < 0) {
        ::close(fd);
        return;
    }
    auto pair = std::make_unique<Pair>(fd, upstream);
    if (!loop_.add(fd, &pair->client) || !loop_.add(upstream, &pair->server)) {
        close_pair(*pair);
        return;
    }
    pairs_.push_back(std::move(pair));
    ++stats_.connections;
}

void ChaosProxy::close_pair(Pair& pair) {
    for (End* end : {&pair.client, &pair.server}) {
        if (end->fd >= 0) ::close(end->fd);
        end->fd = -1;
    }
}

void ChaosProxy::inject(End& from, std::string chunk) {
    Pair& pair = *from.pair;
    const bool from_client = &from == &pair.client;
    End& to = from_client ? pair.server : pair.client;
    ++stats_.chunks;

    // Deterministic cut knob: tear the Nth client→server chunk in half
    // and close. One-shot, so the redialed connection runs clean.
    if (from_client && config_.disconnect_after_chunks > 0 && !cut_fired_ &&
        ++pair.chunks_from_client >= config_.disconnect_after_chunks) {
        cut_fired_ = true;
        ++stats_.torn;
        send_best_effort(to.fd, std::string_view(chunk).substr(0, chunk.size() / 2));
        close_pair(pair);
        return;
    }

    if (config_.fault_rate > 0) {
        std::uniform_real_distribution<double> coin(0.0, 1.0);
        if (coin(rng_) < config_.fault_rate) {
            std::uniform_int_distribution<int> pick(0, 3);
            switch (pick(rng_)) {
            case 0: // tear
                ++stats_.torn;
                send_best_effort(to.fd,
                                 std::string_view(chunk).substr(0, chunk.size() / 2));
                close_pair(pair);
                return;
            case 1: // stall: parked, then queued below
                ++stats_.stalls;
                to.hold_until = std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(kStallMs);
                break;
            case 2: // disconnect
                ++stats_.disconnects;
                close_pair(pair);
                return;
            default: { // corrupt
                ++stats_.corruptions;
                std::uniform_int_distribution<std::size_t> at(0, chunk.size() - 1);
                std::size_t i = at(rng_);
                chunk[i] = static_cast<char>(~chunk[i]);
                break;
            }
            }
        }
    }

    to.outbuf.append(chunk);
    flush(to);
}

void ChaosProxy::shuttle(End& from) {
    Pair& pair = *from.pair;
    char chunk[16384];
    while (!pair.draining && from.fd >= 0) {
        ssize_t n = ::recv(from.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            inject(from, std::string(chunk, static_cast<std::size_t>(n)));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        // EOF or a hard error: deliver what is already queued, then close.
        pair.draining = true;
        pair.client.hold_until = {};
        pair.server.hold_until = {};
    }
}

void ChaosProxy::flush(End& to) {
    if (to.fd < 0 || !to.pending()) return;
    if (std::chrono::steady_clock::now() < to.hold_until) {
        next_release_ = std::min(next_release_, to.hold_until);
        return;
    }
    while (to.pending()) {
        ssize_t n = ::send(to.fd, to.outbuf.data() + to.pos, to.outbuf.size() - to.pos,
                           MSG_NOSIGNAL);
        if (n > 0) {
            to.pos += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        close_pair(*to.pair); // the other end vanished mid-flush
        return;
    }
    to.outbuf.clear();
    to.pos = 0;
}

int ChaosProxy::poll_once(int timeout_ms) {
    using namespace std::chrono;
    // Wake in time for the next stall release instead of on readiness.
    const long long release_ms =
        duration_cast<milliseconds>(next_release_ - steady_clock::now()).count() + 1;
    if (release_ms < timeout_ms) timeout_ms = static_cast<int>(std::max(release_ms, 0LL));

    const int ready = loop_.wait(
        timeout_ms, [this](int fd) { accept_pair(fd); },
        [this](void* tag, bool) { shuttle(*static_cast<End*>(tag)); });
    if (ready < 0) return -1;

    // Flush both directions every cycle: stalled chunks release on the
    // clock, not on socket readiness.
    next_release_ = steady_clock::time_point::max();
    for (auto& pair : pairs_) {
        flush(pair->server);
        flush(pair->client);
        if (pair->client.fd >= 0 && pair->draining && !pair->server.pending() &&
            !pair->client.pending())
            close_pair(*pair);
    }
    std::erase_if(pairs_, [](const std::unique_ptr<Pair>& p) { return p->client.fd < 0; });
    return ready;
}

void ChaosProxy::run(const std::atomic<bool>& stop_flag, int timeout_ms) {
    while (!stop_flag.load(std::memory_order_relaxed)) {
        if (poll_once(timeout_ms) < 0) break;
    }
}

} // namespace gmdf::net
