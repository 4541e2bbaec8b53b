// net::EventLoop — the one readiness loop under net::Server and
// net::ChaosProxy — and dial_tcp, the one dialer.
//
// The loop owns an epoll instance, the listener and its accept loop. A
// connection's fd joins the interest set once, when it is accepted or
// dialed: edge-triggered for read and write, never modified, and dropped
// by close(2). The listener stays level-triggered, so an accept that
// fails (EMFILE, ...) is retried on the next wait. Each ready fd comes
// back with the tag it was added under; a wait rebuilds nothing.
//
// Edge triggering binds the owner: read a reported fd until EAGAIN (or
// never again), since bytes left behind bring no second report; and free
// a tagged object only after the wait that may report it has returned.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

struct epoll_event;

namespace gmdf::net {

/// Blocking dial of host:port (IPv4 dotted quad or name) with
/// TCP_NODELAY set. -1 on failure, with the reason in *error.
int dial_tcp(const std::string& host, std::uint16_t port, std::string* error = nullptr);

class EventLoop {
public:
    EventLoop();
    ~EventLoop();

    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;

    /// Binds and listens on host:port (0: ephemeral). False, with the
    /// reason in *error, on socket failure.
    bool listen(const std::string& host, std::uint16_t port, std::string* error);

    /// Closes the listener and the epoll instance, not registered fds.
    void close();

    [[nodiscard]] bool listening() const { return listen_fd_ >= 0; }
    /// The bound port (after listen()).
    [[nodiscard]] std::uint16_t port() const { return port_; }

    /// Makes fd non-blocking and registers it under `tag` (never null).
    /// False leaves fd open and unregistered.
    bool add(int fd, void* tag);

    /// Waits at most timeout_ms. A ready listener accepts each pending
    /// connection and hands its fd (TCP_NODELAY set, unregistered) to
    /// on_accept, the fd's new owner. A fd with input, EOF or an error
    /// goes to on_ready(tag, failed), failed meaning a socket error; a
    /// write-only wakeup just ends the wait. Returns the number of ready
    /// fds (the listener counts as one), 0 on EINTR, -1 when not
    /// listening or on failure.
    int wait(int timeout_ms, const std::function<void(int fd)>& on_accept,
             const std::function<void(void* tag, bool failed)>& on_ready);

private:
    int epoll_fd_ = -1;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::vector<epoll_event> events_;
};

} // namespace gmdf::net
