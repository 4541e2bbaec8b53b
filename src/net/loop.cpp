#include "net/loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace gmdf::net {

namespace {

void set_nodelay(int fd) {
    int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

int dial_tcp(const std::string& host, std::uint16_t port, std::string* error) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
    if (rc != 0) {
        if (error != nullptr) *error = "resolve " + host + ": " + gai_strerror(rc);
        return -1;
    }
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
        if (fd < 0) continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd >= 0)
        set_nodelay(fd);
    else if (error != nullptr)
        *error = "connect " + host + ":" + std::to_string(port) + ": " + std::strerror(errno);
    return fd;
}

EventLoop::EventLoop() : events_(64) {}

EventLoop::~EventLoop() { close(); }

bool EventLoop::listen(const std::string& host, std::uint16_t port, std::string* error) {
    auto fail = [&](const std::string& what) {
        if (error != nullptr) *error = what + ": " + std::strerror(errno);
        close();
        return false;
    };

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return fail("socket");
    int one = 1;
    (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return fail("inet_pton " + host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
        return fail("bind " + host + ":" + std::to_string(port));
    if (::listen(listen_fd_, 1024) != 0) return fail("listen");

    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
        return fail("getsockname");
    port_ = ntohs(addr.sin_port);

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return fail("epoll_create1");
    // Level-triggered, tagged null: a failed accept leaves the listener
    // ready, so the next wait reports it again.
    epoll_event ev{};
    ev.events = EPOLLIN;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0)
        return fail("epoll_ctl");
    return true;
}

void EventLoop::close() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    listen_fd_ = epoll_fd_ = -1;
}

bool EventLoop::add(int fd, void* tag) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) return false;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    ev.data.ptr = tag;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

int EventLoop::wait(int timeout_ms, const std::function<void(int fd)>& on_accept,
                    const std::function<void(void* tag, bool failed)>& on_ready) {
    if (epoll_fd_ < 0) return -1;
    const int n = ::epoll_wait(epoll_fd_, events_.data(), static_cast<int>(events_.size()),
                               timeout_ms);
    // EINTR is a signal, not a failure: report an idle cycle and let the
    // caller's loop (gmdf_serve's run()) decide whether to keep going.
    if (n < 0) return errno == EINTR ? 0 : -1;
    for (int i = 0; i < n; ++i) {
        const epoll_event& ev = events_[static_cast<std::size_t>(i)];
        if (ev.data.ptr != nullptr) {
            if ((ev.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0)
                on_ready(ev.data.ptr, (ev.events & EPOLLERR) != 0);
            continue;
        }
        while (true) {
            const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
            if (fd < 0 && errno == EINTR) continue;
            if (fd < 0) break; // EAGAIN, or transient (ECONNABORTED, EMFILE, ...)
            set_nodelay(fd);
            on_accept(fd);
        }
    }
    // A full batch may have left ready fds for the next wait; take more.
    if (static_cast<std::size_t>(n) == events_.size()) events_.resize(events_.size() * 2);
    return n;
}

} // namespace gmdf::net
