// P5 — the network debug service under load: an in-process net::Server
// (the same epoll event loop gmdf_serve runs) against a non-blocking
// loopback load generator at rising connection counts. Reports sustained
// requests/sec and p50/p99 request latency per level, each the spread of
// kRepeats runs that dial their connections afresh; writes
// BENCH_p5_net.json (CI smoke step).
//
// The generator keeps every connection's next request in flight the
// moment the previous one completes, so the server-side event loop is
// the bottleneck being measured: accept fairness, frame reassembly,
// per-connection routing contexts, and the write path. Levels scale
// from 100 to ~10k concurrent connections (bounded by RLIMIT_NOFILE —
// both ends of every loopback socket live in this one process).
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "hub/controller.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"

using namespace gmdf;
using benchjson::Clock;
using benchjson::kRepeats;
using benchjson::spread_of;

namespace {

// Read-mostly verbs: no events to fan out, no engine time advanced, so
// every level measures protocol + routing cost, not simulation cost.
const char* kRequestMix[] = {"info", "query signal led", "break list",
                             "session list"};

struct LoadClient {
    enum class St { Unstarted, Connecting, Hello, Idle, Waiting, Dead };

    int fd = -1;
    St st = St::Unstarted;
    net::FrameReader frames{1 << 20};
    std::string out;
    std::size_t out_pos = 0;
    Clock::time_point sent_at;
    std::uint64_t completed = 0;
    int mix = 0;
};

/// One run of one level.
struct LevelRun {
    int connected = 0;
    double rps = 0;
    double p50_us = 0;
    double p99_us = 0;
};

bool set_nonblocking(int fd) {
    int flags = fcntl(fd, F_GETFL, 0);
    return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void queue_bytes(LoadClient& c, std::string_view bytes) {
    if (c.out_pos > 0) {
        c.out.erase(0, c.out_pos);
        c.out_pos = 0;
    }
    c.out.append(bytes);
}

void kill_client(LoadClient& c) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    c.st = LoadClient::St::Dead;
}

bool start_connect(LoadClient& c, std::uint16_t port) {
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0 || !set_nonblocking(c.fd)) {
        kill_client(c);
        return false;
    }
    int one = 1;
    (void)setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int rc = ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
        kill_client(c);
        return false;
    }
    c.st = LoadClient::St::Connecting;
    queue_bytes(c, std::string(net::kMagic) +
                       net::encode_frame(net::FrameType::Hello, net::hello_payload()));
    return true;
}

void send_next_request(LoadClient& c) {
    const char* verb = kRequestMix[c.mix];
    c.mix = (c.mix + 1) % static_cast<int>(std::size(kRequestMix));
    queue_bytes(c, net::encode_frame(net::FrameType::Request, verb));
    c.sent_at = Clock::now();
    c.st = LoadClient::St::Waiting;
}

/// Drains decoded frames; advances the client state machine. Records a
/// latency sample per completed request while `record` is set.
void consume_frames(LoadClient& c, bool record, std::vector<double>& latencies) {
    net::Frame frame;
    while (true) {
        net::FrameReader::Status st = c.frames.next(frame);
        if (st == net::FrameReader::Status::NeedMore) return;
        if (st == net::FrameReader::Status::Error) {
            kill_client(c);
            return;
        }
        switch (frame.type) {
        case net::FrameType::Hello:
            if (c.st == LoadClient::St::Hello) c.st = LoadClient::St::Idle;
            break;
        case net::FrameType::Done:
            if (c.st == LoadClient::St::Waiting) {
                ++c.completed;
                if (record) latencies.push_back(benchjson::us_since(c.sent_at));
                c.st = LoadClient::St::Idle;
            }
            break;
        case net::FrameType::Response:
        case net::FrameType::Event:
            break;
        default:
            kill_client(c); // protocol error from the server
            return;
        }
    }
}

LevelRun run_level(std::uint16_t port, int connections, double seconds) {
    std::vector<LoadClient> clients(static_cast<std::size_t>(connections));
    std::vector<double> latencies;
    latencies.reserve(1 << 16);

    // Stagger the dials so the listener's backlog (1024) never overflows.
    std::size_t dialed = 0;
    constexpr std::size_t kDialBatch = 512;

    bool measuring = false;
    Clock::time_point t0;
    Clock::time_point deadline;
    const auto connect_deadline = Clock::now() + std::chrono::seconds(30);

    std::vector<pollfd> fds;
    std::vector<std::size_t> index;
    char chunk[16384];

    while (true) {
        std::size_t connecting = 0;
        for (const auto& c : clients)
            if (c.st == LoadClient::St::Connecting || c.st == LoadClient::St::Hello)
                ++connecting;
        while (dialed < clients.size() && connecting < kDialBatch) {
            if (start_connect(clients[dialed], port)) ++connecting;
            ++dialed;
        }

        auto now = Clock::now();
        if (!measuring) {
            if (dialed == clients.size() && connecting == 0) {
                measuring = true;
                t0 = now;
                deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
            } else if (now > connect_deadline) {
                break; // count what connected; never hang the bench
            }
        } else if (now >= deadline) {
            break; // in-flight tails are not part of the window
        }

        fds.clear();
        index.clear();
        for (std::size_t i = 0; i < clients.size(); ++i) {
            LoadClient& c = clients[i];
            if (c.fd < 0) continue;
            if (measuring && c.st == LoadClient::St::Idle) send_next_request(c);
            short events = 0;
            if (c.st == LoadClient::St::Connecting)
                events = POLLOUT;
            else {
                events = POLLIN;
                if (c.out_pos < c.out.size()) events |= POLLOUT;
            }
            fds.push_back({c.fd, events, 0});
            index.push_back(i);
        }
        if (fds.empty()) break;

        if (::poll(fds.data(), fds.size(), 50) <= 0) continue;

        for (std::size_t k = 0; k < fds.size(); ++k) {
            LoadClient& c = clients[index[k]];
            short re = fds[k].revents;
            if (re == 0 || c.fd < 0) continue;
            if ((re & (POLLERR | POLLNVAL | POLLHUP)) != 0 &&
                c.st == LoadClient::St::Connecting) {
                kill_client(c);
                continue;
            }
            if (c.st == LoadClient::St::Connecting && (re & POLLOUT) != 0) {
                int err = 0;
                socklen_t len = sizeof(err);
                if (getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
                    err != 0) {
                    kill_client(c);
                    continue;
                }
                c.st = LoadClient::St::Hello;
            }
            if ((re & POLLOUT) != 0 && c.out_pos < c.out.size()) {
                ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                                   c.out.size() - c.out_pos, MSG_NOSIGNAL);
                if (n > 0)
                    c.out_pos += static_cast<std::size_t>(n);
                else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                         errno != EINTR) {
                    kill_client(c);
                    continue;
                }
            }
            if ((re & POLLIN) != 0) {
                while (true) {
                    ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
                    if (n > 0) {
                        c.frames.feed({chunk, static_cast<std::size_t>(n)});
                        continue;
                    }
                    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                    if (n < 0 && errno == EINTR) continue;
                    kill_client(c);
                    break;
                }
                if (c.fd >= 0) consume_frames(c, measuring, latencies);
            }
        }
    }

    LevelRun r;
    for (auto& c : clients) {
        if (c.st != LoadClient::St::Dead && c.fd >= 0) ++r.connected;
        kill_client(c);
    }
    const double elapsed = measuring ? benchjson::us_since(t0) / 1e6 : 0.0;
    r.rps = elapsed > 0 ? static_cast<double>(latencies.size()) / elapsed : 0.0;
    r.p50_us = benchjson::percentile(latencies, 0.50);
    r.p99_us = benchjson::percentile(latencies, 0.99);
    return r;
}

struct LevelResult {
    int connections = 0;
    int connected = 0; ///< the fewest any repeat held open
    benchjson::Spread rps;
    benchjson::Spread p50_us;
    benchjson::Spread p99_us;
};

LevelResult bench_level(std::uint16_t port, int connections, double seconds) {
    LevelResult r;
    r.connections = connections;
    r.connected = connections;
    std::vector<double> rps, p50, p99;
    for (int i = 0; i < kRepeats; ++i) {
        const LevelRun run = run_level(port, connections, seconds);
        r.connected = std::min(r.connected, run.connected);
        rps.push_back(run.rps);
        p50.push_back(run.p50_us);
        p99.push_back(run.p99_us);
        // Let the server sweep the closed fds before the next wave dials.
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    r.rps = spread_of(rps);
    r.p50_us = spread_of(p50);
    r.p99_us = spread_of(p99);
    return r;
}

/// Two fds per loopback connection (client + accepted end) plus head
/// room for the listener, stdio, and the test harness.
int max_level() {
    rlimit lim{};
    if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1000;
    if (lim.rlim_cur < lim.rlim_max) {
        rlimit want = lim;
        want.rlim_cur = std::min<rlim_t>(lim.rlim_max, 25000);
        if (setrlimit(RLIMIT_NOFILE, &want) == 0) lim = want;
    }
    auto budget = static_cast<long>(lim.rlim_cur) - 256;
    return static_cast<int>(std::clamp<long>(budget / 2, 100, 10000));
}

} // namespace

int main(int argc, char** argv) {
    const char* out_path = argc > 1 ? argv[1] : "BENCH_p5_net.json";
    const double seconds = argc > 2 ? std::atof(argv[2]) : 2.0;

    hub::HubController hub;
    if (hub.open("blinker", "blinker") == nullptr) {
        std::fprintf(stderr, "no blinker scenario\n");
        return 1;
    }
    net::ServerConfig config;
    config.max_connections = 10000;
    net::Server server(hub, config);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "server: %s\n", error.c_str());
        return 1;
    }
    std::atomic<bool> stop{false};
    std::thread loop([&] { server.run(stop, /*timeout_ms=*/1); });

    std::vector<int> levels = {100, 1000};
    int top = max_level();
    if (top > levels.back()) levels.push_back(top);

    std::vector<LevelResult> results;
    std::printf("%12s %10s %10s %12s %12s\n", "connections", "connected", "rps",
                "p50 us", "p99 us");
    for (int level : levels) {
        results.push_back(bench_level(server.port(), level, seconds));
        const auto& r = results.back();
        std::printf("%12d %10d %10.0f %12.1f %12.1f\n", r.connections, r.connected,
                    r.rps.median, r.p50_us.median, r.p99_us.median);
    }

    stop.store(true);
    loop.join();
    const auto& stats = server.stats();
    std::printf("\nserver: accepted %llu, protocol errors %llu, events dropped "
                "%llu\n",
                static_cast<unsigned long long>(stats.accepted),
                static_cast<unsigned long long>(stats.protocol_errors),
                static_cast<unsigned long long>(stats.events_dropped));
    server.stop();

    benchjson::Writer w;
    benchjson::begin_report(w, "p5_net");
    w.key("levels");
    w.begin_array();
    for (const auto& r : results) {
        w.begin_object(/*compact=*/true);
        w.kv("connections", r.connections);
        w.kv("connected", r.connected);
        w.spread("rps", r.rps, 0);
        w.spread("p50_us", r.p50_us, 1);
        w.spread("p99_us", r.p99_us, 1);
        w.end_object();
    }
    w.end_array();
    w.key("server");
    w.begin_object(/*compact=*/true);
    w.kv("accepted", stats.accepted);
    w.kv("protocol_errors", stats.protocol_errors);
    w.kv("events_dropped", stats.events_dropped);
    w.end_object();
    w.end_object();
    if (!w.write_file(out_path)) return 1;
    std::printf("wrote %s\n", out_path);
    return 0;
}
