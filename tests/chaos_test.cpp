// Fault-tolerance tests: session crash isolation (a crashing neighbor
// leaves survivor transcripts byte-identical), watchdog quarantine of
// runaway sessions, `session revive` checkpoint restore, the hardened
// network layer (mid-request disconnects, idle timeouts with heartbeat
// keep-alive, accept load-shed), torn-frame-then-reconnect session
// resume and intact multi-chunk bursts through net::ChaosProxy, the
// channel's redial after a protocol-error frame (against a scripted
// stub server), a seeded 10%-fault chaos campaign, and the bounded
// divergence/journal rings.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/chaos.hpp"
#include "core/observer.hpp"
#include "hub/controller.hpp"
#include "loopback.hpp"
#include "net/chaos.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "proto/scenarios.hpp"
#include "proto/script.hpp"
#include "replay/timeline.hpp"
#include "rt/target.hpp"

namespace gc = gmdf::campaign;
namespace gh = gmdf::hub;
namespace gn = gmdf::net;
namespace gp = gmdf::proto;
namespace gr = gmdf::rt;

namespace {

// ---- session crash isolation ------------------------------------------------

/// Runs the same two-session fleet workload, optionally arming a crash
/// in session b at 30 ms, and returns the transcript of the a-addressed
/// script plus b's final health.
struct FleetRun {
    std::string transcript;
    bool b_faulted = false;
    std::string b_reason;
};

void run_fleet(bool arm_fault, FleetRun& result) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr) << "open a";
    gh::SessionRegistry::Entry* b = hub.open("blinker", "b");
    ASSERT_NE(b, nullptr) << "open b";
    if (arm_fault)
        b->scenario->target.inject_fault_at(30 * gr::kMs, "injected crash");

    // Every `run` pumps the whole fleet, so b crashes in the middle of
    // a's second run when armed.
    std::istringstream script("@a run 20\n"
                              "@a query signal led\n"
                              "@a run 20\n"
                              "@a query signal led\n"
                              "@a run 20\n"
                              "@a query stats\n");
    std::ostringstream out;
    (void)gp::run_script(hub, script, out);

    result.transcript = out.str();
    result.b_faulted = b->faulted();
    result.b_reason = b->fault_reason;
}

TEST(CrashIsolation, NeighborCrashLeavesSurvivorTranscriptByteIdentical) {
    FleetRun control;
    FleetRun chaotic;
    run_fleet(false, control);
    run_fleet(true, chaotic);

    EXPECT_FALSE(control.b_faulted);
    ASSERT_TRUE(chaotic.b_faulted) << "armed fault never fired";
    EXPECT_NE(chaotic.b_reason.find("injected crash"), std::string::npos)
        << chaotic.b_reason;
    // The whole point: a's transcript does not depend on whether its
    // neighbor crashed.
    ASSERT_FALSE(control.transcript.empty());
    EXPECT_EQ(control.transcript, chaotic.transcript);
}

TEST(CrashIsolation, FaultedSessionIsRefusedListedAndRevivable) {
    gh::HubController hub;
    gh::SessionRegistry::Entry* a = hub.open("blinker", "a");
    ASSERT_NE(a, nullptr);

    ASSERT_TRUE(hub.execute_line("@a run 100").ok());
    ASSERT_TRUE(hub.execute_line("@a checkpoint now").ok());
    (void)hub.drain_event_lines();

    a->scenario->target.inject_fault_at(150 * gr::kMs, "boom");
    gp::Response crash = hub.execute_line("@a run 100");
    ASSERT_TRUE(crash.ok()); // the request survives; the body reports the fault
    ASSERT_FALSE(crash.body.empty());
    EXPECT_NE(crash.body.back().find("! session a faulted: boom"), std::string::npos)
        << crash.body.back();
    ASSERT_TRUE(a->faulted());

    // Quarantined: routing refuses, the listing shows the fault.
    gp::Response refused = hub.execute_line("@a query signal led");
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.message.find("faulted"), std::string::npos) << refused.message;
    gp::Response list = hub.execute_line("session list");
    ASSERT_TRUE(list.ok());
    bool listed = false;
    for (const std::string& line : list.body)
        listed = listed || line.find("FAULTED: boom") != std::string::npos;
    EXPECT_TRUE(listed);
    gp::Response stats = hub.execute_line("session stats");
    ASSERT_TRUE(stats.ok());
    ASSERT_GT(stats.body.size(), 1u);
    EXPECT_EQ(stats.body[1], "sessions-faulted 1");

    // Revive restores the checkpoint captured at 100 ms and lifts the
    // quarantine; the one-shot fault is spent, so the session runs on.
    gp::Response revive = hub.execute_line("session revive a");
    ASSERT_TRUE(revive.ok()) << revive.message;
    ASSERT_GE(revive.body.size(), 2u);
    EXPECT_NE(revive.body[0].find("revived (was: boom)"), std::string::npos)
        << revive.body[0];
    EXPECT_NE(revive.body[1].find("restored checkpoint at 100 ms"), std::string::npos)
        << revive.body[1];
    EXPECT_FALSE(a->faulted());
    EXPECT_EQ(a->scenario->target.sim().now(), 100 * gr::kMs);
    EXPECT_TRUE(hub.execute_line("@a run 100").ok());
    EXPECT_TRUE(hub.execute_line("@a query signal led").ok());

    // Reviving a live session is a BadState, not a crash.
    EXPECT_FALSE(hub.execute_line("session revive a").ok());
}

// A slice that throws takes no cadence capture of the state the crash
// left, so revive restores the last capture before the crash, not the
// crashed instant.
TEST(CrashIsolation, ReviveRestoresTheLastCaptureBeforeTheCrash) {
    gh::HubController hub;
    gh::SessionRegistry::Entry* a = hub.open("blinker", "a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(hub.execute_line("@a checkpoint auto 50").ok());
    ASSERT_TRUE(hub.execute_line("@a run 100").ok());

    a->scenario->target.inject_fault_at(150 * gr::kMs, "boom");
    ASSERT_TRUE(hub.execute_line("@a run 100").ok());
    ASSERT_TRUE(a->faulted());
    std::vector<gr::SimTime> held;
    for (const auto& cp : a->scenario->timeline->store().entries())
        held.push_back(cp.snap.time);
    EXPECT_EQ(held, (std::vector<gr::SimTime>{0, 50 * gr::kMs, 100 * gr::kMs}))
        << "no checkpoint may hold the crashed instant";

    gp::Response revive = hub.execute_line("session revive a");
    ASSERT_TRUE(revive.ok()) << revive.message;
    ASSERT_GE(revive.body.size(), 2u);
    EXPECT_EQ(revive.body[1], "restored checkpoint at 100 ms");
    EXPECT_EQ(a->scenario->target.sim().now(), 100 * gr::kMs);
}

// ---- pump watchdog ----------------------------------------------------------

TEST(Watchdog, RunawaySessionIsQuarantinedAfterMaxStrikes) {
    gh::SessionRegistry registry;
    gh::SessionRegistry::Entry* a = registry.open("blinker", "a");
    ASSERT_NE(a, nullptr);

    gh::ShardedScheduler sched;
    // A 500 ms slice executes thousands of engine steps — reliably over
    // a 1 us wall deadline on any host.
    sched.set_budget(500 * gr::kMs);
    gh::WatchdogConfig wd;
    wd.slice_limit_us = 1;
    wd.max_strikes = 2;
    sched.set_watchdog(wd);

    sched.pump(registry, 3000 * gr::kMs);
    ASSERT_TRUE(a->faulted());
    EXPECT_TRUE(a->runaway);
    EXPECT_NE(a->fault_reason.find("watchdog"), std::string::npos) << a->fault_reason;
    EXPECT_GE(sched.watchdog_stats().overruns, 2u);
    EXPECT_EQ(sched.watchdog_stats().runaways, 1u);

    // Quarantined for good: pumping again touches it no further.
    const std::string reason = a->fault_reason;
    sched.pump(registry, 1000 * gr::kMs);
    EXPECT_EQ(a->fault_reason, reason);
}

TEST(Watchdog, ShardedPumpQuarantinesRunawayAndSurvivorsKeepRunning) {
    gh::HubController hub;
    gh::SessionRegistry::Entry* a = hub.open("blinker", "a");
    gh::SessionRegistry::Entry* b = hub.open("blinker", "b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);

    hub.scheduler().set_threads(2);
    hub.scheduler().set_budget(500 * gr::kMs);
    gh::WatchdogConfig wd;
    wd.slice_limit_us = 1;
    wd.max_strikes = 1;
    hub.scheduler().set_watchdog(wd);

    // Both sessions blow the 1 us deadline on their first slice: the
    // whole fleet quarantines, and the stats lines say so.
    ASSERT_TRUE(hub.execute_line("@a run 1000").ok());
    EXPECT_TRUE(a->faulted());
    EXPECT_TRUE(b->faulted());
    EXPECT_TRUE(a->runaway);

    gp::Response shards = hub.execute_line("session stats shards");
    ASSERT_TRUE(shards.ok());
    bool watchdog_line = false;
    for (const std::string& line : shards.body)
        watchdog_line = watchdog_line ||
                        (line.find("watchdog limit 1 us") != std::string::npos &&
                         line.find("runaways 2") != std::string::npos);
    EXPECT_TRUE(watchdog_line) << "no watchdog summary in session stats shards";

    // Revive under a sane watchdog: the fleet runs again.
    gh::WatchdogConfig off;
    hub.scheduler().set_watchdog(off);
    ASSERT_TRUE(hub.execute_line("session revive a").ok());
    ASSERT_TRUE(hub.execute_line("session revive b").ok());
    EXPECT_TRUE(hub.execute_line("@a run 100").ok());
}

// ---- network hardening ------------------------------------------------------

using namespace gmdf::test;

TEST(NetHardening, MidRequestDisconnectLeavesServerServing) {
    LoopbackServer srv({}, "s");

    // A client that handshakes, starts a request frame — 64 bytes
    // promised, 5 delivered — and vanishes.
    int fd = raw_dial(srv.port());
    raw_send(fd, std::string(gn::kMagic) +
                     gn::encode_frame(gn::FrameType::Hello, gn::hello_payload()));
    char buf[256];
    ASSERT_GT(::recv(fd, buf, sizeof(buf), 0), 0); // hello reply
    std::string torn = gn::encode_frame(gn::FrameType::Request, std::string(63, 'q'));
    raw_send(fd, torn.substr(0, 9));
    ::close(fd);

    // The server shrugs it off and keeps serving new clients.
    std::string error;
    auto channel = gn::Channel::connect("127.0.0.1", srv.port(), &error);
    ASSERT_NE(channel, nullptr) << error;
    gp::Response resp = channel->execute_line("attach s");
    EXPECT_TRUE(resp.ok()) << resp.message;
    EXPECT_TRUE(channel->execute_line("query signal led").ok());
    (void)channel->drain_event_lines();

    srv.join();
    EXPECT_GE(srv.server->stats().accepted, 2u);
    EXPECT_EQ(srv.server->stats().protocol_errors, 0u)
        << "a mid-frame EOF is a disconnect, not a protocol offence";
}

TEST(NetHardening, IdleTimeoutClosesSilentConnectionButPingKeepsAlive) {
    gn::ServerConfig config;
    config.idle_timeout_ms = 60;
    LoopbackServer srv(config, "s");

    auto quiet = gn::Channel::connect("127.0.0.1", srv.port());
    auto beating = gn::Channel::connect("127.0.0.1", srv.port());
    ASSERT_NE(quiet, nullptr);
    ASSERT_NE(beating, nullptr);

    // 200 ms of silence from `quiet`; `beating` heartbeats through it.
    for (int i = 0; i < 10; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_TRUE(beating->ping()) << "heartbeat " << i;
    }
    EXPECT_TRUE(beating->execute_line("query signal led").ok());
    gp::Response dead = quiet->execute_line("query signal led");
    EXPECT_FALSE(dead.ok()) << "idle connection outlived its timeout";

    srv.join();
    EXPECT_GE(srv.server->stats().idle_closed, 1u);
    EXPECT_GE(srv.server->stats().pings, 10u);
}

TEST(NetHardening, AcceptHighWaterShedsWithStructuredBusy) {
    gn::ServerConfig config;
    config.accept_high_water = 1;
    LoopbackServer srv(config, "s");

    auto first = gn::Channel::connect("127.0.0.1", srv.port());
    ASSERT_NE(first, nullptr);
    ASSERT_TRUE(first->execute_line("query signal led").ok());

    std::string error;
    auto shed = gn::Channel::connect("127.0.0.1", srv.port(), &error);
    EXPECT_EQ(shed, nullptr);
    EXPECT_NE(error.find("busy"), std::string::npos) << error;

    // The first client is unaffected by the shed.
    EXPECT_TRUE(first->execute_line("query signal led").ok());
    (void)first->drain_event_lines();

    srv.join();
    EXPECT_GE(srv.server->stats().busy_shed, 1u);
}

// ---- chaos proxy ------------------------------------------------------------

TEST(ChaosProxy, TornFrameThenReconnectResumesSession) {
    LoopbackServer srv({}, "s");

    gn::ChaosConfig chaos;
    chaos.upstream_port = srv.port();
    // Chunk 1 is the handshake, chunk 2 the attach, so the first query
    // is torn in half and cut.
    chaos.disconnect_after_chunks = 3;
    gn::ChaosProxy proxy(chaos);
    std::string error;
    ASSERT_TRUE(proxy.start(&error)) << error;
    std::atomic<bool> stop{false};
    std::thread proxy_thread([&] { proxy.run(stop); });

    auto channel = gn::Channel::connect("127.0.0.1", proxy.port(), &error);
    ASSERT_NE(channel, nullptr) << error;
    gn::Channel::ReconnectConfig rc;
    rc.max_attempts = 5;
    rc.base_delay_ms = 2;
    rc.jitter_seed = 7;
    channel->set_reconnect(rc);

    ASSERT_TRUE(channel->execute_line("attach s").ok());
    EXPECT_EQ(channel->session(), "s");

    // This request's frame is half-delivered to the server, then the
    // connection is cut under us: the channel must redial, re-attach,
    // and answer as if nothing happened.
    gp::Response resumed = channel->execute_line("query signal led");
    EXPECT_TRUE(resumed.ok()) << resumed.message;
    (void)channel->drain_event_lines();
    EXPECT_EQ(channel->reconnects(), 1u);
    EXPECT_GT(channel->reconnect_time_us(), 0);
    EXPECT_EQ(channel->session(), "s") << "session not re-attached after redial";
    EXPECT_TRUE(channel->execute_line("query signal led").ok());
    (void)channel->drain_event_lines();

    EXPECT_EQ(proxy.stats().torn, 1u);
    stop.store(true);
    proxy_thread.join();
    srv.join();
    // The half frame the server received must not have counted as a
    // client offence (it was a clean EOF after a torn prefix).
    EXPECT_EQ(srv.server->stats().protocol_errors, 0u);
}

// One edge-triggered wakeup may announce many 16 KiB reads; bytes left
// unread get no second one. A lost edge shows as a missing reply once
// raw_dial's 5 s receive timeout trips, not as a hang.
TEST(ChaosProxy, ForwardsAMultiChunkBurstIntact) {
    LoopbackServer srv({}, "s");
    gn::ChaosConfig chaos;
    chaos.upstream_port = srv.port();
    gn::ChaosProxy proxy(chaos);
    std::string error;
    ASSERT_TRUE(proxy.start(&error)) << error;
    // A jthread joins on every exit, a failed assertion's too.
    std::jthread proxy_thread([&proxy](std::stop_token stop) {
        while (!stop.stop_requested()) proxy.poll_once(5);
    });

    int fd = raw_dial(proxy.port());
    raw_send(fd, std::string(gn::kMagic) +
                     gn::encode_frame(gn::FrameType::Hello, gn::hello_payload()));
    gn::FrameReader reader;
    gn::Frame frame;
    ASSERT_TRUE(raw_read_frame(fd, reader, frame)) << reader.error();
    EXPECT_EQ(frame.type, gn::FrameType::Hello);

    // Over the request-line limit, under the 1 MiB frame cap: the hub
    // answers it with a structured bad-request.
    raw_send(fd, gn::encode_frame(gn::FrameType::Request, std::string(200 * 1024, 'x')));
    ASSERT_TRUE(raw_read_frame(fd, reader, frame)) << "no reply to the 200 KiB request";
    EXPECT_EQ(frame.type, gn::FrameType::Response);
    EXPECT_EQ(frame.payload.rfind("error bad-request:", 0), 0u) << frame.payload;
    ASSERT_TRUE(raw_read_frame(fd, reader, frame));
    EXPECT_EQ(frame.type, gn::FrameType::Done);

    raw_send(fd, gn::encode_frame(gn::FrameType::Request, "info"));
    ASSERT_TRUE(raw_read_frame(fd, reader, frame)) << "no reply to info";
    EXPECT_EQ(frame.type, gn::FrameType::Response);
    EXPECT_EQ(frame.payload.rfind("ok\n", 0), 0u) << frame.payload;
    ::close(fd);

    proxy_thread.request_stop();
    proxy_thread.join();
    EXPECT_EQ(proxy.stats().torn + proxy.stats().corruptions, 0u);
}

// ---- channel retry after a protocol-error frame ------------------------------

/// What a StubServer connection does with one request.
struct StubAnswer {
    enum class Kind { Ok, Garbled, ProtocolError, Drop };
    Kind kind = Kind::Ok;
    std::string body; ///< Ok: the response's one body line
};

/// A scripted frame-codec server on a background thread. It serves one
/// connection at a time: shakes hands, then hands each request line to
/// `answer` with the connection's number (0, 1, ...). Ok replies with
/// a response and a done marker; Garbled does too, with one byte of the
/// response flipped so it no longer parses; ProtocolError sends an
/// Error frame and closes, as net::Server does for a frame it cannot
/// decode; Drop closes without a reply. Every request line is recorded
/// per connection.
class StubServer {
public:
    using Answer = std::function<StubAnswer(int conn, const std::string& line)>;

    explicit StubServer(Answer answer) : answer_(std::move(answer)) {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof(addr);
        EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len), 0);
        EXPECT_EQ(::listen(listen_fd_, 8), 0);
        EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this] { serve(); });
    }

    ~StubServer() { join(); }

    StubServer(const StubServer&) = delete;
    StubServer& operator=(const StubServer&) = delete;

    /// Stops accepting; `requests` is safe to read afterwards.
    void join() {
        if (!thread_.joinable()) return;
        ::shutdown(listen_fd_, SHUT_RDWR); // wakes the blocked accept
        thread_.join();
        ::close(listen_fd_);
    }

    [[nodiscard]] std::uint16_t port() const { return port_; }

    std::vector<std::vector<std::string>> requests; ///< per connection

private:
    void serve() {
        while (true) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0) return;
            requests.emplace_back();
            serve_connection(fd, static_cast<int>(requests.size()) - 1);
            ::close(fd);
        }
    }

    void serve_connection(int fd, int conn) {
        char magic[4] = {};
        if (::recv(fd, magic, sizeof(magic), MSG_WAITALL) != sizeof(magic)) return;
        gn::FrameReader reader;
        gn::Frame frame;
        if (!raw_read_frame(fd, reader, frame)) return; // the hello
        raw_send(fd, gn::encode_frame(gn::FrameType::Hello, gn::hello_payload()));
        while (raw_read_frame(fd, reader, frame)) {
            requests.back().push_back(frame.payload);
            const StubAnswer a = answer_(conn, frame.payload);
            if (a.kind == StubAnswer::Kind::Drop) return;
            if (a.kind == StubAnswer::Kind::ProtocolError) {
                raw_send(fd, gn::encode_frame(gn::FrameType::Error,
                                              "frame of 16711693 bytes exceeds the "
                                              "1048576-byte payload limit"));
                return;
            }
            std::string response = gp::format_response(gp::Response::make_ok({a.body}));
            if (a.kind == StubAnswer::Kind::Garbled) response[1] = '?'; // "o?"
            raw_send(fd, gn::encode_frame(gn::FrameType::Response, response) +
                             gn::encode_frame(gn::FrameType::Done, {}));
        }
    }

    Answer answer_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread thread_;
};

std::unique_ptr<gn::Channel> dial_with_reconnect(std::uint16_t port) {
    std::string error;
    auto channel = gn::Channel::connect("127.0.0.1", port, &error);
    EXPECT_NE(channel, nullptr) << error;
    if (channel == nullptr) return nullptr;
    gn::Channel::ReconnectConfig rc;
    rc.max_attempts = 5;
    rc.base_delay_ms = 2;
    rc.jitter_seed = 7;
    channel->set_reconnect(rc);
    return channel;
}

// The server never runs a request it answered with a protocol-error
// frame, so the channel redials and resends it once, like a cut.
TEST(ChannelRetry, ProtocolErrorFrameIsRedialedAndResentOnce) {
    StubServer stub([](int conn, const std::string& line) {
        if (line == "attach s") return StubAnswer{StubAnswer::Kind::Ok, "attached s"};
        if (conn == 0) return StubAnswer{StubAnswer::Kind::ProtocolError, {}};
        return StubAnswer{StubAnswer::Kind::Ok, "led 1"};
    });
    auto channel = dial_with_reconnect(stub.port());
    ASSERT_NE(channel, nullptr);
    ASSERT_TRUE(channel->execute_line("attach s").ok());
    (void)channel->drain_event_lines();

    gp::Response resp = channel->execute_line("query signal led");
    (void)channel->drain_event_lines();
    EXPECT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(channel->reconnects(), 1u);
    EXPECT_EQ(channel->session(), "s");
    channel.reset();

    stub.join();
    ASSERT_EQ(stub.requests.size(), 2u);
    EXPECT_EQ(stub.requests[1],
              (std::vector<std::string>{"attach s", "query signal led"}));
}

// A response frame that does not parse (a byte flipped on the way) is
// retried like a cut: the hub did run the request, and the channel
// redials, re-attaches and resends it once (at-least-once delivery).
TEST(ChannelRetry, UnparsableResponseIsRedialedAndResentOnce) {
    StubServer stub([](int conn, const std::string& line) {
        if (line == "attach s") return StubAnswer{StubAnswer::Kind::Ok, "attached s"};
        if (conn == 0) return StubAnswer{StubAnswer::Kind::Garbled, "led 1"};
        return StubAnswer{StubAnswer::Kind::Ok, "led 1"};
    });
    auto channel = dial_with_reconnect(stub.port());
    ASSERT_NE(channel, nullptr);
    ASSERT_TRUE(channel->execute_line("attach s").ok());
    (void)channel->drain_event_lines();

    gp::Response resp = channel->execute_line("query signal led");
    (void)channel->drain_event_lines();
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(resp.body, std::vector<std::string>{"led 1"});
    EXPECT_EQ(channel->reconnects(), 1u);
    channel.reset();

    stub.join();
    ASSERT_EQ(stub.requests.size(), 2u);
    EXPECT_EQ(stub.requests[1],
              (std::vector<std::string>{"attach s", "query signal led"}));
}

// A re-attach that draws a protocol-error frame, or an answer that does
// not parse, fails that redial: the channel keeps its session and
// resends the request only after an attach that succeeded, never on the
// server's default session.
TEST(ChannelRetry, UnansweredReattachFailsThatRedialAttempt) {
    using Kind = StubAnswer::Kind;
    for (Kind reattach : {Kind::ProtocolError, Kind::Garbled}) {
        SCOPED_TRACE(reattach == Kind::Garbled ? "garbled" : "protocol error");
        StubServer stub([reattach](int conn, const std::string& line) {
            if (conn == 0 && line == "query one") return StubAnswer{Kind::Drop, {}};
            if (conn == 1) return StubAnswer{reattach, "attached s"};
            if (line == "attach s") return StubAnswer{Kind::Ok, "attached s"};
            return StubAnswer{Kind::Ok, line};
        });
        auto channel = dial_with_reconnect(stub.port());
        ASSERT_NE(channel, nullptr);
        ASSERT_TRUE(channel->execute_line("attach s").ok());
        (void)channel->drain_event_lines();

        gp::Response resp = channel->execute_line("query one");
        (void)channel->drain_event_lines();
        EXPECT_TRUE(resp.ok()) << resp.message;
        EXPECT_EQ(channel->session(), "s");
        EXPECT_EQ(channel->reconnects(), 1u);
        EXPECT_TRUE(channel->execute_line("query two").ok());
        (void)channel->drain_event_lines();
        channel.reset();

        stub.join();
        ASSERT_EQ(stub.requests.size(), 3u);
        EXPECT_EQ(stub.requests[1], std::vector<std::string>{"attach s"});
        EXPECT_EQ(stub.requests[2],
                  (std::vector<std::string>{"attach s", "query one", "query two"}));
    }
}

TEST(ChaosCampaign, TenPercentFaultsZeroHubCrashesZeroUnclassified) {
    gc::ChaosCampaignConfig cfg;
    cfg.clients = 10;
    cfg.rounds = 4;
    cfg.seed = 5;
    cfg.fault_rate = 0.10;
    const gc::ChaosReport report = gc::run_chaos_campaign(cfg);

    EXPECT_EQ(report.unclassified(), 0);
    EXPECT_TRUE(report.hub_alive);
    EXPECT_TRUE(report.passed());
    EXPECT_EQ(static_cast<int>(report.clients.size()), cfg.clients);
    EXPECT_GT(report.proxy_stats.chunks, 0u);
    EXPECT_EQ(report.server_stats.refused, 0u);
    // The report renders without tripping anything.
    EXPECT_FALSE(report.summary_lines().empty());
}

// Lost means the hub sent no answer to the final probe; any answer it
// did send, an error included, keeps the client at worst degraded.
TEST(ChaosCampaign, VerdictIsLostOnlyWhenTheHubSentNoAnswer) {
    const gp::Response answered = gp::Response::make_ok({"sessions 1"});
    const gp::Response hub_error = gp::Response::make_error(
        gp::ErrorCode::UnknownVerb, "unknown verb 'se?sion' (try 'help')");
    const gp::Response no_answer = gn::transport_error("connection closed by server");
    EXPECT_EQ(gc::chaos_outcome(hub_error, 0, 3), gc::ChaosOutcome::Degraded);
    EXPECT_EQ(gc::chaos_outcome(no_answer, 0, 0), gc::ChaosOutcome::Lost);
    EXPECT_EQ(gc::chaos_outcome(answered, 0, 2), gc::ChaosOutcome::Resumed);
    EXPECT_EQ(gc::chaos_outcome(answered, 0, 0), gc::ChaosOutcome::Clean);
    EXPECT_EQ(gc::chaos_outcome(answered, 1, 2), gc::ChaosOutcome::Degraded);
}

// The same line between a live channel's answers and its own failures: a
// flipped byte the hub answers is not a transport failure, a request
// after the server stops is one.
TEST(ChaosCampaign, ChannelTellsHubErrorsFromTransportFailures) {
    LoopbackServer srv({}, "s");
    auto channel = srv.dial();
    ASSERT_NE(channel, nullptr);
    const gp::Response flipped = channel->execute_line("se?sion list");
    (void)channel->drain_event_lines();
    EXPECT_EQ(flipped.code, gp::ErrorCode::UnknownVerb) << flipped.message;
    EXPECT_FALSE(gn::is_transport_error(flipped)) << flipped.message;

    srv.join();
    srv.server->stop();
    const gp::Response gone = channel->execute_line("session list");
    EXPECT_TRUE(gn::is_transport_error(gone)) << gone.message;
}

// ---- bounded rings ----------------------------------------------------------

/// Sends `n` controls that alternate pause and resume, starting with
/// pause on an animating engine.
void alternate_pause_resume(gp::SessionController& ctl, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(ctl.execute_line(i % 2 == 0 ? "pause" : "resume").ok()) << i;
}

TEST(BoundedRings, DivergenceLogEvictsOldestAndSurfacesInQueryStats) {
    using gmdf::core::DivergenceLog;
    auto scenario = gp::make_scenario("blinker");
    ASSERT_NE(scenario, nullptr);
    DivergenceLog& log = scenario->session->divergence_log();
    constexpr std::size_t kEntries = DivergenceLog::kCapacity + 5;
    for (std::size_t i = 0; i < kEntries; ++i) {
        gmdf::core::Divergence d;
        d.t = static_cast<gr::SimTime>(i) * gr::kMs;
        d.message = "d" + std::to_string(i);
        log.on_divergence(d);
    }
    EXPECT_EQ(log.size(), DivergenceLog::kCapacity);
    EXPECT_EQ(log.dropped(), 5u);
    EXPECT_EQ(log.divergences().front().message, "d5");
    EXPECT_EQ(log.divergences().back().message, "d" + std::to_string(kEntries - 1));

    gp::Response stats = scenario->controller().execute_line("query stats");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.body.back(), "divergence-ring dropped 5 oldest entries (capacity 4096)");
}

TEST(BoundedRings, TimelineJournalEvictsAndSurfacesInQueryStats) {
    using gmdf::replay::Timeline;
    auto scenario = gp::make_scenario("blinker");
    ASSERT_NE(scenario, nullptr);
    gp::SessionController& ctl = scenario->controller();
    ASSERT_TRUE(ctl.execute_line("checkpoint now").ok());
    ASSERT_TRUE(ctl.execute_line("run 10").ok());
    alternate_pause_resume(ctl, Timeline::kJournalCapacity + 2);
    EXPECT_EQ(scenario->timeline->journal_dropped(), 2u);

    gp::Response stats = ctl.execute_line("query stats");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.body.back(), "journal-ring dropped 2 oldest entries (capacity 65536)");

    // The checkpoint before the evicted controls went with them: rewind
    // refuses instead of replaying without them.
    EXPECT_FALSE(ctl.execute_line("rewind 5").ok());
    // The bounded journal still replays what it kept.
    EXPECT_TRUE(ctl.execute_line("checkpoint now").ok());
    EXPECT_TRUE(ctl.execute_line("run 10").ok());
    gp::Response rewound = ctl.execute_line("rewind 15");
    EXPECT_TRUE(rewound.ok()) << rewound.message;
}

// Runs take no journal space: the checkpoint that opens a journal filled
// to exactly its bound by controls, with runs between them, stays a
// rewind anchor.
TEST(BoundedRings, RunsDoNotConsumeJournalCapacity) {
    auto scenario = gp::make_scenario("blinker");
    ASSERT_NE(scenario, nullptr);
    gp::SessionController& ctl = scenario->controller();
    for (const char* line :
         {"checkpoint now", "run 10", "pause", "run 10", "resume", "run 10"})
        ASSERT_TRUE(ctl.execute_line(line).ok()) << line;
    alternate_pause_resume(ctl, gmdf::replay::Timeline::kJournalCapacity - 2);
    EXPECT_EQ(scenario->timeline->journal_dropped(), 0u);
    gp::Response rewound = ctl.execute_line("rewind 5");
    EXPECT_TRUE(rewound.ok()) << rewound.message;
}

} // namespace
