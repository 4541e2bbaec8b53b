// Tests for the network debug service: frame/line codec round-trips
// including torn and oversized input, the proto-layer request/response
// guards the wire relies on, and a live loopback server — golden
// quickstart transcript over TCP, multi-client session isolation with
// ACL refusals, slow-client backpressure with drop accounting, events
// only to session codecs, graceful drain of client-opened sessions, and
// structured protocol errors for malformed frames.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "hub/controller.hpp"
#include "loopback.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "proto/message.hpp"
#include "proto/script.hpp"

namespace gh = gmdf::hub;
namespace gn = gmdf::net;
namespace gp = gmdf::proto;

namespace {

// ---- frame codec ------------------------------------------------------------

TEST(FrameCodec, EncodeDecodeRoundTrip) {
    gn::FrameReader reader;
    for (auto type : {gn::FrameType::Hello, gn::FrameType::Request,
                      gn::FrameType::Response, gn::FrameType::Event,
                      gn::FrameType::Done, gn::FrameType::Error}) {
        reader.feed(gn::encode_frame(type, "payload text"));
        gn::Frame frame;
        ASSERT_EQ(reader.next(frame), gn::FrameReader::Status::Ready);
        EXPECT_EQ(frame.type, type);
        EXPECT_EQ(frame.payload, "payload text");
    }
    gn::Frame frame;
    EXPECT_EQ(reader.next(frame), gn::FrameReader::Status::NeedMore);
}

TEST(FrameCodec, TornFrameReassemblesByteByByte) {
    const std::string wire = gn::encode_frame(gn::FrameType::Request, "query state");
    gn::FrameReader reader;
    gn::Frame frame;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        reader.feed(std::string_view(wire).substr(i, 1));
        ASSERT_EQ(reader.next(frame), gn::FrameReader::Status::NeedMore)
            << "frame completed " << (wire.size() - 1 - i) << " bytes early";
    }
    reader.feed(std::string_view(wire).substr(wire.size() - 1));
    ASSERT_EQ(reader.next(frame), gn::FrameReader::Status::Ready);
    EXPECT_EQ(frame.type, gn::FrameType::Request);
    EXPECT_EQ(frame.payload, "query state");
}

TEST(FrameCodec, BackToBackFramesDecodeFromOneFeed) {
    gn::FrameReader reader;
    reader.feed(gn::encode_frame(gn::FrameType::Request, "a") +
                gn::encode_frame(gn::FrameType::Request, "b"));
    gn::Frame frame;
    ASSERT_EQ(reader.next(frame), gn::FrameReader::Status::Ready);
    EXPECT_EQ(frame.payload, "a");
    ASSERT_EQ(reader.next(frame), gn::FrameReader::Status::Ready);
    EXPECT_EQ(frame.payload, "b");
    EXPECT_EQ(reader.next(frame), gn::FrameReader::Status::NeedMore);
}

TEST(FrameCodec, OversizedFrameIsStickyError) {
    gn::FrameReader reader(/*max_payload=*/16);
    reader.feed(gn::encode_frame(gn::FrameType::Request,
                                 std::string(64, 'x')));
    gn::Frame frame;
    ASSERT_EQ(reader.next(frame), gn::FrameReader::Status::Error);
    EXPECT_NE(reader.error().find("16"), std::string::npos) << reader.error();
    // Sticky: the stream position is lost for good.
    reader.feed(gn::encode_frame(gn::FrameType::Request, "ok"));
    EXPECT_EQ(reader.next(frame), gn::FrameReader::Status::Error);
}

TEST(FrameCodec, ZeroLengthAndUnknownTypeAreFatal) {
    {
        gn::FrameReader reader;
        reader.feed(std::string_view("\0\0\0\0", 4)); // length 0: no type byte
        gn::Frame frame;
        EXPECT_EQ(reader.next(frame), gn::FrameReader::Status::Error);
    }
    {
        gn::FrameReader reader;
        std::string wire = gn::encode_frame(gn::FrameType::Request, "x");
        wire[4] = 'Z'; // not a frame type
        reader.feed(wire);
        gn::Frame frame;
        EXPECT_EQ(reader.next(frame), gn::FrameReader::Status::Error);
    }
}

TEST(FrameCodec, HelloPayloadRoundTrip) {
    EXPECT_EQ(gn::parse_hello(gn::hello_payload()), gn::kProtocolVersion);
    EXPECT_EQ(gn::parse_hello("gmdf-net 7"), 7);
    EXPECT_EQ(gn::parse_hello("not a hello"), -1);
    EXPECT_EQ(gn::parse_hello("gmdf-net "), -1);
}

// ---- line codec -------------------------------------------------------------

TEST(LineCodec, SplitLinesReassembleAcrossFeeds) {
    gn::LineReader reader;
    std::string line;
    reader.feed("inf");
    EXPECT_EQ(reader.next(line), gn::LineReader::Status::NeedMore);
    reader.feed("o\r\nquery ");
    ASSERT_EQ(reader.next(line), gn::LineReader::Status::Ready);
    EXPECT_EQ(line, "info"); // '\r' stripped with the terminator
    EXPECT_EQ(reader.next(line), gn::LineReader::Status::NeedMore);
    reader.feed("state\n");
    ASSERT_EQ(reader.next(line), gn::LineReader::Status::Ready);
    EXPECT_EQ(line, "query state");
}

TEST(LineCodec, OversizedLineIsStickyError) {
    gn::LineReader reader(/*max_line=*/8);
    reader.feed(std::string(9, 'a')); // no newline in sight and over budget
    std::string line;
    ASSERT_EQ(reader.next(line), gn::LineReader::Status::Error);
    reader.feed("\nshort\n");
    EXPECT_EQ(reader.next(line), gn::LineReader::Status::Error);
}

// ---- proto guards the wire relies on ----------------------------------------

TEST(ProtoGuards, ParseRequestRejectsOversizedLine) {
    auto over = gp::parse_request(std::string(gp::kMaxRequestLine + 1, 'a'));
    ASSERT_FALSE(over.ok());
    EXPECT_NE(over.error.find("exceeds"), std::string::npos) << over.error;
    EXPECT_TRUE(gp::parse_request(std::string(gp::kMaxRequestLine, 'a')).ok());
}

TEST(ProtoGuards, ParseResponseRoundTrips) {
    auto ok = gp::Response::make_ok({"model blinker", "elements 14"});
    auto parsed = gp::parse_response(gp::format_response(ok));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->ok());
    EXPECT_EQ(parsed->body, ok.body);
    EXPECT_EQ(gp::format_response(*parsed), gp::format_response(ok));

    auto err = gp::Response::make_error(gp::ErrorCode::BadState, "engine is busy");
    parsed = gp::parse_response(gp::format_response(err));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->code, gp::ErrorCode::BadState);
    EXPECT_EQ(parsed->message, "engine is busy");
    EXPECT_EQ(gp::format_response(*parsed), gp::format_response(err));
}

TEST(ProtoGuards, ParseResponseRejectsForeignText) {
    EXPECT_FALSE(gp::parse_response("").has_value());
    EXPECT_FALSE(gp::parse_response("ok").has_value()); // missing newline
    EXPECT_FALSE(gp::parse_response("yes\n").has_value());
    EXPECT_FALSE(gp::parse_response("ok\nbare body line\n").has_value());
    EXPECT_FALSE(gp::parse_response("error not-a-code: boom\n").has_value());
    EXPECT_FALSE(gp::parse_response("error bad-state missing colon\n").has_value());
}

// ---- live loopback server ---------------------------------------------------

using namespace gmdf::test;

TEST(NetServer, QuickstartTranscriptOverLoopbackIsByteIdentical) {
    LoopbackServer srv;
    auto channel = srv.dial();
    ASSERT_NE(channel, nullptr);

    std::ifstream script(std::string(GMDF_SOURCE_DIR) + "/examples/quickstart.gds");
    ASSERT_TRUE(script) << "missing examples/quickstart.gds";
    std::ostringstream out;
    auto result = gp::run_script(*channel, script, out);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_TRUE(result.quit);

    std::ifstream golden_file(std::string(GMDF_SOURCE_DIR) +
                              "/tests/golden/quickstart_transcript.txt");
    ASSERT_TRUE(golden_file) << "missing tests/golden/quickstart_transcript.txt";
    std::ostringstream golden;
    golden << golden_file.rdbuf();
    EXPECT_EQ(out.str(), golden.str());

    srv.join();
    EXPECT_EQ(srv.server->stats().accepted, 1u);
    EXPECT_EQ(srv.server->stats().protocol_errors, 0u);
}

TEST(NetServer, MultiClientSessionIsolationAndAcl) {
    LoopbackServer srv;
    auto a = srv.dial();
    auto b = srv.dial();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);

    // A opens a second session and becomes current on it; B must stay
    // on the seed.
    auto resp = a->execute_line("session open turntable tt");
    ASSERT_TRUE(resp.ok()) << resp.message;
    resp = a->execute_line("session list");
    ASSERT_TRUE(resp.ok());
    EXPECT_NE(resp.body[2].find("* 2 tt"), std::string::npos) << resp.body[2];
    resp = b->execute_line("session list");
    ASSERT_TRUE(resp.ok());
    EXPECT_NE(resp.body[1].find("* 1 blinker"), std::string::npos) << resp.body[1];

    // B restricts itself to the seed: addressing or attaching to tt is
    // refused until the allowlist is cleared.
    ASSERT_TRUE(b->execute_line("acl allow blinker").ok());
    resp = b->execute_line("@tt info");
    EXPECT_EQ(resp.code, gp::ErrorCode::BadState);
    EXPECT_NE(resp.message.find("acl"), std::string::npos) << resp.message;
    resp = b->execute_line("attach tt");
    EXPECT_EQ(resp.code, gp::ErrorCode::BadState);
    resp = b->execute_line("acl show");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.body[0], "acl blinker");

    // A is unrestricted and unaffected.
    EXPECT_TRUE(a->execute_line("@tt info").ok());

    ASSERT_TRUE(b->execute_line("acl clear").ok());
    EXPECT_TRUE(b->execute_line("@tt info").ok());
    EXPECT_TRUE(b->execute_line("attach tt").ok());
}

TEST(NetServer, GracefulDrainClosesOnlyClientOpenedSessions) {
    LoopbackServer srv;
    auto b = srv.dial();
    {
        auto a = srv.dial();
        ASSERT_NE(a, nullptr);
        ASSERT_TRUE(a->execute_line("session open turntable extra").ok());
        auto listed = b->execute_line("session list");
        ASSERT_TRUE(listed.ok());
        EXPECT_EQ(listed.body[0], "sessions 2");
    } // A disconnects without `session close`: the server must release it

    // The server loop notices the EOF on its own schedule.
    std::string sessions;
    for (int i = 0; i < 100; ++i) {
        auto listed = b->execute_line("session list");
        ASSERT_TRUE(listed.ok());
        sessions = listed.body[0];
        if (sessions == "sessions 1") break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(sessions, "sessions 1");
    // The seed — which A did not open — survived.
    auto info = b->execute_line("info");
    ASSERT_TRUE(info.ok());
    EXPECT_NE(info.body[0].find("blinker"), std::string::npos) << info.body[0];
}

TEST(NetServer, QuitFlushesTheGoodbyeThenCloses) {
    LoopbackServer srv;
    auto channel = srv.dial();
    auto resp = channel->execute_line("quit");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.body[0], "bye");
    (void)channel->drain_event_lines();

    // The server drained and closed; the next request cannot travel.
    resp = channel->execute_line("info");
    EXPECT_EQ(resp.code, gp::ErrorCode::Internal);
    EXPECT_NE(resp.message.find("network"), std::string::npos) << resp.message;

    srv.join();
    EXPECT_EQ(srv.server->active_connections(), 0u);
    EXPECT_EQ(srv.server->stats().closed, 1u);
}

// `exit` is `quit` under another name, also once a session is open: the
// line client gets the goodbye, then EOF.
TEST(NetServer, LineClientExitGetsTheGoodbyeThenEof) {
    LoopbackServer srv;
    int fd = raw_dial(srv.port());
    raw_send(fd, "exit\n");
    EXPECT_EQ(raw_read(fd), "ok\n| bye\n");
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "the server closes after the goodbye";
    ::close(fd);
}

// Addressed to a session, `quit` ends the exchange as well: the session's
// goodbye, then EOF, with no further request answered on the socket.
TEST(NetServer, LineClientAddressedQuitGetsTheGoodbyeThenEof) {
    LoopbackServer srv;
    int fd = raw_dial(srv.port());
    raw_send(fd, "@blinker quit\n");
    EXPECT_EQ(raw_read(fd, "| bye\n"), "ok\n| bye\n");
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "the server closes after the goodbye";
    ::close(fd);
}

TEST(NetServer, SlowClientBackpressureDropsOldestEvents) {
    gn::ServerConfig config;
    config.event_queue_capacity = 2;
    config.write_high_water = 0; // idle fan-out permanently paused: every
                                 // client is a worst-case slow client
    LoopbackServer srv(config);
    auto active = srv.dial();
    auto slow = srv.dial(); // connected, subscribed, never reads

    // The breakpoint run raises three event lines, one over capacity:
    // each connection parks two and drops the oldest. `active` gets its
    // two force-flushed with the response; `slow` keeps them parked.
    ASSERT_TRUE(active->execute_line("break add state on").ok());
    auto resp = active->execute_line("run 1000");
    ASSERT_TRUE(resp.ok()) << resp.message;
    auto events = active->drain_event_lines();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NE(events[1].find("state-change"), std::string::npos) << events[1];

    auto stats = active->execute_line("session stats net");
    ASSERT_TRUE(stats.ok()) << stats.message;
    bool saw_slow_row = false;
    for (const std::string& line : stats.body) {
        if (line.rfind("connection 2 ", 0) != 0) continue;
        saw_slow_row = true;
        EXPECT_NE(line.find("pending-events=2"), std::string::npos) << line;
        EXPECT_NE(line.find("events-dropped=1"), std::string::npos) << line;
    }
    EXPECT_TRUE(saw_slow_row);

    srv.join();
    EXPECT_EQ(srv.server->stats().events_dropped, 2u); // one per connection
    EXPECT_EQ(srv.server->stats().events_sent, 2u);    // active's flush only
}

// Events fanned out to a connection still detecting its codec would
// precede its hello echo; to a scrape, its status line.
TEST(NetServer, EventsReachOnlySessionCodecs) {
    LoopbackServer srv;
    int detecting = raw_dial(srv.port()); // sends nothing yet
    int scrape = raw_dial(srv.port());
    raw_send(scrape, "GET /metrics HTTP/1.0\r\n"); // head still arriving

    // Accept is FIFO: both raw sockets are connections before this
    // client's run raises its events.
    auto active = srv.dial();
    ASSERT_NE(active, nullptr);
    ASSERT_TRUE(active->execute_line("break add state on").ok());
    auto resp = active->execute_line("run 1000");
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_FALSE(active->drain_event_lines().empty());

    raw_send(detecting, std::string(gn::kMagic) +
                            gn::encode_frame(gn::FrameType::Hello, gn::hello_payload()));
    gn::FrameReader reader;
    gn::Frame frame;
    ASSERT_TRUE(raw_read_frame(detecting, reader, frame)) << reader.error();
    EXPECT_EQ(frame.type, gn::FrameType::Hello);

    raw_send(scrape, "\r\n");
    const std::string reply = raw_read(scrape);
    EXPECT_EQ(reply.rfind("HTTP/1.0 200 OK", 0), 0u) << reply.substr(0, 80);
    ::close(detecting);
    ::close(scrape);
}

TEST(NetServer, MalformedFrameGetsStructuredErrorThenClose) {
    LoopbackServer srv;
    int fd = raw_dial(srv.port());
    raw_send(fd, std::string(gn::kMagic) +
                     gn::encode_frame(gn::FrameType::Hello, gn::hello_payload()));

    // Claim a payload far over the server's 1 MiB ceiling.
    const std::uint32_t huge = 8u << 20;
    char header[4] = {static_cast<char>(huge & 0xff),
                      static_cast<char>((huge >> 8) & 0xff),
                      static_cast<char>((huge >> 16) & 0xff),
                      static_cast<char>((huge >> 24) & 0xff)};
    raw_send(fd, std::string_view(header, sizeof(header)));

    gn::FrameReader reader;
    reader.feed(raw_read(fd)); // hello echo + error frame, then EOF
    gn::Frame frame;
    ASSERT_EQ(reader.next(frame), gn::FrameReader::Status::Ready);
    EXPECT_EQ(frame.type, gn::FrameType::Hello);
    ASSERT_EQ(reader.next(frame), gn::FrameReader::Status::Ready);
    EXPECT_EQ(frame.type, gn::FrameType::Error);
    EXPECT_NE(frame.payload.find("limit"), std::string::npos) << frame.payload;
    ::close(fd);

    srv.join();
    EXPECT_EQ(srv.server->stats().protocol_errors, 1u);
    EXPECT_EQ(srv.server->active_connections(), 0u);
}

TEST(NetServer, WrongHelloVersionIsRefused) {
    LoopbackServer srv;
    int fd = raw_dial(srv.port());
    raw_send(fd, std::string(gn::kMagic) +
                     gn::encode_frame(gn::FrameType::Hello, "gmdf-net 99"));
    gn::FrameReader reader;
    reader.feed(raw_read(fd));
    gn::Frame frame;
    ASSERT_EQ(reader.next(frame), gn::FrameReader::Status::Ready);
    EXPECT_EQ(frame.type, gn::FrameType::Error);
    EXPECT_NE(frame.payload.find("version"), std::string::npos) << frame.payload;
    ::close(fd);
}

TEST(NetServer, LineCodecServesSplitRequestsAndComments) {
    LoopbackServer srv;
    int fd = raw_dial(srv.port());

    // A torn request: the verb arrives across two segments and loop
    // wakeups. Blank lines and comments are script-style no-ops.
    raw_send(fd, "inf");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    raw_send(fd, "o\n# a comment\n\n");
    std::string text = raw_read(fd, "transports");
    EXPECT_EQ(text.rfind("ok\n", 0), 0u) << text;
    EXPECT_NE(text.find("| model blinker_system"), std::string::npos) << text;

    raw_send(fd, "no-such-verb\nquit\n");
    text = raw_read(fd); // error response, goodbye, then EOF
    EXPECT_NE(text.find("error unknown-verb:"), std::string::npos) << text;
    EXPECT_NE(text.find("| bye"), std::string::npos) << text;
    ::close(fd);

    srv.join();
    EXPECT_EQ(srv.server->stats().requests, 3u); // info, bad verb, quit
}

TEST(NetServer, StatsVerbWithoutServerIsBadState) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "blinker"), nullptr);
    auto resp = hub.execute_line("session stats net");
    EXPECT_EQ(resp.code, gp::ErrorCode::BadState);
    EXPECT_NE(resp.message.find("no network server"), std::string::npos)
        << resp.message;
}

} // namespace
