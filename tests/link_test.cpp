// Unit tests for the communication substrate: command codec, framing,
// JTAG TAP controller, probe, and the watch poller.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>

#include "link/commands.hpp"
#include "link/framing.hpp"
#include "link/jtag.hpp"
#include "link/watch.hpp"

namespace gl = gmdf::link;
namespace rt = gmdf::rt;

namespace {

TEST(Commands, EncodeDecodeRoundTrip) {
    gl::Command cmd{gl::Cmd::StateEnter, 42, 99, 3.5f};
    auto payload = gl::encode_command(cmd);
    EXPECT_EQ(payload.size(), gl::kCommandPayloadSize);
    auto decoded = gl::decode_command(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, cmd);
}

TEST(Commands, RejectsBadSizeAndKind) {
    std::vector<std::uint8_t> short_payload(5, 0);
    EXPECT_FALSE(gl::decode_command(short_payload).has_value());
    auto payload = gl::encode_command({gl::Cmd::Hello, 1, 2, 0.0f});
    payload[0] = 0xEE; // invalid kind
    EXPECT_FALSE(gl::decode_command(payload).has_value());
}

TEST(Commands, ToStringNames) {
    EXPECT_STREQ(gl::to_string(gl::Cmd::Transition), "TRANSITION");
    gl::Command cmd{gl::Cmd::SignalUpdate, 7, 0, 1.5f};
    EXPECT_NE(cmd.to_string().find("SIGNAL_UPDATE"), std::string::npos);
}

TEST(Framing, Crc16KnownVector) {
    // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
    std::vector<std::uint8_t> data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(gl::crc16_ccitt(data), 0x29B1);
}

TEST(Framing, RoundTripSimple) {
    std::vector<std::uint8_t> payload{1, 2, 3, 0x7E, 0x7D, 4};
    auto wire = gl::frame_payload(payload);
    gl::FrameDecoder dec;
    dec.feed(wire);
    auto got = dec.take_payloads();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], payload);
    EXPECT_EQ(dec.corrupt_frames(), 0u);
}

TEST(Framing, ByteAtATime) {
    std::vector<std::uint8_t> payload{0x7E, 0x7E, 0x7D, 0x00, 0xFF};
    auto wire = gl::frame_payload(payload);
    gl::FrameDecoder dec;
    for (std::uint8_t b : wire) dec.feed({&b, 1});
    auto got = dec.take_payloads();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], payload);
}

TEST(Framing, BackToBackFrames) {
    std::vector<std::uint8_t> p1{1, 2, 3}, p2{4, 5};
    auto w1 = gl::frame_payload(p1);
    auto w2 = gl::frame_payload(p2);
    w1.insert(w1.end(), w2.begin(), w2.end());
    gl::FrameDecoder dec;
    dec.feed(w1);
    auto got = dec.take_payloads();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], p1);
    EXPECT_EQ(got[1], p2);
}

TEST(Framing, JunkBeforeFrameSkipped) {
    std::vector<std::uint8_t> payload{9, 8, 7};
    std::vector<std::uint8_t> wire{0x00, 0x55, 0xAA};
    auto frame = gl::frame_payload(payload);
    wire.insert(wire.end(), frame.begin(), frame.end());
    gl::FrameDecoder dec;
    dec.feed(wire);
    auto got = dec.take_payloads();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(dec.junk_bytes(), 3u);
}

TEST(Framing, CorruptCrcDropped) {
    std::vector<std::uint8_t> payload{1, 2, 3, 4};
    auto wire = gl::frame_payload(payload);
    wire[2] ^= 0x01; // flip a payload bit
    gl::FrameDecoder dec;
    dec.feed(wire);
    EXPECT_TRUE(dec.take_payloads().empty());
    EXPECT_EQ(dec.corrupt_frames(), 1u);
}

TEST(Framing, RecoversAfterCorruption) {
    std::vector<std::uint8_t> p1{1, 2}, p2{3, 4};
    auto w1 = gl::frame_payload(p1);
    w1[1] ^= 0xFF;
    auto w2 = gl::frame_payload(p2);
    gl::FrameDecoder dec;
    dec.feed(w1);
    dec.feed(w2);
    auto got = dec.take_payloads();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], p2);
}

// Property: random payloads of random lengths round-trip through
// frame/decode even when concatenated.
class FramingFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(FramingFuzz, RandomPayloadsRoundTrip) {
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> len_dist(1, 64);
    std::uniform_int_distribution<int> byte_dist(0, 255);
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < 50; ++i) {
        std::vector<std::uint8_t> p(static_cast<std::size_t>(len_dist(rng)));
        for (auto& b : p) b = static_cast<std::uint8_t>(byte_dist(rng));
        auto f = gl::frame_payload(p);
        wire.insert(wire.end(), f.begin(), f.end());
        payloads.push_back(std::move(p));
    }
    gl::FrameDecoder dec;
    // Feed in randomly sized chunks.
    std::size_t pos = 0;
    while (pos < wire.size()) {
        std::size_t n = std::min<std::size_t>(static_cast<std::size_t>(len_dist(rng)),
                                              wire.size() - pos);
        dec.feed({wire.data() + pos, n});
        pos += n;
    }
    auto got = dec.take_payloads();
    ASSERT_EQ(got.size(), payloads.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], payloads[i]);
    EXPECT_EQ(dec.corrupt_frames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FramingFuzz, ::testing::Values(1u, 2u, 3u, 42u, 1234u));

/// Uniform pick in [lo, hi] via modulo, as campaign/generator.cpp draws:
/// bit-stable across standard libraries.
int pick(std::mt19937& rng, int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint32_t>(hi - lo + 1));
}

/// The bit-at-a-time CRC-16-CCITT that the lookup table precomputes.
std::uint16_t crc16_bitwise(std::span<const std::uint8_t> data) {
    std::uint16_t crc = 0xFFFF;
    for (std::uint8_t byte : data) {
        crc ^= static_cast<std::uint16_t>(byte << 8);
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 0x8000) != 0 ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                                      : static_cast<std::uint16_t>(crc << 1);
    }
    return crc;
}

TEST(Framing, TableCrcMatchesBitwiseReference) {
    std::mt19937 rng(17);
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::uint8_t> data(static_cast<std::size_t>(pick(rng, 0, 64)));
        for (auto& b : data) b = static_cast<std::uint8_t>(pick(rng, 0, 255));
        ASSERT_EQ(gl::crc16_ccitt(data), crc16_bitwise(data)) << "buffer " << i;
    }
}

/// Leading junk, then sixty frames with damage mixed in: flipped bits,
/// bad escapes (the decoder then hunts over the rest of the frame as
/// junk) and garbage between frames. `intact` receives the payloads of
/// the undamaged frames, in order.
std::vector<std::uint8_t> damaged_stream(std::mt19937& rng,
                                         std::vector<std::vector<std::uint8_t>>& intact) {
    std::vector<std::uint8_t> wire{0x00, 0x55, 0xAA};
    for (int f = 0; f < 60; ++f) {
        std::vector<std::uint8_t> payload(static_cast<std::size_t>(pick(rng, 1, 20)));
        for (auto& b : payload) b = static_cast<std::uint8_t>(pick(rng, 0, 255));
        std::vector<std::uint8_t> frame = gl::frame_payload(payload);
        const int inner = pick(rng, 1, static_cast<int>(frame.size()) - 2);
        switch (pick(rng, 0, 3)) {
        case 0: // flipped bit
            frame[static_cast<std::size_t>(inner)] ^=
                static_cast<std::uint8_t>(1u << pick(rng, 0, 7));
            break;
        case 1: // bad escape
            frame.insert(frame.begin() + inner, {gl::kEscape, 0x00});
            break;
        case 2: // garbage after the frame
            frame.insert(frame.end(), {0x11, 0x22, 0x33});
            intact.push_back(payload);
            break;
        default: // intact
            intact.push_back(payload);
            break;
        }
        wire.insert(wire.end(), frame.begin(), frame.end());
    }
    return wire;
}

/// Feeds `wire` to `feed` in chunks of 1..40 bytes.
template <class Feed> void feed_chunked(std::mt19937& rng, std::span<const std::uint8_t> wire,
                                        Feed&& feed) {
    std::size_t pos = 0;
    while (pos < wire.size()) {
        auto n = std::min(static_cast<std::size_t>(pick(rng, 1, 40)), wire.size() - pos);
        feed(wire.subspan(pos, n));
        pos += n;
    }
}

// The callback path and the take_payloads() adaptor share one state
// machine: on damaged streams cut into different random chunks they
// deliver the same payloads (every undamaged frame, in order) and count
// the same damage.
TEST(Framing, CallbackAndQueueAgreeOnDamagedStreams) {
    for (unsigned seed : {1u, 7u, 42u, 1234u}) {
        std::mt19937 rng(seed);
        std::vector<std::vector<std::uint8_t>> intact;
        const std::vector<std::uint8_t> wire = damaged_stream(rng, intact);

        gl::FrameDecoder by_callback;
        std::vector<std::vector<std::uint8_t>> called;
        feed_chunked(rng, wire, [&](std::span<const std::uint8_t> chunk) {
            by_callback.feed(chunk, [&](std::span<const std::uint8_t> payload) {
                called.emplace_back(payload.begin(), payload.end());
            });
        });

        gl::FrameDecoder by_queue;
        std::vector<std::vector<std::uint8_t>> queued;
        feed_chunked(rng, wire, [&](std::span<const std::uint8_t> chunk) {
            by_queue.feed(chunk);
            if (pick(rng, 0, 1) == 0)
                for (auto& payload : by_queue.take_payloads()) queued.push_back(std::move(payload));
        });
        for (auto& payload : by_queue.take_payloads()) queued.push_back(std::move(payload));

        EXPECT_EQ(called, intact) << "seed " << seed;
        EXPECT_EQ(called, queued) << "seed " << seed;
        EXPECT_EQ(by_callback.corrupt_frames(), by_queue.corrupt_frames()) << "seed " << seed;
        EXPECT_EQ(by_callback.junk_bytes(), by_queue.junk_bytes()) << "seed " << seed;
        EXPECT_GT(intact.size(), 10u);
        EXPECT_GT(by_callback.corrupt_frames(), 0u);
        EXPECT_GT(by_callback.junk_bytes(), 3u); // more than the leading junk
    }
}

// --- JTAG -------------------------------------------------------------------

TEST(Tap, ResetFromAnyStateWithFiveTmsOnes) {
    // Walk the TAP into every reachable state, then check the reset property.
    rt::MemoryMap mem;
    for (int walk = 0; walk < 64; ++walk) {
        gl::JtagTap tap(mem);
        // Pseudo-random walk.
        unsigned bits = static_cast<unsigned>(walk * 2654435761u);
        for (int i = 0; i < 12; ++i) tap.clock((bits >> i) & 1, false);
        for (int i = 0; i < 5; ++i) tap.clock(true, false);
        EXPECT_EQ(tap.state(), gl::TapState::TestLogicReset);
    }
}

TEST(Tap, StateDiagramSpotChecks) {
    using S = gl::TapState;
    EXPECT_EQ(gl::tap_next(S::TestLogicReset, false), S::RunTestIdle);
    EXPECT_EQ(gl::tap_next(S::RunTestIdle, true), S::SelectDrScan);
    EXPECT_EQ(gl::tap_next(S::SelectDrScan, false), S::CaptureDr);
    EXPECT_EQ(gl::tap_next(S::ShiftDr, false), S::ShiftDr);
    EXPECT_EQ(gl::tap_next(S::Exit1Dr, true), S::UpdateDr);
    EXPECT_EQ(gl::tap_next(S::Exit2Dr, false), S::ShiftDr);
    EXPECT_EQ(gl::tap_next(S::SelectIrScan, true), S::TestLogicReset);
    EXPECT_EQ(gl::tap_next(S::UpdateIr, false), S::RunTestIdle);
}

TEST(Probe, ReadsIdcode) {
    rt::MemoryMap mem;
    gl::JtagTap tap(mem, 0x1234ABCD);
    gl::JtagProbe probe(tap);
    probe.reset();
    EXPECT_EQ(probe.read_idcode(), 0x1234ABCDu);
}

TEST(Probe, MemoryReadIsPassiveAndCorrect) {
    rt::MemoryMap mem;
    auto a = mem.alloc("x");
    auto b = mem.alloc("y");
    mem.write_u32(a, 0xCAFEBABE);
    mem.write_u32(b, 0x12345678);
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap);
    probe.reset();
    EXPECT_EQ(probe.read_word(a), 0xCAFEBABEu);
    EXPECT_EQ(probe.read_word(b), 0x12345678u);
    // Reads must not disturb memory.
    EXPECT_EQ(mem.read_u32(a), 0xCAFEBABEu);
    EXPECT_EQ(mem.read_u32(b), 0x12345678u);
}

TEST(Probe, MemoryWriteWorks) {
    rt::MemoryMap mem;
    auto a = mem.alloc("x");
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap);
    probe.reset();
    probe.write_word(a, 0xDEAD0001);
    EXPECT_EQ(mem.read_u32(a), 0xDEAD0001u);
}

TEST(Probe, UnmappedReadReturnsZero) {
    rt::MemoryMap mem;
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap);
    probe.reset();
    EXPECT_EQ(probe.read_word(0x0000'0000), 0u);
}

TEST(Probe, TckAccounting) {
    rt::MemoryMap mem;
    mem.alloc("x");
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap, 1e6); // 1 MHz TCK
    probe.reset();
    auto cycles = probe.cycles_per_read();
    EXPECT_GT(cycles, 50u);  // two IR loads + two DR scans
    EXPECT_LT(cycles, 200u);
    EXPECT_GT(probe.elapsed_seconds(), 0.0);
}

// --- Watch poller -----------------------------------------------------------

TEST(Watch, DetectsChange) {
    rt::Simulator sim;
    rt::MemoryMap mem;
    auto addr = mem.alloc("state");
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap, 1e6);
    gl::WatchPoller poller(sim, probe, rt::kMs);
    poller.watch(addr);
    std::vector<gl::WatchEvent> events;
    poller.set_callback([&](const gl::WatchEvent& e) { events.push_back(e); });
    poller.start();

    sim.at(5 * rt::kMs + 1, [&] { mem.write_u32(addr, 3); });
    sim.run_until(10 * rt::kMs);
    poller.stop();
    sim.run_until(20 * rt::kMs);

    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].addr, addr);
    EXPECT_EQ(events[0].old_value, 0u);
    EXPECT_EQ(events[0].new_value, 3u);
    // Detected at the next poll after the change (6 ms round).
    EXPECT_GE(events[0].at, 6 * rt::kMs);
    EXPECT_LT(events[0].at, 7 * rt::kMs);
}

TEST(Watch, FirstPollPrimesWithoutEvent) {
    rt::Simulator sim;
    rt::MemoryMap mem;
    auto addr = mem.alloc("v");
    mem.write_u32(addr, 77); // non-zero before the first poll
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap, 1e6);
    gl::WatchPoller poller(sim, probe, rt::kMs);
    poller.watch(addr);
    int events = 0;
    poller.set_callback([&](const gl::WatchEvent&) { ++events; });
    poller.start();
    sim.run_until(5 * rt::kMs);
    EXPECT_EQ(events, 0);
    EXPECT_GE(poller.polls(), 4u);
}

TEST(Watch, AliasingMissesFastToggles) {
    rt::Simulator sim;
    rt::MemoryMap mem;
    auto addr = mem.alloc("v");
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap, 1e6);
    gl::WatchPoller poller(sim, probe, 10 * rt::kMs); // slow poll
    poller.watch(addr);
    int events = 0;
    poller.set_callback([&](const gl::WatchEvent&) { ++events; });
    poller.start();
    // Value pulses 0 -> 5 -> 0 entirely between two polls: invisible.
    sim.at(12 * rt::kMs, [&] { mem.write_u32(addr, 5); });
    sim.at(13 * rt::kMs, [&] { mem.write_u32(addr, 0); });
    sim.run_until(50 * rt::kMs);
    EXPECT_EQ(events, 0);
}

TEST(Watch, RoundCostGrowsWithWatchList) {
    rt::Simulator sim;
    rt::MemoryMap mem;
    std::vector<std::uint32_t> addrs;
    for (int i = 0; i < 8; ++i) addrs.push_back(mem.alloc("v" + std::to_string(i)));
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap, 1e6);
    gl::WatchPoller poller(sim, probe, rt::kMs);
    for (auto a : addrs) poller.watch(a);
    poller.start();
    sim.run_until(2 * rt::kMs);
    // 8 reads x ~100 TCK @ 1 MHz ~= 800 us per round.
    EXPECT_GT(poller.round_cost(), 400 * rt::kUs);
    EXPECT_LT(poller.round_cost(), 2 * rt::kMs);
}

} // namespace
