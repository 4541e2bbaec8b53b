// Byte-stream framing for the serial (RS-232) command interface.
//
// Wire format per frame:
//   FLAG (0x7E) | escaped( payload | crc16-ccitt(payload), big-endian )
//
// Escaping: 0x7E -> 0x7D 0x5E, 0x7D -> 0x7D 0x5D (HDLC-style). The decoder
// is a resynchronizing state machine: garbage between frames and corrupted
// frames are skipped and counted, valid frames are delivered in order.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace gmdf::link {

inline constexpr std::uint8_t kFlag = 0x7E;
inline constexpr std::uint8_t kEscape = 0x7D;
inline constexpr std::uint8_t kEscapeXor = 0x20;

/// CRC-16-CCITT (poly 0x1021, init 0xFFFF, no reflection).
[[nodiscard]] std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data);

/// Appends one wire frame wrapping `payload` to `out` (a buffer the
/// caller owns and may reuse across frames).
void append_frame(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> payload);

/// Wraps a payload into one wire frame.
[[nodiscard]] std::vector<std::uint8_t> frame_payload(std::span<const std::uint8_t> payload);

/// Streaming decoder: feed arbitrary byte chunks, receive whole payloads.
class FrameDecoder {
public:
    /// Receives one CRC-valid payload. The span points into the
    /// decoder's own buffer and is valid only for the call.
    using PayloadFn = std::function<void(std::span<const std::uint8_t>)>;

    /// Feeds bytes; every completed, CRC-valid payload goes to
    /// `on_payload` as soon as its closing flag is decoded.
    void feed(std::span<const std::uint8_t> bytes, const PayloadFn& on_payload);

    /// Feeds bytes, queueing a copy of every CRC-valid payload (drain
    /// with take_payloads).
    void feed(std::span<const std::uint8_t> bytes);

    /// Returns and clears the queued payloads.
    [[nodiscard]] std::vector<std::vector<std::uint8_t>> take_payloads();

    /// Frames dropped due to CRC mismatch or malformed escaping.
    [[nodiscard]] std::uint64_t corrupt_frames() const { return corrupt_; }

    /// Bytes discarded while hunting for a frame flag.
    [[nodiscard]] std::uint64_t junk_bytes() const { return junk_; }

    /// Restores the decoder to a clean between-frames state with the
    /// given counter values (checkpoint restore).
    void reset_stream(std::uint64_t corrupt, std::uint64_t junk) {
        state_ = State::Hunting;
        current_.clear();
        ready_.clear();
        corrupt_ = corrupt;
        junk_ = junk;
    }

private:
    void end_frame(const PayloadFn& on_payload);

    enum class State { Hunting, InFrame, InEscape };
    State state_ = State::Hunting;
    std::vector<std::uint8_t> current_;
    std::vector<std::vector<std::uint8_t>> ready_;
    std::uint64_t corrupt_ = 0;
    std::uint64_t junk_ = 0;
};

} // namespace gmdf::link
