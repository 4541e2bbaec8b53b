#include "link/framing.hpp"

#include <array>
#include <utility>

namespace gmdf::link {

namespace {

// One CRC step per byte value: the bitwise loop over the byte's 8 bits,
// run once at compile time.
constexpr std::array<std::uint16_t, 256> make_crc_table() {
    std::array<std::uint16_t, 256> table{};
    for (unsigned byte = 0; byte < 256; ++byte) {
        auto crc = static_cast<std::uint16_t>(byte << 8);
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 0x8000) != 0 ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                                      : static_cast<std::uint16_t>(crc << 1);
        table[byte] = crc;
    }
    return table;
}

constexpr std::array<std::uint16_t, 256> kCrcTable = make_crc_table();

} // namespace

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) {
    std::uint16_t crc = 0xFFFF;
    for (std::uint8_t byte : data)
        crc = static_cast<std::uint16_t>((crc << 8) ^ kCrcTable[(crc >> 8) ^ byte]);
    return crc;
}

void append_frame(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> payload) {
    // Size for the worst case (every payload and CRC byte escaped), write
    // through a pointer, then trim to what was written.
    const std::size_t start = out.size();
    out.resize(start + 2 * (payload.size() + 2) + 2);
    std::uint8_t* p = out.data() + start;
    auto put_escaped = [&p](std::uint8_t byte) {
        if (byte == kFlag || byte == kEscape) {
            *p++ = kEscape;
            *p++ = byte ^ kEscapeXor;
        } else {
            *p++ = byte;
        }
    };
    *p++ = kFlag;
    for (std::uint8_t b : payload) put_escaped(b);
    std::uint16_t crc = crc16_ccitt(payload);
    put_escaped(static_cast<std::uint8_t>(crc >> 8));
    put_escaped(static_cast<std::uint8_t>(crc & 0xFF));
    *p++ = kFlag;
    out.resize(static_cast<std::size_t>(p - out.data()));
}

std::vector<std::uint8_t> frame_payload(std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> out;
    append_frame(out, payload);
    return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes, const PayloadFn& on_payload) {
    for (std::uint8_t b : bytes) {
        switch (state_) {
        case State::Hunting:
            if (b == kFlag) {
                state_ = State::InFrame;
                current_.clear();
            } else {
                ++junk_;
            }
            break;
        case State::InFrame:
            if (b == kFlag) {
                // Either a frame terminator or (after back-to-back frames)
                // an opening flag; empty frames are silently skipped.
                end_frame(on_payload);
                state_ = State::InFrame;
                current_.clear();
            } else if (b == kEscape) {
                state_ = State::InEscape;
            } else {
                current_.push_back(b);
            }
            break;
        case State::InEscape: {
            std::uint8_t unescaped = b ^ kEscapeXor;
            if (unescaped != kFlag && unescaped != kEscape) {
                // Invalid escape sequence: drop the frame, resync.
                ++corrupt_;
                state_ = State::Hunting;
            } else {
                current_.push_back(unescaped);
                state_ = State::InFrame;
            }
            break;
        }
        }
    }
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
    feed(bytes, [this](std::span<const std::uint8_t> payload) {
        ready_.emplace_back(payload.begin(), payload.end());
    });
}

void FrameDecoder::end_frame(const PayloadFn& on_payload) {
    if (current_.empty()) return; // idle flags between frames
    if (current_.size() < 3) {
        ++corrupt_; // cannot even hold a CRC
        return;
    }
    std::size_t n = current_.size() - 2;
    std::uint16_t expected = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(current_[n]) << 8) | current_[n + 1]);
    std::span<const std::uint8_t> payload(current_.data(), n);
    if (crc16_ccitt(payload) != expected) {
        ++corrupt_;
        return;
    }
    on_payload(payload);
}

std::vector<std::vector<std::uint8_t>> FrameDecoder::take_payloads() {
    return std::exchange(ready_, {});
}

} // namespace gmdf::link
