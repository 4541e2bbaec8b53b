// Wire codecs for the network debug service.
//
// Two framings carry the same line-oriented protocol over a TCP byte
// stream:
//
//   Line codec   one request per '\n'-terminated line; responses and
//                events stream back as the text the proto layer already
//                formats. netcat/telnet-friendly.
//
//   Frame codec  4-byte little-endian payload length, then the payload;
//                payload[0] is a one-byte frame type, the rest is text.
//                A connection opens with the 4 magic bytes "GMDF"
//                followed by a versioned hello frame, which is also how
//                the server tells the two codecs apart.
//
// Frame types:
//   'H' hello     "gmdf-net <version>" (client first, server echoes)
//   'Q' request   one request line (client -> server)
//   'R' response  one formatted response, possibly multi-line
//   'E' event     one formatted event line
//   'D' done      response + queued events for one request fully sent
//   'P' ping      heartbeat; the server echoes it and refreshes the
//                 connection's idle clock (either side may send one)
//   'X' error     protocol violation; the sender closes after it
//
// Both decoders are incremental: bytes arrive in arbitrary slices
// across event-loop wakeups, so a torn line/frame simply waits for more
// input, while an oversized one is a structured, connection-fatal
// error — never a crash, never a corrupted stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gmdf::net {

/// Protocol magic + version, exchanged in the hello.
inline constexpr std::string_view kMagic = "GMDF";
inline constexpr int kProtocolVersion = 1;
inline constexpr std::string_view kHelloPrefix = "gmdf-net ";

/// Input limits: frame payload, and line (or HTTP request head) length.
inline constexpr std::size_t kMaxFramePayload = 1 << 20;
inline constexpr std::size_t kMaxLine = 16 * 1024;

/// Frame type bytes (payload[0]).
enum class FrameType : char {
    Hello = 'H',
    Request = 'Q',
    Response = 'R',
    Event = 'E',
    Done = 'D',
    Ping = 'P',
    Error = 'X',
};

/// One decoded frame.
struct Frame {
    FrameType type = FrameType::Error;
    std::string payload; ///< text after the type byte
};

/// Encodes one frame: u32-LE length of (type byte + text), type, text.
[[nodiscard]] std::string encode_frame(FrameType type, std::string_view text);

/// The client hello / server echo payload for this protocol version.
[[nodiscard]] std::string hello_payload();

/// Parses a hello payload; returns the version or -1 when malformed.
[[nodiscard]] int parse_hello(std::string_view payload);

/// Incremental frame decoder. feed() bytes as they arrive; next() yields
/// complete frames until NeedMore. An oversized or malformed frame puts
/// the decoder into a sticky Error state (the stream position is lost
/// for good, so the connection must close).
class FrameReader {
public:
    enum class Status { NeedMore, Ready, Error };

    explicit FrameReader(std::size_t max_payload = kMaxFramePayload)
        : max_payload_(max_payload) {}

    void feed(std::string_view bytes);

    /// Decodes the next complete frame into `out`.
    Status next(Frame& out);

    /// Human-readable reason once next() returned Error.
    [[nodiscard]] const std::string& error() const { return error_; }

private:
    std::size_t max_payload_;
    std::string buf_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

/// Incremental line decoder: accumulates bytes, yields '\n'-terminated
/// lines with the terminator (and a preceding '\r') stripped. A line
/// longer than max_line is a sticky error, same contract as FrameReader.
class LineReader {
public:
    enum class Status { NeedMore, Ready, Error };

    explicit LineReader(std::size_t max_line = kMaxLine) : max_line_(max_line) {}

    void feed(std::string_view bytes);
    Status next(std::string& out);
    [[nodiscard]] const std::string& error() const { return error_; }

private:
    std::size_t max_line_;
    std::string buf_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

} // namespace gmdf::net
