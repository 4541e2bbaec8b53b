// Compact binary state codec for checkpoint/restore.
//
// Every layer that participates in deterministic snapshots (the DES
// kernel, the memory map, the target platform, the debugger engine)
// serializes itself through a StateWriter and restores through a
// StateReader. The encoding is explicit little-endian with fixed-width
// integers and bit-exact IEEE doubles/singles, so a snapshot taken on
// one run restores bit-for-bit on another — which is what makes
// rewind + re-execution byte-identical to the original forward run.
//
// Readers validate bounds on every access and throw std::runtime_error
// on truncation; the replay layer wraps that into its typed errors
// before anything reaches the protocol surface.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace gmdf::rt {

// Fields are copied as host bytes, which is the image's little-endian
// encoding only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "StateWriter/StateReader copy fields as host bytes");

/// Appends fixed-width little-endian fields to a byte buffer. A field
/// (a whole array included) is one bounds check and one copy; the buffer
/// grows geometrically ahead of what is written.
class StateWriter {
public:
    void u8(std::uint8_t v) { put_le(v); }
    void u16(std::uint16_t v) { put_le(v); }
    void u32(std::uint32_t v) { put_le(v); }
    void u64(std::uint64_t v) { put_le(v); }
    void i32(std::int32_t v) { put_le(v); }
    void i64(std::int64_t v) { put_le(v); }
    void b(bool v) { u8(v ? 1 : 0); }
    void f32(float v) { put_le(v); }
    void f64(double v) { put_le(v); }
    void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }

    void str(const std::string& s) { array(std::span<const char>(s)); }
    void bytes(std::span<const std::uint8_t> s) { array(s); }
    void doubles(std::span<const double> s) { array(s); }

    /// The finished image, with no spare capacity: a stored image holds
    /// exactly its size in memory.
    [[nodiscard]] std::vector<std::uint8_t> take() {
        buf_.resize(len_);
        buf_.shrink_to_fit();
        len_ = 0;
        return std::move(buf_);
    }

private:
    std::uint8_t* grow(std::size_t n) {
        if (n > buf_.size() - len_) buf_.resize(std::max({2 * buf_.size(), len_ + n, kMinBytes}));
        std::uint8_t* p = buf_.data() + len_;
        len_ += n;
        return p;
    }
    template <class T> void array(std::span<const T> s) {
        size(s.size());
        if (!s.empty()) std::memcpy(grow(s.size_bytes()), s.data(), s.size_bytes());
    }
    template <class T> void put_le(T v) { std::memcpy(grow(sizeof(T)), &v, sizeof(T)); }

    static constexpr std::size_t kMinBytes = 1024; ///< first growth: skips tiny steps
    std::vector<std::uint8_t> buf_; ///< [0, len_) written, the rest headroom
    std::size_t len_ = 0;
};

/// Reads fields written by StateWriter, in the same order. Throws
/// std::runtime_error("snapshot truncated") past the end.
class StateReader {
public:
    explicit StateReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint8_t u8() { return get_le<std::uint8_t>(); }
    std::uint16_t u16() { return get_le<std::uint16_t>(); }
    std::uint32_t u32() { return get_le<std::uint32_t>(); }
    std::uint64_t u64() { return get_le<std::uint64_t>(); }
    std::int32_t i32() { return get_le<std::int32_t>(); }
    std::int64_t i64() { return get_le<std::int64_t>(); }
    bool b() { return u8() != 0; }
    float f32() { return get_le<float>(); }
    double f64() { return get_le<double>(); }
    std::size_t size() { return static_cast<std::size_t>(u64()); }

    std::string str() {
        std::size_t n = checked_count(size(), 1);
        auto s = take(n);
        return {reinterpret_cast<const char*>(s.data()), n};
    }
    /// Arrays refill `out`, reusing its storage.
    void bytes(std::vector<std::uint8_t>& out) {
        std::size_t n = checked_count(size(), 1);
        auto s = take(n);
        out.assign(s.begin(), s.end());
    }
    void doubles(std::vector<double>& out) {
        std::size_t n = checked_count(size(), 8);
        auto s = take(8 * n);
        out.resize(n);
        if (n > 0) std::memcpy(out.data(), s.data(), s.size());
    }

    [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
    [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

private:
    std::span<const std::uint8_t> take(std::size_t n) {
        if (n > data_.size() - pos_) throw std::runtime_error("snapshot truncated");
        auto s = data_.subspan(pos_, n);
        pos_ += n;
        return s;
    }
    /// Element counts are validated against the remaining payload before
    /// any allocation, so a corrupt length can't trigger a huge reserve.
    std::size_t checked_count(std::size_t n, std::size_t elem_size) {
        if (n > (data_.size() - pos_) / elem_size)
            throw std::runtime_error("snapshot truncated");
        return n;
    }
    template <class T> T get_le() {
        T v;
        std::memcpy(&v, take(sizeof(T)).data(), sizeof(T));
        return v;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

} // namespace gmdf::rt
