// The one helper behind the BENCH_p*.json reports: a streaming JSON
// writer, the host block, and the repeat/spread/timer conventions every
// P-series bench shares. perfbench is the end-to-end harness; these
// benches time what it cannot run (tree walk vs compiled, ~10k
// connections, fleet thread scaling, chaos, the obs gate).
//
// Every timing or rate in a report is a Spread over kRepeats runs, and
// every report opens with its host, so one file says what it measured
// and where:
//
//   gmdf::benchjson::Writer w;
//   gmdf::benchjson::begin_report(w, "p9_obs");  // bench, repeats, host
//   w.key("rows"); w.begin_array();
//   for (...) { w.begin_object(/*compact=*/true); w.kv("name", r.name);
//               w.spread("ns", r.ns, 1); w.end_object(); }
//   w.end_array();
//   w.end_object();
//   if (!w.write_file(out_path)) { ... }
//
// The writer emits two-space indented objects and arrays of one-line
// ("compact") row objects. Keys are emitted in call order; it tracks
// commas, indentation, and string escaping. Numbers: integral kv()
// overloads print exactly, doubles take an explicit decimal count
// (matching fprintf's "%.1f").
#pragma once

#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#ifndef GMDF_BUILD_TYPE
#define GMDF_BUILD_TYPE "unknown"
#endif

namespace gmdf::benchjson {

using Clock = std::chrono::steady_clock;

/// Runs behind every Spread: one run is a sample, five give a median
/// and show how far the host swings around it.
inline constexpr int kRepeats = 5;

/// One figure over kRepeats runs.
struct Spread {
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

inline Spread spread_of(std::vector<double> samples) {
    if (samples.empty()) return {};
    std::sort(samples.begin(), samples.end());
    return {samples[samples.size() / 2], samples.front(), samples.back()};
}

inline double us_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// The sample at rank q * (n - 1); reorders `samples`. 0 when empty.
inline double percentile(std::vector<double>& samples, double q) {
    if (samples.empty()) return 0.0;
    auto nth = samples.begin() +
               static_cast<std::ptrdiff_t>(q * static_cast<double>(samples.size() - 1));
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

inline volatile double g_sink = 0.0; ///< defeats dead-code elimination

/// ns per call of `fn(i)`, driven `iters` times in each of kRepeats
/// rounds. `min` is the best round. A non-void result is summed into
/// g_sink so the optimizer cannot drop the call.
template <typename Fn>
Spread time_ns(int iters, Fn&& fn) {
    std::vector<double> ns;
    for (int r = 0; r < kRepeats; ++r) {
        const auto t0 = Clock::now();
        if constexpr (std::is_void_v<std::invoke_result_t<Fn&, int>>) {
            for (int i = 0; i < iters; ++i) fn(i);
        } else {
            double acc = 0.0;
            for (int i = 0; i < iters; ++i) acc += fn(i);
            g_sink = acc;
        }
        ns.push_back(us_since(t0) * 1000.0 / iters);
    }
    return spread_of(std::move(ns));
}

class Writer {
  public:
    void begin_object(bool compact = false) {
        open_value();
        out_ += '{';
        push_frame(compact);
    }

    void end_object() {
        pop_frame('}');
    }

    void begin_array(bool compact = false) {
        open_value();
        out_ += '[';
        push_frame(compact);
    }

    void end_array() {
        pop_frame(']');
    }

    /// Emit "key": — follow with begin_object/begin_array or a kv-style
    /// value call.
    void key(std::string_view k) {
        separate();
        append_string(k);
        out_ += ": ";
        pending_value_ = true;
    }

    void kv(std::string_view k, std::string_view v) {
        key(k);
        append_string(v);
        pending_value_ = false;
    }
    void kv(std::string_view k, const char* v) { kv(k, std::string_view(v)); }

    template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
    void kv(std::string_view k, T v) {
        char buf[24];
        if constexpr (std::is_signed_v<T>)
            std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
        else
            std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
        key(k);
        out_ += buf;
        pending_value_ = false;
    }

    void kv(std::string_view k, double v, int decimals) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
        key(k);
        out_ += buf;
        pending_value_ = false;
    }

    /// Emit "key": {"median": .., "min": .., "max": ..}.
    void spread(std::string_view k, const Spread& s, int decimals) {
        key(k);
        begin_object(/*compact=*/true);
        kv("median", s.median, decimals);
        kv("min", s.min, decimals);
        kv("max", s.max, decimals);
        end_object();
    }

    [[nodiscard]] const std::string& text() const { return out_; }

    /// Writes text() + trailing newline; false (with a stderr note) on
    /// failure, mirroring the benches' historical error handling.
    bool write_file(const char* path) const {
        std::FILE* f = std::fopen(path, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot open %s\n", path);
            return false;
        }
        std::fputs(out_.c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
        return true;
    }

  private:
    struct Frame {
        bool compact;
        bool has_items = false;
    };

    void push_frame(bool compact) {
        // Nested inside a compact container everything stays on one line.
        const bool inherited = !frames_.empty() && frames_.back().compact;
        frames_.push_back({compact || inherited});
    }

    void pop_frame(char closer) {
        const Frame frame = frames_.back();
        frames_.pop_back();
        if (!frame.compact && frame.has_items) {
            out_ += '\n';
            indent();
        }
        out_ += closer;
    }

    /// Comma/newline bookkeeping before a key or a bare array element.
    void separate() {
        if (pending_value_) return; // value position after key(): no comma
        if (!frames_.empty()) {
            Frame& frame = frames_.back();
            if (frame.has_items) out_ += frame.compact ? ", " : ",";
            frame.has_items = true;
            if (!frame.compact) {
                out_ += '\n';
                indent();
            }
        }
    }

    void open_value() {
        if (pending_value_) {
            pending_value_ = false;
            return;
        }
        separate();
    }

    /// Two spaces per open frame: item depth; closers call this after
    /// their pop, landing one level shallower.
    void indent() {
        for (std::size_t i = 0; i < frames_.size(); ++i) out_ += "  ";
    }

    void append_string(std::string_view s) {
        out_ += '"';
        for (char c : s) {
            switch (c) {
                case '"': out_ += "\\\""; break;
                case '\\': out_ += "\\\\"; break;
                case '\n': out_ += "\\n"; break;
                case '\t': out_ += "\\t"; break;
                default: out_ += c;
            }
        }
        out_ += '"';
    }

    std::string out_;
    std::vector<Frame> frames_;
    bool pending_value_ = false;
};

/// Opens a report's top-level object with the bench name, kRepeats and
/// the host it ran on; the caller adds its figures and closes it.
inline void begin_report(Writer& w, std::string_view bench) {
    utsname un{};
    uname(&un);
    w.begin_object();
    w.kv("bench", bench);
    w.kv("repeats", kRepeats);
    w.key("host");
    w.begin_object(/*compact=*/true);
    w.kv("cpus", std::thread::hardware_concurrency());
    w.kv("compiler", __VERSION__);
    w.kv("build", GMDF_BUILD_TYPE);
    w.kv("kernel", std::string(un.sysname) + " " + un.release);
    w.end_object();
}

} // namespace gmdf::benchjson
