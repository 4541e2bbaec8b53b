// gmdf::obs — the one timing probe (Span) and its tracer, with Chrome
// trace-event export.
//
// An obs::Span times one operation for everyone who asked: the tracer (a
// complete "X" event), a latency histogram, and a caller that wants the
// elapsed time (the pump watchdog). It reads the steady clock once at each
// end, and only when someone asked — the tracer runs, metrics are on and
// it has a histogram, or an elapsed-time slot was given — so an idle
// probe costs two relaxed loads and no clock read. Every consumer gets
// the same clock pair, so a span and its histogram sample always agree.
//
//   obs::Span span("hub", "pump-slice", /*suffix=*/{}, shard_tid, &slice_ns,
//                  &elapsed_ns);
//   span.arg("session", entry.name);
//
// The tracer is a process-global, ring-buffered span recorder, off by
// default. When enabled (`trace profile start`, or `gmdf_serve
// --trace-out`), spans from every thread land in one ring under one mutex;
// write_chrome_json() renders them as Chrome trace-event JSON that loads
// directly in Perfetto / chrome://tracing.
//
// Trace "thread" ids are a presentation concept, not OS tids: the fleet
// pump passes an explicit per-shard tid (kShardTidBase + shard) so slices
// group under stable "shard-N" tracks in Perfetto even though worker
// threads are respawned every pump; everything else gets a small
// automatically assigned per-thread id. set_thread_name() attaches the
// metadata rows Perfetto uses as track labels.
//
// Timestamps are steady-clock nanoseconds since start(); start() clears any
// previous capture. The ring drops the oldest events once full (dropped()
// says how many), so a long capture keeps the most recent window.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace gmdf::obs {

class Tracer {
  public:
    // Presentation tid for fleet-pump shard workers: shard w → kShardTidBase + w.
    static constexpr int kShardTidBase = 1000;
    // Ring bound until set_capacity() changes it.
    static constexpr std::size_t kDefaultCapacity = 1 << 18;

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    // Clears previous events and thread names, re-arms the clock epoch.
    void start();
    void stop();

    // Max events the ring holds (at least 1). Stops the capture; the next
    // start() begins a fresh one under the new bound.
    void set_capacity(std::size_t events);

    std::uint64_t now_ns() const { return since_start(std::chrono::steady_clock::now()); }
    // `t` as nanoseconds since start(), the trace's time base (0 for
    // earlier times).
    std::uint64_t since_start(std::chrono::steady_clock::time_point t) const;

    // Record a complete span. Callers check enabled() first (Span does);
    // events recorded while disabled are ignored.
    void record(std::string name, const char* category, std::uint64_t begin_ns,
                std::uint64_t duration_ns, int tid, std::string args_json = {});

    void set_thread_name(int tid, std::string name);

    std::size_t event_count() const;
    std::uint64_t dropped() const;

    // Render everything captured so far as a Chrome trace-event JSON
    // document ({"traceEvents": [...]}); timestamps in microseconds.
    void write_chrome_json(std::ostream& out) const;

  private:
    struct Event {
        std::string name;
        const char* category;
        std::uint64_t begin_ns;
        std::uint64_t duration_ns;
        int tid;
        std::string args_json; // pre-rendered {"k":"v"} payload, may be empty
    };

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_{};
    mutable std::mutex mu_; // guards everything below
    std::size_t capacity_ = kDefaultCapacity;
    std::deque<Event> events_;
    std::uint64_t dropped_ = 0;
    std::map<int, std::string> thread_names_;
};

Tracer& tracer();

// Small stable per-thread presentation id (assigned on first use, >= 1) for
// spans that don't pass an explicit tid.
int current_trace_tid();

// RAII timing probe: one clock pair feeds the trace event, the optional
// histogram sample and the optional elapsed-time slot. Name concatenation
// happens only while the tracer runs; with nothing asking, construction
// and destruction read no clock.
class Span {
  public:
    using Clock = std::chrono::steady_clock;

    Span(const char* category, std::string_view name, std::string_view name_suffix = {},
         int tid = -1, Histogram* histogram = nullptr, std::uint64_t* elapsed_ns = nullptr)
        : histogram_(histogram != nullptr && metrics_enabled() ? histogram : nullptr),
          elapsed_ns_(elapsed_ns) {
        if (tracer().enabled()) {
            traced_ = true;
            category_ = category;
            name_.reserve(name.size() + name_suffix.size());
            name_.assign(name);
            name_.append(name_suffix);
            tid_ = tid >= 0 ? tid : current_trace_tid();
        }
        if (timed()) begin_ = Clock::now();
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    // Attach a string argument shown in the Perfetto slice details pane.
    void arg(std::string_view key, std::string_view value);

    ~Span() {
        if (!timed()) return;
        const Clock::time_point end = Clock::now();
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin_).count());
        if (histogram_ != nullptr) histogram_->record(ns);
        if (elapsed_ns_ != nullptr) *elapsed_ns_ = ns;
        if (!traced_) return;
        if (!args_json_.empty()) args_json_ += '}';
        tracer().record(std::move(name_), category_, tracer().since_start(begin_), ns, tid_,
                        std::move(args_json_));
    }

  private:
    bool timed() const { return traced_ || histogram_ != nullptr || elapsed_ns_ != nullptr; }

    bool traced_ = false;
    Histogram* histogram_;       ///< null: not sampled (none given, or metrics off)
    std::uint64_t* elapsed_ns_;  ///< null: nobody asked for the elapsed time
    const char* category_ = "";
    std::string name_;
    std::string args_json_;
    int tid_ = 0;
    Clock::time_point begin_{};
};

} // namespace gmdf::obs
