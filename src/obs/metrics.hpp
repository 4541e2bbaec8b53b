// gmdf::obs — unified metrics registry.
//
// One process-global registry of named latency histograms, plus the
// counters and gauges a scrape publishes, rendered deterministically:
//
//   obs::Span span("proto", "dispatch:", verb, -1, &request_ns); // samples it
//   scoped.counter("hub.requests").set(stats.requests); // at scrape time
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// process lifetime — metrics are never erased — so call sites look a metric
// up once and cache the reference. One mutex guards the one sorted map;
// only find-or-create and scrapes take it, so a sample through a handle
// takes no lock.
//
// Metrics carry at most one label pair (key, value); families that fan out
// (per-verb, per-shard) use it, everything else leaves it empty.
//
// The global registry holds only the timed families, which obs::Span
// samples. Totals that live in a stats struct (EngineStats, NetStats,
// ShardStats, ...) are never mirrored here: a scrape copies them into a
// throwaway Registry as counters and gauges, plain values set once by the
// scraping thread, and passes it as `scoped` to a render call, which
// merges it into the sorted output (its names must not also exist in the
// rendering registry).
//
// Rendering:
//   - text_dump(prefix)   — one line per metric, sorted by (name, label),
//                           for the `metrics [prefix]` hub verb
//   - prometheus_text()   — Prometheus text exposition (version 0.0.4) with
//                           a gmdf_ prefix, served for GET /metrics
//
// set_metrics_enabled(false) turns every Histogram::record into a no-op
// (one relaxed load) and stops Span from reading the clock for one — the
// knob the overhead bench flips to price the instrumentation. Publishing
// with set() is not gated.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace gmdf::obs {

bool metrics_enabled();
void set_metrics_enabled(bool on);

// Counters and gauges hold a total or level counted elsewhere (a stats
// struct), published into a scrape's own registry by the scraping thread.
class Counter {
  public:
    void set(std::uint64_t v) { value_ = v; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

// A gauge is a counter that can go down.
class Gauge {
  public:
    void set(std::int64_t v) { value_ = v; }
    std::int64_t value() const { return value_; }

  private:
    std::int64_t value_ = 0;
};

// Fixed power-of-two buckets sized for nanosecond latencies: bucket 0 holds
// exactly 0, bucket i (i >= 1) holds [2^(i-1), 2^i - 1]. 40 buckets reach
// ~9 minutes, enough for any slice or request this hub will ever time.
class Histogram {
  public:
    static constexpr int kBuckets = 40;

    static int bucket_index(std::uint64_t v) {
        if (v == 0) return 0;
        const int w = std::bit_width(v);
        return w >= kBuckets ? kBuckets - 1 : w;
    }

    // Inclusive upper bound of a bucket (the value Prometheus calls `le`).
    static std::uint64_t bucket_upper(int index) {
        if (index <= 0) return 0;
        if (index >= kBuckets - 1) return ~std::uint64_t{0};
        return (std::uint64_t{1} << index) - 1;
    }

    // The buckets are the one home of the sample count: snapshot() sums
    // them, so a record is two relaxed adds.
    void record(std::uint64_t v) {
        if (!metrics_enabled()) return;
        buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
            1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    struct Snapshot {
        std::uint64_t count = 0; ///< sum of the buckets
        std::uint64_t sum = 0;
        std::array<std::uint64_t, kBuckets> buckets{};

        // p in [0, 100]; linear interpolation inside the bucket holding the
        // requested rank. Returns 0 for an empty histogram.
        double percentile(double p) const;
        double mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count); }
    };

    Snapshot snapshot() const;

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> sum_{0};
};

class Registry {
  public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    // Find-or-create. Throws std::logic_error if the same (name, label
    // value) was previously registered as a different kind.
    Counter& counter(std::string_view name, std::string_view label_key = {},
                     std::string_view label_value = {});
    Gauge& gauge(std::string_view name, std::string_view label_key = {},
                 std::string_view label_value = {});
    Histogram& histogram(std::string_view name, std::string_view label_key = {},
                         std::string_view label_value = {});

    // `metrics [prefix]` view: "name{key=value} <value>" per counter/gauge,
    // "name{key=value} count=<n> p50=<ns> p90=<ns> p99=<ns> mean=<ns>" per
    // histogram; sorted by (name, label value); optionally filtered to
    // names starting with `prefix`. A non-null `scoped` registry is
    // merged into the sorted output.
    std::vector<std::string> text_dump(std::string_view prefix = {},
                                       const Registry* scoped = nullptr) const;

    // Prometheus text exposition: names sanitized to gmdf_<name> with
    // non-alphanumerics folded to '_'; histograms as cumulative _bucket
    // series (trimmed past the last occupied bucket) plus _sum/_count.
    // `scoped` merges as in text_dump.
    std::string prometheus_text(const Registry* scoped = nullptr) const;

    std::size_t metric_count() const;

  private:
    struct Entry {
        template <typename M>
        Entry(std::string_view key, std::in_place_type_t<M> kind)
            : label_key(key), metric(kind) {}
        std::string label_key;
        std::variant<Counter, Gauge, Histogram> metric;
    };

    template <typename M>
    M& find_or_create(std::string_view name, std::string_view label_key,
                      std::string_view label_value);

    template <typename Fn>
    void for_each_sorted(const Registry* scoped, Fn&& fn) const;

    mutable std::mutex mu_;
    // Keyed by (name, label value), so iteration is render order; map
    // nodes never move, which is what makes handles permanent.
    std::map<std::pair<std::string, std::string>, Entry> metrics_;
};

// The process-global registry every instrumented subsystem publishes into.
Registry& registry();

} // namespace gmdf::obs
