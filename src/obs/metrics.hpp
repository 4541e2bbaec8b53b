// gmdf::obs — unified metrics registry.
//
// One process-global registry of named counters, gauges, and fixed-bucket
// latency histograms, designed so the hot path pays a relaxed atomic op or
// two per update and the scrape path can render everything
// deterministically:
//
//   obs::registry().histogram("proto.request_ns", "verb", "query").record(ns);
//   scoped.counter("hub.requests").set(stats.requests); // at scrape time
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// process lifetime — metrics are never erased — so call sites look a metric
// up once and cache the reference. The name→metric map is lock-sharded;
// lookups take one shard mutex, updates through a handle take none.
//
// Metrics carry at most one label pair (key, value); families that fan out
// (per-verb, per-shard) use it, everything else leaves it empty.
//
// The global registry holds only instrumented families. Totals that live
// in a stats struct (EngineStats, NetStats, ShardStats, ...) are never
// mirrored here: a scrape copies them into a throwaway Registry and passes
// it as `scoped` to a render call, which merges it into the sorted output
// (its names must not also exist in the rendering registry).
//
// Rendering:
//   - text_dump(prefix)   — one line per metric, sorted by (name, label),
//                           for the `metrics [prefix]` hub verb
//   - prometheus_text()   — Prometheus text exposition (version 0.0.4) with
//                           a gmdf_ prefix, served for GET /metrics
//
// set_metrics_enabled(false) turns every add/record into a no-op (one
// relaxed load) — the knob the overhead bench flips to price the
// instrumentation. Publishing with set() is not gated.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gmdf::obs {

bool metrics_enabled();
void set_metrics_enabled(bool on);

class Counter {
  public:
    void add(std::uint64_t n = 1) {
        if (metrics_enabled()) value_.fetch_add(n, std::memory_order_relaxed);
    }
    // Publishes a total counted elsewhere (a stats struct) into a scrape.
    void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

// Gauges are set, not accumulated — scrapes publish them from the state
// they describe, so they are not gated on metrics_enabled().
class Gauge {
  public:
    void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
    std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> value_{0};
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
    enum class Kind { Counter, Gauge, Histogram };

    struct Entry {
        Kind kind;
        std::string label_key;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    struct Shard {
        mutable std::mutex mu;
        // Keyed by (name, label value); map nodes give Entry pointer
        // stability, which is what makes handles permanent.
        std::map<std::pair<std::string, std::string>, Entry> metrics;
    };

    Entry& find_or_create(Kind kind, std::string_view name,
                          std::string_view label_key, std::string_view label_value);
    Shard& shard_for(std::string_view name, std::string_view label_value);

    template <typename Fn>
    void for_each_sorted(const Registry* scoped, Fn&& fn) const;

    static constexpr std::size_t kShards = 16;
    std::array<Shard, kShards> shards_;
};

// The process-global registry every instrumented subsystem publishes into.
Registry& registry();

} // namespace gmdf::obs
