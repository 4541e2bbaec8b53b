#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace gmdf::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

// Fold a dotted metric name into a Prometheus-legal one: gmdf_<name> with
// every non-[A-Za-z0-9_] character mapped to '_'.
std::string sanitize(std::string_view name) {
    std::string out = "gmdf_";
    out.reserve(out.size() + name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::string format_u64(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    return buf;
}

std::string format_i64(std::int64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
}

} // namespace

bool metrics_enabled() { return g_metrics_enabled.load(std::memory_order_relaxed); }

void set_metrics_enabled(bool on) { g_metrics_enabled.store(on, std::memory_order_relaxed); }

double Histogram::Snapshot::percentile(double p) const {
    if (count == 0) return 0.0;
    if (p < 0.0) p = 0.0;
    if (p > 100.0) p = 100.0;
    const double rank = (p / 100.0) * static_cast<double>(count);
    std::uint64_t cumulative = 0;
    for (int i = 0; i < kBuckets; ++i) {
        const std::uint64_t in_bucket = buckets[static_cast<std::size_t>(i)];
        if (in_bucket == 0) continue;
        const std::uint64_t next = cumulative + in_bucket;
        if (static_cast<double>(next) >= rank) {
            const double lower =
                i == 0 ? 0.0 : static_cast<double>(bucket_upper(i - 1)) + 1.0;
            const double upper = i >= kBuckets - 1
                                     ? lower // open-ended top bucket: report its floor
                                     : static_cast<double>(bucket_upper(i));
            const double into =
                (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
            return lower + (upper - lower) * std::clamp(into, 0.0, 1.0);
        }
        cumulative = next;
    }
    return static_cast<double>(bucket_upper(kBuckets - 2)) + 1.0;
}

Histogram::Snapshot Histogram::snapshot() const {
    Snapshot snap;
    // Relaxed loads: a snapshot taken mid-record may be off by the in-flight
    // sample; scrape output never promises a consistent cut. The count is
    // the bucket sum, so percentile ranks and the cumulative exposition
    // never disagree with each other.
    snap.sum = sum_.load(std::memory_order_relaxed);
    for (int i = 0; i < kBuckets; ++i) {
        snap.buckets[static_cast<std::size_t>(i)] =
            buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
        snap.count += snap.buckets[static_cast<std::size_t>(i)];
    }
    return snap;
}

Registry::Shard& Registry::shard_for(std::string_view name, std::string_view label_value) {
    const std::size_t h =
        std::hash<std::string_view>{}(name) ^ (std::hash<std::string_view>{}(label_value) << 1);
    return shards_[h % kShards];
}

Registry::Entry& Registry::find_or_create(Kind kind, std::string_view name,
                                          std::string_view label_key,
                                          std::string_view label_value) {
    Shard& shard = shard_for(name, label_value);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto key = std::make_pair(std::string(name), std::string(label_value));
    auto it = shard.metrics.find(key);
    if (it == shard.metrics.end()) {
        Entry entry;
        entry.kind = kind;
        entry.label_key = std::string(label_key);
        switch (kind) {
            case Kind::Counter: entry.counter = std::make_unique<Counter>(); break;
            case Kind::Gauge: entry.gauge = std::make_unique<Gauge>(); break;
            case Kind::Histogram: entry.histogram = std::make_unique<Histogram>(); break;
        }
        it = shard.metrics.emplace(std::move(key), std::move(entry)).first;
    } else if (it->second.kind != kind) {
        throw std::logic_error("obs: metric '" + std::string(name) +
                               "' re-registered as a different kind");
    }
    return it->second;
}

Counter& Registry::counter(std::string_view name, std::string_view label_key,
                           std::string_view label_value) {
    return *find_or_create(Kind::Counter, name, label_key, label_value).counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view label_key,
                       std::string_view label_value) {
    return *find_or_create(Kind::Gauge, name, label_key, label_value).gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view label_key,
                               std::string_view label_value) {
    return *find_or_create(Kind::Histogram, name, label_key, label_value).histogram;
}

template <typename Fn>
void Registry::for_each_sorted(const Registry* scoped, Fn&& fn) const {
    // Scrape path: gather (name, label value) → Entry* across shards (and
    // the scoped registry's), then visit in sorted order. Entry pointers
    // stay valid after the shard mutexes drop because metrics are never
    // erased.
    std::vector<std::pair<std::pair<std::string, std::string>, const Entry*>> all;
    for (const Registry* reg : {this, scoped}) {
        if (reg == nullptr) continue;
        for (const Shard& shard : reg->shards_) {
            std::lock_guard<std::mutex> lock(shard.mu);
            for (const auto& [key, entry] : shard.metrics) all.emplace_back(key, &entry);
        }
    }
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, entry] : all) fn(key.first, key.second, *entry);
}

std::vector<std::string> Registry::text_dump(std::string_view prefix,
                                            const Registry* scoped) const {
    std::vector<std::string> lines;
    for_each_sorted(scoped, [&](const std::string& name, const std::string& label_value,
                                const Entry& entry) {
        if (!prefix.empty() && name.compare(0, prefix.size(), prefix) != 0) return;
        std::string line = name;
        if (!entry.label_key.empty()) {
            line += '{';
            line += entry.label_key;
            line += '=';
            line += label_value;
            line += '}';
        }
        line += ' ';
        switch (entry.kind) {
            case Kind::Counter: line += format_u64(entry.counter->value()); break;
            case Kind::Gauge: line += format_i64(entry.gauge->value()); break;
            case Kind::Histogram: {
                const Histogram::Snapshot snap = entry.histogram->snapshot();
                line += "count=" + format_u64(snap.count);
                line += " p50=" + format_u64(static_cast<std::uint64_t>(snap.percentile(50)));
                line += " p90=" + format_u64(static_cast<std::uint64_t>(snap.percentile(90)));
                line += " p99=" + format_u64(static_cast<std::uint64_t>(snap.percentile(99)));
                line += " mean=" + format_u64(static_cast<std::uint64_t>(snap.mean()));
                break;
            }
        }
        lines.push_back(std::move(line));
    });
    return lines;
}

std::string Registry::prometheus_text(const Registry* scoped) const {
    std::string out;
    out.reserve(4096);
    std::string last_family;
    for_each_sorted(scoped, [&](const std::string& name, const std::string& label_value,
                                const Entry& entry) {
        const std::string family = sanitize(name);
        if (family != last_family) {
            out += "# TYPE " + family + ' ';
            switch (entry.kind) {
                case Kind::Counter: out += "counter"; break;
                case Kind::Gauge: out += "gauge"; break;
                case Kind::Histogram: out += "histogram"; break;
            }
            out += '\n';
            last_family = family;
        }
        std::string labels;
        if (!entry.label_key.empty())
            labels = entry.label_key + "=\"" + label_value + "\"";
        const auto with = [&](const std::string& suffix, const std::string& extra) {
            std::string s = family + suffix;
            if (!labels.empty() || !extra.empty()) {
                s += '{';
                s += labels;
                if (!labels.empty() && !extra.empty()) s += ',';
                s += extra;
                s += '}';
            }
            return s;
        };
        switch (entry.kind) {
            case Kind::Counter:
                out += with("", "") + ' ' + format_u64(entry.counter->value()) + '\n';
                break;
            case Kind::Gauge:
                out += with("", "") + ' ' + format_i64(entry.gauge->value()) + '\n';
                break;
            case Kind::Histogram: {
                const Histogram::Snapshot snap = entry.histogram->snapshot();
                int highest = -1;
                for (int i = 0; i < Histogram::kBuckets; ++i)
                    if (snap.buckets[static_cast<std::size_t>(i)] != 0) highest = i;
                std::uint64_t cumulative = 0;
                for (int i = 0; i <= highest; ++i) {
                    cumulative += snap.buckets[static_cast<std::size_t>(i)];
                    out += with("_bucket", "le=\"" + format_u64(Histogram::bucket_upper(i)) +
                                               "\"") +
                           ' ' + format_u64(cumulative) + '\n';
                }
                out += with("_bucket", "le=\"+Inf\"") + ' ' + format_u64(snap.count) + '\n';
                out += with("_sum", "") + ' ' + format_u64(snap.sum) + '\n';
                out += with("_count", "") + ' ' + format_u64(snap.count) + '\n';
                break;
            }
        }
    });
    return out;
}

std::size_t Registry::metric_count() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        n += shard.metrics.size();
    }
    return n;
}

Registry& registry() {
    static Registry instance;
    return instance;
}

} // namespace gmdf::obs
