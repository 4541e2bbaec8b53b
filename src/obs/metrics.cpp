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

template <typename M>
M& Registry::find_or_create(std::string_view name, std::string_view label_key,
                            std::string_view label_value) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = metrics_
                  .try_emplace(std::make_pair(std::string(name), std::string(label_value)),
                               label_key, std::in_place_type<M>)
                  .first;
    M* metric = std::get_if<M>(&it->second.metric);
    if (metric == nullptr)
        throw std::logic_error("obs: metric '" + std::string(name) +
                               "' re-registered as a different kind");
    return *metric;
}

Counter& Registry::counter(std::string_view name, std::string_view label_key,
                           std::string_view label_value) {
    return find_or_create<Counter>(name, label_key, label_value);
}

Gauge& Registry::gauge(std::string_view name, std::string_view label_key,
                       std::string_view label_value) {
    return find_or_create<Gauge>(name, label_key, label_value);
}

Histogram& Registry::histogram(std::string_view name, std::string_view label_key,
                               std::string_view label_value) {
    return find_or_create<Histogram>(name, label_key, label_value);
}

template <typename Fn>
void Registry::for_each_sorted(const Registry* scoped, Fn&& fn) const {
    // Scrape path: both maps are sorted by (name, label value), so one
    // merge walk visits their union in render order. The locks are held
    // for the walk; registration is rare (startup, one lookup per
    // scheduler built), and a sample takes no lock.
    std::lock_guard<std::mutex> lock(mu_);
    if (scoped == nullptr) {
        for (const auto& [key, entry] : metrics_) fn(key.first, key.second, entry);
        return;
    }
    std::lock_guard<std::mutex> scoped_lock(scoped->mu_);
    auto a = metrics_.begin();
    auto b = scoped->metrics_.begin();
    while (a != metrics_.end() || b != scoped->metrics_.end()) {
        const bool take_a =
            b == scoped->metrics_.end() || (a != metrics_.end() && a->first < b->first);
        const auto& [key, entry] = take_a ? *a++ : *b++;
        fn(key.first, key.second, entry);
    }
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
        if (const auto* c = std::get_if<Counter>(&entry.metric)) {
            line += format_u64(c->value());
        } else if (const auto* g = std::get_if<Gauge>(&entry.metric)) {
            line += format_i64(g->value());
        } else {
            const Histogram::Snapshot snap = std::get<Histogram>(entry.metric).snapshot();
            line += "count=" + format_u64(snap.count);
            line += " p50=" + format_u64(static_cast<std::uint64_t>(snap.percentile(50)));
            line += " p90=" + format_u64(static_cast<std::uint64_t>(snap.percentile(90)));
            line += " p99=" + format_u64(static_cast<std::uint64_t>(snap.percentile(99)));
            line += " mean=" + format_u64(static_cast<std::uint64_t>(snap.mean()));
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
            // Indexed by the variant's alternative: Counter, Gauge, Histogram.
            static constexpr const char* kTypes[] = {"counter", "gauge", "histogram"};
            out += "# TYPE " + family + ' ' + kTypes[entry.metric.index()] + '\n';
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
        if (const auto* c = std::get_if<Counter>(&entry.metric)) {
            out += with("", "") + ' ' + format_u64(c->value()) + '\n';
        } else if (const auto* g = std::get_if<Gauge>(&entry.metric)) {
            out += with("", "") + ' ' + format_i64(g->value()) + '\n';
        } else {
            const Histogram::Snapshot snap = std::get<Histogram>(entry.metric).snapshot();
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
        }
    });
    return out;
}

std::size_t Registry::metric_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return metrics_.size();
}

Registry& registry() {
    static Registry instance;
    return instance;
}

} // namespace gmdf::obs
