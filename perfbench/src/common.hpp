// Shared helpers for the GMDF repository benchmark: clocks, CPU and
// memory readings, percentiles, seed derivation, span recording through
// the program's own obs::Tracer, and the result record every workload
// fills in.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using namespace gmdf;

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double cpu_seconds(clockid_t clock) {
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double process_cpu_s() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }
inline double thread_cpu_s() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

/// Peak RSS of this process image (VmHWM). getrusage's ru_maxrss would
/// also count the parent's RSS from before the exec.
inline double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(1 << 12, '\n');
    }
    return 0.0;
}

/// splitmix64: derives independent sub-seeds from the run's seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/// Per-op latencies: a uniform random sample of at most 2^16 of a run's
/// ops (reservoir sampling, Algorithm R, seeded), each kept with its op
/// number. The buffer is fixed and touched up front, so the peak RSS does
/// not depend on how many ops a run did; and unlike keeping every k-th op,
/// the sample cannot line up with a periodic completion order such as
/// connections answering in turn.
class LatencyLog {
public:
    // Filled with a non-zero value: a zero fill of fresh memory may be
    // left to the kernel's zero pages, which touches nothing.
    explicit LatencyLog(std::uint64_t seed) : seed_(seed), kept_(kCapacity, Sample{1, 1.0}) {
        kept_.clear();
    }

    void add(double us) {
        const std::uint64_t op = ops_++;
        if (kept_.size() < kCapacity) {
            kept_.push_back({op, us});
            return;
        }
        const std::uint64_t slot = mix_seed(seed_, op) % (op + 1);
        if (slot < kCapacity) kept_[slot] = {op, us};
    }

    [[nodiscard]] std::uint64_t ops() const { return ops_; }

    /// The kept latencies of ops first .. end-1.
    [[nodiscard]] std::vector<double> values(std::uint64_t first = 0,
                                             std::uint64_t end = UINT64_MAX) const {
        std::vector<double> out;
        for (const Sample& s : kept_)
            if (s.op >= first && s.op < end) out.push_back(s.us);
        return out;
    }

private:
    struct Sample {
        std::uint64_t op;
        double us;
    };
    static constexpr std::size_t kCapacity = std::size_t{1} << 16;
    std::uint64_t seed_;
    std::vector<Sample> kept_;
    std::uint64_t ops_ = 0;
};

/// Linear-interpolated percentile, q in [0, 1]; 0 for no samples.
inline double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Records one complete span in obs::tracer() (a no-op while tracing is
/// off), tagged with the workload and op id. The benchmark times the
/// call itself so building the tag never lands inside the span.
inline void record_span(std::string name, std::string_view workload, std::uint64_t op,
                        std::uint64_t begin_ns, std::uint64_t end_ns) {
    obs::Tracer& tr = obs::tracer();
    if (!tr.enabled()) return;
    std::string args = "{\"workload\":\"";
    args += workload;
    args += "\",\"op\":\"" + std::to_string(op) + "\"}";
    tr.record(std::move(name), "perfbench", begin_ns, end_ns - begin_ns,
              obs::current_trace_tid(), std::move(args));
}

/// Runs fn() inside a span named `name`.
template <class F>
decltype(auto) in_span(std::string name, std::string_view workload, std::uint64_t op,
                       F&& fn) {
    const std::uint64_t begin = obs::tracer().now_ns();
    struct Closer {
        std::string name;
        std::string_view workload;
        std::uint64_t op;
        std::uint64_t begin;
        ~Closer() {
            record_span(std::move(name), workload, op, begin, obs::tracer().now_ns());
        }
    } closer{std::move(name), workload, op, begin};
    return fn();
}

/// Counts that must repeat exactly for every op of a run (stationarity).
using OpCounts = std::map<std::string, std::uint64_t>;

/// What one workload run produced. `metrics` maps a metric name to its
/// value; units are fixed by the benchmark definition.
struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< first few failures, for stderr
    std::map<std::string, double> metrics;
    std::map<std::string, double> layer;   ///< traced run: raw layer counts
    OpCounts per_op;                       ///< the counts every op repeated
    std::vector<double> first_quarter_us;  ///< latency samples of the first quarter of ops
    std::vector<double> last_quarter_us;   ///< ... and of the last quarter
    std::uint64_t setup_repeats = 0;

    void fail(std::string why) {
        correct = false;
        if (errors.size() < 8) errors.push_back(std::move(why));
    }
};

/// Fills the latency figures from the measured phase's log: the gated
/// p50, the tail, and the samples of the first and last quarters of ops.
inline void report_latency(RunResult& r, const LatencyLog& log) {
    const std::vector<double> all = log.values();
    r.metrics["latency_p50_us"] = percentile(all, 0.5);
    r.layer["tail.latency_p90_us"] = percentile(all, 0.9);
    r.layer["tail.latency_p99_us"] = percentile(all, 0.99);
    r.layer["tail.samples"] = static_cast<double>(all.size());
    const std::uint64_t quarter = log.ops() / 4;
    r.first_quarter_us = log.values(0, quarter);
    r.last_quarter_us = log.values(log.ops() - quarter, log.ops());
}

/// Checks `counts` against the first op's counts; a drift fails the run.
inline void check_stationary(RunResult& r, const OpCounts& counts, std::uint64_t op) {
    if (op == 0 || r.per_op.empty()) {
        r.per_op = counts;
        return;
    }
    if (counts == r.per_op) return;
    std::string diff;
    for (const auto& [name, value] : counts) {
        auto it = r.per_op.find(name);
        const std::uint64_t want = it == r.per_op.end() ? 0 : it->second;
        if (want != value)
            diff += " " + name + "=" + std::to_string(value) + " (op 0: " +
                    std::to_string(want) + ")";
    }
    r.fail("count drift at op " + std::to_string(op) + ":" + diff);
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0;
    bool trace = false;
    std::string trace_out; ///< derived from the binary's location
};

RunResult run_query_tcp(const Options& opt);
RunResult run_debug_tcp(const Options& opt);
RunResult run_campaign_workload(const Options& opt);

} // namespace perfbench
