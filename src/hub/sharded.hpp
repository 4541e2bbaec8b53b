// ShardedScheduler: the fleet pump, on one thread or N.
//
// Each hosted session fronts its own simulated target with its own
// clock. Advancing them serially (session A for the whole duration,
// then session B) would batch each target's events and let one chatty
// target starve the others' liveness. The pump instead advances every
// live session in bounded simulated-time slices: each slice is one
// proto::Scenario::advance (what a bare `run` calls) by at most the
// per-session budget, so events from concurrent targets interleave in
// elapsed-time order at budget granularity.
//
// For a single session the sliced pump is behaviourally identical to
// one contiguous run (the DES kernel dispatches the same events in the
// same order across run_until boundaries, and the timeline captures
// the same cadence points) — which keeps single-session transcripts
// byte-stable under the hub.
//
// Sessions are fully isolated from each other (separate targets,
// engines, observers, transports), so the pump partitions the fleet
// across worker threads:
//
//   - sessions are dealt round-robin (by registry order) onto
//     min(threads, sessions) shards, each shard a deque its worker pops
//     from the front and re-queues onto at the back — so within a shard
//     service is round-robin, and one worker runs A B C A B C in
//     registry order on the calling thread without spawning;
//   - a worker whose shard runs dry steals a queued session from the
//     back of another shard and adopts it, so a few chatty sessions
//     cannot idle the other cores (steals are counted per shard);
//   - a session is held by exactly one worker at a time (it is off
//     every deque while being sliced, and its after-slice hook runs
//     before it is re-queued), so each session's slice sequence —
//     min(budget, remaining) repeated — is the same on one thread or
//     eight.
//
// The per-session determinism contract follows: a given session's event
// stream, transcript bytes, and replay behaviour are identical under 1
// thread and N threads. What MAY differ across thread counts is the
// cross-session interleaving of slices — and therefore the order in
// which different sessions' events reach the hub queue; each event
// still carries its session tag, so consumers see a tag-correct merge.
//
// pump() is synchronous fork-join: workers are joined before it
// returns, so all session state is quiescent (and happens-before
// ordered) for the caller afterwards. Slices and the slice hook run on
// worker threads — the hook must tolerate concurrent calls for
// *distinct* sessions (the hub's hook serializes its shared queue with
// a mutex).
//
// Fault containment: every slice runs guarded. A session whose target
// throws — or that repeatedly blows the optional wall-clock watchdog
// deadline — transitions to Faulted and drops out of the rotation for
// the rest of the hub's life (until revived); the other sessions' slice
// sequences are unchanged, so their transcripts stay byte-identical
// with or without a crashing neighbour.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hub/registry.hpp"
#include "obs/metrics.hpp"
#include "rt/des.hpp"

namespace gmdf::hub {

/// The most worker threads anything here starts: parallel_for's cap and
/// ShardedScheduler::set_threads's clamp.
inline constexpr int kMaxThreads = 256;

/// fn(i) for i in [0, n), fanned out across min(threads, n, kMaxThreads)
/// workers pulling indices from a shared counter: the calling thread is
/// one of them, the rest are spawned and joined before returning, so
/// results written at distinct indices are ordered for the caller. With
/// one worker nothing is spawned and indices run in order. fn must only
/// touch index-local state (or synchronize what it shares), and must
/// not throw when more than one worker runs: an exception escaping a
/// spawned worker ends the program.
void parallel_for(int n, int threads, const std::function<void(int)>& fn);

/// Pump watchdog knobs. Off by default: the deadline is wall-clock time
/// per slice, so enabling it makes pump outcomes depend on host load —
/// an explicit operator choice.
struct WatchdogConfig {
    /// Wall-clock deadline of one slice in microseconds; 0 disables.
    std::int64_t slice_limit_us = 0;
    /// Consecutive overruns before the session is flagged runaway and
    /// quarantined (a single slow slice on a loaded host is forgiven).
    int max_strikes = 3;
    [[nodiscard]] bool enabled() const { return slice_limit_us > 0; }
};

/// Lifetime watchdog counters.
struct WatchdogStats {
    std::uint64_t overruns = 0;  ///< slices that blew the deadline
    std::uint64_t runaways = 0;  ///< sessions quarantined for repeat offenses
};

class ShardedScheduler {
public:
    /// Called after each per-session slice (events queued by that slice
    /// are ready to collect). Must not open or close sessions. Runs on
    /// worker threads (never two concurrent calls for the same session)
    /// — it must be safe to call for distinct sessions concurrently.
    using SliceHook = std::function<void(SessionRegistry::Entry&)>;

    /// Lifetime per-shard counters (`session stats shards`). `sessions`
    /// is the assignment of the most recent pump; the rest accumulate.
    struct ShardStats {
        int sessions = 0;          ///< sessions dealt to this shard, last pump
        std::uint64_t slices = 0;  ///< slices this shard's worker pumped
        rt::SimTime advanced = 0;  ///< simulated time it advanced
        std::uint64_t steals = 0;  ///< sessions it stole from other shards
        std::uint64_t overruns = 0; ///< watchdog deadline overruns it observed
        std::uint64_t faulted = 0;  ///< sessions its slices quarantined
    };

    /// Worker-thread count; 1 (default) pumps on the calling thread.
    /// Clamped to [1, kMaxThreads].
    void set_threads(int threads);
    [[nodiscard]] int threads() const { return threads_; }

    /// Per-session simulated-time budget of one slice (shared by every
    /// shard). Must be positive; defaults to 10 ms.
    void set_budget(rt::SimTime budget);
    [[nodiscard]] rt::SimTime budget() const { return budget_; }

    /// Pump watchdog (per-slice wall-clock deadline), shared by every
    /// shard; disabled by default so transcripts never depend on host
    /// load unless asked to. Workers tally overruns privately and the
    /// tallies are merged after join, so the global stats are only read
    /// between pumps.
    void set_watchdog(WatchdogConfig config) { watchdog_ = config; }
    [[nodiscard]] const WatchdogConfig& watchdog() const { return watchdog_; }
    [[nodiscard]] const WatchdogStats& watchdog_stats() const { return watchdog_stats_; }

    /// Advances every live session in `registry` by `duration` across
    /// min(threads(), live sessions) shards. Synchronous: returns once
    /// every session has consumed the full duration and all workers
    /// joined. The hook (when set) runs once per slice, while the sliced
    /// session is still exclusively held.
    void pump(SessionRegistry& registry, rt::SimTime duration,
              const SliceHook& after_slice = {});

    [[nodiscard]] std::uint64_t total_slices() const { return total_slices_; }
    [[nodiscard]] std::uint64_t total_steals() const { return total_steals_; }

    /// One entry per configured shard (indexed 0..threads()-1).
    [[nodiscard]] const std::vector<ShardStats>& shard_stats() const { return shards_; }

private:
    int threads_ = 1;
    rt::SimTime budget_ = 10 * rt::kMs;
    WatchdogConfig watchdog_;
    WatchdogStats watchdog_stats_;
    std::uint64_t total_slices_ = 0;
    std::uint64_t total_steals_ = 0;
    std::vector<ShardStats> shards_{1};
    /// Wall time of every slice. Registered at construction so the
    /// /metrics catalog is complete before the first pump.
    obs::Histogram* slice_ns_ = &obs::registry().histogram("hub.pump.slice_ns");
};

} // namespace gmdf::hub
