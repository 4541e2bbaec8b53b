#include "hub/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/trace.hpp"

namespace gmdf::hub {

void parallel_for(int n, int threads, const std::function<void(int)>& fn) {
    const int workers = std::min({threads, n, kMaxThreads});
    std::atomic<int> next{0};
    auto drain = [&] {
        for (;;) {
            const int i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            fn(i);
        }
    };
    std::vector<std::thread> pool;
    for (int w = 1; w < workers; ++w) pool.emplace_back(drain);
    drain();
    for (std::thread& t : pool) t.join();
}

namespace {

/// Advances one session by `slice` (proto::Scenario::advance) under
/// crash isolation: an exception transitions the session to Faulted
/// (quarantining it from scheduling) instead of unwinding the pump, and
/// a watchdog deadline overrun counts a strike — max_strikes consecutive
/// ones quarantine the session as runaway. Returns false when the
/// session faulted (the caller drops it from the round). The entry is
/// exclusively held by the caller, so its health fields need no
/// locking; `stats` is the caller's accumulator.
///
/// Touches only that session's state, so distinct sessions may be
/// sliced concurrently. Every slice is one obs::Span: its wall time,
/// cadence captures included, goes into `slice_ns` and the watchdog,
/// and, when the tracer is running, a "pump-slice" span on the stable
/// per-shard track `trace_tid`.
bool pump_session_slice_guarded(SessionRegistry::Entry& entry, rt::SimTime slice,
                                const WatchdogConfig& watchdog, WatchdogStats& stats,
                                obs::Histogram& slice_ns, int trace_tid) {
    std::uint64_t elapsed_ns = 0;
    {
        // A slice that throws is still sampled: the span ends on return.
        obs::Span span("hub", "pump-slice", {}, trace_tid, &slice_ns,
                       watchdog.enabled() ? &elapsed_ns : nullptr);
        span.arg("session", entry.name);
        try {
            entry.scenario->advance(slice);
        } catch (const std::exception& e) {
            entry.mark_faulted(e.what());
            return false;
        } catch (...) {
            entry.mark_faulted("unknown exception during pump slice");
            return false;
        }
    }
    if (watchdog.enabled()) {
        const auto elapsed_us = static_cast<std::int64_t>(elapsed_ns / 1000);
        if (elapsed_us > watchdog.slice_limit_us) {
            ++stats.overruns;
            if (++entry.overrun_strikes >= watchdog.max_strikes) {
                ++stats.runaways;
                entry.runaway = true;
                entry.mark_faulted(
                    "watchdog: " + std::to_string(entry.overrun_strikes) +
                    " consecutive slices over the " +
                    std::to_string(watchdog.slice_limit_us) + " us deadline (last " +
                    std::to_string(elapsed_us) + " us)");
                return false;
            }
        } else {
            entry.overrun_strikes = 0; // strikes are consecutive, not lifetime
        }
    }
    return true;
}

/// One session's work for this pump. Exclusively owned by whichever
/// worker popped it (handoff happens under a shard mutex, which orders
/// the session state), so its fields need no atomics.
struct Item {
    SessionRegistry::Entry* entry = nullptr;
    rt::SimTime remaining = 0;
};

struct ShardQueue {
    std::mutex mu;
    std::deque<Item*> items;
};

/// Per-worker accumulators, merged into the scheduler's lifetime
/// counters after the join (no shared writes during the pump).
struct WorkerTally {
    std::uint64_t slices = 0;
    rt::SimTime advanced = 0;
    std::uint64_t steals = 0;
    std::uint64_t faulted = 0;
    WatchdogStats watchdog;
};

} // namespace

void ShardedScheduler::set_threads(int threads) {
    threads_ = std::clamp(threads, 1, kMaxThreads);
    shards_.resize(static_cast<std::size_t>(threads_));
}

void ShardedScheduler::set_budget(rt::SimTime budget) {
    if (budget <= 0) throw std::invalid_argument("scheduler budget must be positive");
    budget_ = budget;
}

void ShardedScheduler::pump(SessionRegistry& registry, rt::SimTime duration,
                            const SliceHook& after_slice) {
    if (duration <= 0) return;
    // Faulted sessions are quarantined from the rotation. Deal the live
    // fleet round-robin across min(threads, live) shards, in registry
    // order; with nothing live, no shard is dealt anything.
    std::vector<Item> items;
    items.reserve(registry.size());
    for (const auto& e : registry.entries())
        if (!e->faulted()) items.push_back({e.get(), duration});
    for (ShardStats& shard : shards_) shard.sessions = 0;
    if (items.empty()) return;
    const int workers = std::min(threads_, static_cast<int>(items.size()));
    std::vector<ShardQueue> queues(static_cast<std::size_t>(workers));
    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::size_t w = i % static_cast<std::size_t>(workers);
        queues[w].items.push_back(&items[i]);
        ++shards_[w].sessions;
    }

    // An item is (a) queued on exactly one shard, (b) exclusively held
    // by one worker, or (c) finished. in_flight counts (b); it is
    // incremented under the shard mutex that popped the item and
    // decremented only after any re-queue, so "every queue empty and
    // in_flight == 0" really means all work is done. A worker that sees
    // queues empty but items in flight yields and retries: the holder
    // either finishes them or re-queues them onto its own shard (which
    // it always drains before exiting), so no work is ever stranded.
    std::atomic<int> in_flight{0};
    const bool has_hook = static_cast<bool>(after_slice);
    std::vector<WorkerTally> tallies(static_cast<std::size_t>(workers));

    // Worker threads are respawned every pump, so spans use a stable
    // per-shard presentation tid instead of a per-thread one — Perfetto
    // shows one "shard-N" track per shard across the whole capture.
    if (obs::tracer().enabled())
        for (int w = 0; w < workers; ++w)
            obs::tracer().set_thread_name(obs::Tracer::kShardTidBase + w,
                                          "shard-" + std::to_string(w));

    auto work = [&](int w) {
        WorkerTally& tally = tallies[static_cast<std::size_t>(w)];
        ShardQueue& own = queues[static_cast<std::size_t>(w)];
        for (;;) {
            Item* item = nullptr;
            {
                std::lock_guard<std::mutex> lock(own.mu);
                if (!own.items.empty()) {
                    item = own.items.front();
                    own.items.pop_front();
                    in_flight.fetch_add(1, std::memory_order_acq_rel);
                }
            }
            if (item == nullptr) {
                // Steal from the back of the first non-empty shard —
                // the session least recently serviced there, so the
                // victim's own rotation is disturbed the least.
                for (int off = 1; off < workers && item == nullptr; ++off) {
                    ShardQueue& other =
                        queues[static_cast<std::size_t>((w + off) % workers)];
                    std::lock_guard<std::mutex> lock(other.mu);
                    if (!other.items.empty()) {
                        item = other.items.back();
                        other.items.pop_back();
                        in_flight.fetch_add(1, std::memory_order_acq_rel);
                        ++tally.steals;
                    }
                }
            }
            if (item == nullptr) {
                if (in_flight.load(std::memory_order_acquire) == 0) return;
                std::this_thread::yield();
                continue;
            }

            const rt::SimTime slice = std::min(budget_, item->remaining);
            const bool alive = pump_session_slice_guarded(
                *item->entry, slice, watchdog_, tally.watchdog, *slice_ns_,
                obs::Tracer::kShardTidBase + w);
            item->remaining -= slice;
            ++tally.slices;
            tally.advanced += slice;
            // The hook runs while the session is still exclusively ours:
            // re-queueing first would let another worker pump the next
            // slice concurrently with the hook's per-session work.
            if (has_hook) after_slice(*item->entry);
            if (!alive) {
                // Quarantined: never re-queued, so no other worker can
                // touch the faulted session for the rest of this pump.
                item->remaining = 0;
                ++tally.faulted;
            }
            if (item->remaining > 0) {
                std::lock_guard<std::mutex> lock(own.mu);
                own.items.push_back(item);
            }
            in_flight.fetch_sub(1, std::memory_order_acq_rel);
        }
    };
    parallel_for(workers, workers, work);

    // All workers joined: merge the per-worker counters into the
    // lifetime stats single-threaded.
    for (int w = 0; w < workers; ++w) {
        ShardStats& shard = shards_[static_cast<std::size_t>(w)];
        const WorkerTally& tally = tallies[static_cast<std::size_t>(w)];
        shard.slices += tally.slices;
        shard.advanced += tally.advanced;
        shard.steals += tally.steals;
        shard.overruns += tally.watchdog.overruns;
        shard.faulted += tally.faulted;
        total_slices_ += tally.slices;
        total_steals_ += tally.steals;
        watchdog_stats_.overruns += tally.watchdog.overruns;
        watchdog_stats_.runaways += tally.watchdog.runaways;
    }
}

} // namespace gmdf::hub
