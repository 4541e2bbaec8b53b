// CheckpointStore: a byte-budgeted ring of session snapshots.
//
// The timeline takes automatic snapshots on a sim-time cadence; this
// store bounds their memory. When the budget is exceeded the oldest
// checkpoints are evicted (shrinking how far back rewind can reach —
// the reachable window is reported in rewind's out-of-range error), but
// the newest checkpoint always survives so rewind never loses its
// anchor entirely.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "replay/snapshot.hpp"

namespace gmdf::replay {

/// One stored checkpoint: the snapshot plus the journal position at
/// capture (where catch-up re-execution resumes reading control ops).
struct Checkpoint {
    Snapshot snap;
    std::size_t journal_index = 0;
};

class CheckpointStore {
public:
    struct Stats {
        std::size_t count = 0;        ///< checkpoints currently held
        std::size_t bytes = 0;        ///< total snapshot bytes held
        std::size_t byte_limit = 0;   ///< configured budget
        std::uint64_t captures = 0;   ///< checkpoints ever added
        std::uint64_t evictions = 0;  ///< oldest-out evictions so far
    };

    /// Byte budget; the oldest checkpoints are evicted past it, keeping
    /// at least one. Defaults to 64 MiB.
    void set_byte_limit(std::size_t limit) {
        byte_limit_ = limit;
        enforce();
    }

    /// Appends a checkpoint (times must be non-decreasing) and evicts
    /// the oldest entries past the byte budget.
    void add(Checkpoint cp);

    /// The latest checkpoint with time <= t; null when none qualifies.
    [[nodiscard]] const Checkpoint* nearest_at_or_before(rt::SimTime t) const;

    /// Drops checkpoints after time `t` (rewind discards the future they
    /// describe).
    void drop_after(rt::SimTime t);

    /// Drops checkpoints whose catch-up anchor predates `journal_index`
    /// (the timeline's journal ring evicted the entries they replay
    /// from, so restoring them could no longer catch up faithfully).
    void drop_before_journal_index(std::size_t journal_index) {
        while (!ring_.empty() && ring_.front().journal_index < journal_index) {
            total_bytes_ -= ring_.front().snap.size_bytes();
            ring_.pop_front();
            ++evictions_;
        }
    }

    [[nodiscard]] std::optional<rt::SimTime> earliest_time() const {
        if (ring_.empty()) return std::nullopt;
        return ring_.front().snap.time;
    }
    [[nodiscard]] std::optional<rt::SimTime> latest_time() const {
        if (ring_.empty()) return std::nullopt;
        return ring_.back().snap.time;
    }

    [[nodiscard]] const std::deque<Checkpoint>& entries() const { return ring_; }
    [[nodiscard]] Stats stats() const {
        return {ring_.size(), total_bytes_, byte_limit_, captures_, evictions_};
    }

private:
    void enforce();

    std::deque<Checkpoint> ring_;
    std::size_t byte_limit_ = 64u << 20;
    std::size_t total_bytes_ = 0;
    std::uint64_t captures_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace gmdf::replay
