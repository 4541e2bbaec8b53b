// Snapshot: one restorable image of a deterministic debug session.
//
// Captures the full deterministic state of a simulated target and the
// engine observing it — DES clock/queue (periodic events by stable id,
// one-shot work as typed pending ops), node RAM and signal replicas,
// task scheduler state and statistics, function-block internal state,
// the engine's model-level mirrors and breakpoints, and the transport
// counters — as one version-tagged compact binary buffer.
//
// Restore is in-place onto the same live target/session pair: the
// closures still alive in the simulator are re-timed, everything else is
// data. That is what lets replay::Timeline rewind a session and
// re-execute forward byte-identically.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "rt/des.hpp"

namespace gmdf::core {
class DebugSession;
} // namespace gmdf::core

namespace gmdf::rt {
class Target;
} // namespace gmdf::rt

namespace gmdf::replay {

/// Thrown when a snapshot cannot be taken (unrestorable one-shot events
/// in flight) or restored (version mismatch, layout mismatch,
/// truncation).
class SnapshotError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

struct Snapshot {
    static constexpr std::uint32_t kMagic = 0x53444D47; ///< "GMDS" (LE)
    static constexpr std::uint16_t kVersion = 2;

    rt::SimTime time = 0;                ///< sim time at capture
    std::vector<std::uint8_t> bytes;     ///< versioned binary image

    [[nodiscard]] std::size_t size_bytes() const { return bytes.size(); }
};

/// Captures target + engine + transport-counter state. Throws
/// SnapshotError when the platform holds state a snapshot cannot carry.
[[nodiscard]] Snapshot capture_snapshot(rt::Target& target,
                                        core::DebugSession& session);

/// In-place restore of a snapshot taken from this same target/session
/// pair. No observer callbacks fire. Throws SnapshotError on a snapshot
/// that does not match this session's layout or version.
void restore_snapshot(const Snapshot& snap, rt::Target& target,
                      core::DebugSession& session);

} // namespace gmdf::replay
