// Execution trace recording and replay (paper: model-level animation may
// occur in milliseconds, so GDM records the execution trace; the user can
// replay it against a timing diagram).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/observer.hpp"
#include "link/commands.hpp"
#include "meta/model.hpp"
#include "render/timing.hpp"
#include "render/vcd.hpp"
#include "rt/des.hpp"

namespace gmdf::core {

struct TraceEvent {
    rt::SimTime t = 0;
    link::Command cmd;
};

/// Timestamped record of every command the debugger observed. Registers
/// on the engine as an observer (on_command) or is fed directly.
class TraceRecorder final : public EngineObserver {
public:
    void on_command(const link::Command& cmd, rt::SimTime t) override { record(cmd, t); }

    void record(const link::Command& cmd, rt::SimTime t) { events_.push_back({t, cmd}); }

    /// Drops events after simulated time `t` (rewind discards the
    /// abandoned future).
    void truncate_after(rt::SimTime t) {
        while (!events_.empty() && events_.back().t > t) events_.pop_back();
    }

    [[nodiscard]] const std::deque<TraceEvent>& events() const { return events_; }
    [[nodiscard]] std::size_t size() const { return events_.size(); }

    /// Events of one kind, in order.
    [[nodiscard]] std::vector<TraceEvent> filter(link::Cmd kind) const;

    /// Builds the timing diagram: one lane per state machine (value =
    /// state name) and one per signal (value = formatted number); element
    /// names resolved against the design model.
    [[nodiscard]] render::TimingDiagram timing_diagram(const meta::Model& design) const;

    /// Exports the trace as VCD (SM state indices + signal reals).
    [[nodiscard]] std::string to_vcd(const meta::Model& design) const;

private:
    std::deque<TraceEvent> events_;
};

} // namespace gmdf::core
