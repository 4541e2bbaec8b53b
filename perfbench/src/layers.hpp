// Per-layer replays for the traced run. Each one calls a layer's public
// functions on the same inputs a workload uses, inside spans recorded in
// obs::tracer(), and returns the counts the spans are divided by.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "proto/scenarios.hpp"
#include "rt/des.hpp"

namespace perfbench {

/// rt::Target::run_for with a counting no-op debug sink, then the link
/// codec and DebuggerEngine::deliver over the commands that run emitted.
/// Spans: rt.run_for, link.encode, link.decode, core.ingest. Counts add
/// into r.layer (rt.sim_ms, rt.uart_bytes, link.cmds).
void pump_path_layers(const std::string& workload,
                      const std::function<std::unique_ptr<proto::Scenario>()>& make,
                      rt::SimTime run_for, std::uint64_t op, RunResult& r);

} // namespace perfbench
