// Scripted-fleet fixture shared by the hub and shard tests: a hand-built
// scenario whose only transport is a link::ScriptedTransport.
#pragma once

#include <memory>
#include <string>

#include "comdes/build.hpp"
#include "core/session.hpp"
#include "link/transport.hpp"
#include "proto/scenarios.hpp"

namespace gmdf::test {

struct Scripted {
    std::unique_ptr<proto::Scenario> scenario;
    core::DebugSession* session = nullptr;
    link::ScriptedTransport* transport = nullptr;
};

/// `count` signal updates spaced `spacing` apart, starting at `spacing`.
/// The target is only a clock source for the scheduler; no generated
/// code runs.
inline Scripted scripted_scenario(const std::string& name, int count,
                                  rt::SimTime spacing) {
    Scripted out;
    out.scenario = std::make_unique<proto::Scenario>(name);
    auto& sys = out.scenario->sys;
    auto sig = sys.add_signal("x", "real_");
    auto actor = sys.add_actor("act", 10'000);
    auto sm = actor.add_sm("machine", {"go"}, {"out"});
    sm.add_state("idle", {{"out", "0"}});
    auto transport = std::make_unique<link::ScriptedTransport>();
    for (int i = 1; i <= count; ++i)
        transport->push({link::Cmd::SignalUpdate, static_cast<std::uint32_t>(sig.raw), 0,
                         static_cast<float>(i)},
                        i * spacing);
    out.transport = transport.get();
    out.scenario->session = std::make_unique<core::DebugSession>(sys.model());
    out.session = out.scenario->session.get();
    out.session->attach(std::move(transport));
    return out;
}

} // namespace gmdf::test
