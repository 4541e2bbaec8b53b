// SessionBuilder: declarative construction of a DebugSession.
//
// The paper's workflow (Fig. 6) as a fluent pipeline —
// model -> mapping -> bindings -> transports -> observers:
//
//   auto session = core::SessionBuilder(sys.model())
//                      .bindings(core::CommandBindingTable::defaults())
//                      .active_uart(target)
//                      .breakpoint({core::Breakpoint::Kind::StateEnter, state})
//                      .build();
//
// build() may be called once; the builder is then spent.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codegen/loader.hpp"
#include "core/session.hpp"
#include "rt/target.hpp"

namespace gmdf::core {

class SessionBuilder {
public:
    /// The design model must outlive the built session.
    explicit SessionBuilder(const meta::Model& design) : design_(&design) {}

    /// Abstraction mapping (defaults to the COMDES mapping).
    SessionBuilder& mapping(MappingTable m);

    /// Command -> reaction bindings (defaults provided).
    SessionBuilder& bindings(CommandBindingTable b);

    /// Decaying highlight half-life of the default scene animator. The
    /// animator is part of the session's view, so build() builds it.
    SessionBuilder& highlight_half_life(rt::SimTime ns);

    /// Bounds the trace recorder to a ring of `capacity` events (0:
    /// unbounded, the default). A bounded trace cannot re-animate what
    /// it evicts, so a non-zero capacity makes build() build the view.
    SessionBuilder& trace_capacity(std::size_t capacity);

    /// Restricts model-level stepping to one actor.
    SessionBuilder& step_actor(std::string actor_name);

    /// Adds a model-level breakpoint.
    SessionBuilder& breakpoint(Breakpoint bp);

    /// Attaches a transport (any link::Transport implementation).
    SessionBuilder& transport(std::unique_ptr<link::Transport> t);

    /// Convenience: active RS-232 command interface on `target`.
    SessionBuilder& active_uart(rt::Target& target);

    /// Convenience: passive JTAG watch over `loaded` on `target`.
    SessionBuilder& passive_jtag(rt::Target& target, const codegen::LoadedSystem& loaded,
                                 rt::SimTime poll_period, double tck_hz = 1e6);

    /// Registers an extra engine observer (session-owned).
    SessionBuilder& observer(std::unique_ptr<EngineObserver> o);

    /// Builds the session: bindings and settings apply, observers
    /// register, then transports attach (in the order they were added).
    /// The abstraction runs later, when the view is first used.
    [[nodiscard]] std::unique_ptr<DebugSession> build();

private:
    const meta::Model* design_;
    std::optional<MappingTable> mapping_;
    std::optional<CommandBindingTable> bindings_;
    std::optional<rt::SimTime> half_life_;
    std::optional<std::size_t> trace_capacity_;
    std::optional<std::string> step_actor_;
    std::vector<Breakpoint> breakpoints_;
    std::vector<std::unique_ptr<link::Transport>> transports_;
    std::vector<std::unique_ptr<EngineObserver>> observers_;
    bool built_ = false;
};

} // namespace gmdf::core
