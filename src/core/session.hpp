// DebugSession: the GMDF public facade.
//
// Mirrors the prototype workflow of paper Fig. 6:
//   1. provide the input model (+ the COMDES metamodel is implicit),
//   2. set up the abstraction mapping (defaults provided),
//   3. configure command->reaction bindings (engine().set_bindings();
//      defaults provided),
//   4. the GDM is generated automatically,
//   5. attach the running target through a link::Transport — actively
//      (RS-232 command interface) or passively (JTAG watchpoints), or any
//      custom probe — and the engine fans events out to its observers:
//      the trace recorder, the divergence log, the scene animator, and
//      whatever else is registered.
//
//   core::DebugSession session(sys.model());
//   session.add_observer(std::make_unique<MyObserver>()); // before attach
//   session.attach(core::make_active_uart_transport(target));
//
// Settings go in before attach() so nothing a transport emits at open()
// is missed. Execution control in C++ is the engine:
// engine().pause()/resume()/step()/set_step_filter(). The text protocol
// (proto::SessionController) sits on top of the session and drives the
// same engine calls.
//
// The view — the GDM, its scene and the scene animator — is built the
// first time something asks for it (scene(), gdm(), abstraction(),
// animator(), the renders, gdm_text()). A headless session (a campaign
// twin, a fleet session nobody renders) never builds it. The late build
// is exact: it re-animates the recorded trace through animate_trace, the
// trace recorder keeps every command, and the recorder and the animator
// are both plain observers, so they see the same commands in the same
// order. Two consequences:
//   - a late view re-animates with the engine's bindings as they are at
//     that moment. In the library and tools nothing changes bindings
//     after the first event. The F6 workflow bench changes them after
//     abstraction() has built the view; other code that changes
//     bindings mid-session must build the view first the same way;
//   - the first access must not come from inside an engine observer
//     callback, because building registers the animator on the engine.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/abstraction.hpp"
#include "core/animator.hpp"
#include "core/engine.hpp"
#include "core/observer.hpp"
#include "core/trace.hpp"
#include "link/transport.hpp"
#include "render/ascii.hpp"
#include "render/svg.hpp"

namespace gmdf::core {

class DebugSession {
public:
    /// A session over `design` with the default COMDES mapping (the GDM
    /// is generated on first use). The design model must outlive the
    /// session.
    explicit DebugSession(const meta::Model& design);

    /// Same, with a user mapping (the Fig. 4 abstraction guide result).
    DebugSession(const meta::Model& design, const MappingTable& mapping);

    DebugSession(const DebugSession&) = delete;
    DebugSession& operator=(const DebugSession&) = delete;

    /// Attaches a debug transport: the engine becomes its command sink
    /// and its control path drives pause/resume/step (with several
    /// transports the last attached one controls). Call before
    /// Target::start() so no events are missed. Returns the attached
    /// transport (owned by the session).
    link::Transport& attach(std::unique_ptr<link::Transport> transport);

    /// Registers an additional engine observer, owned by the session
    /// (e.g. a second SceneAnimator to animate another scene). Returns a
    /// reference to the registered observer.
    EngineObserver& add_observer(std::unique_ptr<EngineObserver> observer);

    /// Transports attached so far (session-owned).
    [[nodiscard]] const std::vector<std::unique_ptr<link::Transport>>& transports() const {
        return transports_;
    }

    [[nodiscard]] DebuggerEngine& engine() { return engine_; }
    [[nodiscard]] const DebuggerEngine& engine() const { return engine_; }
    [[nodiscard]] const meta::Model& design() const { return *design_; }

    /// The view: each accessor builds it on first use.
    [[nodiscard]] render::Scene& scene() { return view().abstraction.scene; }
    [[nodiscard]] const meta::Model& gdm() { return view().abstraction.gdm; }
    [[nodiscard]] const AbstractionResult& abstraction() { return view().abstraction; }

    /// Whether the view has been built (a headless session never does).
    [[nodiscard]] bool view_built() const { return view_ != nullptr; }

    /// The default scene animator (observer driving scene()).
    [[nodiscard]] SceneAnimator& animator() { return view().animator; }

    /// The recorded command trace (observer; feeds replay/VCD/timing).
    [[nodiscard]] const TraceRecorder& trace() const { return trace_; }

    /// Mutable trace access for the time-travel layer (rewind truncates
    /// the abandoned future).
    [[nodiscard]] TraceRecorder& trace_recorder() { return trace_; }

    /// Mutable divergence-log access for the time-travel layer.
    [[nodiscard]] DivergenceLog& divergence_log() { return divergence_log_; }

    /// Re-derives the scene from the design model (identical geometry,
    /// all animation state cleared). The scene object's address is
    /// stable, so registered animators stay valid. Used by rewind before
    /// re-animating the surviving trace.
    void reset_scene();

    /// Divergences between observed behaviour and the design model.
    [[nodiscard]] const std::deque<Divergence>& divergences() const {
        return divergence_log_.divergences();
    }

    /// Serialized GDM text (the "initial GDM file").
    [[nodiscard]] std::string gdm_text();

    /// Current animation frame.
    [[nodiscard]] std::string render_ascii() { return render::render_ascii(scene()); }
    [[nodiscard]] std::string render_svg() { return render::render_svg(scene()); }

    /// Trace products.
    [[nodiscard]] render::TimingDiagram timing_diagram() const;
    [[nodiscard]] std::string vcd() const;

    /// Deterministic replay: re-animates the recorded trace on a fresh
    /// scene and returns one ASCII frame per `stride` events. Does not
    /// build the view.
    [[nodiscard]] std::vector<std::string> replay_frames(std::size_t stride = 1);

    /// Corrupt frames across all attached transports (active mode).
    [[nodiscard]] std::uint64_t corrupt_frames() const;

private:
    /// The GDM, its scene, and the animator driving that scene. Heap-held
    /// so the animator's pointer to the scene stays valid.
    struct View {
        View(const meta::Model& design, const MappingTable& mapping);
        AbstractionResult abstraction;
        SceneAnimator animator;
    };

    /// The view, built on first use.
    View& view();

    const meta::Model* design_;
    MappingTable mapping_; ///< kept so the view and reset_scene() derive identically
    DebuggerEngine engine_;
    TraceRecorder trace_;
    DivergenceLog divergence_log_;
    std::unique_ptr<View> view_;
    std::vector<std::unique_ptr<EngineObserver>> observers_;
    std::vector<std::unique_ptr<link::Transport>> transports_;
};

} // namespace gmdf::core
