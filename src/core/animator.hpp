// Scene animation as an engine observer.
//
// Applies the bound reactions (highlight / pulse / label update) to one
// render::Scene, with time-based highlight decay between events. The
// engine no longer touches scenes; register one SceneAnimator per scene
// you want animated — several animators on one engine animate several
// scenes from the same event stream (multi-client fan-out).
//
// animate_trace drives a recorded command stream into an animator: the
// one loop behind the session view's late build, the `replay` verb, the
// scene rebuild after a rewind and the C3 replay bench.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>

#include "core/bindings.hpp"
#include "core/observer.hpp"
#include "core/trace.hpp"
#include "meta/model.hpp"
#include "render/scene.hpp"
#include "rt/des.hpp"

namespace gmdf::core {

class SceneAnimator final : public EngineObserver {
public:
    /// Both `design` and `scene` must outlive the animator.
    SceneAnimator(const meta::Model& design, render::Scene& scene);

    /// Decaying highlight half-life in simulated ns (animation feel).
    void set_highlight_half_life(rt::SimTime ns) { half_life_ = ns; }
    [[nodiscard]] rt::SimTime highlight_half_life() const { return half_life_; }

    /// Scene mutations applied so far (a proxy for rendered frames).
    [[nodiscard]] std::uint64_t frames() const { return frames_; }

    /// Forgets the highlight-decay clock. A scene rebuild after a rewind
    /// re-animates the trace from its beginning, so the next event must
    /// not decay against the abandoned future's timestamp.
    void reset_clock() { last_event_t_ = 0; }

    [[nodiscard]] render::Scene& scene() { return *scene_; }
    [[nodiscard]] const render::Scene& scene() const { return *scene_; }

    void on_command(const link::Command& cmd, rt::SimTime t) override;
    void on_reaction(const link::Command& cmd, const ReactionSpec& spec,
                     rt::SimTime t) override;

private:
    void highlight_exclusive(std::uint64_t owner);

    const meta::Model* design_;
    render::Scene* scene_;
    rt::SimTime half_life_ = 100 * rt::kMs;
    rt::SimTime last_event_t_ = 0;
    std::uint64_t frames_ = 0;
};

/// Re-animates `events` in order through a temporary engine configured
/// with `bindings`, with `animator` as the only observer; `on_event` (if
/// set) runs after each event — index is the 1-based count so callers
/// can stride frames. The animator's decay clock is reset first, so the
/// first event does not decay against a stale timestamp.
void animate_trace(const meta::Model& design, const CommandBindingTable& bindings,
                   const std::deque<TraceEvent>& events, SceneAnimator& animator,
                   const std::function<void(std::size_t)>& on_event = {});

} // namespace gmdf::core
