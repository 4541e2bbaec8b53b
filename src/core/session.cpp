#include "core/session.hpp"

#include "comdes/metamodel.hpp"
#include "meta/serialize.hpp"

namespace gmdf::core {

DebugSession::DebugSession(const meta::Model& design)
    : DebugSession(design, comdes_default_mapping()) {}

DebugSession::DebugSession(const meta::Model& design, const MappingTable& mapping)
    : design_(&design), mapping_(mapping), engine_(design) {
    engine_.add_observer(&trace_);
    engine_.add_observer(&divergence_log_);
}

DebugSession::View::View(const meta::Model& design, const MappingTable& mapping)
    : abstraction(abstract_model(design, mapping)), animator(design, abstraction.scene) {}

DebugSession::View& DebugSession::view() {
    if (view_ == nullptr) {
        // Catch the new animator up on everything the trace recorder saw,
        // then let it follow the live stream.
        view_ = std::make_unique<View>(*design_, mapping_);
        animate_trace(*design_, engine_.bindings(), trace_.events(), view_->animator);
        engine_.add_observer(&view_->animator);
    }
    return *view_;
}

link::Transport& DebugSession::attach(std::unique_ptr<link::Transport> transport) {
    link::Transport& t = *transport;
    transports_.push_back(std::move(transport));
    engine_.set_control(t.control());
    t.open(engine_);
    return t;
}

EngineObserver& DebugSession::add_observer(std::unique_ptr<EngineObserver> observer) {
    EngineObserver& obs = *observer;
    observers_.push_back(std::move(observer));
    engine_.add_observer(&obs);
    return obs;
}

std::uint64_t DebugSession::corrupt_frames() const {
    std::uint64_t total = 0;
    for (const auto& t : transports_) total += t->stats().corrupt_frames;
    return total;
}

std::string DebugSession::gdm_text() { return meta::write_model(gdm()); }

render::TimingDiagram DebugSession::timing_diagram() const {
    return trace_.timing_diagram(*design_);
}

std::string DebugSession::vcd() const { return trace_.to_vcd(*design_); }

std::vector<std::string> DebugSession::replay_frames(std::size_t stride) {
    if (stride == 0) stride = 1;
    // Fresh scene + animator; the re-animation loop itself is the shared
    // animate_trace (also behind the view's first build, rewind's scene
    // rebuild and the C3 replay bench). A session without a view keeps
    // the animator's default half-life: nothing can have changed it.
    AbstractionResult fresh = abstract_model(*design_, mapping_);
    SceneAnimator replay_animator(*design_, fresh.scene);
    if (view_built())
        replay_animator.set_highlight_half_life(view_->animator.highlight_half_life());
    std::vector<std::string> frames;
    animate_trace(*design_, engine_.bindings(), trace_.events(), replay_animator,
                  [&](std::size_t i) {
                      if (i % stride == 0)
                          frames.push_back(render::render_ascii(fresh.scene));
                  });
    return frames;
}

void DebugSession::reset_scene() {
    AbstractionResult fresh = abstract_model(*design_, mapping_);
    scene() = std::move(fresh.scene);
}

} // namespace gmdf::core
