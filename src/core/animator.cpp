#include "core/animator.hpp"

#include <cmath>
#include <cstdio>

#include "core/engine.hpp"

namespace gmdf::core {

using meta::MObject;
using meta::ObjectId;

SceneAnimator::SceneAnimator(const meta::Model& design, render::Scene& scene)
    : design_(&design), scene_(&scene) {}

void SceneAnimator::on_command(const link::Command& cmd, rt::SimTime t) {
    (void)cmd;
    // Time-based highlight decay (the animation "cools off" between events).
    if (half_life_ > 0 && last_event_t_ > 0 && t > last_event_t_) {
        double halves = static_cast<double>(t - last_event_t_) /
                        static_cast<double>(half_life_);
        scene_->decay_highlights(std::pow(0.5, halves));
    }
    last_event_t_ = t;
}

void SceneAnimator::on_reaction(const link::Command& cmd, const ReactionSpec& spec,
                                rt::SimTime t) {
    (void)t;
    switch (spec.type) {
    case ReactionType::None: return;
    case ReactionType::Highlight: {
        std::uint64_t element = cmd.kind == link::Cmd::StateEnter ||
                                        cmd.kind == link::Cmd::ModeChange
                                    ? cmd.b
                                    : cmd.a;
        if (spec.exclusive) highlight_exclusive(cmd.a);
        render::SceneNode* node = scene_->find_node(element);
        if (node != nullptr) {
            node->style.highlighted = true;
            node->style.intensity = 1.0;
            ++frames_;
        }
        break;
    }
    case ReactionType::Pulse: {
        render::SceneEdge* edge = scene_->find_edge(cmd.b != 0 ? cmd.b : cmd.a);
        if (edge != nullptr) {
            edge->style.highlighted = true;
            edge->style.intensity = 1.0;
            ++frames_;
        }
        break;
    }
    case ReactionType::LabelUpdate: {
        render::SceneNode* node = scene_->find_node(cmd.a);
        if (node != nullptr) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.4g", static_cast<double>(cmd.value));
            node->sublabel = buf;
            ++frames_;
        }
        break;
    }
    }
}

void SceneAnimator::highlight_exclusive(std::uint64_t owner) {
    // Un-highlight sibling states: every node whose design-model container
    // is `owner` (the machine/modal FB named in the command).
    const MObject* owner_obj = design_->get(ObjectId{owner});
    if (owner_obj == nullptr) return;
    for (const meta::MetaReference* r : owner_obj->meta_class().all_references()) {
        if (!r->containment) continue;
        for (ObjectId child : owner_obj->refs(r->name)) {
            render::SceneNode* node = scene_->find_node(child.raw);
            if (node != nullptr) {
                node->style.highlighted = false;
                node->style.intensity = 0.0;
            }
        }
    }
}

void animate_trace(const meta::Model& design, const CommandBindingTable& bindings,
                   const std::deque<TraceEvent>& events, SceneAnimator& animator,
                   const std::function<void(std::size_t)>& on_event) {
    DebuggerEngine engine(design);
    engine.set_bindings(bindings);
    engine.add_observer(&animator);
    animator.reset_clock();
    std::size_t i = 0;
    for (const TraceEvent& ev : events) {
        engine.ingest(ev.cmd, ev.t);
        ++i;
        if (on_event) on_event(i);
    }
}

} // namespace gmdf::core
