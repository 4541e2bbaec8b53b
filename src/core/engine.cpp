#include "core/engine.hpp"

#include <algorithm>

#include "comdes/metamodel.hpp"
#include "expr/compile.hpp"
#include "expr/parser.hpp"

namespace gmdf::core {

using meta::MObject;
using meta::ObjectId;

template <class F> void DebuggerEngine::notify(F&& deliver) {
    for (EngineObserver* obs : observers_)
        if (!replay_mode_ || obs->replay_aware()) deliver(*obs);
}

const char* to_string(EngineState s) {
    switch (s) {
    case EngineState::Waiting: return "waiting";
    case EngineState::Animating: return "animating";
    case EngineState::Paused: return "paused";
    }
    return "?";
}

const char* to_string(Breakpoint::Kind kind) {
    switch (kind) {
    case Breakpoint::Kind::StateEnter: return "state-enter";
    case Breakpoint::Kind::TransitionFired: return "transition";
    case Breakpoint::Kind::SignalPredicate: return "signal-predicate";
    }
    return "?";
}

DebuggerEngine::DebuggerEngine(const meta::Model& design) : design_(&design) {
    // Pre-index signals into dense predicate slots: compiled predicates
    // address them by integer index, so each SIGNAL_UPDATE costs one id
    // lookup and each predicate evaluation costs none.
    const auto& c = comdes::comdes_metamodel();
    if (&design.metamodel() == &c.mm) {
        for (const MObject* sig : design.all_of(*c.signal)) {
            int slot = static_cast<int>(signal_slots_.size());
            slot_of_signal_[sig->id().raw] = slot;
            signal_slot_by_name_[sig->name()] = slot;
            signal_slots_.push_back(0.0);
        }
        slot_updated_.assign(signal_slots_.size(), false);
    }
}

void DebuggerEngine::add_observer(EngineObserver* observer) {
    if (observer == nullptr) return;
    if (std::find(observers_.begin(), observers_.end(), observer) != observers_.end())
        return;
    observers_.push_back(observer);
}

bool DebuggerEngine::remove_observer(EngineObserver* observer) {
    auto it = std::find(observers_.begin(), observers_.end(), observer);
    if (it == observers_.end()) return false;
    observers_.erase(it);
    return true;
}

void DebuggerEngine::set_state(EngineState next) {
    if (next == state_) return;
    EngineState from = state_;
    state_ = next;
    notify([&](EngineObserver& obs) { obs.on_state_change(from, next); });
}

void DebuggerEngine::ingest(const link::Command& cmd, rt::SimTime t) {
    ++stats_.commands;
    notify([&](EngineObserver& obs) { obs.on_command(cmd, t); });
    if (state_ == EngineState::Waiting) set_state(EngineState::Animating);

    // Track model-level state before reactions so breakpoints and
    // consistency checks see the up-to-date picture.
    if (cmd.kind == link::Cmd::SignalUpdate) {
        double v = static_cast<double>(cmd.value);
        if (auto it = slot_of_signal_.find(cmd.a); it != slot_of_signal_.end()) {
            auto slot = static_cast<std::size_t>(it->second);
            signal_slots_[slot] = v;
            slot_updated_[slot] = true;
        } else {
            // Ids outside the design model's signal set (generic models)
            // fall back to the sparse map.
            signal_values_[cmd.a] = v;
        }
    }

    check_consistency(cmd, t);

    ReactionSpec spec = bindings_.lookup(cmd.kind);
    if (spec.type != ReactionType::None) {
        ++stats_.reactions;
        notify([&](EngineObserver& obs) { obs.on_reaction(cmd, spec, t); });
    }

    if (cmd.kind == link::Cmd::StateEnter || cmd.kind == link::Cmd::ModeChange)
        current_state_[cmd.a] = cmd.b;

    if (pause_on_next_command_) {
        pause_on_next_command_ = false;
        set_state(EngineState::Paused);
        if (control_.pause) control_.pause();
    } else {
        check_breakpoints(cmd, t);
    }
}

void DebuggerEngine::diverge(const link::Command& cmd, rt::SimTime t,
                             std::string message) {
    ++stats_.divergences;
    Divergence d{t, cmd, std::move(message)};
    notify([&](EngineObserver& obs) { obs.on_divergence(d); });
}

void DebuggerEngine::check_consistency(const link::Command& cmd, rt::SimTime t) {
    const auto& c = comdes::comdes_metamodel();
    if (&design_->metamodel() != &c.mm) return; // generic models: no domain checks

    if (cmd.kind == link::Cmd::Transition) {
        const MObject* tr = design_->get(ObjectId{cmd.b});
        if (tr == nullptr || !tr->meta_class().is_subtype_of(*c.transition)) {
            diverge(cmd, t,
                    "TRANSITION names element #" + std::to_string(cmd.b) +
                        " which is not a transition in the design model");
            return;
        }
        auto cur = current_state_.find(cmd.a);
        if (cur != current_state_.end() && tr->ref("from").raw != cur->second)
            diverge(cmd, t,
                    "transition '" + std::to_string(cmd.b) + "' fired from state #" +
                        std::to_string(cur->second) +
                        " but the design model sources it at #" +
                        std::to_string(tr->ref("from").raw));
        pending_transition_[cmd.a] = cmd.b;
        return;
    }

    if (cmd.kind == link::Cmd::StateEnter) {
        const MObject* sm = design_->get(ObjectId{cmd.a});
        const MObject* state = design_->get(ObjectId{cmd.b});
        if (sm == nullptr || state == nullptr ||
            !sm->meta_class().is_subtype_of(*c.sm_fb) ||
            !state->meta_class().is_subtype_of(*c.state)) {
            diverge(cmd, t, "STATE_ENTER names unknown elements");
            return;
        }
        bool member = false;
        for (ObjectId s : sm->refs("states"))
            if (s.raw == cmd.b) member = true;
        if (!member) {
            diverge(cmd, t,
                    "state '" + state->name() + "' is not part of machine '" +
                        sm->name() + "'");
            return;
        }
        auto pend = pending_transition_.find(cmd.a);
        if (pend != pending_transition_.end() && pend->second != 0) {
            const MObject* tr = design_->get(ObjectId{pend->second});
            if (tr != nullptr && tr->ref("to").raw != cmd.b)
                diverge(cmd, t,
                        "transition #" + std::to_string(pend->second) +
                            " should enter state #" + std::to_string(tr->ref("to").raw) +
                            " but the target entered '" + state->name() + "'");
            pend->second = 0; // consumed; the entry stays for the next one
            return;
        }
        auto cur = current_state_.find(cmd.a);
        if (cur == current_state_.end()) {
            // First entry must be the design model's initial state.
            if (sm->ref("initial").raw != cmd.b)
                diverge(cmd, t,
                        "machine '" + sm->name() + "' started in '" + state->name() +
                            "' but the design model starts in '" +
                            design_->at(sm->ref("initial")).name() + "'");
            return;
        }
        if (cur->second == cmd.b) return; // re-entry reported passively
        // No TRANSITION command seen (passive mode): require that some
        // design transition connects the two states.
        bool connected = false;
        for (ObjectId t_id : sm->refs("transitions")) {
            const MObject& tr = design_->at(t_id);
            if (tr.ref("from").raw == cur->second && tr.ref("to").raw == cmd.b)
                connected = true;
        }
        if (!connected)
            diverge(cmd, t,
                    "machine '" + sm->name() + "' jumped from state #" +
                        std::to_string(cur->second) + " to '" + state->name() +
                        "' without a design-model transition");
    }
}

void DebuggerEngine::check_breakpoints(const link::Command& cmd, rt::SimTime t) {
    for (auto it = breaks_.begin(); it != breaks_.end();) {
        const Breakpoint& bp = it->second;
        bool hit = false;
        if (bp.enabled) {
            switch (bp.kind) {
            case Breakpoint::Kind::StateEnter:
                hit = cmd.kind == link::Cmd::StateEnter && cmd.b == bp.element.raw;
                break;
            case Breakpoint::Kind::TransitionFired:
                hit = cmd.kind == link::Cmd::Transition && cmd.b == bp.element.raw;
                break;
            case Breakpoint::Kind::SignalPredicate: {
                if (cmd.kind != link::Cmd::SignalUpdate) break;
                auto ce = predicates_.find(it->first);
                if (ce == predicates_.end()) break; // malformed: never fires
                double v;
                // Evaluation faults (unknown signal name) never fire —
                // they are result codes now, not exceptions.
                hit = ce->second.run(signal_slots_, v) == expr::VmStatus::Ok && v != 0.0;
                break;
            }
            }
        }
        if (hit) {
            int handle = it->first;
            bool one_shot = bp.one_shot;
            hit_breakpoint(handle, bp, cmd, t);
            if (one_shot) {
                breaks_.erase(it);
                predicates_.erase(handle);
            }
            return; // at most one break per command
        }
        ++it;
    }
}

void DebuggerEngine::hit_breakpoint(int handle, const Breakpoint& bp,
                                    const link::Command& cmd, rt::SimTime t) {
    ++stats_.breakpoints_hit;
    notify([&](EngineObserver& obs) { obs.on_breakpoint_hit(handle, bp, cmd, t); });
    set_state(EngineState::Paused);
    if (control_.pause) control_.pause();
}

void DebuggerEngine::pause() {
    if (state_ == EngineState::Paused) return;
    set_state(EngineState::Paused);
    if (control_.pause) control_.pause();
}

void DebuggerEngine::resume() {
    if (state_ != EngineState::Paused) return;
    set_state(EngineState::Animating);
    if (control_.resume) control_.resume();
}

void DebuggerEngine::step() {
    if (state_ != EngineState::Paused) return;
    pause_on_next_command_ = true;
    if (control_.step) control_.step(step_filter_);
}

void DebuggerEngine::compile_predicate(int handle, const Breakpoint& bp) {
    if (bp.kind != Breakpoint::Kind::SignalPredicate) return;
    try {
        auto ast = expr::parse(bp.predicate);
        predicates_.insert_or_assign(
            handle, expr::compile(*ast, [&](std::string_view name) -> int {
                auto it = signal_slot_by_name_.find(name);
                return it == signal_slot_by_name_.end() ? -1 : it->second;
            }));
    } catch (const std::exception&) {
        // Malformed predicate: breakpoint exists but never fires.
    }
}

int DebuggerEngine::add_breakpoint(Breakpoint bp) {
    int handle = next_break_++;
    compile_predicate(handle, bp);
    breaks_.emplace(handle, std::move(bp));
    return handle;
}

void DebuggerEngine::restore_breakpoint(int handle, Breakpoint bp) {
    predicates_.erase(handle);
    compile_predicate(handle, bp);
    breaks_.insert_or_assign(handle, std::move(bp));
    if (handle >= next_break_) next_break_ = handle + 1;
}

bool DebuggerEngine::remove_breakpoint(int handle) {
    predicates_.erase(handle);
    return breaks_.erase(handle) > 0;
}

std::optional<double> DebuggerEngine::signal_value(ObjectId signal) const {
    if (auto it = slot_of_signal_.find(signal.raw); it != slot_of_signal_.end()) {
        auto slot = static_cast<std::size_t>(it->second);
        if (!slot_updated_[slot]) return std::nullopt;
        return signal_slots_[slot];
    }
    auto it = signal_values_.find(signal.raw);
    if (it == signal_values_.end()) return std::nullopt;
    return it->second;
}

std::optional<ObjectId> DebuggerEngine::current_state(ObjectId sm) const {
    auto it = current_state_.find(sm.raw);
    if (it == current_state_.end()) return std::nullopt;
    return ObjectId{it->second};
}

void DebuggerEngine::save_state(rt::StateWriter& w) const {
    w.u8(static_cast<std::uint8_t>(state_));
    w.b(pause_on_next_command_);
    w.str(step_filter_.actor);
    w.u64(stats_.commands);
    w.u64(stats_.reactions);
    w.u64(stats_.breakpoints_hit);
    w.u64(stats_.divergences);
    w.size(current_state_.size());
    for (auto [sm, state] : current_state_) {
        w.u64(sm);
        w.u64(state);
    }
    w.size(static_cast<std::size_t>(std::count_if(
        pending_transition_.begin(), pending_transition_.end(),
        [](const auto& entry) { return entry.second != 0; })));
    for (auto [sm, tr] : pending_transition_) {
        if (tr == 0) continue;
        w.u64(sm);
        w.u32(tr);
    }
    w.size(signal_values_.size());
    for (auto [sig, value] : signal_values_) {
        w.u64(sig);
        w.f64(value);
    }
    w.doubles(signal_slots_);
    w.size(slot_updated_.size());
    for (bool updated : slot_updated_) w.b(updated);
    w.i32(next_break_);
    w.size(breaks_.size());
    for (const auto& [handle, bp] : breaks_) {
        w.i32(handle);
        w.u8(static_cast<std::uint8_t>(bp.kind));
        w.u64(bp.element.raw);
        w.str(bp.predicate);
        w.b(bp.enabled);
        w.b(bp.one_shot);
    }
}

void DebuggerEngine::load_state(rt::StateReader& r) {
    state_ = static_cast<EngineState>(r.u8());
    pause_on_next_command_ = r.b();
    step_filter_.actor = r.str();
    stats_.commands = r.u64();
    stats_.reactions = r.u64();
    stats_.breakpoints_hit = r.u64();
    stats_.divergences = r.u64();
    current_state_.clear();
    std::size_t n = r.size();
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sm = r.u64();
        current_state_[sm] = r.u64();
    }
    pending_transition_.clear();
    n = r.size();
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sm = r.u64();
        pending_transition_[sm] = r.u32();
    }
    signal_values_.clear();
    n = r.size();
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sig = r.u64();
        signal_values_[sig] = r.f64();
    }
    r.doubles(signal_slots_);
    n = r.size();
    slot_updated_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) slot_updated_[i] = r.b();
    breaks_.clear();
    predicates_.clear();
    next_break_ = r.i32();
    n = r.size();
    for (std::size_t i = 0; i < n; ++i) {
        int handle = r.i32();
        Breakpoint bp;
        bp.kind = static_cast<Breakpoint::Kind>(r.u8());
        bp.element = ObjectId{r.u64()};
        bp.predicate = r.str();
        bp.enabled = r.b();
        bp.one_shot = r.b();
        compile_predicate(handle, bp);
        breaks_.emplace(handle, std::move(bp));
    }
}

} // namespace gmdf::core
