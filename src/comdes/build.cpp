#include "comdes/build.hpp"

namespace gmdf::comdes {

using meta::ObjectId;
using meta::Value;

SystemBuilder::SystemBuilder(std::string name) : model_(comdes_metamodel().mm) {
    auto& sys = model_.create(*comdes_metamodel().system);
    sys.set_attr("name", Value(std::move(name)));
    system_ = sys.id();
}

SystemBuilder SystemBuilder::clone(std::string name) const {
    SystemBuilder copy(model_.clone(), system_);
    copy.model_.at(system_).set_attr("name", Value(std::move(name)));
    return copy;
}

ObjectId SystemBuilder::add_signal(const std::string& name, const std::string& type,
                                   double init) {
    auto& sig = model_.create(*comdes_metamodel().signal);
    sig.set_attr("name", Value(name));
    sig.set_attr("type", Value(type));
    sig.set_attr("init", Value(init));
    model_.at(system_).add_ref("signals", sig.id());
    return sig.id();
}

ActorBuilder SystemBuilder::add_actor(const std::string& name, std::int64_t period_us,
                                      std::int64_t deadline_us, std::int64_t node) {
    const auto& c = comdes_metamodel();
    auto& actor = model_.create(*c.actor);
    actor.set_attr("name", Value(name));
    actor.set_attr("period_us", Value(period_us));
    actor.set_attr("deadline_us", Value(deadline_us));
    actor.set_attr("node", Value(node));
    auto& net = model_.create(*c.network);
    actor.set_ref("network", net.id());
    model_.at(system_).add_ref("actors", actor.id());
    return {model_, actor.id(), net.id()};
}

ActorBuilder::ActorBuilder(meta::Model& model, ObjectId actor, ObjectId network)
    : model_(&model), actor_(actor), network_(network) {}

ObjectId ActorBuilder::add_basic(const std::string& name, const std::string& kind,
                                 std::initializer_list<double> params,
                                 const std::string& expr) {
    const auto& c = comdes_metamodel();
    auto& fb = model_->create(*c.basic_fb);
    fb.set_attr("name", Value(name));
    fb.set_attr("kind", Value(kind));
    if (params.size() > 0) {
        Value::List l;
        for (double p : params) l.emplace_back(p);
        fb.set_attr("params", Value(std::move(l)));
    }
    if (!expr.empty()) fb.set_attr("expr", Value(expr));
    model_->at(network_).add_ref("blocks", fb.id());
    return fb.id();
}

SmBuilder ActorBuilder::add_sm(const std::string& name, std::vector<std::string> inputs,
                               std::vector<std::string> outputs) {
    const auto& c = comdes_metamodel();
    auto& fb = model_->create(*c.sm_fb);
    fb.set_attr("name", Value(name));
    Value::List ins, outs;
    for (auto& s : inputs) ins.emplace_back(std::move(s));
    for (auto& s : outputs) outs.emplace_back(std::move(s));
    fb.set_attr("inputs", Value(std::move(ins)));
    fb.set_attr("outputs", Value(std::move(outs)));
    model_->at(network_).add_ref("blocks", fb.id());
    return {*model_, fb.id()};
}

void ActorBuilder::connect(ObjectId from_fb, const std::string& from_pin, ObjectId to_fb,
                           const std::string& to_pin) {
    const auto& c = comdes_metamodel();
    auto& conn = model_->create(*c.connection);
    conn.set_ref("from", from_fb);
    conn.set_ref("to", to_fb);
    conn.set_attr("from_pin", Value(from_pin));
    conn.set_attr("to_pin", Value(to_pin));
    model_->at(network_).add_ref("connections", conn.id());
}

void ActorBuilder::bind_input(ObjectId signal, ObjectId fb, const std::string& pin) {
    const auto& c = comdes_metamodel();
    auto& b = model_->create(*c.actor_input);
    b.set_attr("fb", Value(model_->at(fb).name()));
    b.set_attr("pin", Value(pin));
    b.set_ref("signal", signal);
    model_->at(actor_).add_ref("inputs", b.id());
}

void ActorBuilder::bind_output(ObjectId fb, const std::string& pin, ObjectId signal) {
    const auto& c = comdes_metamodel();
    auto& b = model_->create(*c.actor_output);
    b.set_attr("fb", Value(model_->at(fb).name()));
    b.set_attr("pin", Value(pin));
    b.set_ref("signal", signal);
    model_->at(actor_).add_ref("outputs", b.id());
}

SmBuilder::SmBuilder(meta::Model& model, ObjectId sm) : model_(&model), sm_(sm) {}

ObjectId SmBuilder::add_state(
    const std::string& name,
    std::initializer_list<std::pair<std::string, std::string>> entry_actions) {
    const auto& c = comdes_metamodel();
    auto& s = model_->create(*c.state);
    s.set_attr("name", Value(name));
    for (const auto& [target, expr] : entry_actions) {
        auto& a = model_->create(*c.assignment);
        a.set_attr("target", Value(target));
        a.set_attr("expr", Value(expr));
        s.add_ref("entry_actions", a.id());
    }
    model_->at(sm_).add_ref("states", s.id());
    if (!has_initial_) {
        model_->at(sm_).set_ref("initial", s.id());
        has_initial_ = true;
    }
    return s.id();
}

ObjectId SmBuilder::add_transition(
    ObjectId from, ObjectId to, const std::string& event, const std::string& guard,
    std::initializer_list<std::pair<std::string, std::string>> actions,
    std::int64_t priority) {
    const auto& c = comdes_metamodel();
    auto& t = model_->create(*c.transition);
    t.set_ref("from", from);
    t.set_ref("to", to);
    if (!event.empty()) t.set_attr("event", Value(event));
    if (!guard.empty()) t.set_attr("guard", Value(guard));
    t.set_attr("priority", Value(priority));
    for (const auto& [target, expr] : actions) {
        auto& a = model_->create(*c.assignment);
        a.set_attr("target", Value(target));
        a.set_attr("expr", Value(expr));
        t.add_ref("actions", a.id());
    }
    model_->at(sm_).add_ref("transitions", t.id());
    return t.id();
}

void SmBuilder::set_initial(ObjectId state) {
    model_->at(sm_).set_ref("initial", state);
    has_initial_ = true;
}

} // namespace gmdf::comdes
