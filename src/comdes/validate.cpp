#include "comdes/validate.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "comdes/fblib.hpp"
#include "comdes/metamodel.hpp"
#include "expr/parser.hpp"
#include "meta/validate.hpp"

namespace gmdf::comdes {

namespace {

using meta::Diagnostic;
using meta::Diagnostics;
using meta::MObject;
using meta::Model;
using meta::ObjectId;
using meta::Severity;

void err(Diagnostics& out, ObjectId id, std::string feature, std::string msg) {
    out.push_back({Severity::Error, id, std::move(feature), std::move(msg)});
}

void check_unique_names(const Model& model, const MObject& owner, const char* ref,
                        const char* what, Diagnostics& out) {
    std::set<std::string> seen;
    for (ObjectId id : owner.refs(ref)) {
        const MObject* o = model.get(id);
        if (o == nullptr) continue;
        if (!seen.insert(o->name()).second)
            err(out, id, "name",
                std::string("duplicate ") + what + " name '" + o->name() + "'");
    }
}

void check_expr(const Model& model, ObjectId id, const std::string& feature,
                const std::string& src, Diagnostics& out,
                const std::vector<std::string>* allowed_vars = nullptr) {
    (void)model;
    try {
        auto ast = expr::parse(src);
        if (allowed_vars != nullptr) {
            for (const std::string& v : expr::free_variables(*ast)) {
                if (std::find(allowed_vars->begin(), allowed_vars->end(), v) ==
                    allowed_vars->end())
                    err(out, id, feature,
                        "expression references '" + v + "' which is not an input pin");
            }
        }
    } catch (const std::exception& e) {
        err(out, id, feature, std::string("expression does not parse: ") + e.what());
    }
}

struct NetworkInfo {
    std::map<std::uint64_t, FBPins> pins;       // block raw id -> pins
    std::map<std::uint64_t, const MObject*> blocks;
};

NetworkInfo network_info(const Model& model, const MObject& network, Diagnostics& out) {
    NetworkInfo info;
    for (ObjectId b_id : network.refs("blocks")) {
        const MObject* b = model.get(b_id);
        if (b == nullptr) continue;
        info.blocks[b_id.raw] = b;
        try {
            info.pins[b_id.raw] = pins_of(model, *b);
        } catch (const std::exception& e) {
            err(out, b_id, "", std::string("pin interface: ") + e.what());
        }
    }
    return info;
}

void check_network(const Model& model, const MObject& network, Diagnostics& out);

void check_sm(const Model& model, const MObject& sm, Diagnostics& out) {
    FBPins pins;
    try {
        pins = pins_of(model, sm);
    } catch (...) {
        return; // already reported by network_info
    }

    std::set<std::uint64_t> member_states;
    for (ObjectId s_id : sm.refs("states")) member_states.insert(s_id.raw);

    auto check_assignments = [&](const MObject& owner, const char* ref) {
        for (ObjectId a_id : owner.refs(ref)) {
            const MObject* a = model.get(a_id);
            if (a == nullptr) continue;
            const std::string& target = a->attr("target").as_string();
            int idx = pins.output_index(target);
            // The last output pin is the implicit state index: not assignable.
            if (idx < 0 || static_cast<std::size_t>(idx) + 1 == pins.outputs.size())
                err(out, a_id, "target",
                    "'" + target + "' is not a declared output of SM '" + sm.name() + "'");
            check_expr(model, a_id, "expr", a->attr("expr").as_string(), out, &pins.inputs);
        }
    };

    // Adjacency for the reachability check.
    std::map<std::uint64_t, std::vector<std::uint64_t>> adj;
    for (ObjectId t_id : sm.refs("transitions")) {
        const MObject* t = model.get(t_id);
        if (t == nullptr) continue;
        ObjectId from = t->ref("from"), to = t->ref("to");
        if (!member_states.contains(from.raw))
            err(out, t_id, "from", "source state is not part of SM '" + sm.name() + "'");
        if (!member_states.contains(to.raw))
            err(out, t_id, "to", "target state is not part of SM '" + sm.name() + "'");
        if (member_states.contains(from.raw) && member_states.contains(to.raw))
            adj[from.raw].push_back(to.raw);
        const meta::Value& ev = t->attr("event");
        if (ev.is_string() && !ev.as_string().empty() &&
            pins.input_index(ev.as_string()) < 0)
            err(out, t_id, "event",
                "event '" + ev.as_string() + "' is not an input of SM '" + sm.name() + "'");
        const meta::Value& g = t->attr("guard");
        if (g.is_string() && !g.as_string().empty())
            check_expr(model, t_id, "guard", g.as_string(), out, &pins.inputs);
        check_assignments(*t, "actions");
    }
    for (ObjectId s_id : sm.refs("states")) {
        const MObject* s = model.get(s_id);
        if (s != nullptr) check_assignments(*s, "entry_actions");
    }

    // Reachability from the initial state.
    ObjectId init = sm.ref("initial");
    if (!member_states.contains(init.raw)) {
        err(out, sm.id(), "initial", "initial state is not part of SM '" + sm.name() + "'");
        return;
    }
    std::set<std::uint64_t> reached{init.raw};
    std::vector<std::uint64_t> frontier{init.raw};
    while (!frontier.empty()) {
        std::uint64_t cur = frontier.back();
        frontier.pop_back();
        for (std::uint64_t next : adj[cur])
            if (reached.insert(next).second) frontier.push_back(next);
    }
    for (std::uint64_t s : member_states)
        if (!reached.contains(s))
            out.push_back({Severity::Warning, ObjectId{s}, "",
                           "state unreachable from initial state in SM '" + sm.name() + "'"});
}

void check_network(const Model& model, const MObject& network, Diagnostics& out) {
    const auto& c = comdes_metamodel();
    check_unique_names(model, network, "blocks", "block", out);
    NetworkInfo info = network_info(model, network, out);

    // Connection endpoints and single-driver rule.
    std::set<std::pair<std::uint64_t, std::string>> driven;
    for (ObjectId conn_id : network.refs("connections")) {
        const MObject* conn = model.get(conn_id);
        if (conn == nullptr) continue;
        ObjectId from = conn->ref("from"), to = conn->ref("to");
        auto from_it = info.pins.find(from.raw);
        auto to_it = info.pins.find(to.raw);
        if (from_it == info.pins.end()) {
            err(out, conn_id, "from", "source block is not part of this network");
            continue;
        }
        if (to_it == info.pins.end()) {
            err(out, conn_id, "to", "target block is not part of this network");
            continue;
        }
        const std::string& fp = conn->attr("from_pin").as_string();
        const std::string& tp = conn->attr("to_pin").as_string();
        if (from_it->second.output_index(fp) < 0)
            err(out, conn_id, "from_pin",
                "block '" + info.blocks[from.raw]->name() + "' has no output '" + fp + "'");
        if (to_it->second.input_index(tp) < 0)
            err(out, conn_id, "to_pin",
                "block '" + info.blocks[to.raw]->name() + "' has no input '" + tp + "'");
        else if (!driven.insert({to.raw, tp}).second)
            err(out, conn_id, "to_pin",
                "input '" + info.blocks[to.raw]->name() + "." + tp +
                    "' driven by more than one connection");
    }

    // Dataflow cycles (delay_ blocks legitimately break cycles).
    std::map<std::uint64_t, std::vector<std::uint64_t>> adj;
    for (ObjectId conn_id : network.refs("connections")) {
        const MObject* conn = model.get(conn_id);
        if (conn == nullptr) continue;
        ObjectId from = conn->ref("from"), to = conn->ref("to");
        if (!info.blocks.contains(from.raw) || !info.blocks.contains(to.raw)) continue;
        const MObject* src = info.blocks[from.raw];
        bool breaks_cycle = src->meta_class().is_subtype_of(*c.basic_fb) &&
                            src->attr("kind").as_string() == "delay_";
        if (!breaks_cycle) adj[from.raw].push_back(to.raw);
    }
    // Iterative DFS 3-colouring.
    std::map<std::uint64_t, int> colour; // 0 white, 1 grey, 2 black
    for (const auto& [start, _] : info.blocks) {
        if (colour[start] != 0) continue;
        std::vector<std::pair<std::uint64_t, std::size_t>> stack{{start, 0}};
        colour[start] = 1;
        while (!stack.empty()) {
            auto& [node, next] = stack.back();
            auto& edges = adj[node];
            if (next < edges.size()) {
                std::uint64_t child = edges[next++];
                if (colour[child] == 1) {
                    err(out, ObjectId{child}, "",
                        "combinational dataflow cycle (insert a delay_ block)");
                } else if (colour[child] == 0) {
                    colour[child] = 1;
                    stack.emplace_back(child, 0);
                }
            } else {
                colour[node] = 2;
                stack.pop_back();
            }
        }
    }

    // Recurse into nested structures and per-kind checks.
    for (const auto& [raw, block] : info.blocks) {
        (void)raw;
        if (block->meta_class().is_subtype_of(*c.basic_fb)) {
            if (block->attr("kind").as_string() == "expression_") {
                const meta::Value& e = block->attr("expr");
                if (!e.is_string() || e.as_string().empty())
                    err(out, block->id(), "expr", "expression_ block without expression");
                else
                    check_expr(model, block->id(), "expr", e.as_string(), out);
            }
        } else if (block->meta_class().is_subtype_of(*c.sm_fb)) {
            check_sm(model, *block, out);
        } else if (block->meta_class().is_subtype_of(*c.composite_fb)) {
            if (const MObject* inner = model.get(block->ref("network")))
                check_network(model, *inner, out);
        } else if (block->meta_class().is_subtype_of(*c.modal_fb)) {
            std::set<std::int64_t> mode_values;
            for (ObjectId m_id : block->refs("modes")) {
                const MObject* mode = model.get(m_id);
                if (mode == nullptr) continue;
                if (!mode_values.insert(mode->attr("value").as_int()).second)
                    err(out, m_id, "value",
                        "duplicate mode value in modal FB '" + block->name() + "'");
                if (const MObject* inner = model.get(mode->ref("network")))
                    check_network(model, *inner, out);
            }
        }
    }
}

void check_actor(const Model& model, const MObject& actor, Diagnostics& out) {
    std::int64_t period = actor.attr("period_us").as_int();
    std::int64_t deadline = actor.attr("deadline_us").as_int();
    if (period <= 0) err(out, actor.id(), "period_us", "period must be positive");
    if (deadline < 0) err(out, actor.id(), "deadline_us", "deadline must be >= 0");
    if (deadline > 0 && deadline > period)
        err(out, actor.id(), "deadline_us", "deadline exceeds period");

    const MObject* network = model.get(actor.ref("network"));
    if (network == nullptr) return;
    check_network(model, *network, out);

    NetworkInfo info;
    {
        Diagnostics scratch; // pins errors already reported by check_network
        info = network_info(model, *network, scratch);
    }
    auto find_block = [&](const std::string& name) -> const MObject* {
        for (const auto& [_, b] : info.blocks)
            if (b->name() == name) return b;
        return nullptr;
    };

    std::set<std::pair<std::uint64_t, std::string>> driven;
    for (ObjectId conn_id : network->refs("connections")) {
        const MObject* conn = model.get(conn_id);
        if (conn == nullptr) continue;
        driven.insert({conn->ref("to").raw, conn->attr("to_pin").as_string()});
    }

    for (ObjectId b_id : actor.refs("inputs")) {
        const MObject* b = model.get(b_id);
        if (b == nullptr) continue;
        const MObject* fb = find_block(b->attr("fb").as_string());
        if (fb == nullptr) {
            err(out, b_id, "fb",
                "input binding names unknown block '" + b->attr("fb").as_string() + "'");
            continue;
        }
        const std::string& pin = b->attr("pin").as_string();
        if (info.pins[fb->id().raw].input_index(pin) < 0)
            err(out, b_id, "pin",
                "block '" + fb->name() + "' has no input pin '" + pin + "'");
        else if (!driven.insert({fb->id().raw, pin}).second)
            err(out, b_id, "pin",
                "input '" + fb->name() + "." + pin + "' both bound and connected");
    }
    for (ObjectId b_id : actor.refs("outputs")) {
        const MObject* b = model.get(b_id);
        if (b == nullptr) continue;
        const MObject* fb = find_block(b->attr("fb").as_string());
        if (fb == nullptr) {
            err(out, b_id, "fb",
                "output binding names unknown block '" + b->attr("fb").as_string() + "'");
            continue;
        }
        const std::string& pin = b->attr("pin").as_string();
        if (info.pins[fb->id().raw].output_index(pin) < 0)
            err(out, b_id, "pin",
                "block '" + fb->name() + "' has no output pin '" + pin + "'");
    }
}

} // namespace

Diagnostics validate_comdes(const Model& model) {
    const auto& c = comdes_metamodel();
    Diagnostics out = meta::validate(model);

    for (const MObject* sys : model.all_of(*c.system)) {
        check_unique_names(model, *sys, "signals", "signal", out);
        check_unique_names(model, *sys, "actors", "actor", out);
    }
    for (const MObject* actor : model.all_of(*c.actor)) check_actor(model, *actor, out);
    return out;
}

} // namespace gmdf::comdes
