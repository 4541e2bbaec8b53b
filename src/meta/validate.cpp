#include "meta/validate.hpp"

namespace gmdf::meta {

namespace {

void check_attr(const MObject& obj, const MetaAttribute& a, Diagnostics& out) {
    const Value& v = obj.attr(a.name);
    if (v.is_null()) {
        if (a.required)
            out.push_back({Severity::Error, obj.id(), a.name, "required attribute unset"});
        return;
    }
    if (a.type == AttrType::Enum) {
        if (!a.enum_type->contains(v.as_string()))
            out.push_back({Severity::Error, obj.id(), a.name,
                           "'" + v.as_string() + "' is not a literal of enum " +
                               a.enum_type->name()});
        return;
    }
    if (v.is_list()) {
        for (const Value& e : v.as_list()) {
            bool ok = (a.type == AttrType::ListInt && e.is_int()) ||
                      (a.type == AttrType::ListReal && (e.is_real() || e.is_int())) ||
                      (a.type == AttrType::ListString && e.is_string());
            if (!ok) {
                out.push_back({Severity::Error, obj.id(), a.name,
                               "list element kind mismatch: " + e.to_string()});
                break;
            }
        }
    }
}

void check_ref(const Model& model, const MObject& obj, const MetaReference& r,
               Diagnostics& out) {
    auto targets = obj.refs(r.name);
    auto n = static_cast<int>(targets.size());
    if (n < r.lower)
        out.push_back({Severity::Error, obj.id(), r.name,
                       "multiplicity violation: " + std::to_string(n) + " < lower bound " +
                           std::to_string(r.lower)});
    if (r.upper >= 0 && n > r.upper)
        out.push_back({Severity::Error, obj.id(), r.name,
                       "multiplicity violation: " + std::to_string(n) + " > upper bound " +
                           std::to_string(r.upper)});
    for (ObjectId t : targets) {
        const MObject* target = model.get(t);
        if (target == nullptr) {
            out.push_back(
                {Severity::Error, obj.id(), r.name, "dangling reference to " + to_string(t)});
            continue;
        }
        if (!target->meta_class().is_subtype_of(*r.target))
            out.push_back({Severity::Error, obj.id(), r.name,
                           "target " + to_string(t) + " has class " +
                               target->meta_class().name() + ", expected " +
                               r.target->name()});
    }
}

} // namespace

Diagnostics validate(const Model& model) {
    Diagnostics out;
    const std::vector<ObjectId> ids = model.ids();

    // Per-object feature checks.
    for (ObjectId id : ids) {
        const MObject& obj = model.at(id);
        for (const MetaAttribute* a : obj.meta_class().all_attributes())
            check_attr(obj, *a, out);
        for (const MetaReference* r : obj.meta_class().all_references())
            check_ref(model, obj, *r, out);
    }

    // Containment shape: at most one container per object, no cycles.
    // Child raw id -> its container (null: none seen).
    std::vector<ObjectId> container(ids.empty() ? 0 : ids.back().raw + 1);
    for (ObjectId id : ids) {
        const MObject& obj = model.at(id);
        for (const MetaReference* r : obj.meta_class().all_references()) {
            if (!r->containment) continue;
            for (ObjectId child : obj.refs(r->name)) {
                if (model.get(child) == nullptr) continue; // dangling already reported
                ObjectId& owner = container[child.raw];
                if (owner.is_null())
                    owner = id;
                else if (!(owner == id))
                    out.push_back({Severity::Error, child, "",
                                   "object contained by both " + to_string(owner) +
                                       " and " + to_string(id)});
            }
        }
    }
    for (ObjectId id : ids) {
        // Walk up the container chain; a revisit of the start means a
        // cycle. A walk longer than the model has objects is circling a
        // cycle that misses the start, reported at its own members.
        ObjectId cur = id;
        for (std::size_t steps = 0; steps < ids.size(); ++steps) {
            cur = container[cur.raw];
            if (cur.is_null()) break;
            if (cur == id) {
                out.push_back({Severity::Error, id, "", "containment cycle"});
                break;
            }
        }
    }

    return out;
}

} // namespace gmdf::meta
