#include "meta/model.hpp"

#include <stdexcept>

namespace gmdf::meta {

namespace {

const Value& null_value() {
    static const Value v;
    return v;
}

bool kind_matches(AttrType t, const Value& v) {
    if (v.is_null()) return true; // unset; validate() handles required attrs
    switch (t) {
    case AttrType::Bool: return v.is_bool();
    case AttrType::Int: return v.is_int();
    case AttrType::Real: return v.is_real() || v.is_int();
    case AttrType::String: return v.is_string();
    case AttrType::Enum: return v.is_string();
    case AttrType::ListInt:
    case AttrType::ListReal:
    case AttrType::ListString: return v.is_list();
    }
    return false;
}

} // namespace

const Value& MObject::attr(std::string_view name) const {
    if (cls_->find_attribute(name) == nullptr)
        throw std::invalid_argument("class " + cls_->name() + " has no attribute '" +
                                    std::string(name) + "'");
    auto it = attrs_.find(name);
    return it == attrs_.end() ? null_value() : it->second;
}

void MObject::set_attr(std::string_view name, Value v) {
    const MetaAttribute* a = cls_->find_attribute(name);
    if (a == nullptr)
        throw std::invalid_argument("class " + cls_->name() + " has no attribute '" +
                                    std::string(name) + "'");
    if (!kind_matches(a->type, v))
        throw std::invalid_argument("attribute '" + a->name + "' on " + cls_->name() +
                                    ": value kind mismatch (" + v.to_string() + ")");
    // Normalize Int into Real slots so readers can rely on as_real().
    if (a->type == AttrType::Real && v.is_int()) v = Value(static_cast<double>(v.as_int()));
    attrs_[std::string(name)] = std::move(v);
}

const MetaReference& MObject::checked_reference(std::string_view name) const {
    const MetaReference* r = cls_->find_reference(name);
    if (r == nullptr)
        throw std::invalid_argument("class " + cls_->name() + " has no reference '" +
                                    std::string(name) + "'");
    return *r;
}

std::span<const ObjectId> MObject::refs(std::string_view name) const {
    checked_reference(name);
    auto it = refs_.find(name);
    if (it == refs_.end()) return {};
    return it->second;
}

ObjectId MObject::ref(std::string_view name) const {
    auto r = refs(name);
    return r.empty() ? ObjectId{} : r.front();
}

void MObject::add_ref(std::string_view name, ObjectId target) {
    checked_reference(name);
    refs_[std::string(name)].push_back(target);
}

void MObject::set_ref(std::string_view name, ObjectId target) {
    checked_reference(name);
    refs_[std::string(name)] = {target};
}

std::size_t MObject::remove_ref(std::string_view name, ObjectId target) {
    checked_reference(name);
    auto it = refs_.find(name);
    if (it == refs_.end()) return 0;
    auto& vec = it->second;
    std::size_t before = vec.size();
    std::erase(vec, target);
    return before - vec.size();
}

std::string MObject::name() const {
    if (cls_->find_attribute("name") == nullptr) return {};
    const Value& v = attr("name");
    return v.is_string() ? v.as_string() : std::string{};
}

Model Model::clone() const {
    Model out(*mm_);
    out.next_id_ = next_id_;
    for (const auto& [raw, obj] : objects_) {
        auto copy = std::unique_ptr<MObject>(new MObject(*obj));
        out.objects_.emplace(raw, std::move(copy));
    }
    return out;
}

MObject& Model::create(const MetaClass& cls) {
    if (cls.is_abstract())
        throw std::invalid_argument("cannot instantiate abstract class " + cls.name());
    if (!mm_->owns(cls))
        throw std::invalid_argument("class " + cls.name() + " not owned by metamodel " +
                                    mm_->name());
    ObjectId id{next_id_++};
    auto obj = std::unique_ptr<MObject>(new MObject(id, cls));
    for (const MetaAttribute* a : cls.all_attributes())
        if (!a->default_value.is_null()) obj->set_attr(a->name, a->default_value);
    MObject& ref = *obj;
    objects_.emplace(id.raw, std::move(obj));
    return ref;
}

MObject& Model::create(std::string_view class_name) {
    const MetaClass* cls = mm_->find_class(class_name);
    if (cls == nullptr)
        throw std::invalid_argument("unknown class '" + std::string(class_name) + "'");
    return create(*cls);
}

MObject* Model::get(ObjectId id) {
    auto it = objects_.find(id.raw);
    return it == objects_.end() ? nullptr : it->second.get();
}

const MObject* Model::get(ObjectId id) const {
    auto it = objects_.find(id.raw);
    return it == objects_.end() ? nullptr : it->second.get();
}

MObject& Model::at(ObjectId id) {
    MObject* o = get(id);
    if (o == nullptr) throw std::out_of_range("no object " + to_string(id));
    return *o;
}

const MObject& Model::at(ObjectId id) const {
    const MObject* o = get(id);
    if (o == nullptr) throw std::out_of_range("no object " + to_string(id));
    return *o;
}

bool Model::destroy(ObjectId id) { return objects_.erase(id.raw) > 0; }

std::vector<ObjectId> Model::ids() const {
    std::vector<ObjectId> out;
    out.reserve(objects_.size());
    for (const auto& [raw, _] : objects_) out.push_back(ObjectId{raw});
    return out;
}

std::vector<const MObject*> Model::all_of(const MetaClass& cls) const {
    std::vector<const MObject*> out;
    for (const auto& [_, obj] : objects_)
        if (obj->meta_class().is_subtype_of(cls)) out.push_back(obj.get());
    return out;
}

std::vector<MObject*> Model::all_of(const MetaClass& cls) {
    std::vector<MObject*> out;
    for (auto& [_, obj] : objects_)
        if (obj->meta_class().is_subtype_of(cls)) out.push_back(obj.get());
    return out;
}

const MObject* Model::find_named(const MetaClass& cls, std::string_view name) const {
    for (const auto& [_, obj] : objects_)
        if (obj->meta_class().is_subtype_of(cls) && obj->name() == name) return obj.get();
    return nullptr;
}

std::vector<const MObject*> Model::roots() const {
    std::vector<const MObject*> out;
    for (const auto& [_, obj] : objects_)
        if (container_of(obj->id()) == nullptr) out.push_back(obj.get());
    return out;
}

const MObject* Model::container_of(ObjectId id) const {
    for (const auto& [_, obj] : objects_) {
        for (const MetaReference* r : obj->meta_class().all_references()) {
            if (!r->containment) continue;
            for (ObjectId t : obj->refs(r->name))
                if (t == id) return obj.get();
        }
    }
    return nullptr;
}

} // namespace gmdf::meta
