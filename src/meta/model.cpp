#include "meta/model.hpp"

#include <algorithm>
#include <stdexcept>

namespace gmdf::meta {

namespace {

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

std::size_t MObject::attribute_slot(std::string_view name) const {
    std::size_t slot = cls_->attribute_slot(name);
    if (slot == MetaClass::kNoSlot)
        throw std::invalid_argument("class " + cls_->name() + " has no attribute '" +
                                    std::string(name) + "'");
    return slot;
}

std::size_t MObject::reference_slot(std::string_view name) const {
    std::size_t slot = cls_->reference_slot(name);
    if (slot == MetaClass::kNoSlot)
        throw std::invalid_argument("class " + cls_->name() + " has no reference '" +
                                    std::string(name) + "'");
    return slot;
}

const Value& MObject::attr(std::string_view name) const {
    return attrs_[attribute_slot(name)];
}

void MObject::set_attr(std::string_view name, Value v) {
    set_slot(attribute_slot(name), std::move(v));
}

void MObject::set_slot(std::size_t slot, Value v) {
    const MetaAttribute* a = cls_->all_attributes()[slot];
    if (!kind_matches(a->type, v))
        throw std::invalid_argument("attribute '" + a->name + "' on " + cls_->name() +
                                    ": value kind mismatch (" + v.to_string() + ")");
    // Normalize Int into Real slots so readers can rely on as_real().
    if (a->type == AttrType::Real && v.is_int()) v = Value(static_cast<double>(v.as_int()));
    attrs_[slot] = std::move(v);
}

std::span<const ObjectId> MObject::refs(std::string_view name) const {
    return refs_[reference_slot(name)];
}

ObjectId MObject::ref(std::string_view name) const {
    auto r = refs(name);
    return r.empty() ? ObjectId{} : r.front();
}

void MObject::add_ref(std::string_view name, ObjectId target) {
    refs_[reference_slot(name)].push_back(target);
}

void MObject::set_ref(std::string_view name, ObjectId target) {
    refs_[reference_slot(name)] = {target};
}

std::size_t MObject::remove_ref(std::string_view name, ObjectId target) {
    return std::erase(refs_[reference_slot(name)], target);
}

std::string MObject::name() const {
    std::size_t slot = cls_->attribute_slot("name");
    if (slot == MetaClass::kNoSlot) return {};
    const Value& v = attrs_[slot];
    return v.is_string() ? v.as_string() : std::string{};
}

Model Model::clone() const {
    Model out(*mm_);
    out.objects_.reserve(objects_.size());
    for (const auto& obj : objects_)
        out.objects_.push_back(obj ? std::unique_ptr<MObject>(new MObject(*obj)) : nullptr);
    return out;
}

MObject& Model::create(const MetaClass& cls) {
    if (cls.is_abstract())
        throw std::invalid_argument("cannot instantiate abstract class " + cls.name());
    if (!mm_->owns(cls))
        throw std::invalid_argument("class " + cls.name() + " not owned by metamodel " +
                                    mm_->name());
    if (objects_.empty()) objects_.emplace_back(); // the null id
    auto obj = std::unique_ptr<MObject>(new MObject(ObjectId{objects_.size()}, cls));
    const auto& attrs = cls.all_attributes();
    obj->attrs_.resize(attrs.size());
    obj->refs_.resize(cls.all_references().size());
    for (std::size_t slot = 0; slot < attrs.size(); ++slot)
        if (!attrs[slot]->default_value.is_null())
            obj->set_slot(slot, attrs[slot]->default_value);
    return *objects_.emplace_back(std::move(obj));
}

MObject& Model::create(std::string_view class_name) {
    const MetaClass* cls = mm_->find_class(class_name);
    if (cls == nullptr)
        throw std::invalid_argument("unknown class '" + std::string(class_name) + "'");
    return create(*cls);
}

MObject* Model::get(ObjectId id) {
    return id.raw < objects_.size() ? objects_[id.raw].get() : nullptr;
}

const MObject* Model::get(ObjectId id) const {
    return id.raw < objects_.size() ? objects_[id.raw].get() : nullptr;
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

bool Model::destroy(ObjectId id) {
    if (get(id) == nullptr) return false;
    objects_[id.raw].reset();
    return true;
}

std::size_t Model::size() const {
    return static_cast<std::size_t>(
        std::count_if(objects_.begin(), objects_.end(), [](const auto& o) { return o != nullptr; }));
}

std::vector<ObjectId> Model::ids() const {
    std::vector<ObjectId> out;
    out.reserve(objects_.size());
    for (const auto& obj : objects_)
        if (obj) out.push_back(obj->id());
    return out;
}

std::vector<const MObject*> Model::all_of(const MetaClass& cls) const {
    std::vector<const MObject*> out;
    for (const auto& obj : objects_)
        if (obj && obj->meta_class().is_subtype_of(cls)) out.push_back(obj.get());
    return out;
}

std::vector<MObject*> Model::all_of(const MetaClass& cls) {
    std::vector<MObject*> out;
    for (auto& obj : objects_)
        if (obj && obj->meta_class().is_subtype_of(cls)) out.push_back(obj.get());
    return out;
}

const MObject* Model::find_named(const MetaClass& cls, std::string_view name) const {
    for (const auto& obj : objects_)
        if (obj && obj->meta_class().is_subtype_of(cls) && obj->name() == name)
            return obj.get();
    return nullptr;
}

std::vector<const MObject*> Model::roots() const {
    std::vector<const MObject*> out;
    for (const auto& obj : objects_)
        if (obj && container_of(obj->id()) == nullptr) out.push_back(obj.get());
    return out;
}

const MObject* Model::container_of(ObjectId id) const {
    for (const auto& obj : objects_) {
        if (!obj) continue;
        const auto& refs = obj->meta_class().all_references();
        for (std::size_t slot = 0; slot < refs.size(); ++slot) {
            if (!refs[slot]->containment) continue;
            for (ObjectId t : obj->refs_[slot])
                if (t == id) return obj.get();
        }
    }
    return nullptr;
}

} // namespace gmdf::meta
