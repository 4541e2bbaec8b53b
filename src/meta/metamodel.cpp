#include "meta/metamodel.hpp"

#include <algorithm>
#include <stdexcept>

namespace gmdf::meta {

std::optional<std::size_t> MetaEnum::index_of(std::string_view literal) const {
    for (std::size_t i = 0; i < literals_.size(); ++i)
        if (literals_[i] == literal) return i;
    return std::nullopt;
}

void MetaClass::flatten() {
    all_attrs_.clear();
    all_refs_.clear();
    if (super_ != nullptr) {
        all_attrs_ = super_->all_attrs_;
        all_refs_ = super_->all_refs_;
    }
    for (const MetaAttribute& a : attrs_) all_attrs_.push_back(&a);
    for (const MetaReference& r : refs_) all_refs_.push_back(&r);
}

std::size_t MetaClass::attribute_slot(std::string_view name) const {
    for (std::size_t i = 0; i < all_attrs_.size(); ++i)
        if (all_attrs_[i]->name == name) return i;
    return kNoSlot;
}

std::size_t MetaClass::reference_slot(std::string_view name) const {
    for (std::size_t i = 0; i < all_refs_.size(); ++i)
        if (all_refs_[i]->name == name) return i;
    return kNoSlot;
}

const MetaAttribute* MetaClass::find_attribute(std::string_view name) const {
    std::size_t slot = attribute_slot(name);
    return slot == kNoSlot ? nullptr : all_attrs_[slot];
}

const MetaReference* MetaClass::find_reference(std::string_view name) const {
    std::size_t slot = reference_slot(name);
    return slot == kNoSlot ? nullptr : all_refs_[slot];
}

bool MetaClass::is_subtype_of(const MetaClass& other) const {
    for (const MetaClass* c = this; c != nullptr; c = c->super_)
        if (c == &other) return true;
    return false;
}

const MetaEnum& Metamodel::add_enum(std::string name, std::vector<std::string> literals) {
    if (find_enum(name) != nullptr)
        throw std::invalid_argument("duplicate enum: " + name);
    enums_.push_back(std::make_unique<MetaEnum>(std::move(name), std::move(literals)));
    return *enums_.back();
}

MetaClass& Metamodel::add_class(std::string name, bool is_abstract, const MetaClass* super) {
    if (find_class(name) != nullptr)
        throw std::invalid_argument("duplicate class: " + name);
    if (super != nullptr && !owns(*super))
        throw std::invalid_argument("superclass '" + super->name() +
                                    "' belongs to a different metamodel");
    classes_.push_back(std::make_unique<MetaClass>(std::move(name), is_abstract, super));
    return *classes_.back();
}

void Metamodel::check_new_feature(const MetaClass& cls, const std::string& name) const {
    for (const auto& c : classes_) {
        if (!c->is_subtype_of(cls)) continue;
        if (c->find_attribute(name) != nullptr || c->find_reference(name) != nullptr)
            throw std::invalid_argument("duplicate feature '" + name + "' on class " +
                                        c->name());
    }
}

void Metamodel::refresh_features(const MetaClass& cls) {
    // classes_ is supers-first, so each super is refreshed before the
    // classes that copy its lists.
    for (auto& c : classes_)
        if (c->is_subtype_of(cls)) c->flatten();
}

void Metamodel::add_attribute(MetaClass& cls, MetaAttribute attr) {
    check_new_feature(cls, attr.name);
    if (attr.type == AttrType::Enum && attr.enum_type == nullptr)
        throw std::invalid_argument("enum attribute '" + attr.name + "' lacks enum type");
    cls.attrs_.push_back(std::move(attr));
    refresh_features(cls);
}

void Metamodel::add_reference(MetaClass& cls, MetaReference ref) {
    check_new_feature(cls, ref.name);
    if (ref.target == nullptr)
        throw std::invalid_argument("reference '" + ref.name + "' lacks target class");
    cls.refs_.push_back(std::move(ref));
    refresh_features(cls);
}

const MetaClass* Metamodel::find_class(std::string_view name) const {
    for (const auto& c : classes_)
        if (c->name() == name) return c.get();
    return nullptr;
}

const MetaEnum* Metamodel::find_enum(std::string_view name) const {
    for (const auto& e : enums_)
        if (e->name() == name) return e.get();
    return nullptr;
}

bool Metamodel::owns(const MetaClass& cls) const {
    return std::any_of(classes_.begin(), classes_.end(),
                       [&](const auto& c) { return c.get() == &cls; });
}

MetaAttribute attr_bool(std::string name, bool required, Value def) {
    return {std::move(name), AttrType::Bool, nullptr, required, std::move(def)};
}
MetaAttribute attr_int(std::string name, bool required, Value def) {
    return {std::move(name), AttrType::Int, nullptr, required, std::move(def)};
}
MetaAttribute attr_real(std::string name, bool required, Value def) {
    return {std::move(name), AttrType::Real, nullptr, required, std::move(def)};
}
MetaAttribute attr_string(std::string name, bool required, Value def) {
    return {std::move(name), AttrType::String, nullptr, required, std::move(def)};
}
MetaAttribute attr_enum(std::string name, const MetaEnum& e, bool required, Value def) {
    return {std::move(name), AttrType::Enum, &e, required, std::move(def)};
}

MetaReference ref_contain(std::string name, const MetaClass& target, int lower, int upper) {
    return {std::move(name), &target, true, lower, upper};
}
MetaReference ref_plain(std::string name, const MetaClass& target, int lower, int upper) {
    return {std::move(name), &target, false, lower, upper};
}

} // namespace gmdf::meta
