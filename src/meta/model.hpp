// Reflective model instances conforming to a Metamodel.
//
// A Model owns MObjects created from MetaClasses. Objects carry attribute
// values and reference lists by slot (the feature's index in its class's
// flattened list); the name-based accessors resolve the slot. Feature
// existence and basic type compatibility are checked eagerly (throw),
// deeper conformance (multiplicities, containment shape, enum literals)
// is checked by validate() in validate.hpp.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "meta/metamodel.hpp"
#include "meta/value.hpp"

namespace gmdf::meta {

class Model;

/// One model object: an instance of a MetaClass with dynamic features.
class MObject {
public:
    [[nodiscard]] ObjectId id() const { return id_; }
    [[nodiscard]] const MetaClass& meta_class() const { return *cls_; }

    /// Attribute value; a null Value when unset.
    /// Throws std::invalid_argument when the class declares no such attribute.
    [[nodiscard]] const Value& attr(std::string_view name) const;

    /// Sets an attribute after checking the declaration and value kind.
    /// Throws std::invalid_argument on unknown attribute or kind mismatch.
    void set_attr(std::string_view name, Value v);

    /// Referenced object ids for the named reference (empty when unset).
    [[nodiscard]] std::span<const ObjectId> refs(std::string_view name) const;

    /// Single-valued reference helper: first target or null id.
    [[nodiscard]] ObjectId ref(std::string_view name) const;

    /// Appends a target; throws std::invalid_argument on unknown reference.
    void add_ref(std::string_view name, ObjectId target);

    /// Replaces targets with exactly one element.
    void set_ref(std::string_view name, ObjectId target);

    /// Removes every occurrence of `target`; returns how many were removed.
    std::size_t remove_ref(std::string_view name, ObjectId target);

    /// Convenience for the ubiquitous "name" attribute; empty if unset.
    [[nodiscard]] std::string name() const;

private:
    friend class Model;
    MObject(ObjectId id, const MetaClass& cls) : id_(id), cls_(&cls) {}

    /// Slot of the named feature; throws std::invalid_argument when the
    /// class declares no such feature.
    [[nodiscard]] std::size_t attribute_slot(std::string_view name) const;
    [[nodiscard]] std::size_t reference_slot(std::string_view name) const;
    void set_slot(std::size_t slot, Value v);

    ObjectId id_;
    const MetaClass* cls_;
    std::vector<Value> attrs_;               ///< by attribute slot
    std::vector<std::vector<ObjectId>> refs_; ///< by reference slot
};

/// A model: a set of objects conforming to one metamodel.
class Model {
public:
    explicit Model(const Metamodel& mm) : mm_(&mm) {}

    Model(Model&&) noexcept = default;
    Model& operator=(Model&&) noexcept = default;

    /// Deep copy preserving object ids (used e.g. to mutate a
    /// transformation input while keeping element identity stable).
    [[nodiscard]] Model clone() const;

    [[nodiscard]] const Metamodel& metamodel() const { return *mm_; }

    /// Creates an instance of `cls`, applying attribute defaults.
    /// Throws std::invalid_argument when `cls` is abstract or foreign.
    MObject& create(const MetaClass& cls);

    /// Creates by class name; throws when the class is unknown.
    MObject& create(std::string_view class_name);

    /// Object by id; nullptr when absent (destroyed or never created).
    [[nodiscard]] MObject* get(ObjectId id);
    [[nodiscard]] const MObject* get(ObjectId id) const;

    /// Object by id; throws std::out_of_range when absent.
    [[nodiscard]] MObject& at(ObjectId id);
    [[nodiscard]] const MObject& at(ObjectId id) const;

    /// Removes the object. References held by other objects are left in
    /// place and reported as dangling by validate().
    bool destroy(ObjectId id);

    /// Live objects (destroyed ones are not counted).
    [[nodiscard]] std::size_t size() const;

    /// Ids of all live objects in creation order.
    [[nodiscard]] std::vector<ObjectId> ids() const;

    /// All live objects of `cls` (including subclasses), creation order.
    [[nodiscard]] std::vector<const MObject*> all_of(const MetaClass& cls) const;
    [[nodiscard]] std::vector<MObject*> all_of(const MetaClass& cls);

    /// First object of `cls` whose "name" attribute equals `name`.
    [[nodiscard]] const MObject* find_named(const MetaClass& cls, std::string_view name) const;

    /// Objects not targeted by any containment reference: the forest roots.
    [[nodiscard]] std::vector<const MObject*> roots() const;

    /// Owner of `id` via a containment reference, or nullptr.
    [[nodiscard]] const MObject* container_of(ObjectId id) const;

private:
    const Metamodel* mm_;
    /// Indexed by raw id, in creation order; null where an object was
    /// destroyed, and at 0 (the null id) once anything was created. Ids
    /// are never reused: the next id is always the size.
    std::vector<std::unique_ptr<MObject>> objects_;
};

} // namespace gmdf::meta
