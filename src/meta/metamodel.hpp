// MOF-style metamodel definitions: enums, attributes, references, classes.
//
// A Metamodel owns MetaClass/MetaEnum definitions; Models (see model.hpp)
// instantiate those classes reflectively. This mirrors the subset of
// EMF/Ecore that the paper's framework relies on: named classes with single
// inheritance, typed attributes, and typed (possibly containment)
// references with multiplicities.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "meta/value.hpp"

namespace gmdf::meta {

class Metamodel;
class MetaClass;

/// Enumeration type: a named set of string literals.
class MetaEnum {
public:
    MetaEnum(std::string name, std::vector<std::string> literals)
        : name_(std::move(name)), literals_(std::move(literals)) {}

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] const std::vector<std::string>& literals() const { return literals_; }

    /// Index of a literal, or nullopt when unknown.
    [[nodiscard]] std::optional<std::size_t> index_of(std::string_view literal) const;
    [[nodiscard]] bool contains(std::string_view literal) const { return index_of(literal).has_value(); }

private:
    std::string name_;
    std::vector<std::string> literals_;
};

/// Declared type of an attribute.
enum class AttrType { Bool, Int, Real, String, Enum, ListInt, ListReal, ListString };

/// Attribute declaration on a MetaClass.
struct MetaAttribute {
    std::string name;
    AttrType type = AttrType::String;
    /// For AttrType::Enum: the declaring enum (owned by the Metamodel).
    const MetaEnum* enum_type = nullptr;
    /// When true, validation reports an unset value as an error.
    bool required = false;
    /// Default applied by Model::create when non-null.
    Value default_value;
};

/// Reference declaration on a MetaClass.
struct MetaReference {
    std::string name;
    /// Target class (owned by the Metamodel); references accept instances
    /// of the target class or any of its subclasses.
    const MetaClass* target = nullptr;
    /// Containment references define the ownership tree of a model: each
    /// object may be contained at most once, and containment is acyclic.
    bool containment = false;
    /// Multiplicity [lower, upper]; upper < 0 means unbounded.
    int lower = 0;
    int upper = -1;
};

/// A metaclass: named, possibly abstract, with single inheritance.
///
/// Each class keeps its flattened feature lists (supers first, each
/// level in declaration order); the Metamodel refreshes them whenever a
/// feature is added to the class or to one of its supers. A feature's
/// index in its list is its slot: the position of its value in every
/// MObject of the class.
class MetaClass {
public:
    MetaClass(std::string name, bool is_abstract, const MetaClass* super)
        : name_(std::move(name)), abstract_(is_abstract), super_(super) {
        flatten();
    }

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] bool is_abstract() const { return abstract_; }
    [[nodiscard]] const MetaClass* super() const { return super_; }

    /// Declarations including inherited ones, supers first.
    [[nodiscard]] const std::vector<const MetaAttribute*>& all_attributes() const {
        return all_attrs_;
    }
    [[nodiscard]] const std::vector<const MetaReference*>& all_references() const {
        return all_refs_;
    }

    /// Lookup through the inheritance chain; nullptr when absent.
    [[nodiscard]] const MetaAttribute* find_attribute(std::string_view name) const;
    [[nodiscard]] const MetaReference* find_reference(std::string_view name) const;

    /// True when this class equals `other` or inherits from it.
    [[nodiscard]] bool is_subtype_of(const MetaClass& other) const;

private:
    friend class Metamodel;
    friend class MObject;

    static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

    /// Rebuilds the flattened lists from the super's and the own ones.
    void flatten();

    /// Slot of the feature named `name`; kNoSlot when absent.
    [[nodiscard]] std::size_t attribute_slot(std::string_view name) const;
    [[nodiscard]] std::size_t reference_slot(std::string_view name) const;

    std::string name_;
    bool abstract_ = false;
    const MetaClass* super_ = nullptr;
    /// Own declarations; a deque so the flattened lists' pointers survive
    /// later additions.
    std::deque<MetaAttribute> attrs_;
    std::deque<MetaReference> refs_;
    std::vector<const MetaAttribute*> all_attrs_;
    std::vector<const MetaReference*> all_refs_;
};

/// A metamodel: a named package of classes and enums.
///
/// Construction is incremental via add_class/add_enum and the attribute /
/// reference builder calls; once models are instantiated, the metamodel
/// must not change (definitions are referenced by pointer, and objects
/// hold their values by slot).
class Metamodel {
public:
    explicit Metamodel(std::string name) : name_(std::move(name)) {}

    Metamodel(const Metamodel&) = delete;
    Metamodel& operator=(const Metamodel&) = delete;

    [[nodiscard]] const std::string& name() const { return name_; }

    /// Defines a new enum; throws std::invalid_argument on duplicate name.
    const MetaEnum& add_enum(std::string name, std::vector<std::string> literals);

    /// Defines a new class; throws std::invalid_argument on a duplicate
    /// name or when `super` belongs to a different metamodel.
    MetaClass& add_class(std::string name, bool is_abstract = false,
                         const MetaClass* super = nullptr);

    /// Adds an attribute declaration to `cls`; throws on a duplicate
    /// name (including names inherited from supers, and names a subclass
    /// of `cls` already declares).
    void add_attribute(MetaClass& cls, MetaAttribute attr);

    /// Adds a reference declaration to `cls`; throws on duplicate name.
    void add_reference(MetaClass& cls, MetaReference ref);

    [[nodiscard]] const MetaClass* find_class(std::string_view name) const;
    [[nodiscard]] const MetaEnum* find_enum(std::string_view name) const;

    [[nodiscard]] const std::vector<std::unique_ptr<MetaClass>>& classes() const { return classes_; }
    [[nodiscard]] const std::vector<std::unique_ptr<MetaEnum>>& enums() const { return enums_; }

    /// True when `cls` is owned by this metamodel.
    [[nodiscard]] bool owns(const MetaClass& cls) const;

private:
    /// Throws when `name` is already a feature of `cls` or of a subclass.
    void check_new_feature(const MetaClass& cls, const std::string& name) const;
    /// Re-flattens the feature lists of `cls` and of every subclass.
    void refresh_features(const MetaClass& cls);

    std::string name_;
    /// Supers first: a class's super is always added before it.
    std::vector<std::unique_ptr<MetaClass>> classes_;
    std::vector<std::unique_ptr<MetaEnum>> enums_;
};

/// Convenience builders for MetaAttribute.
[[nodiscard]] MetaAttribute attr_bool(std::string name, bool required = false, Value def = {});
[[nodiscard]] MetaAttribute attr_int(std::string name, bool required = false, Value def = {});
[[nodiscard]] MetaAttribute attr_real(std::string name, bool required = false, Value def = {});
[[nodiscard]] MetaAttribute attr_string(std::string name, bool required = false, Value def = {});
[[nodiscard]] MetaAttribute attr_enum(std::string name, const MetaEnum& e,
                                      bool required = false, Value def = {});

/// Convenience builders for MetaReference.
[[nodiscard]] MetaReference ref_contain(std::string name, const MetaClass& target,
                                        int lower = 0, int upper = -1);
[[nodiscard]] MetaReference ref_plain(std::string name, const MetaClass& target,
                                      int lower = 0, int upper = -1);

} // namespace gmdf::meta
