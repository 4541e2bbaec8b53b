// Unit tests for the metamodeling core: values, metamodels, models,
// validation, and serialization round-trips.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "meta/metamodel.hpp"
#include "meta/model.hpp"
#include "meta/serialize.hpp"
#include "meta/validate.hpp"
#include "proto/scenarios.hpp"

namespace gm = gmdf::meta;

namespace {

// A small state-machine-flavoured metamodel used across the tests.
struct Fixture {
    gm::Metamodel mm{"fsm"};
    const gm::MetaEnum* kind;
    gm::MetaClass* element;
    gm::MetaClass* machine;
    gm::MetaClass* state;
    gm::MetaClass* transition;

    Fixture() {
        kind = &mm.add_enum("StateKind", {"initial", "normal", "final"});
        element = &mm.add_class("Element", /*is_abstract=*/true);
        mm.add_attribute(*element, gm::attr_string("name", /*required=*/true));

        state = &mm.add_class("State", false, element);
        mm.add_attribute(*state, gm::attr_enum("kind", *kind, true, gm::Value("normal")));
        mm.add_attribute(*state, gm::attr_int("entry_count", false, gm::Value(0)));

        transition = &mm.add_class("Transition", false, element);
        mm.add_reference(*transition, gm::ref_plain("from", *state, 1, 1));
        mm.add_reference(*transition, gm::ref_plain("to", *state, 1, 1));
        mm.add_attribute(*transition, gm::attr_string("event"));
        mm.add_attribute(*transition, gm::attr_real("weight"));
        mm.add_attribute(*transition, gm::attr_bool("enabled", false, gm::Value(true)));

        machine = &mm.add_class("Machine", false, element);
        mm.add_reference(*machine, gm::ref_contain("states", *state, 1, -1));
        mm.add_reference(*machine, gm::ref_contain("transitions", *transition));
        mm.add_reference(*machine, gm::ref_plain("initial", *state, 1, 1));
    }

    // Builds a valid two-state machine (off -> on -> off).
    gm::Model blinker() const {
        gm::Model m(mm);
        auto& off = m.create(*state);
        off.set_attr("name", gm::Value("off"));
        off.set_attr("kind", gm::Value("initial"));
        auto& on = m.create(*state);
        on.set_attr("name", gm::Value("on"));
        auto& t1 = m.create(*transition);
        t1.set_attr("name", gm::Value("t_on"));
        t1.set_attr("event", gm::Value("tick"));
        t1.set_ref("from", off.id());
        t1.set_ref("to", on.id());
        auto& t2 = m.create(*transition);
        t2.set_attr("name", gm::Value("t_off"));
        t2.set_attr("event", gm::Value("tick"));
        t2.set_ref("from", on.id());
        t2.set_ref("to", off.id());
        auto& mach = m.create(*machine);
        mach.set_attr("name", gm::Value("blinker"));
        mach.add_ref("states", off.id());
        mach.add_ref("states", on.id());
        mach.add_ref("transitions", t1.id());
        mach.add_ref("transitions", t2.id());
        mach.set_ref("initial", off.id());
        return m;
    }
};

TEST(Value, KindsAndAccessors) {
    EXPECT_TRUE(gm::Value().is_null());
    EXPECT_TRUE(gm::Value(true).as_bool());
    EXPECT_EQ(gm::Value(42).as_int(), 42);
    EXPECT_DOUBLE_EQ(gm::Value(2.5).as_real(), 2.5);
    EXPECT_EQ(gm::Value("hi").as_string(), "hi");
    gm::Value::List l{gm::Value(1), gm::Value(2)};
    EXPECT_EQ(gm::Value(l).as_list().size(), 2u);
}

TEST(Value, NumberCoercion) {
    EXPECT_DOUBLE_EQ(gm::Value(3).as_number(), 3.0);
    EXPECT_DOUBLE_EQ(gm::Value(3.5).as_number(), 3.5);
    EXPECT_THROW((void)gm::Value("x").as_number(), std::bad_variant_access);
}

TEST(Value, ToStringCanonicalForms) {
    EXPECT_EQ(gm::Value().to_string(), "null");
    EXPECT_EQ(gm::Value(true).to_string(), "true");
    EXPECT_EQ(gm::Value(-7).to_string(), "-7");
    EXPECT_EQ(gm::Value("a\"b\n").to_string(), "\"a\\\"b\\n\"");
    // Real literals always stay distinguishable from ints.
    EXPECT_NE(gm::Value(2.0).to_string().find('.'), std::string::npos);
}

TEST(Value, Equality) {
    EXPECT_EQ(gm::Value(1), gm::Value(1));
    EXPECT_NE(gm::Value(1), gm::Value(1.0));
    EXPECT_NE(gm::Value(), gm::Value(false));
}

TEST(MetaEnum, Literals) {
    gm::MetaEnum e("E", {"a", "b"});
    EXPECT_TRUE(e.contains("a"));
    EXPECT_FALSE(e.contains("c"));
    EXPECT_EQ(e.index_of("b"), 1u);
}

TEST(Metamodel, DuplicateClassRejected) {
    gm::Metamodel mm("m");
    mm.add_class("A");
    EXPECT_THROW(mm.add_class("A"), std::invalid_argument);
}

TEST(Metamodel, DuplicateFeatureRejected) {
    gm::Metamodel mm("m");
    auto& a = mm.add_class("A");
    mm.add_attribute(a, gm::attr_int("x"));
    EXPECT_THROW(mm.add_attribute(a, gm::attr_int("x")), std::invalid_argument);
    EXPECT_THROW(mm.add_reference(a, gm::ref_plain("x", a)), std::invalid_argument);
}

TEST(Metamodel, InheritedFeatureLookup) {
    Fixture f;
    EXPECT_NE(f.state->find_attribute("name"), nullptr);
    EXPECT_EQ(f.state->find_attribute("nope"), nullptr);
    EXPECT_TRUE(f.state->is_subtype_of(*f.element));
    EXPECT_FALSE(f.element->is_subtype_of(*f.state));
    // all_attributes lists supers first.
    const auto& attrs = f.state->all_attributes();
    ASSERT_EQ(attrs.size(), 3u);
    EXPECT_EQ(attrs[0]->name, "name");

    // A feature added to a superclass after its subclass exists shows
    // up in the subclass's lists, still supers first.
    f.mm.add_attribute(*f.element, gm::attr_string("note"));
    f.mm.add_reference(*f.element, gm::ref_plain("tags", *f.state));
    ASSERT_EQ(attrs.size(), 4u);
    EXPECT_EQ(attrs[0]->name, "name");
    EXPECT_EQ(attrs[1]->name, "note");
    EXPECT_EQ(attrs[2]->name, "kind");
    EXPECT_EQ(attrs[3]->name, "entry_count");
    const auto& refs = f.transition->all_references();
    ASSERT_EQ(refs.size(), 3u);
    EXPECT_EQ(refs[0]->name, "tags");
    EXPECT_EQ(refs[1]->name, "from");
    EXPECT_EQ(f.state->find_attribute("note"), f.element->find_attribute("note"));
    // A name a subclass already declares cannot be added above it.
    EXPECT_THROW(f.mm.add_attribute(*f.element, gm::attr_int("kind")), std::invalid_argument);
}

TEST(Metamodel, ForeignSuperclassRejected) {
    gm::Metamodel m1("m1"), m2("m2");
    auto& base = m1.add_class("Base");
    EXPECT_THROW(m2.add_class("Derived", false, &base), std::invalid_argument);
}

TEST(Model, CreateAppliesDefaults) {
    Fixture f;
    gm::Model m(f.mm);
    auto& s = m.create(*f.state);
    EXPECT_EQ(s.attr("kind").as_string(), "normal");
    EXPECT_EQ(s.attr("entry_count").as_int(), 0);
    EXPECT_TRUE(s.attr("name").is_null());
}

TEST(Model, AbstractClassRejected) {
    Fixture f;
    gm::Model m(f.mm);
    EXPECT_THROW(m.create(*f.element), std::invalid_argument);
}

TEST(Model, UnknownFeatureThrows) {
    Fixture f;
    gm::Model m(f.mm);
    auto& s = m.create(*f.state);
    EXPECT_THROW(s.set_attr("bogus", gm::Value(1)), std::invalid_argument);
    EXPECT_THROW((void)s.attr("bogus"), std::invalid_argument);
    EXPECT_THROW(s.add_ref("bogus", s.id()), std::invalid_argument);
}

TEST(Model, AttrKindMismatchThrows) {
    Fixture f;
    gm::Model m(f.mm);
    auto& s = m.create(*f.state);
    EXPECT_THROW(s.set_attr("entry_count", gm::Value("nope")), std::invalid_argument);
}

TEST(Model, IntPromotedIntoRealAttr) {
    Fixture f;
    gm::Model m(f.mm);
    auto& t = m.create(*f.transition);
    t.set_attr("weight", gm::Value(2));
    EXPECT_TRUE(t.attr("weight").is_real());
    EXPECT_DOUBLE_EQ(t.attr("weight").as_real(), 2.0);
}

TEST(Model, RefManipulation) {
    Fixture f;
    gm::Model m(f.mm);
    auto& a = m.create(*f.state);
    auto& b = m.create(*f.state);
    auto& t = m.create(*f.transition);
    t.set_ref("from", a.id());
    EXPECT_EQ(t.ref("from"), a.id());
    t.set_ref("from", b.id());
    ASSERT_EQ(t.refs("from").size(), 1u);
    EXPECT_EQ(t.ref("from"), b.id());
    EXPECT_EQ(t.remove_ref("from", b.id()), 1u);
    EXPECT_TRUE(t.ref("from").is_null());

    // A clone is a deep copy: mutating it leaves the original alone,
    // and it numbers new objects after the original's last id.
    t.set_ref("to", a.id());
    t.set_attr("event", gm::Value("go"));
    gm::Model copy = m.clone();
    gm::MObject& t2 = copy.at(t.id());
    t2.set_ref("to", b.id());
    t2.add_ref("from", a.id());
    t2.set_attr("event", gm::Value("stop"));
    EXPECT_EQ(t.ref("to"), a.id());
    EXPECT_TRUE(t.ref("from").is_null());
    EXPECT_EQ(t.attr("event").as_string(), "go");
    EXPECT_EQ(t2.ref("to"), b.id());
    EXPECT_EQ(t2.attr("event").as_string(), "stop");
    const gm::ObjectId last = t.id();
    EXPECT_TRUE(m.destroy(last));
    EXPECT_NE(copy.get(last), nullptr);
    EXPECT_EQ(copy.create(*f.state).id().raw, last.raw + 1);
    EXPECT_EQ(copy.size(), 4u);
    EXPECT_EQ(m.size(), 2u);
}

TEST(Model, DestroyAndLookup) {
    Fixture f;
    gm::Model m(f.mm);
    EXPECT_EQ(m.get(gm::ObjectId{}), nullptr);
    auto id = m.create(*f.state).id();
    EXPECT_FALSE(id.is_null());
    EXPECT_NE(m.get(id), nullptr);
    EXPECT_EQ(m.get(gm::ObjectId{}), nullptr);
    EXPECT_EQ(m.get(gm::ObjectId{id.raw + 1}), nullptr);
    EXPECT_EQ(m.get(gm::ObjectId{id.raw + 1000}), nullptr);
    auto kept = m.create(*f.state).id();
    EXPECT_EQ(m.size(), 2u);
    EXPECT_TRUE(m.destroy(id));
    EXPECT_EQ(m.get(id), nullptr);
    EXPECT_FALSE(m.destroy(id));
    EXPECT_FALSE(m.destroy(gm::ObjectId{}));
    EXPECT_THROW((void)m.at(id), std::out_of_range);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.ids(), std::vector<gm::ObjectId>{kept});

    // Destroyed ids are never reused, not even the last one.
    EXPECT_TRUE(m.destroy(kept));
    EXPECT_EQ(m.size(), 0u);
    auto fresh = m.create(*f.state).id();
    EXPECT_GT(fresh.raw, kept.raw);
    EXPECT_EQ(m.get(id), nullptr);
    EXPECT_EQ(m.get(kept), nullptr);

    // A moved-from model still never hands out the null id.
    gm::Model moved = std::move(m);
    EXPECT_NE(moved.get(fresh), nullptr);
    EXPECT_FALSE(m.create(*f.state).id().is_null()); // NOLINT(bugprone-use-after-move)
}

TEST(Model, AllOfIncludesSubclasses) {
    Fixture f;
    gm::Model m = f.blinker();
    EXPECT_EQ(m.all_of(*f.state).size(), 2u);
    EXPECT_EQ(m.all_of(*f.element).size(), 5u);
}

TEST(Model, FindNamed) {
    Fixture f;
    gm::Model m = f.blinker();
    const gm::MObject* off = m.find_named(*f.state, "off");
    ASSERT_NE(off, nullptr);
    EXPECT_EQ(off->attr("kind").as_string(), "initial");
    EXPECT_EQ(m.find_named(*f.state, "zzz"), nullptr);
}

TEST(Model, RootsAndContainer) {
    Fixture f;
    gm::Model m = f.blinker();
    auto roots = m.roots();
    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(roots[0]->name(), "blinker");
    const gm::MObject* off = m.find_named(*f.state, "off");
    const gm::MObject* owner = m.container_of(off->id());
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(owner->name(), "blinker");
}

TEST(Validate, CleanModel) {
    Fixture f;
    gm::Model m = f.blinker();
    auto ds = gm::validate(m);
    EXPECT_TRUE(gm::is_clean(ds)) << (ds.empty() ? "" : ds[0].to_string());
}

TEST(Validate, MissingRequiredAttribute) {
    Fixture f;
    gm::Model m(f.mm);
    m.create(*f.state); // no name
    auto ds = gm::validate(m);
    ASSERT_FALSE(gm::is_clean(ds));
    EXPECT_NE(ds[0].to_string().find("required"), std::string::npos);
}

TEST(Validate, BadEnumLiteral) {
    Fixture f;
    gm::Model m(f.mm);
    auto& s = m.create(*f.state);
    s.set_attr("name", gm::Value("s"));
    s.set_attr("kind", gm::Value("bogus"));
    EXPECT_FALSE(gm::is_clean(gm::validate(m)));
}

TEST(Validate, DanglingReference) {
    Fixture f;
    gm::Model m = f.blinker();
    const gm::MObject* off = m.find_named(*f.state, "off");
    auto off_id = off->id();
    m.destroy(off_id);
    auto ds = gm::validate(m);
    EXPECT_FALSE(gm::is_clean(ds));
    bool found = false;
    for (const auto& d : ds)
        if (d.to_string().find("dangling") != std::string::npos) found = true;
    EXPECT_TRUE(found);
}

TEST(Validate, MultiplicityLowerBound) {
    Fixture f;
    gm::Model m(f.mm);
    auto& t = m.create(*f.transition);
    t.set_attr("name", gm::Value("t"));
    auto ds = gm::validate(m); // from/to have lower bound 1
    int errors = 0;
    for (const auto& d : ds)
        if (d.severity == gm::Severity::Error) ++errors;
    EXPECT_GE(errors, 2);
}

TEST(Validate, MultiplicityUpperBound) {
    Fixture f;
    gm::Model m = f.blinker();
    gm::MObject* mach = m.all_of(*f.machine)[0];
    const gm::MObject* on = m.find_named(*f.state, "on");
    mach->add_ref("initial", on->id()); // now 2 > upper bound 1
    EXPECT_FALSE(gm::is_clean(gm::validate(m)));
}

TEST(Validate, DoubleContainmentReported) {
    Fixture f;
    gm::Model m = f.blinker();
    auto machines = m.all_of(*f.machine);
    auto& mach2 = m.create(*f.machine);
    mach2.set_attr("name", gm::Value("m2"));
    const gm::MObject* off = m.find_named(*f.state, "off");
    mach2.add_ref("states", off->id());
    mach2.set_ref("initial", off->id());
    (void)machines;
    auto ds = gm::validate(m);
    bool found = false;
    for (const auto& d : ds)
        if (d.to_string().find("contained by both") != std::string::npos) found = true;
    EXPECT_TRUE(found);
}

// a -> b -> c -> a is a containment cycle: each of its members reports
// it once. e hangs off the cycle and d holds a second container for a;
// neither is part of the cycle.
TEST(Validate, ContainmentCycleReportedAtItsMembers) {
    gm::Metamodel mm("tree");
    auto& node = mm.add_class("Node");
    mm.add_reference(node, gm::ref_contain("children", node));
    gm::Model m(mm);
    auto& a = m.create(node);
    auto& b = m.create(node);
    auto& c = m.create(node);
    auto& d = m.create(node);
    auto& e = m.create(node);
    a.add_ref("children", b.id());
    b.add_ref("children", c.id());
    b.add_ref("children", e.id());
    c.add_ref("children", a.id());
    d.add_ref("children", a.id());

    std::vector<gm::ObjectId> cyclic;
    std::size_t doubly_contained = 0;
    for (const gm::Diagnostic& diag : gm::validate(m)) {
        if (diag.message == "containment cycle") cyclic.push_back(diag.object);
        if (diag.message.find("contained by both") != std::string::npos) {
            EXPECT_EQ(diag.object, a.id());
            ++doubly_contained;
        }
    }
    EXPECT_EQ(cyclic, (std::vector<gm::ObjectId>{a.id(), b.id(), c.id()}));
    EXPECT_EQ(doubly_contained, 1u);
}

TEST(Validate, TypeMismatchedReference) {
    Fixture f;
    gm::Model m(f.mm);
    auto& t = m.create(*f.transition);
    t.set_attr("name", gm::Value("t"));
    auto& t2 = m.create(*f.transition);
    t2.set_attr("name", gm::Value("t2"));
    t.set_ref("from", t2.id()); // Transition is not a State
    t.set_ref("to", t2.id());
    EXPECT_FALSE(gm::is_clean(gm::validate(m)));
}

TEST(Serialize, RoundTripStable) {
    Fixture f;
    gm::Model m = f.blinker();
    std::string first = gm::write_model(m);
    gm::Model m2 = gm::read_model(f.mm, first);
    std::string second = gm::write_model(m2);
    EXPECT_EQ(first, second);
    EXPECT_EQ(m2.size(), m.size());
    EXPECT_TRUE(gm::is_clean(gm::validate(m2)));
}

TEST(Serialize, StringEscapesSurvive) {
    Fixture f;
    gm::Model m(f.mm);
    auto& s = m.create(*f.state);
    s.set_attr("name", gm::Value("we\"ird\n\tname\\"));
    std::string text = gm::write_model(m);
    gm::Model m2 = gm::read_model(f.mm, text);
    EXPECT_EQ(m2.all_of(*f.state)[0]->attr("name").as_string(), "we\"ird\n\tname\\");
}

TEST(Serialize, UnknownClassFails) {
    Fixture f;
    EXPECT_THROW((void)gm::read_model(f.mm, "model fsm\nobject @1 Nope\n"), gm::ParseError);
}

TEST(Serialize, WrongMetamodelNameFails) {
    Fixture f;
    EXPECT_THROW((void)gm::read_model(f.mm, "model other\n"), gm::ParseError);
}

TEST(Serialize, UndefinedRefTargetFails) {
    Fixture f;
    std::string text = "model fsm\n"
                       "object @1 Transition\n"
                       "  attr name = \"t\"\n"
                       "  ref from = @99\n";
    EXPECT_THROW((void)gm::read_model(f.mm, text), gm::ParseError);
}

TEST(Serialize, ParseErrorCarriesLine) {
    Fixture f;
    try {
        (void)gm::read_model(f.mm, "model fsm\ngarbage here\n");
        FAIL() << "expected ParseError";
    } catch (const gm::ParseError& e) {
        EXPECT_EQ(e.line(), 2u);
    }
}

TEST(Serialize, EmptyModel) {
    Fixture f;
    gm::Model m(f.mm);
    gm::Model m2 = gm::read_model(f.mm, gm::write_model(m));
    EXPECT_EQ(m2.size(), 0u);
}

// The write_model text of real COMDES designs: the turntable, campaign
// model 7, and model 7's clone after a wrong-transition-target fault is
// injected into it (what a campaign's faulted twin generates code from).
// Pins the object order, the feature order and every value's text.
TEST(Serialize, ComdesDesignsMatchGolden) {
    auto turntable = gmdf::proto::make_scenario("turntable");
    auto gen = gmdf::proto::make_scenario("gen:7:wrong-transition-target");
    ASSERT_NE(turntable, nullptr);
    ASSERT_NE(gen, nullptr);
    ASSERT_NE(gen->mutated, nullptr);
    std::string text = "# turntable\n" + gm::write_model(turntable->sys.model()) +
                       "# gen:7\n" + gm::write_model(gen->sys.model()) +
                       "# gen:7 after inject_fault(wrong-transition-target, seed 23)\n" +
                       gm::write_model(*gen->mutated);

    std::ifstream golden_file(std::string(GMDF_SOURCE_DIR) +
                              "/tests/golden/model_format.txt");
    ASSERT_TRUE(golden_file) << "missing tests/golden/model_format.txt";
    std::ostringstream golden;
    golden << golden_file.rdbuf();
    EXPECT_EQ(text, golden.str());
}

// Property: serialization round-trips for machines of any size.
class SerializeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SerializeSweep, RoundTripNStates) {
    Fixture f;
    gm::Model m(f.mm);
    int n = GetParam();
    std::vector<gm::ObjectId> states;
    for (int i = 0; i < n; ++i) {
        auto& s = m.create(*f.state);
        s.set_attr("name", gm::Value("s" + std::to_string(i)));
        s.set_attr("kind", gm::Value(i == 0 ? "initial" : "normal"));
        s.set_attr("entry_count", gm::Value(i * i));
        states.push_back(s.id());
    }
    auto& mach = m.create(*f.machine);
    mach.set_attr("name", gm::Value("ring"));
    for (int i = 0; i < n; ++i) {
        mach.add_ref("states", states[static_cast<std::size_t>(i)]);
        auto& t = m.create(*f.transition);
        t.set_attr("name", gm::Value("t" + std::to_string(i)));
        t.set_ref("from", states[static_cast<std::size_t>(i)]);
        t.set_ref("to", states[static_cast<std::size_t>((i + 1) % n)]);
        mach.add_ref("transitions", t.id());
    }
    mach.set_ref("initial", states[0]);

    std::string first = gm::write_model(m);
    gm::Model m2 = gm::read_model(f.mm, first);
    EXPECT_EQ(gm::write_model(m2), first);
    EXPECT_TRUE(gm::is_clean(gm::validate(m2)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SerializeSweep, ::testing::Values(1, 2, 5, 17, 64));

} // namespace
