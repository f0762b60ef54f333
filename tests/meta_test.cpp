#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>

#include "meta/ontology.hpp"
#include "meta/standard.hpp"
#include "meta/xml_io.hpp"

namespace ig::meta {
namespace {

SlotDef slot(const char* name, ValueType type, bool required = false) {
  SlotDef def;
  def.name = name;
  def.type = type;
  def.required = required;
  return def;
}

TEST(Value, Types) {
  EXPECT_EQ(Value().type(), ValueType::None);
  EXPECT_EQ(Value("x").type(), ValueType::String);
  EXPECT_EQ(Value(1.5).type(), ValueType::Number);
  EXPECT_EQ(Value(3).type(), ValueType::Number);
  EXPECT_EQ(Value(true).type(), ValueType::Boolean);
  EXPECT_EQ(Value::list_of({"a", "b"}).type(), ValueType::List);
}

TEST(Value, DisplayStrings) {
  EXPECT_EQ(Value("hello").to_display_string(), "hello");
  EXPECT_EQ(Value(2.5).to_display_string(), "2.5");
  EXPECT_EQ(Value(3.0).to_display_string(), "3");
  EXPECT_EQ(Value(false).to_display_string(), "false");
  EXPECT_EQ(Value::list_of({"a", "b"}).to_display_string(), "{a, b}");
  EXPECT_EQ(Value().to_display_string(), "");
}

TEST(Value, StringListExtraction) {
  const auto items = Value::list_of({"D1", "D2"}).as_string_list();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], "D1");
  // A scalar string lifts to a one-element list.
  EXPECT_EQ(Value("solo").as_string_list().size(), 1u);
  EXPECT_TRUE(Value(2.0).as_string_list().empty());
}

TEST(Value, Equality) {
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
  EXPECT_NE(Value("1"), Value(1.0));
  EXPECT_EQ(Value::list_of({"a"}), Value::list_of({"a"}));
}

TEST(Ontology, AddClassAndSlots) {
  Ontology ontology("test");
  auto& task = ontology.add_class("Task");
  task.add_slot(slot("ID", ValueType::String, true));
  task.add_slot(slot("Size", ValueType::Number));
  EXPECT_TRUE(ontology.has_class("Task"));
  EXPECT_EQ(ontology.class_count(), 1u);
  EXPECT_NE(task.find_own_slot("ID"), nullptr);
  EXPECT_EQ(task.find_own_slot("Nope"), nullptr);
}

TEST(Ontology, DuplicateClassThrows) {
  Ontology ontology("test");
  ontology.add_class("Task");
  EXPECT_THROW(ontology.add_class("Task"), OntologyError);
}

TEST(Ontology, DuplicateSlotThrows) {
  Ontology ontology("test");
  auto& cls = ontology.add_class("Task");
  cls.add_slot(slot("ID", ValueType::String));
  EXPECT_THROW(cls.add_slot(slot("ID", ValueType::Number)), OntologyError);
}

TEST(Ontology, UnknownParentThrows) {
  Ontology ontology("test");
  EXPECT_THROW(ontology.add_class("Child", "Missing"), OntologyError);
}

TEST(Ontology, InheritanceAndEffectiveSlots) {
  Ontology ontology("test");
  auto& base = ontology.add_class("Resource");
  base.add_slot(slot("Name", ValueType::String, true));
  base.add_slot(slot("Speed", ValueType::Number));
  auto& derived = ontology.add_class("Cluster", "Resource");
  derived.add_slot(slot("Nodes", ValueType::Number));
  // Override: Cluster refines Speed as required.
  derived.add_slot(slot("Speed", ValueType::Number, true));

  const auto slots = ontology.effective_slots("Cluster");
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0].name, "Name");
  EXPECT_EQ(slots[1].name, "Speed");
  EXPECT_TRUE(slots[1].required);  // overridden facet
  EXPECT_EQ(slots[2].name, "Nodes");
}

TEST(Ontology, SubclassQuery) {
  Ontology ontology("test");
  ontology.add_class("A");
  ontology.add_class("B", "A");
  ontology.add_class("C", "B");
  EXPECT_TRUE(ontology.is_subclass_of("C", "A"));
  EXPECT_TRUE(ontology.is_subclass_of("A", "A"));
  EXPECT_FALSE(ontology.is_subclass_of("A", "C"));
  EXPECT_FALSE(ontology.is_subclass_of("X", "A"));
}

TEST(Ontology, InstancesAndLookup) {
  Ontology ontology("test");
  ontology.add_class("Task").add_slot(slot("ID", ValueType::String, true));
  auto& instance = ontology.add_instance("T1", "Task");
  instance.set("ID", Value("T1"));
  EXPECT_EQ(ontology.instance_count(), 1u);
  ASSERT_NE(ontology.find_instance("T1"), nullptr);
  EXPECT_EQ(ontology.find_instance("T1")->get_string("ID"), "T1");
  EXPECT_EQ(ontology.find_instance("T2"), nullptr);
  EXPECT_THROW(ontology.add_instance("T1", "Task"), OntologyError);
  EXPECT_THROW(ontology.add_instance("T2", "Missing"), OntologyError);
}

TEST(Ontology, InstancesOfIncludesSubclasses) {
  Ontology ontology("test");
  ontology.add_class("Resource");
  ontology.add_class("Cluster", "Resource");
  ontology.add_instance("r1", "Resource");
  ontology.add_instance("c1", "Cluster");
  EXPECT_EQ(ontology.instances_of("Resource").size(), 2u);
  EXPECT_EQ(ontology.instances_of("Cluster").size(), 1u);
}

TEST(Ontology, RemoveInstance) {
  Ontology ontology("test");
  ontology.add_class("Task");
  ontology.add_instance("T1", "Task");
  EXPECT_TRUE(ontology.remove_instance("T1"));
  EXPECT_FALSE(ontology.remove_instance("T1"));
  EXPECT_EQ(ontology.instance_count(), 0u);
}

TEST(Ontology, ShellStripsInstances) {
  Ontology ontology("test");
  ontology.add_class("Task");
  ontology.add_instance("T1", "Task");
  EXPECT_FALSE(ontology.is_shell());
  const Ontology shell = ontology.shell();
  EXPECT_TRUE(shell.is_shell());
  EXPECT_TRUE(shell.has_class("Task"));
  EXPECT_EQ(shell.name(), "test");
}

TEST(Validation, RequiredSlotMissing) {
  Ontology ontology("test");
  ontology.add_class("Task").add_slot(slot("ID", ValueType::String, true));
  ontology.add_instance("T1", "Task");  // ID unset
  const auto issues = ontology.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].slot, "ID");
}

TEST(Validation, TypeMismatch) {
  Ontology ontology("test");
  ontology.add_class("Task").add_slot(slot("Size", ValueType::Number));
  ontology.add_instance("T1", "Task").set("Size", Value("big"));
  const auto issues = ontology.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("expected number"), std::string::npos);
}

TEST(Validation, AllowedValues) {
  Ontology ontology("test");
  SlotDef status = slot("Status", ValueType::String);
  status.allowed_values = {"Running", "Done"};
  ontology.add_class("Task").add_slot(std::move(status));
  ontology.add_instance("ok", "Task").set("Status", Value("Running"));
  ontology.add_instance("bad", "Task").set("Status", Value("Zombie"));
  const auto issues = ontology.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].instance_id, "bad");
}

TEST(Validation, UndeclaredSlotReported) {
  Ontology ontology("test");
  ontology.add_class("Task");
  ontology.add_instance("T1", "Task").set("Ghost", Value("boo"));
  const auto issues = ontology.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].slot, "Ghost");
}

TEST(Merge, DisjointOntologies) {
  Ontology a("a");
  a.add_class("Task");
  a.add_instance("T1", "Task");
  Ontology b("b");
  b.add_class("Data");
  b.add_instance("D1", "Data");
  a.merge(b);
  EXPECT_EQ(a.class_count(), 2u);
  EXPECT_EQ(a.instance_count(), 2u);
}

TEST(Merge, ConflictingClassThrows) {
  Ontology a("a");
  a.add_class("Task").add_slot(slot("ID", ValueType::String));
  Ontology b("b");
  b.add_class("Task");  // different slot count
  EXPECT_THROW(a.merge(b), OntologyError);
}

TEST(Merge, DuplicateInstanceThrows) {
  Ontology a("a");
  a.add_class("Task");
  a.add_instance("T1", "Task");
  Ontology b("b");
  b.add_class("Task");
  b.add_instance("T1", "Task");
  EXPECT_THROW(a.merge(b), OntologyError);
}

// ---------------------------------------------------------------------------
// Standard grid ontology (Figure 12)
// ---------------------------------------------------------------------------

TEST(StandardOntology, HasAllTenClasses) {
  const Ontology ontology = standard_grid_ontology();
  EXPECT_EQ(ontology.class_count(), 10u);
  for (const char* name :
       {classes::kTask, classes::kProcessDescription, classes::kTransition,
        classes::kCaseDescription, classes::kActivity, classes::kData, classes::kService,
        classes::kResource, classes::kHardware, classes::kSoftware}) {
    EXPECT_TRUE(ontology.has_class(name)) << name;
  }
  EXPECT_TRUE(ontology.is_shell());
}

TEST(StandardOntology, FigureTwelveSlots) {
  const Ontology ontology = standard_grid_ontology();
  // Spot checks straight from the figure.
  const auto task_slots = ontology.effective_slots(classes::kTask);
  EXPECT_EQ(task_slots.size(), 10u);
  const auto data_slots = ontology.effective_slots(classes::kData);
  EXPECT_EQ(data_slots.size(), 15u);
  const auto activity_slots = ontology.effective_slots(classes::kActivity);
  EXPECT_EQ(activity_slots.size(), 18u);
  const auto service_slots = ontology.effective_slots(classes::kService);
  EXPECT_EQ(service_slots.size(), 17u);
  const auto hardware_slots = ontology.effective_slots(classes::kHardware);
  EXPECT_EQ(hardware_slots.size(), 8u);
}

TEST(StandardOntology, ActivityTypeEnumerated) {
  const Ontology ontology = standard_grid_ontology();
  const auto slots = ontology.effective_slots(classes::kActivity);
  const auto type_slot = std::find_if(slots.begin(), slots.end(),
                                      [](const SlotDef& s) { return s.name == "Type"; });
  ASSERT_NE(type_slot, slots.end());
  EXPECT_EQ(type_slot->allowed_values.size(), 7u);
}

// ---------------------------------------------------------------------------
// XML round trip
// ---------------------------------------------------------------------------

TEST(XmlIo, ValueRoundTrip) {
  xml::Element parent("p");
  value_to_xml(Value(3.25), parent, "value");
  value_to_xml(Value("text & more"), parent, "value");
  value_to_xml(Value(true), parent, "value");
  value_to_xml(Value::list_of({"a", "b"}), parent, "value");
  value_to_xml(Value(), parent, "value");
  const auto values = parent.find_children("value");
  ASSERT_EQ(values.size(), 5u);
  EXPECT_EQ(value_from_xml(*values[0]).as_number(), 3.25);
  EXPECT_EQ(value_from_xml(*values[1]).as_string(), "text & more");
  EXPECT_TRUE(value_from_xml(*values[2]).as_boolean());
  EXPECT_EQ(value_from_xml(*values[3]).as_string_list().size(), 2u);
  EXPECT_TRUE(value_from_xml(*values[4]).is_none());
}

TEST(XmlIo, NumbersRoundTripBitwise) {
  // Every XML hop must hand back the exact double it was given, so a value
  // carried typed inside a platform and one that crossed the wire agree.
  const double numbers[] = {0.1,    11.700000000000001,      1e-20, 5e-324,
                            1.7976931348623157e308, -0.0, 1e21};
  xml::Document document("p");
  for (const double number : numbers) value_to_xml(Value(number), document.root(), "value");
  const xml::Document parsed = xml::parse(document.to_string());
  const auto values = parsed.root().find_children("value");
  ASSERT_EQ(values.size(), std::size(numbers));
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double restored = value_from_xml(*values[i]).as_number();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(restored), std::bit_cast<std::uint64_t>(numbers[i]))
        << "wrote '" << values[i]->text() << "' for " << numbers[i];
  }

  // Integral values still print without a fraction.
  xml::Element parent("p");
  value_to_xml(Value(3.0), parent, "value");
  EXPECT_EQ(parent.find_children("value")[0]->text(), "3");
}

TEST(XmlIo, OntologyRoundTrip) {
  Ontology original = standard_grid_ontology();
  original.add_instance("T1", classes::kTask).set("ID", Value("T1"));
  original.find_instance_mutable("T1")->set("Name", Value("3DSD"));
  original.find_instance_mutable("T1")->set("Need Planning", Value(true));
  original.find_instance_mutable("T1")->set("Data Set", Value::list_of({"D1", "D2"}));

  const Ontology restored = from_xml_string(to_xml_string(original));
  EXPECT_EQ(restored.name(), original.name());
  EXPECT_EQ(restored.class_count(), original.class_count());
  ASSERT_NE(restored.find_instance("T1"), nullptr);
  EXPECT_EQ(restored.find_instance("T1")->get_string("Name"), "3DSD");
  EXPECT_TRUE(restored.find_instance("T1")->get("Need Planning").as_boolean());
  EXPECT_EQ(restored.find_instance("T1")->get_string_list("Data Set").size(), 2u);
  // Slots (facets) survive the round trip.
  const auto slots = restored.effective_slots(classes::kActivity);
  EXPECT_EQ(slots.size(), 18u);
  EXPECT_TRUE(restored.validate().empty());
}

TEST(XmlIo, NestedListValuesRoundTrip) {
  xml::Element parent("p");
  std::vector<Value> inner{Value("a"), Value(2.0)};
  std::vector<Value> outer{Value(std::move(inner)), Value(true)};
  value_to_xml(Value(std::move(outer)), parent, "value");
  const Value restored = value_from_xml(*parent.find_child("value"));
  ASSERT_EQ(restored.type(), ValueType::List);
  ASSERT_EQ(restored.as_list().size(), 2u);
  ASSERT_EQ(restored.as_list()[0].type(), ValueType::List);
  EXPECT_EQ(restored.as_list()[0].as_list()[0].as_string(), "a");
  EXPECT_DOUBLE_EQ(restored.as_list()[0].as_list()[1].as_number(), 2.0);
  EXPECT_TRUE(restored.as_list()[1].as_boolean());
}

TEST(XmlIo, SlotNamesWithSpacesSurvive) {
  Ontology original("spacy");
  original.add_class("Task").add_slot({"Submit Location", ValueType::String, false, {}, ""});
  original.add_instance("T1", "Task").set("Submit Location", Value("node-1-1"));
  const Ontology restored = from_xml_string(to_xml_string(original));
  EXPECT_EQ(restored.find_instance("T1")->get_string("Submit Location"), "node-1-1");
}

TEST(XmlIo, RejectsWrongRoot) {
  EXPECT_THROW(from_xml_string("<nope/>"), OntologyError);
}

}  // namespace
}  // namespace ig::meta
