#include "meta/xml_io.hpp"

#include <charconv>

#include "util/strings.hpp"

namespace ig::meta {

namespace {

std::string type_name(ValueType type) { return std::string(to_string(type)); }

/// The shortest text that parses back to exactly `number` (util::parse_double
/// reads it), so a value survives any number of XML hops bitwise: 3 -> "3",
/// 0.1 -> "0.1", 1e21 -> "1e+21", -0.0 -> "-0".
std::string number_text(double number) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, number);
  return std::string(buffer, result.ptr);
}

ValueType type_from_name(const std::string& name, std::size_t offset) {
  if (name == "string") return ValueType::String;
  if (name == "number") return ValueType::Number;
  if (name == "boolean") return ValueType::Boolean;
  if (name == "list") return ValueType::List;
  if (name == "none") return ValueType::None;
  throw xml::ParseError("unknown value type '" + name + "'", offset);
}

}  // namespace

void value_to_xml(const Value& value, xml::Element& parent, const std::string& element_name) {
  xml::Element& node = parent.add_child(element_name);
  node.set_attribute("type", type_name(value.type()));
  switch (value.type()) {
    case ValueType::None:
      break;
    case ValueType::String:
      node.set_text(value.as_string());
      break;
    case ValueType::Number:
      node.set_text(number_text(value.as_number()));
      break;
    case ValueType::Boolean:
      node.set_text(value.as_boolean() ? "true" : "false");
      break;
    case ValueType::List:
      for (const auto& item : value.as_list()) value_to_xml(item, node, "value");
      break;
  }
}

Value value_from_xml(const xml::Element& element) {
  const ValueType type = type_from_name(element.attribute_or("type", "string"), 0);
  switch (type) {
    case ValueType::None:
      return Value();
    case ValueType::String:
      return Value(element.text());
    case ValueType::Number: {
      const auto number = util::parse_double(element.text());
      if (!number.has_value())
        throw xml::ParseError("value '" + element.text() + "' is not a number", 0);
      return Value(*number);
    }
    case ValueType::Boolean:
      return Value(element.text() == "true");
    case ValueType::List: {
      std::vector<Value> items;
      for (const auto& child : element.children()) items.push_back(value_from_xml(*child));
      return Value(std::move(items));
    }
  }
  return Value();
}

xml::Document to_xml(const Ontology& ontology) {
  xml::Document document("ontology");
  document.root().set_attribute("name", ontology.name());
  for (const auto* cls : ontology.classes()) {
    xml::Element& class_node = document.root().add_child("class");
    class_node.set_attribute("name", cls->name());
    if (!cls->parent().empty()) class_node.set_attribute("parent", cls->parent());
    if (!cls->documentation().empty())
      class_node.add_child_text("documentation", cls->documentation());
    for (const auto& slot : cls->own_slots()) {
      xml::Element& slot_node = class_node.add_child("slot");
      slot_node.set_attribute("name", slot.name);
      slot_node.set_attribute("type", type_name(slot.type));
      if (slot.required) slot_node.set_attribute("required", "true");
      if (!slot.allowed_values.empty())
        slot_node.set_attribute("allowed", util::join(slot.allowed_values, "|"));
      if (!slot.documentation.empty()) slot_node.set_attribute("doc", slot.documentation);
    }
  }
  for (const auto* instance : ontology.instances()) {
    xml::Element& instance_node = document.root().add_child("instance");
    instance_node.set_attribute("id", instance->id());
    instance_node.set_attribute("class", instance->class_name());
    for (const auto& [slot_name, value] : instance->slots()) {
      xml::Element& slot_node = instance_node.add_child("slot");
      slot_node.set_attribute("name", slot_name);
      value_to_xml(value, slot_node, "value");
    }
  }
  return document;
}

Ontology from_xml(const xml::Document& document) {
  const xml::Element& root = document.root();
  if (root.name() != "ontology") throw OntologyError("root element must be <ontology>");
  Ontology ontology(root.attribute_or("name", "unnamed"));
  for (const auto* class_node : root.find_children("class")) {
    auto& cls = ontology.add_class(class_node->attribute_or("name", ""),
                                   class_node->attribute_or("parent", ""));
    cls.set_documentation(class_node->child_text("documentation"));
    for (const auto* slot_node : class_node->find_children("slot")) {
      SlotDef slot;
      slot.name = slot_node->attribute_or("name", "");
      slot.type = type_from_name(slot_node->attribute_or("type", "string"), 0);
      slot.required = slot_node->attribute_or("required", "false") == "true";
      const std::string allowed = slot_node->attribute_or("allowed", "");
      if (!allowed.empty()) slot.allowed_values = util::split_trimmed(allowed, '|');
      slot.documentation = slot_node->attribute_or("doc", "");
      cls.add_slot(std::move(slot));
    }
  }
  for (const auto* instance_node : root.find_children("instance")) {
    auto& instance = ontology.add_instance(instance_node->attribute_or("id", ""),
                                           instance_node->attribute_or("class", ""));
    for (const auto* slot_node : instance_node->find_children("slot")) {
      const xml::Element* value_node = slot_node->find_child("value");
      if (value_node == nullptr) throw OntologyError("instance slot missing <value>");
      instance.set(slot_node->attribute_or("name", ""), value_from_xml(*value_node));
    }
  }
  return ontology;
}

std::string to_xml_string(const Ontology& ontology) { return to_xml(ontology).to_string(); }

Ontology from_xml_string(const std::string& text) { return from_xml(xml::parse(text)); }

}  // namespace ig::meta
