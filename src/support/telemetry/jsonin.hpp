#pragma once
/// \file jsonin.hpp
/// Minimal JSON parser, the read-side counterpart of json.hpp. Introduced
/// for the serve subsystem: the JSONL job protocol and the write-ahead job
/// journal are parsed with this (docs/serving.md). It handles the full
/// JSON grammar (objects, arrays, strings with escapes, numbers, bools,
/// null) but stays deliberately small: one DOM value type, no streaming,
/// no comments/extensions. Inputs are single-line records a few KB in
/// size, so a recursive-descent parser over a string_view is the right
/// amount of machinery.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mosaic {
namespace telemetry {

/// Parsed JSON value (DOM node). Accessors throw mosaic::InvalidArgument
/// on type mismatch; the *Or lookups make flat-object protocol parsing
/// terse (missing key or wrong type -> default).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse a complete JSON document; trailing non-space input is an
  /// error. Throws InvalidArgument with an offset on malformed input.
  /// Nesting is capped (64 levels) so hostile input cannot blow the stack.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  JsonValue() = default;  // null

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool isNull() const { return type_ == Type::kNull; }
  [[nodiscard]] bool isBool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool isNumber() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool isString() const { return type_ == Type::kString; }
  [[nodiscard]] bool isArray() const { return type_ == Type::kArray; }
  [[nodiscard]] bool isObject() const { return type_ == Type::kObject; }
  /// A number that is an integer in int range: what intOr reads.
  [[nodiscard]] bool isInt() const;

  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const std::vector<JsonValue>& asArray() const;

  /// Object field lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  // Flat-object conveniences for protocol/journal records.
  [[nodiscard]] std::string stringOr(std::string_view key,
                                     std::string fallback) const;
  [[nodiscard]] double numberOr(std::string_view key, double fallback) const;
  /// A number that is not an integer in int range is a wrong type.
  [[nodiscard]] int intOr(std::string_view key, int fallback) const;
  [[nodiscard]] bool boolOr(std::string_view key, bool fallback) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace telemetry
}  // namespace mosaic
