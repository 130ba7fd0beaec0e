// Minimal ordered JSON document model backing every observability export
// (run manifests, metric snapshots, Chrome traces — see docs/METRICS.md).
// Objects preserve insertion order so exports are deterministic and
// diffable; numbers render via shortest-round-trip formatting. A reader
// for the same subset (parse_json) loads documents back, e.g. tune
// caches. No external dependencies.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpucnn::obs {

/// One JSON value: null, bool, number, string, array or object.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  ///< null
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(double value) : type_(Type::kNumber), number_(value) {}
  Json(int value) : Json(static_cast<double>(value)) {}
  Json(std::size_t value) : Json(static_cast<double>(value)) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}

  [[nodiscard]] static Json array() { return Json(Type::kArray); }
  [[nodiscard]] static Json object() { return Json(Type::kObject); }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }

  /// Object member insertion (replaces an existing key); returns *this
  /// for chaining. The value must be an object.
  Json& set(std::string key, Json value);
  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Array append; the value must be an array.
  Json& push(Json value);

  /// Element count of an array or object; 0 for scalars.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::vector<Json>& items() const { return items_; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const {
    return members_;
  }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return number_; }
  [[nodiscard]] const std::string& as_string() const { return string_; }

  /// Serialises the value. indent == 0 renders compact single-line JSON;
  /// indent > 0 pretty-prints with that many spaces per level.
  void dump(std::ostream& os, int indent = 0) const;
  [[nodiscard]] std::string dump_string(int indent = 0) const;

 private:
  explicit Json(Type t) : type_(t) {}
  void dump_impl(std::ostream& os, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;                             // kArray
  std::vector<std::pair<std::string, Json>> members_;   // kObject
};

/// Escapes a string for inclusion inside JSON quotes.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Renders a double the way Json does: shortest round-trip decimal;
/// non-finite values become "null" (JSON has no NaN/inf literals).
[[nodiscard]] std::string json_number(double value);

/// Parses one JSON document (the subset Json writes, nesting at most 64
/// levels deep); nullopt on any syntax error, on deeper nesting, on an
/// out-of-range number or on trailing content. Safe on untrusted input.
[[nodiscard]] std::optional<Json> parse_json(std::string_view text);

}  // namespace gpucnn::obs
