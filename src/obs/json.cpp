#include "obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>

#include "core/error.hpp"

namespace gpucnn::obs {

Json& Json::set(std::string key, Json value) {
  check(type_ == Type::kObject, "Json::set on a non-object");
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::push(Json value) {
  check(type_ == Type::kArray, "Json::push on a non-array");
  items_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  switch (type_) {
    case Type::kArray:
      return items_.size();
    case Type::kObject:
      return members_.size();
    default:
      return 0;
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) return "null";
  return std::string(buf, ptr);
}

namespace {

void write_indent(std::ostream& os, int indent, int depth) {
  if (indent <= 0) return;
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

}  // namespace

void Json::dump_impl(std::ostream& os, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      os << "null";
      return;
    case Type::kBool:
      os << (bool_ ? "true" : "false");
      return;
    case Type::kNumber:
      os << json_number(number_);
      return;
    case Type::kString:
      os << '"' << json_escape(string_) << '"';
      return;
    case Type::kArray: {
      if (items_.empty()) {
        os << "[]";
        return;
      }
      os << '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) os << ',';
        write_indent(os, indent, depth + 1);
        items_[i].dump_impl(os, indent, depth + 1);
      }
      write_indent(os, indent, depth);
      os << ']';
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        os << "{}";
        return;
      }
      os << '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) os << ',';
        write_indent(os, indent, depth + 1);
        os << '"' << json_escape(members_[i].first) << "\":";
        if (indent > 0) os << ' ';
        members_[i].second.dump_impl(os, indent, depth + 1);
      }
      write_indent(os, indent, depth);
      os << '}';
      return;
    }
  }
}

void Json::dump(std::ostream& os, int indent) const {
  dump_impl(os, indent, 0);
}

std::string Json::dump_string(int indent) const {
  std::ostringstream os;
  dump(os, indent);
  return os.str();
}

namespace {

/// Recursive-descent reader for the subset the writer emits: objects,
/// arrays, strings with \"\\/bfnrt(u) escapes, numbers, true/false/null.
/// Input is untrusted (tune caches on disk): nesting is capped, numbers
/// parse locale-independently within the view, and any syntax error
/// clears `ok`.
struct Reader {
  static constexpr int kMaxDepth = 64;

  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;
  bool ok = true;

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\n' ||
                                 text[pos] == '\r' || text[pos] == '\t')) {
      ++pos;
    }
  }
  [[nodiscard]] char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }
  bool consume(char c) {
    if (peek() != c) {
      ok = false;
      return false;
    }
    ++pos;
    return true;
  }
  void consume_word(std::string_view word) {
    skip_ws();
    if (text.substr(pos, word.size()) != word) {
      ok = false;
      return;
    }
    pos += word.size();
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return nested(&Reader::parse_object);
      case '[': return nested(&Reader::parse_array);
      case '"': return Json(parse_string());
      case 't': consume_word("true"); return Json(true);
      case 'f': consume_word("false"); return Json(false);
      case 'n': consume_word("null"); return {};
      default: return parse_number();
    }
  }

  /// Runs a container parse one nesting level deeper, failing past
  /// kMaxDepth instead of recursing without bound.
  Json nested(Json (Reader::*parse)()) {
    if (++depth > kMaxDepth) {
      ok = false;
      return {};
    }
    Json v = (this->*parse)();
    --depth;
    return v;
  }

  std::string parse_string() {
    std::string out;
    if (!consume('"')) return out;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\' && pos < text.size()) {
        const char esc = text[pos++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            pos = std::min(pos + 4, text.size());  // non-ASCII: drop
            continue;
          default: c = esc; break;  // \" \\ \/
        }
      }
      out.push_back(c);
    }
    consume('"');
    return out;
  }

  Json parse_number() {
    // JSON numbers start with '-' or a digit; from_chars alone would
    // also take "inf", "nan" and hex floats.
    const std::size_t digit = pos < text.size() && text[pos] == '-' ? pos + 1
                                                                     : pos;
    if (digit >= text.size() || text[digit] < '0' || text[digit] > '9') {
      ok = false;
      return {};
    }
    double v = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data() + pos, end, v);
    if (ec != std::errc{}) {
      ok = false;
      return {};
    }
    pos = static_cast<std::size_t>(ptr - text.data());
    return Json(v);
  }

  Json parse_array() {
    Json arr = Json::array();
    consume('[');
    if (peek() == ']') {
      ++pos;
      return arr;
    }
    while (ok) {
      arr.push(parse_value());
      if (peek() == ',') {
        ++pos;
        continue;
      }
      consume(']');
      break;
    }
    return arr;
  }

  Json parse_object() {
    Json obj = Json::object();
    consume('{');
    if (peek() == '}') {
      ++pos;
      return obj;
    }
    while (ok) {
      std::string key = parse_string();
      consume(':');
      obj.set(std::move(key), parse_value());
      if (peek() == ',') {
        ++pos;
        continue;
      }
      consume('}');
      break;
    }
    return obj;
  }
};

}  // namespace

std::optional<Json> parse_json(std::string_view text) {
  Reader r{text};
  Json v = r.parse_value();
  if (!r.ok) return std::nullopt;
  r.skip_ws();
  if (r.pos != text.size()) return std::nullopt;
  return v;
}

}  // namespace gpucnn::obs
