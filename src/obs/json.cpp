#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ppg::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.back()) out_ += ',';
  first_.back() = false;
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  comma();
  // JSON has no inf/nan; degrade to null rather than emit an invalid token.
  if (!std::isfinite(d)) {
    out_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", d);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
  comma();
  out_ += std::to_string(u);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  comma();
  out_ += std::to_string(i);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
  return *this;
}

namespace {

/// Recursive-descent parser building the JsonValue DOM.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    skip_ws();
    JsonValue v;
    if (!value(v)) {
      fill(error);
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      err_ = "trailing content";
      fill(error);
      return std::nullopt;
    }
    return v;
  }

 private:
  void fill(std::string* error) const {
    if (error) *error = err_ + " at byte " + std::to_string(pos_);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++pos_;
  }

  bool fail(const char* what) {
    err_ = what;
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out) {
    if (depth_ > 256) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return object(out);
      case '[': return array(out);
      case '"':
        out.type = JsonValue::Type::kString;
        return string(out.string);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return literal("null");
      default:
        out.type = JsonValue::Type::kNumber;
        return number(out.number);
    }
  }

  bool object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    ++depth_;
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue member;
      if (!value(member)) return false;
      out.object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        --depth_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    ++depth_;
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue element;
      if (!value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        --depth_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  /// Appends a Unicode code point as UTF-8.
  static void append_utf8(std::string& s, std::uint32_t cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xc0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xe0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      s += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      s += static_cast<char>(0xf0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      s += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  bool hex4(std::uint32_t& out) {
    out = 0;
    for (int i = 0; i < 4; ++i) {
      ++pos_;
      if (eof() || !std::isxdigit(static_cast<unsigned char>(peek())))
        return fail("bad \\u escape");
      const char c = peek();
      out = (out << 4) | static_cast<std::uint32_t>(
                             c <= '9' ? c - '0' : (c | 0x20) - 'a' + 10);
    }
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // '"'
    while (!eof()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("control character in string");
      if (c == '\\') {
        ++pos_;
        if (eof()) return fail("unterminated escape");
        const char e = text_[pos_];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            std::uint32_t cp = 0;
            if (!hex4(cp)) return false;
            if (cp >= 0xd800 && cp < 0xdc00) {
              // Surrogate pair: require a following \uDCxx low surrogate.
              if (pos_ + 2 < text_.size() && text_[pos_ + 1] == '\\' &&
                  text_[pos_ + 2] == 'u') {
                pos_ += 2;
                std::uint32_t lo = 0;
                if (!hex4(lo)) return false;
                if (lo < 0xdc00 || lo > 0xdfff)
                  return fail("bad surrogate pair");
                cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
              } else {
                return fail("lone surrogate");
              }
            }
            append_utf8(out, cp);
            break;
          }
          default: return fail("bad escape character");
        }
      } else {
        out += static_cast<char>(c);
      }
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool number(double& out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
      return fail("expected value");
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail("bad fraction");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail("bad exponent");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    out = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                      nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string err_ = "invalid JSON";
};

}  // namespace

bool validate_json(std::string_view text, std::string* error) {
  return parse_json(text, error).has_value();
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (auto it = object.rbegin(); it != object.rend(); ++it)
    if (it->first == key) return &it->second;
  return nullptr;
}

std::optional<std::string> JsonValue::get_string(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->type != Type::kString) return std::nullopt;
  return v->string;
}

std::optional<double> JsonValue::get_number(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->type != Type::kNumber) return std::nullopt;
  return v->number;
}

std::optional<bool> JsonValue::get_bool(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->type != Type::kBool) return std::nullopt;
  return v->boolean;
}

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  return Parser(text).run(error);
}

}  // namespace ppg::obs
