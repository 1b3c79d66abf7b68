// Minimal JSON emitter and DOM parser for the observability and serving
// subsystems.
//
// The exporters (metrics snapshot, trace events, run reports) only need to
// *produce* JSON; nothing in the hot path parses it. The small DOM parser
// backs the serve layer's newline-delimited JSON request protocol, and
// validate_json (the same grammar) lets tests and the ctest smoke targets
// assert that emitted files are well-formed — all without pulling in an
// external JSON library.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ppg::obs {

/// Escapes a string for use inside a JSON string literal (no quotes added).
std::string json_escape(std::string_view s);

/// Streaming JSON builder with automatic comma placement. Usage:
///   JsonWriter w;
///   w.begin_object().key("n").value(3).end_object();
///   w.str();  // {"n":3}
/// Callers are responsible for balanced begin/end calls; the writer asserts
/// nothing and simply emits what it is told.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Emits `"name":` (with any needed comma). Must be followed by a value
  /// or a begin_object/begin_array.
  JsonWriter& key(std::string_view name);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(std::uint64_t u);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(bool b);
  JsonWriter& null();
  /// Splices a pre-serialised JSON value verbatim (comma placement still
  /// applies). The caller guarantees `json` is one well-formed value.
  JsonWriter& raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma();
  std::string out_;
  // One entry per open container: true until the first element is written.
  std::vector<bool> first_{true};
  bool after_key_ = false;
};

/// Validates that `text` is exactly one well-formed JSON value (RFC 8259
/// subset: objects, arrays, strings with escapes, numbers, literals):
/// whether parse_json accepts it. On failure returns false and, if `error`
/// is non-null, stores a short message with the byte offset of the problem.
bool validate_json(std::string_view text, std::string* error = nullptr);

/// Parsed JSON value (small DOM). Objects keep insertion order; find()
/// scans from the back, so on duplicate keys the last occurrence wins.
/// Numbers are doubles — ample for the wire protocol's counts and timeouts.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const noexcept { return type == Type::kNull; }
  bool is_object() const noexcept { return type == Type::kObject; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  // Typed member accessors (wire-protocol convenience): the value when the
  // key is present with the matching type, std::nullopt when absent or
  // mistyped (use find() to distinguish the two).
  std::optional<std::string> get_string(std::string_view key) const;
  std::optional<double> get_number(std::string_view key) const;
  std::optional<bool> get_bool(std::string_view key) const;
};

/// Parses exactly one JSON value. A \uD800-\uDBFF escape must be followed
/// by a \uDC00-\uDFFF one (a surrogate pair); a lone high surrogate is
/// malformed. Returns std::nullopt on malformed input and, if `error` is
/// non-null, stores a short message with the byte offset of the problem.
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

}  // namespace ppg::obs
