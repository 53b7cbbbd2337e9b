#ifndef MPC_OBS_JSON_H_
#define MPC_OBS_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace mpc::obs {

/// Minimal JSON DOM, just enough to round-trip-check the tracer's and
/// the metrics registry's exports (and for tools/trace_check). Not a
/// general-purpose parser, but escapes decode fully: \uXXXX BMP escapes
/// and surrogate pairs are decoded to UTF-8 (lone surrogates are a
/// ParseError), numbers parsed as double.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  /// First member with `key`, or nullptr. Objects only.
  const JsonValue* Find(std::string_view key) const;
};

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected). ParseError carries the byte offset of the problem.
Result<JsonValue> ParseJson(std::string_view text);

/// `s` as a quoted JSON string: quotes and backslashes are escaped, and
/// so is every control character (\n, \t, \r by name, the rest as
/// \u00XX), so ParseJson(JsonString(s)) gives back `s`.
std::string JsonString(std::string_view s);

/// `v` as a JSON number. JSON has no NaN or Inf, so a non-finite value
/// is written as 0 (observability data, not arithmetic).
std::string JsonNumber(double v);

}  // namespace mpc::obs

#endif  // MPC_OBS_JSON_H_
