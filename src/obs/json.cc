#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace mpc::obs {

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out << v;
  return out.str();
}

namespace {

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    Status st = ParseValue(&value, 0);
    if (!st.ok()) return st;
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing garbage");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::ParseError("json: " + what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Reads 4 hex digits at `at` into *out; false when short or non-hex.
  bool ReadHex4(size_t at, uint32_t* out) const {
    if (at + 4 > text_.size()) return false;
    uint32_t value = 0;
    for (size_t i = 0; i < 4; ++i) {
      const char c = text_[at + i];
      uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint32_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint32_t>(c - 'A') + 10;
      } else {
        return false;
      }
      value = (value << 4) | digit;
    }
    *out = value;
    return true;
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      Status st = ParseString(&key);
      if (!st.ok()) return st;
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      st = ParseValue(&value, depth + 1);
      if (!st.ok()) return st;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue value;
      Status st = ParseValue(&value, depth + 1);
      if (!st.ok()) return st;
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::Ok();
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return Error("dangling escape");
        const char esc = text_[pos_ + 1];
        switch (esc) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'u': {
            // \uXXXX escape: decode the BMP codepoint — or, for a
            // high surrogate, pair it with the following \uXXXX low
            // surrogate — and append it as UTF-8.
            uint32_t cp = 0;
            if (!ReadHex4(pos_ + 2, &cp)) return Error("bad \\u escape");
            size_t consumed = 6;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              uint32_t lo = 0;
              if (text_.substr(pos_ + 6, 2) != "\\u" ||
                  !ReadHex4(pos_ + 8, &lo) || lo < 0xDC00 || lo > 0xDFFF) {
                return Error("unpaired surrogate in \\u escape");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              consumed = 12;
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return Error("unpaired surrogate in \\u escape");
            }
            AppendUtf8(out, cp);
            pos_ += consumed;
            continue;
          }
          default:
            return Error("bad escape");
        }
        pos_ += 2;
        continue;
      }
      *out += c;
      ++pos_;
    }
    return Error("unterminated string");
  }

  Status ParseKeyword(JsonValue* out) {
    auto match = [&](std::string_view word) {
      return text_.substr(pos_, word.size()) == word;
    };
    if (match("true")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      pos_ += 4;
      return Status::Ok();
    }
    if (match("false")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      pos_ += 5;
      return Status::Ok();
    }
    if (match("null")) {
      out->type = JsonValue::Type::kNull;
      pos_ += 4;
      return Status::Ok();
    }
    return Error("unknown keyword");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("bad number");
    out->type = JsonValue::Type::kNumber;
    out->number = value;
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace mpc::obs
