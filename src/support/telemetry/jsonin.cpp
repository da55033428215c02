#include "support/telemetry/jsonin.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "support/error.hpp"
#include "support/telemetry/json.hpp"

namespace mosaic {
namespace telemetry {
namespace {

constexpr int kMaxDepth = 64;

}  // namespace

/// Recursive-descent parser over a string_view; one instance per parse().
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parseValue(0);
    skipSpace();
    check(pos_ == text_.size(), "trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("json: " + what + " at offset " +
                          std::to_string(pos_));
  }

  void check(bool ok, const char* what) const {
    if (!ok) fail(what);
  }

  void skipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    check(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  void expectLiteral(std::string_view word) {
    check(text_.substr(pos_, word.size()) == word, "bad literal");
    pos_ += word.size();
  }

  JsonValue parseValue(int depth) {
    check(depth < kMaxDepth, "nesting too deep");
    skipSpace();
    const char c = peek();
    JsonValue value;
    switch (c) {
      case '{':
        return parseObject(depth);
      case '[':
        return parseArray(depth);
      case '"':
        value.type_ = JsonValue::Type::kString;
        value.string_ = parseString();
        return value;
      case 't':
        expectLiteral("true");
        value.type_ = JsonValue::Type::kBool;
        value.bool_ = true;
        return value;
      case 'f':
        expectLiteral("false");
        value.type_ = JsonValue::Type::kBool;
        value.bool_ = false;
        return value;
      case 'n':
        expectLiteral("null");
        return value;
      default:
        value.type_ = JsonValue::Type::kNumber;
        value.number_ = parseNumber();
        return value;
    }
  }

  JsonValue parseObject(int depth) {
    expect('{');
    JsonValue value;
    value.type_ = JsonValue::Type::kObject;
    skipSpace();
    if (consume('}')) return value;
    for (;;) {
      skipSpace();
      check(peek() == '"', "expected object key string");
      std::string key = parseString();
      skipSpace();
      expect(':');
      value.object_.emplace_back(std::move(key), parseValue(depth + 1));
      skipSpace();
      if (consume(',')) continue;
      expect('}');
      return value;
    }
  }

  JsonValue parseArray(int depth) {
    expect('[');
    JsonValue value;
    value.type_ = JsonValue::Type::kArray;
    skipSpace();
    if (consume(']')) return value;
    for (;;) {
      value.array_.push_back(parseValue(depth + 1));
      skipSpace();
      if (consume(',')) continue;
      expect(']');
      return value;
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    bool sawHighByte = false;
    for (;;) {
      check(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') {
        // Raw multi-byte input is sanitized on the way in: a malformed
        // UTF-8 sequence in a journal or protocol line becomes U+FFFD
        // instead of propagating garbage bytes into re-emitted records.
        return sawHighByte ? sanitizeUtf8(out) : out;
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        if (static_cast<unsigned char>(c) >= 0x80) sawHighByte = true;
        out += c;
        continue;
      }
      check(pos_ < text_.size(), "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            check(pos_ < text_.size(), "truncated \\u escape");
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          appendUtf8(out, code);
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  /// Encode a BMP code point as UTF-8. Surrogate code points (which are
  /// not encodable as UTF-8 and would need pair decoding the emitter never
  /// produces) are sanitized to U+FFFD instead of emitted as invalid
  /// three-byte sequences.
  static void appendUtf8(std::string& out, unsigned code) {
    if (code >= 0xD800 && code <= 0xDFFF) code = 0xFFFD;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  double parseNumber() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    check(pos_ > start, "expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      pos_ = start;
      fail("bad number '" + token + "'");
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).run();
}

bool JsonValue::asBool() const {
  MOSAIC_CHECK(isBool(), "json value is not a bool");
  return bool_;
}

double JsonValue::asNumber() const {
  MOSAIC_CHECK(isNumber(), "json value is not a number");
  return number_;
}

const std::string& JsonValue::asString() const {
  MOSAIC_CHECK(isString(), "json value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::asArray() const {
  MOSAIC_CHECK(isArray(), "json value is not an array");
  return array_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!isObject()) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::stringOr(std::string_view key,
                                std::string fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->isString() ? v->string_ : std::move(fallback);
}

double JsonValue::numberOr(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->isNumber() ? v->number_ : fallback;
}

bool JsonValue::isInt() const {
  // The range test comes first: converting an out-of-range double to int
  // is undefined behaviour, and NaN fails every comparison.
  return isNumber() && number_ >= std::numeric_limits<int>::min() &&
         number_ <= std::numeric_limits<int>::max() &&
         std::trunc(number_) == number_;
}

int JsonValue::intOr(std::string_view key, int fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->isInt() ? static_cast<int>(v->number_) : fallback;
}

bool JsonValue::boolOr(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->isBool() ? v->bool_ : fallback;
}

}  // namespace telemetry
}  // namespace mosaic
