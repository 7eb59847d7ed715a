#include "dsslice/obs/json_lint.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>

namespace dsslice::obs {

namespace {

/// Deepest array/object nesting accepted. The parser recurses once per
/// level, so a bound keeps a hostile file from overflowing the stack; the
/// exporters nest three levels deep.
constexpr int kMaxNestingDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult result;
    skip_ws();
    if (!parse_value(result.value)) {
      result.error = error_;
      result.error_offset = pos_;
      return result;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      result.error = "trailing characters after document";
      result.error_offset = pos_;
      return result;
    }
    result.ok = true;
    return result;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message;
    }
    return false;
  }

  bool literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) {
      return fail(std::string("expected '") + word + "'");
    }
    pos_ += len;
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) {
      return fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxNestingDepth) {
          return fail("nesting deeper than " +
                      std::to_string(kMaxNestingDepth) + " levels");
        }
        ++depth_;
        const bool ok =
            text_[pos_] == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.string);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return literal("true", 4);
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return literal("false", 5);
      case 'n':
        out.type = JsonValue::Type::kNull;
        return literal("null", 4);
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key string");
      }
      std::string key;
      if (!parse_string(key)) {
        return false;
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) {
        return false;
      }
      out.object.emplace(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) {
        return fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) {
        return false;
      }
      out.array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) {
        return fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return fail("unterminated escape");
        }
        switch (text_[pos_]) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) {
              return fail("truncated \\u escape");
            }
            unsigned code = 0;
            for (int k = 1; k <= 4; ++k) {
              const char h = text_[pos_ + static_cast<std::size_t>(k)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return fail("invalid \\u escape digit");
              }
            }
            pos_ += 4;
            // Exporters only ever emit \u00XX; encode as UTF-8 for
            // completeness.
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
            break;
          }
          default:
            return fail("invalid escape character");
        }
        ++pos_;
      } else {
        out += c;
        ++pos_;
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return fail("invalid number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("digit expected after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("digit expected in exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                             nullptr);
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

JsonParseResult parse_json(const std::string& text) {
  return Parser(text).run();
}

JsonParseResult parse_streaming_json(const std::string& text,
                                     bool* completed) {
  JsonParseResult strict = parse_json(text);
  if (strict.ok) {
    if (completed != nullptr) {
      *completed = true;
    }
    return strict;
  }
  if (completed != nullptr) {
    *completed = false;
  }
  // Truncated streaming array. The appender writes one element per line,
  // so a cut can land (a) between lines — trailing comma and/or missing
  // ']' — or (b) mid-record, leaving a partial final line. Drop anything
  // after the last newline, trim, drop at most one trailing comma, close
  // the array. Anything else keeps the strict error.
  std::size_t end = text.rfind('\n');
  if (end == std::string::npos) {
    end = text.size();
  }
  while (end > 0 &&
         (text[end - 1] == ' ' || text[end - 1] == '\t' ||
          text[end - 1] == '\n' || text[end - 1] == '\r')) {
    --end;
  }
  if (end == 0) {
    return strict;
  }
  std::string candidate = text.substr(0, end);
  if (candidate.back() == ',') {
    candidate.pop_back();
  }
  candidate += ']';
  JsonParseResult repaired = parse_json(candidate);
  if (repaired.ok && repaired.value.is_array()) {
    return repaired;
  }
  return strict;  // diagnose the original text, not the repair attempt
}

bool parse_jsonl(const std::string& text, std::vector<JsonValue>& out,
                 std::string& error) {
  std::istringstream lines(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    bool blank = true;
    for (const char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    }
    if (blank) {
      continue;
    }
    JsonParseResult result = parse_json(line);
    if (!result.ok) {
      std::ostringstream message;
      message << "line " << line_number << ": " << result.error
              << " (offset " << result.error_offset << ")";
      error = message.str();
      return false;
    }
    out.push_back(std::move(result.value));
  }
  return true;
}

bool parse_streaming_jsonl(const std::string& text,
                           std::vector<JsonValue>& out, std::string& error,
                           bool* truncated) {
  if (truncated != nullptr) {
    *truncated = false;
  }
  if (text.empty() || text.back() == '\n') {
    return parse_jsonl(text, out, error);
  }
  // No trailing newline: the last line may be a record cut mid-write.
  const std::size_t cut = text.rfind('\n');
  const std::string head = cut == std::string::npos
                               ? std::string()
                               : text.substr(0, cut + 1);
  const std::string tail =
      cut == std::string::npos ? text : text.substr(cut + 1);
  if (!parse_jsonl(head, out, error)) {
    return false;
  }
  JsonParseResult last = parse_json(tail);
  if (last.ok) {
    out.push_back(std::move(last.value));
  } else if (truncated != nullptr) {
    *truncated = true;
  }
  return true;
}

}  // namespace dsslice::obs
