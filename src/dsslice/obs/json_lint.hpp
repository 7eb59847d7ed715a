// Minimal strict JSON parser used to validate exporter output — by the obs
// tests (Chrome-trace round-trip) and by tools/trace_check in CI. Not a
// general-purpose JSON library: no comments, no trailing commas, numbers
// parsed as double, UTF-8 passed through unvalidated, and arrays and objects
// nested at most 256 deep (a deeper document is an error, not a crash).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dsslice::obs {

/// A parsed JSON value. Children are heap-allocated to keep the recursive
/// type simple; this is test/tool code, not a hot path.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const {
    if (type != Type::kObject) {
      return nullptr;
    }
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

/// Result of a parse: value plus error diagnostics (offset into the input).
struct JsonParseResult {
  bool ok = false;
  JsonValue value;
  std::string error;
  std::size_t error_offset = 0;
};

/// Parses exactly one JSON document; trailing non-whitespace is an error.
JsonParseResult parse_json(const std::string& text);

/// Tolerant parse for append-only streaming documents (the obs
/// StreamSink's Chrome-trace chunk files): accepts a strict document
/// unchanged, and additionally a truncated top-level array — one that ends
/// mid-stream with a trailing comma, a missing ']' or a final element cut
/// mid-write (the shapes an interrupted line-per-element appender leaves
/// behind; Perfetto loads them the same way). When `completed` is non-null
/// it reports whether the input was already a strict document.
JsonParseResult parse_streaming_json(const std::string& text,
                                     bool* completed = nullptr);

/// Parses JSONL: one document per non-empty line. Returns false and fills
/// `error` (with a 1-based line number) on the first malformed line.
bool parse_jsonl(const std::string& text, std::vector<JsonValue>& out,
                 std::string& error);

/// Tolerant JSONL parse for streams still being appended to: a malformed
/// *final* line with no trailing newline (a record cut mid-write) is
/// dropped instead of failing; any earlier malformed line still fails.
/// `truncated` (optional) reports whether a partial final line was
/// dropped.
bool parse_streaming_jsonl(const std::string& text,
                           std::vector<JsonValue>& out, std::string& error,
                           bool* truncated = nullptr);

}  // namespace dsslice::obs
