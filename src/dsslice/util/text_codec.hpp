// The line codec behind the repo's text formats: scenarios, fault specs and
// fault traces (sim/serialization.hpp) and sweep checkpoints
// (sweep/checkpoint.hpp).
//
// A file is a sequence of lines of whitespace-separated tokens. Tokens may
// be separated by any blanks (space, tab, CR, VT, FF), so CRLF files load;
// '#' starts a comment that runs to the end of the line, and lines with no
// tokens are skipped. Numbers are read only in the writer's spelling:
//
//  * integers as plain decimal digits — no sign, no leading zero, no 0x;
//  * doubles in the std::from_chars general grammar, the whole token — an
//    optional '-', decimal digits with an optional '.' and exponent, or
//    inf / nan; no '+', no hex, nothing after the number.
//
// Each format keeps its own policy on top: keywords, arities, range checks
// and sanity bounds.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dsslice {

/// Appends the formats' spellings to one string: text as is, integers in
/// decimal and doubles as %.17g, which round-trips every double exactly.
class TextWriter {
 public:
  explicit TextWriter(std::string& out) : out_(out) {}

  TextWriter& operator<<(std::string_view text) {
    out_ += text;
    return *this;
  }
  TextWriter& operator<<(char c) {
    out_ += c;
    return *this;
  }
  TextWriter& operator<<(std::integral auto value) {
    char buf[24];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, value);
    out_.append(buf, static_cast<std::size_t>(r.ptr - buf));
    return *this;
  }
  TextWriter& operator<<(double x);

 private:
  std::string& out_;
};

using Tokens = std::span<const std::string_view>;

/// Tokenizing line reader over a whole text, with line tracking for error
/// messages. Tokens are views into the text, kept in one vector that grows
/// to the longest line, so reading a line allocates nothing once it has.
class LineReader {
 public:
  /// `context` names the format in every error message:
  /// "<context> parse error at line N: ...".
  LineReader(std::string_view text, std::string_view context)
      : text_(text), context_(context) {}

  /// The tokens of the next line that has any. Valid until the next call.
  /// Throws ConfigError at the end of the text.
  Tokens next();

  /// Throws ConfigError naming the context and the current line.
  [[noreturn]] void fail(const std::string& why) const;

  /// Fails unless `tokens` is `keyword` followed by `arity` arguments.
  void expect(Tokens tokens, std::string_view keyword,
              std::size_t arity) const;

  /// Decimal digits as the writer spells them: no sign, no leading zero.
  std::uint64_t to_u64(std::string_view tok) const {
    std::uint64_t v = 0;
    const char* last = tok.data() + tok.size();
    const std::from_chars_result r = std::from_chars(tok.data(), last, v);
    if (r.ec != std::errc{} || r.ptr != last ||
        (tok.size() > 1 && tok[0] == '0')) {
      fail_not_u64(tok);
    }
    return v;
  }

  /// A double in the std::from_chars general grammar, the whole token.
  double to_double(std::string_view tok) const;

 private:
  /// to_u64's error path, out of line so that to_u64 inlines.
  [[noreturn]] void fail_not_u64(std::string_view tok) const;

  std::string_view text_;
  std::string_view context_;
  std::size_t pos_ = 0;
  int line_no_ = 0;
  std::vector<std::string_view> tokens_;
};

/// The whole file in one read. Throws ConfigError naming `what` when the
/// file cannot be opened or read.
std::string read_text_file(const std::string& path, std::string_view what);

}  // namespace dsslice
