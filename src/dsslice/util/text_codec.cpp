#include "dsslice/util/text_codec.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

/// The characters std::isspace matches in the "C" locale, bar '\n'.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

}  // namespace

TextWriter& TextWriter::operator<<(double x) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, x, std::chars_format::general, 17);
  out_.append(buf, static_cast<std::size_t>(r.ptr - buf));
  return *this;
}

Tokens LineReader::next() {
  while (pos_ < text_.size()) {
    ++line_no_;
    std::size_t eol = text_.find('\n', pos_);
    if (eol == std::string_view::npos) {
      eol = text_.size();
    }
    std::string_view line = text_.substr(pos_, eol - pos_);
    pos_ = eol + 1;
    line = line.substr(0, line.find('#'));
    const char* p = line.data();
    const char* const end = p + line.size();
    // Locals, not members, in the scan loop: the token stores could alias
    // the reader's fields, and reloading them cost ~10% of a checkpoint
    // parse.
    std::string_view* out = tokens_.data();
    std::size_t cap = tokens_.size();
    std::size_t count = 0;
    for (;;) {
      while (p != end && is_space(*p)) {
        ++p;
      }
      if (p == end) {
        break;
      }
      const char* const begin = p;
      while (p != end && !is_space(*p)) {
        ++p;
      }
      if (count == cap) {
        tokens_.resize(2 * cap + 8);
        out = tokens_.data();
        cap = tokens_.size();
      }
      out[count++] =
          std::string_view(begin, static_cast<std::size_t>(p - begin));
    }
    if (count != 0) {
      return Tokens(out, count);
    }
  }
  fail("unexpected end of input");
}

void LineReader::fail(const std::string& why) const {
  throw ConfigError(std::string(context_) + " parse error at line " +
                    std::to_string(line_no_) + ": " + why);
}

void LineReader::expect(Tokens tokens, std::string_view keyword,
                        std::size_t arity) const {
  if (tokens.size() != arity + 1 || tokens[0] != keyword) {
    fail("expected '" + std::string(keyword) + "' with " +
         std::to_string(arity) + " argument(s)");
  }
}

void LineReader::fail_not_u64(std::string_view tok) const {
  fail("not an unsigned integer: " + std::string(tok));
}

double LineReader::to_double(std::string_view tok) const {
  double v = 0.0;
  const char* last = tok.data() + tok.size();
  const std::from_chars_result r =
      std::from_chars(tok.data(), last, v, std::chars_format::general);
  if (r.ec != std::errc{} || r.ptr != last) {
    fail("not a number: " + std::string(tok));
  }
  return v;
}

std::string read_text_file(const std::string& path, std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ConfigError("cannot read " + std::string(what) + ": " + path);
  }
  // One read into a buffer sized from the file; the extra byte lets that
  // read reach end-of-file. The loop only repeats if the file grew since.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string text(ec ? 0 : static_cast<std::size_t>(size) + 1, '\0');
  std::size_t filled = 0;
  while (in) {
    if (filled == text.size()) {
      text.resize(std::max<std::size_t>(2 * text.size(), 4096));
    }
    in.read(text.data() + filled,
            static_cast<std::streamsize>(text.size() - filled));
    filled += static_cast<std::size_t>(in.gcount());
  }
  if (in.bad()) {
    throw ConfigError("read failed for " + std::string(what) + ": " + path);
  }
  text.resize(filled);
  return text;
}

}  // namespace dsslice
