// String formatting helpers shared by the report module, benches and tests.
#pragma once

#include <string>
#include <vector>

namespace dsslice {

/// Formats a double with `digits` decimal places (fixed notation), as
/// printf's "%.*f" does.
std::string format_fixed(double value, int digits);

/// Formats a ratio in [0,1] as a percentage string, e.g. "42.3%".
std::string format_percent(double ratio, int digits = 1);

/// Joins the given parts with a separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Left/right-pads `s` with spaces to at least `width` characters.
std::string pad_left(const std::string& s, std::size_t width);
std::string pad_right(const std::string& s, std::size_t width);

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Trims ASCII whitespace from both ends.
std::string trim(const std::string& s);

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters), per RFC 8259.
std::string json_escape(const std::string& text);

}  // namespace dsslice
