// Minimal command-line flag parser for the example and bench binaries.
//
// Supports `--name value`, `--name=value` and boolean `--flag` forms plus
// automatic `--help` text. Deliberately tiny: the binaries only need a
// handful of numeric knobs (graph count, processor count, seeds, ...).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dsslice {

class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Registers a flag with a default value (shown in --help).
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);
  void add_bool_flag(const std::string& name, const std::string& help);

  /// Parses argv. Returns false if --help was requested (help text printed)
  /// or an unknown flag was seen (error printed to stderr).
  bool parse(int argc, const char* const* argv);

  std::string get_string(const std::string& name) const;
  /// Integer flag value; a non-integer or out-of-range value throws a
  /// ConfigError naming the flag.
  std::int64_t get_int(const std::string& name) const;
  /// get_int for sizes and counts: a negative value throws a ConfigError
  /// naming the flag instead of wrapping to a huge std::size_t.
  std::size_t get_count(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  bool was_set(const std::string& name) const;

  std::string help_text() const;

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    bool is_bool = false;
    std::optional<std::string> value;
  };

  const Flag& find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace dsslice
