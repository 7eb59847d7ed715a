#include "dsslice/util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "dsslice/util/check.hpp"
#include "dsslice/util/string_util.hpp"

namespace dsslice {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_flag(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  DSSLICE_REQUIRE(!flags_.contains(name), "duplicate flag: " + name);
  flags_[name] = Flag{default_value, help, /*is_bool=*/false, std::nullopt};
  order_.push_back(name);
}

void CliParser::add_bool_flag(const std::string& name,
                              const std::string& help) {
  DSSLICE_REQUIRE(!flags_.contains(name), "duplicate flag: " + name);
  flags_[name] = Flag{"false", help, /*is_bool=*/true, std::nullopt};
  order_.push_back(name);
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help_text().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected positional argument '%s'\n",
                   program_.c_str(), arg.c_str());
      return false;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "%s: unknown flag --%s (see --help)\n",
                   program_.c_str(), name.c_str());
      return false;
    }
    Flag& flag = it->second;
    if (flag.is_bool && !value) {
      flag.value = "true";
      continue;
    }
    if (!value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag --%s requires a value\n",
                     program_.c_str(), name.c_str());
        return false;
      }
      value = argv[++i];
    }
    flag.value = std::move(*value);
  }
  return true;
}

const CliParser::Flag& CliParser::find(const std::string& name) const {
  const auto it = flags_.find(name);
  DSSLICE_REQUIRE(it != flags_.end(), "unregistered flag: " + name);
  return it->second;
}

std::string CliParser::get_string(const std::string& name) const {
  const Flag& flag = find(name);
  return flag.value.value_or(flag.default_value);
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string s = get_string(name);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  DSSLICE_REQUIRE(end != nullptr && *end == '\0' && !s.empty(),
                  "flag --" + name + " is not an integer: " + s);
  DSSLICE_REQUIRE(errno != ERANGE,
                  "flag --" + name + " is out of range: " + s);
  return static_cast<std::int64_t>(v);
}

std::size_t CliParser::get_count(const std::string& name) const {
  const std::int64_t v = get_int(name);
  DSSLICE_REQUIRE(v >= 0, "flag --" + name + " must not be negative: " +
                              get_string(name));
  return static_cast<std::size_t>(v);
}

double CliParser::get_double(const std::string& name) const {
  const std::string s = get_string(name);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  DSSLICE_REQUIRE(end != nullptr && *end == '\0' && !s.empty(),
                  "flag --" + name + " is not a number: " + s);
  return v;
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string s = get_string(name);
  return s == "true" || s == "1" || s == "yes";
}

bool CliParser::was_set(const std::string& name) const {
  return find(name).value.has_value();
}

std::string CliParser::help_text() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  " << pad_right("--" + name, 24) << flag.help << " (default: "
       << flag.default_value << ")\n";
  }
  os << "  " << pad_right("--help", 24) << "show this message\n";
  return os.str();
}

}  // namespace dsslice
