#include <gtest/gtest.h>

#include <string>

#include "dsslice/util/check.hpp"
#include "dsslice/util/cli.hpp"

namespace dsslice {
namespace {

CliParser make_parser() {
  CliParser p("prog", "test program");
  p.add_flag("graphs", "1024", "number of graphs");
  p.add_flag("olr", "0.8", "overall laxity ratio");
  p.add_flag("name", "default", "a string flag");
  p.add_bool_flag("verbose", "chatty output");
  return p;
}

TEST(Cli, DefaultsApplyWhenUnset) {
  CliParser p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_int("graphs"), 1024);
  EXPECT_DOUBLE_EQ(p.get_double("olr"), 0.8);
  EXPECT_EQ(p.get_string("name"), "default");
  EXPECT_FALSE(p.get_bool("verbose"));
  EXPECT_FALSE(p.was_set("graphs"));
}

TEST(Cli, ParsesSpaceAndEqualsForms) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--graphs", "64", "--olr=0.5", "--verbose"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.get_int("graphs"), 64);
  EXPECT_DOUBLE_EQ(p.get_double("olr"), 0.5);
  EXPECT_TRUE(p.get_bool("verbose"));
  EXPECT_TRUE(p.was_set("graphs"));
}

TEST(Cli, RejectsUnknownFlagAndPositional) {
  CliParser p = make_parser();
  const char* bad[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(p.parse(3, bad));
  CliParser q = make_parser();
  const char* pos[] = {"prog", "stray"};
  EXPECT_FALSE(q.parse(2, pos));
}

TEST(Cli, MissingValueFails) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--graphs"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(Cli, HelpReturnsFalseAndContainsFlags) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
  const std::string help = p.help_text();
  EXPECT_NE(help.find("--graphs"), std::string::npos);
  EXPECT_NE(help.find("--verbose"), std::string::npos);
}

TEST(Cli, TypeErrorsThrow) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--name", "abc"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_THROW(p.get_int("name"), ConfigError);
  EXPECT_THROW(p.get_double("name"), ConfigError);
  EXPECT_THROW(p.get_string("unregistered"), ConfigError);
}

TEST(Cli, OutOfRangeIntegerThrows) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--graphs", "99999999999999999999"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_THROW(p.get_int("graphs"), ConfigError);
  EXPECT_THROW(p.get_count("graphs"), ConfigError);
}

TEST(Cli, NegativeCountThrowsNamingTheFlag) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--graphs", "-1"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_int("graphs"), -1);
  try {
    (void)p.get_count("graphs");
    FAIL() << "a negative count was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--graphs"), std::string::npos)
        << e.what();
  }
}

TEST(Cli, CountAcceptsZeroAndPositive) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--graphs", "0"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_count("graphs"), 0u);
  CliParser q = make_parser();
  const char* dflt[] = {"prog"};
  ASSERT_TRUE(q.parse(1, dflt));
  EXPECT_EQ(q.get_count("graphs"), 1024u);
}

TEST(Cli, DuplicateRegistrationThrows) {
  CliParser p("prog", "x");
  p.add_flag("a", "1", "");
  EXPECT_THROW(p.add_flag("a", "2", ""), ConfigError);
}

}  // namespace
}  // namespace dsslice
