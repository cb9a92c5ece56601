#include "common/flags.h"

#include <gtest/gtest.h>

namespace congos {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, KeyEqualsValue) {
  auto f = parse({"--n=64", "--protocol=congos"});
  EXPECT_EQ(f.get_int("n", 0), 64);
  EXPECT_EQ(f.get("protocol", ""), "congos");
}

TEST(Flags, KeySpaceValue) {
  auto f = parse({"--n", "128", "--rate", "0.5"});
  EXPECT_EQ(f.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 0.5);
}

TEST(Flags, BooleanSwitch) {
  auto f = parse({"--csv", "--expander", "--quiet=false"});
  EXPECT_TRUE(f.get_bool("csv", false));
  EXPECT_TRUE(f.get_bool("expander", false));
  EXPECT_FALSE(f.get_bool("quiet", true));
  EXPECT_FALSE(f.get_bool("absent", false));
  EXPECT_TRUE(f.get_bool("absent", true));
}

TEST(Flags, BooleanSpellings) {
  auto f = parse({"--a=1", "--b=yes", "--c=on", "--d=0", "--e=no", "--f=off"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_TRUE(f.get_bool("b", false));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
  EXPECT_FALSE(f.get_bool("e", true));
  EXPECT_FALSE(f.get_bool("f", true));
}

TEST(Flags, Positional) {
  auto f = parse({"run", "--n=4", "fast"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "run");
  EXPECT_EQ(f.positional()[1], "fast");
}

TEST(Flags, SwitchFollowedByFlag) {
  // "--csv --n=4": csv must not swallow "--n=4" as its value.
  auto f = parse({"--csv", "--n=4"});
  EXPECT_TRUE(f.get_bool("csv", false));
  EXPECT_EQ(f.get_int("n", 0), 4);
}

TEST(Flags, Defaults) {
  auto f = parse({});
  EXPECT_EQ(f.get("missing", "dflt"), "dflt");
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(f.has("missing"));
}

TEST(Flags, UnknownKeys) {
  auto f = parse({"--n=4", "--typo=1"});
  const auto unknown = f.unknown_keys({"n", "rounds"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
  EXPECT_TRUE(f.unknown_keys({"n", "typo"}).empty());
}

TEST(Flags, NegativeNumbersAsValues) {
  auto f = parse({"--offset=-5"});
  EXPECT_EQ(f.get_int("offset", 0), -5);
}

TEST(Flags, MalformedNumbersAreRefused) {
  auto f = parse({"--a=12abc", "--b=", "--c=abc", "--d=0.5x", "--e=0.5",
                  "--f=99999999999999999999", "--g"});
  EXPECT_EQ(f.get_int("a", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("a", 1.5), 1.5);
  EXPECT_EQ(f.get_int("b", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("b", 1.5), 1.5);
  EXPECT_EQ(f.get_int("c", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("c", 1.5), 1.5);
  EXPECT_DOUBLE_EQ(f.get_double("d", 1.5), 1.5);
  EXPECT_EQ(f.get_int("f", 7), 7);  // out of range for int64
  EXPECT_EQ(f.get_int("g", 7), 7);  // a bare switch is not a number
  EXPECT_EQ(f.malformed(),
            (std::vector<std::string>{"a", "b", "c", "d", "f", "g"}));
  // A well-formed double is still not an integer.
  EXPECT_DOUBLE_EQ(f.get_double("e", 0), 0.5);
  EXPECT_EQ(f.get_int("e", 7), 7);
  EXPECT_EQ(f.malformed().back(), "e");
}

TEST(Flags, WellFormedNumbersRecordNothing) {
  auto f = parse({"--n=64", "--offset=-5", "--rate=0.25", "--big=1e3"});
  EXPECT_EQ(f.get_int("n", 0), 64);
  EXPECT_EQ(f.get_int("offset", 0), -5);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 0.25);
  EXPECT_DOUBLE_EQ(f.get_double("big", 0), 1000.0);
  EXPECT_EQ(f.get_int("absent", 3), 3);
  EXPECT_TRUE(f.malformed().empty());
}

TEST(Flags, LastOccurrenceWins) {
  auto f = parse({"--n=1", "--n=2"});
  EXPECT_EQ(f.get_int("n", 0), 2);
}

}  // namespace
}  // namespace congos
