// Tests for the CLI flag parser.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/flags.h"

namespace threelc {
namespace {

util::Flags Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return util::Flags(static_cast<int>(args.size()),
                     const_cast<char**>(args.data()));
}

// ---------- Flags ----------

TEST(Flags, EqualsForm) {
  auto f = Parse({"--steps=100", "--name=run1"});
  EXPECT_EQ(f.GetInt("steps", 0), 100);
  EXPECT_EQ(f.GetString("name", ""), "run1");
}

TEST(Flags, SpaceForm) {
  auto f = Parse({"--steps", "42"});
  EXPECT_EQ(f.GetInt("steps", 0), 42);
}

TEST(Flags, BareBoolean) {
  auto f = Parse({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_FALSE(f.GetBool("quiet", false));
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(Parse({"--x=yes"}).GetBool("x", false));
  EXPECT_TRUE(Parse({"--x=1"}).GetBool("x", false));
  EXPECT_FALSE(Parse({"--x=off"}).GetBool("x", true));
  EXPECT_FALSE(Parse({"--x=false"}).GetBool("x", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  auto f = Parse({});
  EXPECT_EQ(f.GetInt("n", 7), 7);
  EXPECT_EQ(f.GetDouble("d", 2.5), 2.5);
  EXPECT_EQ(f.GetString("s", "dflt"), "dflt");
}

TEST(Flags, PositionalArgsPreserved) {
  auto f = Parse({"input.bin", "--k=1", "output.bin"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.bin");
  EXPECT_EQ(f.positional()[1], "output.bin");
}

TEST(Flags, DoubleParsing) {
  auto f = Parse({"--lr=0.05"});
  EXPECT_DOUBLE_EQ(f.GetDouble("lr", 0.0), 0.05);
}

TEST(Flags, NegativeIntValue) {
  auto f = Parse({"--offset=-3"});
  EXPECT_EQ(f.GetInt("offset", 0), -3);
}

TEST(Flags, BadIntThrows) {
  auto f = Parse({"--steps=abc"});
  EXPECT_THROW(f.GetInt("steps", 0), std::runtime_error);
}

TEST(Flags, BadBoolThrows) {
  auto f = Parse({"--x=maybe"});
  EXPECT_THROW(f.GetBool("x", false), std::runtime_error);
}

TEST(Flags, HasDetectsPresence) {
  auto f = Parse({"--a=1"});
  EXPECT_TRUE(f.Has("a"));
  EXPECT_FALSE(f.Has("b"));
}

}  // namespace
}  // namespace threelc
