// Tests for the CLI flag parser, plus the Adam optimizer added alongside
// it.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "nn/adam.h"
#include "nn/loss.h"
#include "tensor/tensor_ops.h"
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

// ---------- Adam ----------

TEST(Adam, FirstStepIsSignedUnitStep) {
  // With bias correction, the first Adam step is ~lr * sign(g).
  nn::Adam adam({0.9f, 0.999f, 1e-8f, 0.0f});
  tensor::Tensor w(tensor::Shape{2}, {1.0f, -1.0f});
  tensor::Tensor g(tensor::Shape{2}, {0.5f, -0.25f});
  std::vector<nn::ParamRef> params = {{"w", &w, &g, true, false}};
  adam.ApplyGradients(params, 0.01f);
  EXPECT_NEAR(w[0], 1.0f - 0.01f, 1e-5);
  EXPECT_NEAR(w[1], -1.0f + 0.01f, 1e-5);
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize f(w) = 0.5 * (w - 3)^2 with gradient (w - 3).
  nn::Adam adam;
  tensor::Tensor w(tensor::Shape{1}, {0.0f});
  tensor::Tensor g(tensor::Shape{1});
  std::vector<nn::ParamRef> params = {{"w", &w, &g, true, false}};
  for (int i = 0; i < 2000; ++i) {
    g[0] = w[0] - 3.0f;
    adam.ApplyGradients(params, 0.05f);
  }
  EXPECT_NEAR(w[0], 3.0f, 0.05f);
}

TEST(Adam, DecoupledWeightDecayShrinksFlaggedParams) {
  nn::Adam adam({0.9f, 0.999f, 1e-8f, 0.1f});
  tensor::Tensor w1(tensor::Shape{1}, {1.0f}), w2(tensor::Shape{1}, {1.0f});
  tensor::Tensor g(tensor::Shape{1}, {0.0f});
  std::vector<nn::ParamRef> params = {{"decayed", &w1, &g, true, true},
                                      {"plain", &w2, &g, true, false}};
  adam.ApplyGradients(params, 0.1f);
  EXPECT_LT(w1[0], 1.0f);
  EXPECT_FLOAT_EQ(w2[0], 1.0f);
}

TEST(Adam, StatePerParameterName) {
  nn::Adam adam;
  tensor::Tensor w1(tensor::Shape{1}, {0.0f}), w2(tensor::Shape{1}, {0.0f});
  tensor::Tensor g1(tensor::Shape{1}, {1.0f}), g2(tensor::Shape{1}, {-1.0f});
  std::vector<nn::ParamRef> params = {{"a", &w1, &g1, true, false},
                                      {"b", &w2, &g2, true, false}};
  for (int i = 0; i < 10; ++i) adam.ApplyGradients(params, 0.01f);
  EXPECT_LT(w1[0], 0.0f);
  EXPECT_GT(w2[0], 0.0f);
}

}  // namespace
}  // namespace threelc
