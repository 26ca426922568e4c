// Unit tests for Shape, Tensor, and the vectorizable kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/matmul_kernels.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace threelc::tensor {
namespace {

// ---------- Shape ----------

TEST(Shape, DefaultIsScalar) {
  Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.num_elements(), 1);
}

TEST(Shape, NumElementsIsProduct) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.num_elements(), 24);
}

TEST(Shape, ZeroDimensionMeansEmpty) {
  Shape s{4, 0, 2};
  EXPECT_EQ(s.num_elements(), 0);
}

TEST(Shape, EqualityComparesDims) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(Shape, RowMajorOffset) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.Offset({0, 0, 0}), 0);
  EXPECT_EQ(s.Offset({0, 0, 3}), 3);
  EXPECT_EQ(s.Offset({0, 1, 0}), 4);
  EXPECT_EQ(s.Offset({1, 0, 0}), 12);
  EXPECT_EQ(s.Offset({1, 2, 3}), 23);
}

TEST(Shape, ToStringFormat) {
  EXPECT_EQ(Shape({3, 16}).ToString(), "[3, 16]");
  EXPECT_EQ(Shape().ToString(), "[]");
}

// ---------- Tensor ----------

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{3, 3});
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FullFillsValue) {
  Tensor t = Tensor::Full(Shape{5}, 2.5f);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, FromVectorIsOneD) {
  Tensor t = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.shape(), Shape({3}));
  EXPECT_EQ(t[1], 2.0f);
}

TEST(Tensor, MultiIndexAccess) {
  Tensor t(Shape{2, 3});
  t.at({1, 2}) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  EXPECT_EQ(t.at({1, 2}), 7.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshaped(Shape{2, 3});
  EXPECT_EQ(r.at({1, 0}), 4.0f);
  EXPECT_EQ(r.num_elements(), 6);
}

TEST(Tensor, ByteSizeIsFourPerElement) {
  Tensor t(Shape{10});
  EXPECT_EQ(t.byte_size(), 40u);
}

TEST(Tensor, CopyIsDeep) {
  Tensor a = Tensor::FromVector({1, 2});
  Tensor b = a;
  b[0] = 9;
  EXPECT_EQ(a[0], 1.0f);
}

// ---------- Elementwise kernels ----------

TEST(TensorOps, AddElementwise) {
  Tensor a = Tensor::FromVector({1, 2, 3});
  Tensor b = Tensor::FromVector({10, 20, 30});
  Add(a, b);
  EXPECT_EQ(a[0], 11.0f);
  EXPECT_EQ(a[2], 33.0f);
}

TEST(TensorOps, SubElementwise) {
  Tensor a = Tensor::FromVector({5, 5});
  Tensor b = Tensor::FromVector({2, 7});
  Sub(a, b);
  EXPECT_EQ(a[0], 3.0f);
  EXPECT_EQ(a[1], -2.0f);
}

TEST(TensorOps, AxpyAccumulatesScaled) {
  Tensor a = Tensor::FromVector({1, 1});
  Tensor b = Tensor::FromVector({2, 4});
  Axpy(a, 0.5f, b);
  EXPECT_EQ(a[0], 2.0f);
  EXPECT_EQ(a[1], 3.0f);
}

TEST(TensorOps, ScaleMultiplies) {
  Tensor a = Tensor::FromVector({2, -4});
  Scale(a, -1.5f);
  EXPECT_EQ(a[0], -3.0f);
  EXPECT_EQ(a[1], 6.0f);
}

TEST(TensorOps, MulElementwise) {
  Tensor a = Tensor::FromVector({2, 3});
  Tensor b = Tensor::FromVector({-1, 4});
  Mul(a, b);
  EXPECT_EQ(a[0], -2.0f);
  EXPECT_EQ(a[1], 12.0f);
}

// ---------- Reductions ----------

TEST(TensorOps, MaxAbsFindsMagnitude) {
  Tensor t = Tensor::FromVector({0.5f, -3.0f, 2.0f});
  EXPECT_EQ(MaxAbs(t), 3.0f);
}

TEST(TensorOps, MaxAbsOfZerosIsZero) {
  Tensor t(Shape{16});
  EXPECT_EQ(MaxAbs(t), 0.0f);
}

TEST(TensorOps, MaxAbsOfEmptyIsZero) {
  Tensor t(Shape{0});
  EXPECT_EQ(MaxAbs(t), 0.0f);
}

TEST(TensorOps, SumAndSumSquares) {
  Tensor t = Tensor::FromVector({1, 2, 3});
  EXPECT_DOUBLE_EQ(Sum(t), 6.0);
  EXPECT_DOUBLE_EQ(SumSquares(t), 14.0);
}

TEST(TensorOps, RmseOfIdenticalIsZero) {
  Tensor t = Tensor::FromVector({1, 2, 3});
  EXPECT_EQ(Rmse(t, t), 0.0);
}

TEST(TensorOps, RmseKnownValue) {
  Tensor a = Tensor::FromVector({0, 0});
  Tensor b = Tensor::FromVector({3, 4});
  EXPECT_NEAR(Rmse(a, b), std::sqrt(12.5), 1e-6);
}

TEST(TensorOps, MaxAbsDiffKnownValue) {
  Tensor a = Tensor::FromVector({1, 5});
  Tensor b = Tensor::FromVector({2, 1});
  EXPECT_EQ(MaxAbsDiff(a, b), 4.0f);
}

TEST(TensorOps, CountZerosCountsExactZeros) {
  Tensor t = Tensor::FromVector({0.0f, 1e-30f, 0.0f, -0.0f});
  EXPECT_EQ(CountZeros(t), 3);  // -0.0f == 0.0f
}

TEST(TensorOps, ArgMaxFindsFirstMaximum) {
  const float v[] = {1.0f, 5.0f, 5.0f, 2.0f};
  EXPECT_EQ(ArgMax(v, 4), 1u);
}

// ---------- Matmul family ----------

TEST(Matmul, KnownSmallProduct) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c(Shape{2, 2});
  Matmul(a, b, c);
  EXPECT_EQ(c[0], 58.0f);
  EXPECT_EQ(c[1], 64.0f);
  EXPECT_EQ(c[2], 139.0f);
  EXPECT_EQ(c[3], 154.0f);
}

TEST(Matmul, IdentityIsNoOp) {
  Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  Tensor eye(Shape{2, 2}, {1, 0, 0, 1});
  Tensor c(Shape{2, 2});
  Matmul(a, eye, c);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c[i], a[i]);
}

// Reference (naive, ijk) multiply used to cross-check the optimized
// loop orders on random matrices.
void NaiveMatmul(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::int64_t m = a.shape().dim(0), k = a.shape().dim(1),
                     n = b.shape().dim(1);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t t = 0; t < k; ++t) {
        acc += a[static_cast<std::size_t>(i * k + t)] *
               b[static_cast<std::size_t>(t * n + j)];
      }
      c[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
}

TEST(Matmul, MatchesNaiveOnRandomMatrices) {
  util::Rng rng(5);
  Tensor a(Shape{7, 11}), b(Shape{11, 5});
  FillNormal(a, rng, 0.0f, 1.0f);
  FillNormal(b, rng, 0.0f, 1.0f);
  Tensor c(Shape{7, 5}), ref(Shape{7, 5});
  Matmul(a, b, c);
  NaiveMatmul(a, b, ref);
  EXPECT_LT(MaxAbsDiff(c, ref), 1e-4f);
}

TEST(MatmulTransA, MatchesExplicitTranspose) {
  util::Rng rng(6);
  Tensor a(Shape{9, 4}), b(Shape{9, 6});
  FillNormal(a, rng, 0.0f, 1.0f);
  FillNormal(b, rng, 0.0f, 1.0f);
  // Explicit A^T.
  Tensor at(Shape{4, 9});
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 4; ++j) {
      at[static_cast<std::size_t>(j * 9 + i)] =
          a[static_cast<std::size_t>(i * 4 + j)];
    }
  }
  Tensor c(Shape{4, 6}), ref(Shape{4, 6});
  MatmulTransA(a, b, c);
  NaiveMatmul(at, b, ref);
  EXPECT_LT(MaxAbsDiff(c, ref), 1e-4f);
}

TEST(MatmulTransB, MatchesExplicitTranspose) {
  util::Rng rng(7);
  Tensor a(Shape{5, 8}), b(Shape{3, 8});
  FillNormal(a, rng, 0.0f, 1.0f);
  FillNormal(b, rng, 0.0f, 1.0f);
  Tensor bt(Shape{8, 3});
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 8; ++j) {
      bt[static_cast<std::size_t>(j * 3 + i)] =
          b[static_cast<std::size_t>(i * 8 + j)];
    }
  }
  Tensor c(Shape{5, 3}), ref(Shape{5, 3});
  MatmulTransB(a, b, c);
  NaiveMatmul(a, bt, ref);
  EXPECT_LT(MaxAbsDiff(c, ref), 1e-4f);
}

// ---------- Matmul kernels: dispatched vs scalar ----------

// Gaussian values with every 7th a +0, every 11th a -0, every 13th a
// denormal, plus one -inf (in A) or one NaN (in B) at a seeded position.
std::vector<float> KernelInput(std::size_t n, std::uint64_t seed,
                               float special) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = rng.NormalFloat(0.0f, 1.0f);
    if (i % 7 == 3) v[i] = 0.0f;
    if (i % 11 == 5) v[i] = -0.0f;
    if (i % 13 == 6) v[i] *= 1e-39f;
  }
  if (n > 0) v[rng.Below(n)] = special;
  return v;
}

// Bit-for-bit equality, so signed zeros, denormals and infinities count.
// The one exception is which NaN comes out where two NaNs meet (here -inf*0
// plus the input NaN): IEEE 754 leaves that payload open and compilers
// commute float adds, so neither variant pins it. A NaN must still match a
// NaN.
::testing::AssertionResult SameBits(const std::vector<float>& got,
                                    const std::vector<float>& want) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first difference at " << i << ": " << got[i] << " vs "
             << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(MatmulKernels, DispatchedMatchesScalarBitwise) {
  const internal::MatmulKernels& fast = internal::Kernels();
  const internal::MatmulKernels& scalar = internal::ScalarKernels();
  struct Dims {
    std::int64_t m, k, n;
  };
  std::vector<Dims> shapes;
  for (std::int64_t m : {1, 7, 8, 9, 17}) {
    for (std::int64_t k : {1, 3, 192}) {
      for (std::int64_t n : {1, 10, 31, 32, 33, 512}) {
        shapes.push_back({m, k, n});
      }
    }
  }
  // The benchmark MLP (192 -> 512 -> 512 -> 10) at batch 8.
  shapes.push_back({8, 192, 512});
  shapes.push_back({8, 512, 512});
  shapes.push_back({8, 512, 10});
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::uint64_t seed = 1;
  for (const Dims& d : shapes) {
    const auto m = static_cast<std::size_t>(d.m);
    const auto k = static_cast<std::size_t>(d.k);
    const auto n = static_cast<std::size_t>(d.n);
    SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k
                                      << " n=" << n);
    // Matmul: A(m x k) * B(k x n).
    auto a = KernelInput(m * k, seed++, -inf);
    auto b = KernelInput(k * n, seed++, nan);
    std::vector<float> got(m * n, 1.0f), want(m * n, 2.0f);
    fast.matmul(a.data(), b.data(), got.data(), d.m, d.k, d.n);
    scalar.matmul(a.data(), b.data(), want.data(), d.m, d.k, d.n);
    EXPECT_TRUE(SameBits(got, want)) << "Matmul";
    // MatmulTransA: A(m x k)^T * B(m x n).
    b = KernelInput(m * n, seed++, nan);
    got.assign(k * n, 1.0f);
    want.assign(k * n, 2.0f);
    fast.matmul_trans_a(a.data(), b.data(), got.data(), d.m, d.k, d.n);
    scalar.matmul_trans_a(a.data(), b.data(), want.data(), d.m, d.k, d.n);
    EXPECT_TRUE(SameBits(got, want)) << "MatmulTransA";
    // MatmulTransB: A(m x k) * B(n x k)^T, a dot product of length k.
    b = KernelInput(n * k, seed++, nan);
    got.assign(m * n, 1.0f);
    want.assign(m * n, 2.0f);
    fast.matmul_trans_b(a.data(), b.data(), got.data(), d.m, d.k, d.n);
    scalar.matmul_trans_b(a.data(), b.data(), want.data(), d.m, d.k, d.n);
    EXPECT_TRUE(SameBits(got, want)) << "MatmulTransB";
  }
}

// ---------- Random fills ----------

TEST(Fill, NormalHasRequestedMoments) {
  util::Rng rng(8);
  Tensor t(Shape{100000});
  FillNormal(t, rng, 2.0f, 3.0f);
  const double mean = Sum(t) / static_cast<double>(t.size());
  EXPECT_NEAR(mean, 2.0, 0.05);
  double var = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    var += (t[i] - mean) * (t[i] - mean);
  }
  var /= static_cast<double>(t.size());
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Fill, UniformRespectsBounds) {
  util::Rng rng(9);
  Tensor t(Shape{10000});
  FillUniform(t, rng, -1.0f, 2.0f);
  EXPECT_GE(MaxAbs(t), 0.0f);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t[i], -1.0f);
    EXPECT_LT(t[i], 2.0f);
  }
}

// ---------- Parameterized shape sweep ----------

class TensorSizeSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TensorSizeSweep, AddThenSubIsIdentity) {
  const std::int64_t n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n) + 1);
  Tensor a(Shape{n}), b(Shape{n});
  FillNormal(a, rng, 0.0f, 1.0f);
  FillNormal(b, rng, 0.0f, 1.0f);
  Tensor orig = a;
  Add(a, b);
  Sub(a, b);
  EXPECT_LT(MaxAbsDiff(a, orig), 1e-5f);
}

TEST_P(TensorSizeSweep, ScaleByOneIsIdentity) {
  const std::int64_t n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n) + 2);
  Tensor a(Shape{n});
  FillNormal(a, rng, 0.0f, 1.0f);
  Tensor orig = a;
  Scale(a, 1.0f);
  EXPECT_EQ(MaxAbsDiff(a, orig), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TensorSizeSweep,
                         ::testing::Values<std::int64_t>(0, 1, 2, 5, 31, 64,
                                                         1000, 4097));

}  // namespace
}  // namespace threelc::tensor
