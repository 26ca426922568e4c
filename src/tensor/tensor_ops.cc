#include "tensor/tensor_ops.h"

#include <cmath>

#include "tensor/matmul_kernels.h"
#include "util/logging.h"

namespace threelc::tensor {

namespace {
void CheckSameShape(const Tensor& a, const Tensor& b) {
  THREELC_CHECK_MSG(a.SameShape(b), "shape mismatch: " << a.shape().ToString()
                                                       << " vs "
                                                       << b.shape().ToString());
}
}  // namespace

void Add(Tensor& dst, const Tensor& src) {
  CheckSameShape(dst, src);
  float* d = dst.data();
  const float* s = src.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] += s[i];
}

void Sub(Tensor& dst, const Tensor& src) {
  CheckSameShape(dst, src);
  float* d = dst.data();
  const float* s = src.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] -= s[i];
}

void Axpy(Tensor& dst, float alpha, const Tensor& src) {
  CheckSameShape(dst, src);
  float* d = dst.data();
  const float* s = src.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] += alpha * s[i];
}

void Scale(Tensor& dst, float alpha) {
  float* d = dst.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] *= alpha;
}

void Mul(Tensor& dst, const Tensor& src) {
  CheckSameShape(dst, src);
  float* d = dst.data();
  const float* s = src.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] *= s[i];
}

float MaxAbs(const Tensor& t) {
  const float* p = t.data();
  const std::size_t n = t.size();
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = std::fabs(p[i]);
    m = a > m ? a : m;
  }
  return m;
}

double Sum(const Tensor& t) {
  const float* p = t.data();
  const std::size_t n = t.size();
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += p[i];
  return s;
}

double SumSquares(const Tensor& t) {
  const float* p = t.data();
  const std::size_t n = t.size();
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += static_cast<double>(p[i]) * p[i];
  return s;
}

double Rmse(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  const float* pa = a.data();
  const float* pb = b.data();
  const std::size_t n = a.size();
  if (n == 0) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(pa[i]) - pb[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(n));
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  const float* pa = a.data();
  const float* pb = b.data();
  const std::size_t n = a.size();
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = std::fabs(pa[i] - pb[i]);
    m = d > m ? d : m;
  }
  return m;
}

std::int64_t CountZeros(const Tensor& t) {
  const float* p = t.data();
  const std::size_t n = t.size();
  std::int64_t z = 0;
  for (std::size_t i = 0; i < n; ++i) z += (p[i] == 0.0f);
  return z;
}

void Matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  THREELC_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 &&
                c.shape().rank() == 2);
  const std::int64_t m = a.shape().dim(0), k = a.shape().dim(1),
                     n = b.shape().dim(1);
  THREELC_CHECK_MSG(b.shape().dim(0) == k && c.shape().dim(0) == m &&
                        c.shape().dim(1) == n,
                    "matmul shape mismatch");
  internal::Kernels().matmul(a.data(), b.data(), c.data(), m, k, n);
}

void MatmulTransA(const Tensor& a, const Tensor& b, Tensor& c) {
  THREELC_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 &&
                c.shape().rank() == 2);
  const std::int64_t m = a.shape().dim(0), k = a.shape().dim(1),
                     n = b.shape().dim(1);
  THREELC_CHECK_MSG(b.shape().dim(0) == m && c.shape().dim(0) == k &&
                        c.shape().dim(1) == n,
                    "matmul(T,·) shape mismatch");
  internal::Kernels().matmul_trans_a(a.data(), b.data(), c.data(), m, k, n);
}

void MatmulTransB(const Tensor& a, const Tensor& b, Tensor& c) {
  THREELC_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 &&
                c.shape().rank() == 2);
  const std::int64_t m = a.shape().dim(0), n = a.shape().dim(1),
                     k = b.shape().dim(0);
  THREELC_CHECK_MSG(b.shape().dim(1) == n && c.shape().dim(0) == m &&
                        c.shape().dim(1) == k,
                    "matmul(·,T) shape mismatch");
  internal::Kernels().matmul_trans_b(a.data(), b.data(), c.data(), m, n, k);
}

void FillNormal(Tensor& t, util::Rng& rng, float mean, float stddev) {
  float* p = t.data();
  const std::size_t n = t.size();
  for (std::size_t i = 0; i < n; ++i) p[i] = rng.NormalFloat(mean, stddev);
}

void FillUniform(Tensor& t, util::Rng& rng, float lo, float hi) {
  float* p = t.data();
  const std::size_t n = t.size();
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = lo + (hi - lo) * rng.UniformFloat();
  }
}

std::size_t ArgMax(const float* begin, std::size_t len) {
  THREELC_CHECK(len > 0);
  std::size_t best = 0;
  for (std::size_t i = 1; i < len; ++i) {
    if (begin[i] > begin[best]) best = i;
  }
  return best;
}

}  // namespace threelc::tensor
