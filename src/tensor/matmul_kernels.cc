#include "tensor/matmul_kernels.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace threelc::tensor::internal {

namespace {

void MatmulScalar(const float* pa, const float* pb, float* pc, std::int64_t m,
                  std::int64_t k, std::int64_t n) {
  // ikj loop order: unit-stride inner loop over B and C rows.
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    for (std::int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void MatmulTransAScalar(const float* pa, const float* pb, float* pc,
                        std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < k * n; ++i) pc[i] = 0.0f;
  for (std::int64_t row = 0; row < m; ++row) {
    const float* arow = pa + row * k;
    const float* brow = pb + row * n;
    for (std::int64_t i = 0; i < k; ++i) {
      const float aval = arow[i];
      float* crow = pc + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

void MatmulTransBScalar(const float* pa, const float* pb, float* pc,
                        std::int64_t m, std::int64_t n, std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * n;
    for (std::int64_t j = 0; j < k; ++j) {
      const float* brow = pb + j * n;
      float acc = 0.0f;
      for (std::int64_t t = 0; t < n; ++t) acc += arow[t] * brow[t];
      pc[i * k + j] = acc;
    }
  }
}

#if defined(__x86_64__)
// The AVX2 variants are compiled for AVX2 in these functions only; Kernels()
// returns them after checking the CPU, so the rest of the build keeps its
// baseline ISA. Every accumulator is acc + a * b with the product rounded
// first, exactly the scalar statement `c += a * b`.

// Matmul and MatmulTransA share one shape: output row r, column j is
//   sum over s = 0..steps-1 of a[r * a_row + s * a_step] * b[s * ldb + j],
// with the s loop innermost-sequential. Matmul walks A along a row
// (a_row = k, a_step = 1, steps = k); MatmulTransA walks it down a column
// (a_row = 1, a_step = k, steps = m).
struct Panel {
  const float* a;
  std::int64_t a_row, a_step;
  const float* b;
  std::int64_t ldb, steps;
  float* c;
  std::int64_t ldc;
};

// R output rows by 8V output columns held in R*V registers for the whole
// s loop, starting at row `r`, column `j`. The unroll pragmas keep `acc` in
// registers: GCC -O2 leaves the R loop rolled and the array on the stack.
template <int R, int V>
__attribute__((target("avx2"))) inline void BlockAvx2(const Panel& p,
                                                      std::int64_t r,
                                                      std::int64_t j) {
  const float* a = p.a + r * p.a_row;
  const float* b = p.b + j;
  const std::int64_t a_row = p.a_row, a_step = p.a_step, ldb = p.ldb;
  __m256 acc[R][V];
#pragma GCC unroll 8
  for (int x = 0; x < R; ++x) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) acc[x][v] = _mm256_setzero_ps();
  }
  for (std::int64_t s = 0; s < p.steps; ++s) {
    __m256 bv[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(b + s * ldb + 8 * v);
#pragma GCC unroll 8
    for (int x = 0; x < R; ++x) {
      const __m256 av = _mm256_broadcast_ss(a + x * a_row + s * a_step);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        acc[x][v] = _mm256_add_ps(acc[x][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
  float* c = p.c + r * p.ldc + j;
#pragma GCC unroll 8
  for (int x = 0; x < R; ++x) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      _mm256_storeu_ps(c + x * p.ldc + 8 * v, acc[x][v]);
    }
  }
}

// Every column of rows r..r+R-1: 16-wide blocks, an 8-wide block, then the
// last n % 8 columns one scalar sum each.
template <int R>
__attribute__((target("avx2"))) void RowsAvx2(const Panel& p, std::int64_t r,
                                              std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) BlockAvx2<R, 2>(p, r, j);
  for (; j + 8 <= n; j += 8) BlockAvx2<R, 1>(p, r, j);
  for (; j < n; ++j) {
    for (int x = 0; x < R; ++x) {
      const float* a = p.a + (r + x) * p.a_row;
      float acc = 0.0f;
      for (std::int64_t s = 0; s < p.steps; ++s) {
        acc += a[s * p.a_step] * p.b[s * p.ldb + j];
      }
      p.c[(r + x) * p.ldc + j] = acc;
    }
  }
}

__attribute__((target("avx2"))) void PanelAvx2(const Panel& p,
                                               std::int64_t rows,
                                               std::int64_t n) {
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) RowsAvx2<4>(p, r, n);
  for (; r < rows; ++r) RowsAvx2<1>(p, r, n);
}

__attribute__((target("avx2"))) void MatmulAvx2(const float* pa,
                                                const float* pb, float* pc,
                                                std::int64_t m, std::int64_t k,
                                                std::int64_t n) {
  PanelAvx2(Panel{pa, k, 1, pb, n, k, pc, n}, m, n);
}

__attribute__((target("avx2"))) void MatmulTransAAvx2(const float* pa,
                                                      const float* pb,
                                                      float* pc,
                                                      std::int64_t m,
                                                      std::int64_t k,
                                                      std::int64_t n) {
  PanelAvx2(Panel{pa, 1, k, pb, n, m, pc, n}, k, n);
}

// Dot products for Q output columns j..j+Q-1 of the 8 rows in `panel`
// (the 8 x n slice of A transposed, so panel[8t + x] = A[row x][t]). Lane x
// of accumulator q is the sequential t sum of row x with B row j+q. Rows
// past `rows` are zero padding and are not stored.
template <int Q>
__attribute__((target("avx2"))) inline void DotColumnsAvx2(
    const float* panel, const float* b, std::int64_t n, std::int64_t j,
    float* c, std::int64_t ldc, std::int64_t rows) {
  __m256 acc[Q];
#pragma GCC unroll 4
  for (int q = 0; q < Q; ++q) acc[q] = _mm256_setzero_ps();
  const float* brow = b + j * n;
  for (std::int64_t t = 0; t < n; ++t) {
    const __m256 av = _mm256_loadu_ps(panel + 8 * t);
#pragma GCC unroll 4
    for (int q = 0; q < Q; ++q) {
      acc[q] = _mm256_add_ps(
          acc[q], _mm256_mul_ps(av, _mm256_broadcast_ss(brow + q * n + t)));
    }
  }
  alignas(32) float lanes[Q][8];
  for (int q = 0; q < Q; ++q) _mm256_store_ps(lanes[q], acc[q]);
  for (std::int64_t x = 0; x < rows; ++x) {
    for (int q = 0; q < Q; ++q) c[x * ldc + j + q] = lanes[q][x];
  }
}

__attribute__((target("avx2"))) void MatmulTransBAvx2(const float* pa,
                                                      const float* pb,
                                                      float* pc,
                                                      std::int64_t m,
                                                      std::int64_t n,
                                                      std::int64_t k) {
  // Grows to the largest n seen on this thread (16 KB at n = 512), then
  // stays.
  thread_local std::vector<float> panel;
  if (panel.size() < static_cast<std::size_t>(8 * n)) {
    panel.resize(static_cast<std::size_t>(8 * n));
  }
  for (std::int64_t i0 = 0; i0 < m; i0 += 8) {
    const std::int64_t rows = std::min<std::int64_t>(8, m - i0);
    for (std::int64_t t = 0; t < n; ++t) {
      for (std::int64_t x = 0; x < 8; ++x) {
        panel[8 * t + x] = x < rows ? pa[(i0 + x) * n + t] : 0.0f;
      }
    }
    float* c = pc + i0 * k;
    std::int64_t j = 0;
    for (; j + 4 <= k; j += 4) {
      DotColumnsAvx2<4>(panel.data(), pb, n, j, c, k, rows);
    }
    for (; j < k; ++j) DotColumnsAvx2<1>(panel.data(), pb, n, j, c, k, rows);
  }
}

constexpr MatmulKernels kAvx2{MatmulAvx2, MatmulTransAAvx2, MatmulTransBAvx2};
#endif

constexpr MatmulKernels kScalar{MatmulScalar, MatmulTransAScalar,
                                MatmulTransBScalar};

const MatmulKernels& ChooseKernels() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return kAvx2;
#endif
  return kScalar;
}

}  // namespace

const MatmulKernels& ScalarKernels() { return kScalar; }

const MatmulKernels& Kernels() {
  static const MatmulKernels& kernels = ChooseKernels();
  return kernels;
}

}  // namespace threelc::tensor::internal
