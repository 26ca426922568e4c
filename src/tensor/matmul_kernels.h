// The dense layers' three products (tensor::Matmul, MatmulTransA and
// MatmulTransB), compiled once for the baseline ISA and once for AVX2, with
// the variant chosen once per process from the CPU (as
// compress::internal::Kernels() chooses the 3LC encoder's loops).
//
// Both variants compute every output element as the same sequence of IEEE
// multiply-then-add, starting from +0.0f, over the same index order as the
// scalar loops: the AVX2 variant vectorizes across output elements, never
// across the terms of one sum, and the build passes -ffp-contract=off so no
// product is fused into an FMA. The results are equal bit for bit, except
// for which payload survives where two NaNs meet, which IEEE 754 leaves open.
#pragma once

#include <cstdint>

namespace threelc::tensor::internal {

// All matrices are dense and row-major.
struct MatmulKernels {
  // C(m x n) = A(m x k) * B(k x n).
  void (*matmul)(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n);
  // C(k x n) = A(m x k)^T * B(m x n); each sum runs over the m rows in order.
  void (*matmul_trans_a)(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n);
  // C(m x k) = A(m x n) * B(k x n)^T; each element is one dot product over
  // t = 0..n-1 in order.
  void (*matmul_trans_b)(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t n, std::int64_t k);
};

// The portable variant: the fallback, and the reference in tests.
const MatmulKernels& ScalarKernels();
// AVX2 when the CPU has it, else ScalarKernels(). Chosen on first call.
const MatmulKernels& Kernels();

}  // namespace threelc::tensor::internal
