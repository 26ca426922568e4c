// Kernels over Tensors.
//
// The elementwise ops (Add, Sub, Axpy, Scale, Mul) are plain
// contiguous-array loops that GCC auto-vectorizes under the build's
// -fvect-cost-model=dynamic (its -O2 default vectorizes none of them) and
// Clang at -O2. The three matmuls dispatch to matmul_kernels.h: AVX2 when
// the CPU has it, else the scalar loops. Both stay bitwise equal to the
// scalar loops: each output element gets the same IEEE operations in the
// same order, with no FMA (-ffp-contract=off) and no reassociation. The
// float reductions (MaxAbs, Sum, ...) stay scalar, since vectorizing them
// would reorder their sums. Shape agreement is checked once at entry.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace threelc::tensor {

// dst += src (elementwise). Shapes must match.
void Add(Tensor& dst, const Tensor& src);
// dst -= src.
void Sub(Tensor& dst, const Tensor& src);
// dst += alpha * src.
void Axpy(Tensor& dst, float alpha, const Tensor& src);
// dst *= alpha.
void Scale(Tensor& dst, float alpha);
// Elementwise product: dst *= src.
void Mul(Tensor& dst, const Tensor& src);

// max(|t|); 0 for empty tensors.
float MaxAbs(const Tensor& t);
// Sum of elements.
double Sum(const Tensor& t);
// Sum of squared elements.
double SumSquares(const Tensor& t);
// sqrt(mean((a-b)^2)); shapes must match.
double Rmse(const Tensor& a, const Tensor& b);
// max |a - b|.
float MaxAbsDiff(const Tensor& a, const Tensor& b);
// Number of exact zeros.
std::int64_t CountZeros(const Tensor& t);

// C = A(mxk) * B(kxn); all rank-2, row-major. C is overwritten.
void Matmul(const Tensor& a, const Tensor& b, Tensor& c);
// C = A^T(mxk as kxm input) * B — i.e. C(kxn) = A(mxk)^T * B(mxn).
void MatmulTransA(const Tensor& a, const Tensor& b, Tensor& c);
// C(mxk) = A(mxn) * B(kxn)^T.
void MatmulTransB(const Tensor& a, const Tensor& b, Tensor& c);

// Fill with N(mean, stddev) samples.
void FillNormal(Tensor& t, util::Rng& rng, float mean, float stddev);
// Fill with U[lo, hi) samples.
void FillUniform(Tensor& t, util::Rng& rng, float lo, float hi);

// Index of the maximum element of a 1-D slice [begin, begin+len).
std::size_t ArgMax(const float* begin, std::size_t len);

}  // namespace threelc::tensor
