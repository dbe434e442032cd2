// Dense matrix multiplication on the host.
//
// Forms: C(m x n) = op(A) * op(B), where GemmBlocked takes A (m x k) and
// B (k x n), GemmTransA takes A stored as (k x m), and GemmTransB takes B
// stored as (n x k). GemmStrided is the same core on raw row-major storage
// with explicit row strides, for callers multiplying sub-blocks in place
// (pixelfly's b x b blocks). GemmNaive is the readable triple-loop
// reference the tests hold the core to.
//
// Numerics contract (bit-exact, not just "close"):
//  * Each output element sums its k products in ascending k order; the
//    core vectorizes only across independent outputs, so its bits equal a
//    plain scalar loop's with the same order (see the tests).
//  * accumulate=false overwrites C with the sum (started from zero).
//  * accumulate=true: the NN and TransA forms add each product into C as
//    they go (c = ((c + a0 b0) + a1 b1) + ...); the TransB form sums the
//    products from zero and then adds the total to C (c = c + sum).
//  * Zero operands are multiplied, not skipped; for finite inputs the sum
//    equals the zero-skipping loops' (GemmNaive) except that a -0 already in
//    an accumulated C may come out as +0.
//  * Column panels are split over ParallelFor, but every output is computed
//    whole by one thread, so the bits never depend on the thread count.
#pragma once

#include "linalg/matrix.h"

namespace repro {

// C = A(m x k) * B(k x n); straightforward triple loop in ikj order that
// skips zero entries of A.
void GemmNaive(const Matrix& a, const Matrix& b, Matrix& c,
               bool accumulate = false);

// C = A * B through the register-blocked core.
void GemmBlocked(const Matrix& a, const Matrix& b, Matrix& c,
                 bool accumulate = false);

// C = A^T * B where A is (k x m): avoids materialising the transpose.
void GemmTransA(const Matrix& a, const Matrix& b, Matrix& c,
                bool accumulate = false);

// C = A * B^T where B is (n x k).
void GemmTransB(const Matrix& a, const Matrix& b, Matrix& c,
                bool accumulate = false);

// Which operand of GemmStrided is stored transposed.
enum class GemmForm { kNN, kTransA, kTransB };

// The core behind the three forms above, on row-major storage with row
// strides lda / ldb / ldc. Stored shapes: A is (m x k), or (k x m) for
// kTransA; B is (k x n), or (n x k) for kTransB; C is (m x n). C must not
// alias A or B.
void GemmStrided(GemmForm form, std::size_t m, std::size_t n, std::size_t k,
                 const float* a, std::size_t lda, const float* b,
                 std::size_t ldb, float* c, std::size_t ldc, bool accumulate);

// Convenience allocating form of GemmBlocked.
Matrix MatMul(const Matrix& a, const Matrix& b);

// y = A * x for a single vector (used by small kernels and tests).
void Gemv(const Matrix& a, std::span<const float> x, std::span<float> y);

// FLOP count of an (m x k) * (k x n) multiply (2 flops per MAC).
inline double GemmFlops(std::size_t m, std::size_t k, std::size_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n);
}

}  // namespace repro
