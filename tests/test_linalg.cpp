#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "linalg/spmm.h"
#include "util/parallel.h"

namespace repro {
namespace {

TEST(Matrix, BasicAccessors) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  m.at(2, 3) = 5.0f;
  EXPECT_FLOAT_EQ(m(2, 3), 5.0f);
}

TEST(Matrix, IdentityAndTranspose) {
  Matrix i = Matrix::Identity(4);
  EXPECT_TRUE(AllClose(i, i.Transposed()));
  Rng rng(1);
  Matrix a = Matrix::RandomNormal(3, 5, rng);
  Matrix att = a.Transposed().Transposed();
  EXPECT_DOUBLE_EQ(MaxAbsDiff(a, att), 0.0);
}

TEST(Matrix, ArithmeticOps) {
  Matrix a(2, 2, 1.0f), b(2, 2, 2.0f);
  a += b;
  EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
  a -= b;
  EXPECT_FLOAT_EQ(a(1, 1), 1.0f);
  a *= 4.0f;
  EXPECT_FLOAT_EQ(a(0, 1), 4.0f);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0f;
  m(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(Matrix, AllCloseTolerances) {
  Matrix a(1, 1, 1.0f), b(1, 1, 1.0001f);
  EXPECT_TRUE(AllClose(a, b, 1e-3, 1e-3));
  EXPECT_FALSE(AllClose(a, Matrix(1, 1, 2.0f), 1e-4, 1e-4));
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, BlockedMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  Matrix a = Matrix::RandomNormal(m, k, rng);
  Matrix b = Matrix::RandomNormal(k, n, rng);
  Matrix c1(m, n), c2(m, n);
  GemmNaive(a, b, c1);
  GemmBlocked(a, b, c2);
  EXPECT_TRUE(AllClose(c1, c2, 1e-4, 1e-4)) << MaxAbsDiff(c1, c2);
}

TEST_P(GemmSizes, TransAMatchesExplicitTranspose) {
  auto [m, k, n] = GetParam();
  Rng rng(7);
  Matrix at = Matrix::RandomNormal(k, m, rng);  // A^T stored as (k x m)
  Matrix b = Matrix::RandomNormal(k, n, rng);
  Matrix c1(m, n), c2(m, n);
  GemmTransA(at, b, c1);
  GemmNaive(at.Transposed(), b, c2);
  EXPECT_TRUE(AllClose(c1, c2, 1e-4, 1e-4));
}

TEST_P(GemmSizes, TransBMatchesExplicitTranspose) {
  auto [m, k, n] = GetParam();
  Rng rng(8);
  Matrix a = Matrix::RandomNormal(m, k, rng);
  Matrix bt = Matrix::RandomNormal(n, k, rng);  // B^T stored as (n x k)
  Matrix c1(m, n), c2(m, n);
  GemmTransB(a, bt, c1);
  GemmNaive(a, bt.Transposed(), c2);
  EXPECT_TRUE(AllClose(c1, c2, 1e-4, 1e-4));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{16, 16, 16}, std::tuple{33, 17, 65},
                      std::tuple{64, 128, 32}, std::tuple{100, 1, 100},
                      std::tuple{1, 200, 1}, std::tuple{70, 70, 70}));

// Bit-exactness of the GEMM core: every form must reproduce GemmNaive's
// bits (transposes materialised), in both accumulate modes, at any worker
// count.

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Normal entries with every third one an exact zero.
Matrix WithZeros(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = Matrix::RandomNormal(rows, cols, rng);
  for (std::size_t i = 0; i < m.size(); i += 3) m.data()[i] = 0.0f;
  return m;
}

class GemmBits : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  void TearDown() override { SetParallelWorkers(0); }
};

TEST_P(GemmBits, EveryFormMatchesNaive) {
  const auto [mi, ki, ni] = GetParam();
  const std::size_t m = mi, k = ki, n = ni;
  Rng rng(m * 7 + k * 3 + n);
  const Matrix a = WithZeros(m, k, rng);
  const Matrix b = WithZeros(k, n, rng);
  const Matrix at = a.Transposed(), bt = b.Transposed();
  const Matrix c0 = Matrix::RandomNormal(m, n, rng);
  for (const bool accumulate : {false, true}) {
    // NN and TransA add each product into C in turn: exactly GemmNaive.
    Matrix ref = c0;
    GemmNaive(a, b, ref, accumulate);
    // TransB sums from zero, then adds the total to C.
    Matrix ref_tb(m, n);
    GemmNaive(a, b, ref_tb);
    if (accumulate) {
      for (std::size_t i = 0; i < ref_tb.size(); ++i) {
        ref_tb.data()[i] = c0.data()[i] + ref_tb.data()[i];
      }
    }
    for (const std::size_t workers : {1u, 4u}) {
      SetParallelWorkers(workers);
      SCOPED_TRACE(::testing::Message() << "accumulate=" << accumulate
                                        << " workers=" << workers);
      Matrix c = c0;
      GemmBlocked(a, b, c, accumulate);
      EXPECT_TRUE(SameBits(c, ref)) << "GemmBlocked";
      c = c0;
      GemmTransA(at, b, c, accumulate);
      EXPECT_TRUE(SameBits(c, ref)) << "GemmTransA";
      c = c0;
      GemmTransB(a, bt, c, accumulate);
      EXPECT_TRUE(SameBits(c, ref_tb)) << "GemmTransB";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmBits,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{16, 16, 16}, std::tuple{33, 17, 65},
                      std::tuple{64, 128, 32}, std::tuple{100, 1, 100},
                      std::tuple{1, 200, 1}, std::tuple{70, 70, 70},
                      std::tuple{50, 1024, 1024}, std::tuple{50, 1024, 10}));

TEST(GemmStrided, SubBlockLeavesNeighboursUntouched) {
  // A 5x6 window of a 9x11 C, fed from windows of larger A and B.
  Rng rng(12);
  const Matrix a = Matrix::RandomNormal(8, 10, rng);   // window (1,2) 5x4
  const Matrix b = Matrix::RandomNormal(7, 12, rng);   // window (2,3) 4x6
  Matrix c = Matrix::RandomNormal(9, 11, rng);
  const Matrix c0 = c;
  GemmStrided(GemmForm::kNN, 5, 6, 4, a.data() + 1 * 10 + 2, 10,
              b.data() + 2 * 12 + 3, 12, c.data() + 3 * 11 + 4, 11,
              /*accumulate=*/true);
  Matrix aw(5, 4), bw(4, 6), cw(5, 6);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t p = 0; p < 4; ++p) aw(i, p) = a(1 + i, 2 + p);
  }
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t j = 0; j < 6; ++j) bw(p, j) = b(2 + p, 3 + j);
  }
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 6; ++j) cw(i, j) = c0(3 + i, 4 + j);
  }
  GemmNaive(aw, bw, cw, /*accumulate=*/true);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 11; ++j) {
      const bool inside = i >= 3 && i < 8 && j >= 4 && j < 10;
      const float want = inside ? cw(i - 3, j - 4) : c0(i, j);
      EXPECT_EQ(std::memcmp(&c(i, j), &want, sizeof want), 0)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(Gemm, AccumulateMode) {
  Rng rng(5);
  Matrix a = Matrix::RandomNormal(4, 4, rng);
  Matrix b = Matrix::RandomNormal(4, 4, rng);
  Matrix c(4, 4, 1.0f);
  Matrix ref(4, 4);
  GemmNaive(a, b, ref);
  GemmBlocked(a, b, c, /*accumulate=*/true);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i] + 1.0f, 1e-4f);
  }
}

TEST(Gemm, IdentityIsNoop) {
  Rng rng(6);
  Matrix a = Matrix::RandomNormal(8, 8, rng);
  Matrix c = MatMul(a, Matrix::Identity(8));
  EXPECT_TRUE(AllClose(c, a));
}

TEST(Gemm, Gemv) {
  Rng rng(9);
  Matrix a = Matrix::RandomNormal(5, 3, rng);
  std::vector<float> x{1.0f, 2.0f, 3.0f}, y(5);
  Gemv(a, x, y);
  Matrix xm(3, 1);
  for (int i = 0; i < 3; ++i) xm(i, 0) = x[i];
  Matrix ym = MatMul(a, xm);
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(y[i], ym(i, 0), 1e-5f);
}

TEST(Gemm, FlopsCount) {
  EXPECT_DOUBLE_EQ(GemmFlops(2, 3, 4), 48.0);
}

TEST(Sparse, DenseRoundTripCsr) {
  Rng rng(10);
  Matrix d = Matrix::RandomNormal(13, 9, rng);
  // zero half the entries
  for (std::size_t i = 0; i < d.size(); i += 2) d.data()[i] = 0.0f;
  Csr csr = DenseToCsr(d);
  EXPECT_TRUE(AllClose(CsrToDense(csr), d));
}

TEST(Sparse, DenseRoundTripCoo) {
  Rng rng(11);
  Matrix d = Matrix::RandomNormal(7, 11, rng);
  for (std::size_t i = 0; i < d.size(); i += 3) d.data()[i] = 0.0f;
  Coo coo = DenseToCoo(d);
  EXPECT_TRUE(AllClose(CooToDense(coo), d));
}

TEST(Sparse, FormatConversions) {
  Rng rng(12);
  Csr csr = RandomCsr(20, 30, 0.1, rng);
  Coo coo = CsrToCoo(csr);
  Csr back = CooToCsr(coo);
  EXPECT_EQ(back.nnz(), csr.nnz());
  EXPECT_TRUE(AllClose(CsrToDense(back), CsrToDense(csr)));
}

class SparseDensity : public ::testing::TestWithParam<double> {};

TEST_P(SparseDensity, RandomCsrHitsExactNnz) {
  Rng rng(13);
  const double density = GetParam();
  Csr csr = RandomCsr(64, 64, density, rng);
  EXPECT_EQ(csr.nnz(),
            static_cast<std::size_t>(std::llround(density * 64 * 64)));
  // row_ptr is consistent
  EXPECT_EQ(csr.row_ptr.size(), 65u);
  EXPECT_EQ(csr.row_ptr.back(), csr.nnz());
  // column indices sorted and unique per row
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::uint32_t i = csr.row_ptr[r] + 1; i < csr.row_ptr[r + 1]; ++i) {
      EXPECT_LT(csr.col_idx[i - 1], csr.col_idx[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, SparseDensity,
                         ::testing::Values(0.01, 0.05, 0.1, 0.5, 0.9, 1.0));

TEST(Spmm, CsrMatchesDense) {
  Rng rng(14);
  Csr s = RandomCsr(17, 23, 0.2, rng);
  Matrix b = Matrix::RandomNormal(23, 5, rng);
  Matrix ref = MatMul(CsrToDense(s), b);
  EXPECT_TRUE(AllClose(SpmmCsr(s, b), ref, 1e-4, 1e-4));
}

TEST(Spmm, CooMatchesDense) {
  Rng rng(15);
  Csr s = RandomCsr(11, 19, 0.3, rng);
  Coo coo = CsrToCoo(s);
  Matrix b = Matrix::RandomNormal(19, 7, rng);
  Matrix ref = MatMul(CsrToDense(s), b);
  EXPECT_TRUE(AllClose(SpmmCoo(coo, b), ref, 1e-4, 1e-4));
}

TEST(Spmm, EmptyMatrix) {
  Rng rng(16);
  Csr s = RandomCsr(4, 4, 0.0, rng);
  EXPECT_EQ(s.nnz(), 0u);
  Matrix b = Matrix::RandomNormal(4, 2, rng);
  Matrix c = SpmmCsr(s, b);
  EXPECT_DOUBLE_EQ(c.FrobeniusNorm(), 0.0);
}

TEST(Spmm, AccumulateMode) {
  Rng rng(17);
  Csr s = RandomCsr(5, 5, 0.4, rng);
  Matrix b = Matrix::RandomNormal(5, 3, rng);
  Matrix c(5, 3, 2.0f);
  Matrix ref = SpmmCsr(s, b);
  SpmmCsr(s, b, c, /*accumulate=*/true);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i] + 2.0f, 1e-4f);
  }
}

TEST(Sparse, BytesAccounting) {
  Rng rng(18);
  Csr csr = RandomCsr(10, 10, 0.5, rng);
  EXPECT_EQ(csr.bytes(), csr.nnz() * 8 + 11 * 4);
  Coo coo = CsrToCoo(csr);
  EXPECT_EQ(coo.bytes(), coo.nnz() * 12);
}

TEST(Sparse, DensityComputation) {
  Rng rng(19);
  Csr csr = RandomCsr(100, 100, 0.25, rng);
  EXPECT_NEAR(csr.density(), 0.25, 1e-9);
}

}  // namespace
}  // namespace repro
