#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "core/butterfly.h"
#include "core/fwht.h"
#include "linalg/gemm.h"
#include "util/bitops.h"

namespace repro::core {
namespace {

TEST(Butterfly, ParamCounts) {
  Rng rng(1);
  Butterfly dense(1024, ButterflyParam::kDense2x2, true, rng);
  EXPECT_EQ(dense.paramCount(), 2u * 1024 * 10);
  Butterfly givens(1024, ButterflyParam::kGivens, true, rng);
  // (n/2) log2 n = 5120: the paper's Table 4 butterfly hidden layer (5116)
  // to within its rounding.
  EXPECT_EQ(givens.paramCount(), 512u * 10);
  EXPECT_EQ(givens.numFactors(), 10u);
}

class ButterflySizes
    : public ::testing::TestWithParam<std::tuple<std::size_t, ButterflyParam>> {
};

TEST_P(ButterflySizes, ForwardMatchesDenseOperator) {
  auto [n, param] = GetParam();
  Rng rng(n);
  Butterfly bf(n, param, /*with_permutation=*/true, rng);
  Matrix dense = bf.ToDense();
  Matrix x = Matrix::RandomNormal(5, n, rng);
  Matrix y(5, n);
  bf.Forward(x, y);
  // y_row = B x_row  <=>  Y = X B^T.
  Matrix ref = MatMul(x, dense.Transposed());
  EXPECT_TRUE(AllClose(y, ref, 1e-3, 1e-3));
}

TEST_P(ButterflySizes, GradCheck) {
  auto [n, param] = GetParam();
  if (n > 32) GTEST_SKIP() << "numeric gradcheck only at small sizes";
  Rng rng(n + 1);
  Butterfly bf(n, param, true, rng);
  const std::size_t batch = 3;
  Matrix x = Matrix::RandomNormal(batch, n, rng);
  Matrix y(batch, n);

  // Analytic gradients of loss = sum(y * g) for fixed random g.
  Matrix g = Matrix::RandomNormal(batch, n, rng);
  Butterfly::Workspace ws;
  bf.Forward(x, y, &ws);
  Matrix dx(batch, n);
  bf.zeroGrad();
  bf.Backward(ws, g, dx);

  // Numeric parameter gradients.
  const float eps = 1e-3f;
  auto loss = [&]() {
    Matrix yy(batch, n);
    bf.Forward(x, yy);
    double l = 0.0;
    for (std::size_t i = 0; i < yy.size(); ++i) {
      l += static_cast<double>(yy.data()[i]) * g.data()[i];
    }
    return l;
  };
  auto params = bf.params();
  auto grads = bf.grads();
  for (std::size_t i = 0; i < params.size(); i += 7) {  // sample every 7th
    const float orig = params[i];
    params[i] = orig + eps;
    const double lp = loss();
    params[i] = orig - eps;
    const double lm = loss();
    params[i] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(grads[i], numeric, 2e-2 * std::max(1.0, std::abs(numeric)))
        << "param " << i;
  }

  // Numeric input gradients.
  for (std::size_t i = 0; i < x.size(); i += 5) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double lp = loss();
    x.data()[i] = orig - eps;
    const double lm = loss();
    x.data()[i] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx.data()[i], numeric, 2e-2 * std::max(1.0, std::abs(numeric)))
        << "input " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ButterflySizes,
    ::testing::Combine(::testing::Values(2, 4, 8, 16, 32, 128),
                       ::testing::Values(ButterflyParam::kDense2x2,
                                         ButterflyParam::kGivens)));

TEST(Butterfly, GivensProductIsOrthogonal) {
  Rng rng(3);
  Butterfly bf(64, ButterflyParam::kGivens, /*with_permutation=*/true, rng);
  Matrix d = bf.ToDense();
  Matrix prod = MatMul(d, d.Transposed());
  EXPECT_TRUE(AllClose(prod, Matrix::Identity(64), 1e-3, 1e-3));
}

TEST(Butterfly, CanRepresentHadamardExactly) {
  // Set every 2x2 block to [1 1; 1 -1]/sqrt(2) with no permutation: the
  // product of the log2(n) factors is the orthonormal Hadamard matrix --
  // butterfly expressiveness includes fast transforms, the paper's premise.
  const std::size_t n = 16;
  Rng rng(4);
  Butterfly bf(n, ButterflyParam::kDense2x2, /*with_permutation=*/false, rng);
  auto params = bf.params();
  const float s = 1.0f / std::sqrt(2.0f);
  for (std::size_t p = 0; p < params.size(); p += 4) {
    params[p + 0] = s;
    params[p + 1] = s;
    params[p + 2] = s;
    params[p + 3] = -s;
  }
  Matrix d = bf.ToDense();
  EXPECT_TRUE(AllClose(d, HadamardDense(n), 1e-4, 1e-4));
}

TEST(Butterfly, IdentityParamsGiveIdentity) {
  const std::size_t n = 32;
  Rng rng(5);
  Butterfly bf(n, ButterflyParam::kDense2x2, /*with_permutation=*/false, rng);
  auto params = bf.params();
  for (std::size_t p = 0; p < params.size(); p += 4) {
    params[p + 0] = 1.0f;
    params[p + 1] = 0.0f;
    params[p + 2] = 0.0f;
    params[p + 3] = 1.0f;
  }
  EXPECT_TRUE(AllClose(bf.ToDense(), Matrix::Identity(n)));
}

TEST(Butterfly, PermutationChangesOperator) {
  Rng rng(6);
  Butterfly with(16, ButterflyParam::kGivens, true, rng);
  Rng rng2(6);
  Butterfly without(16, ButterflyParam::kGivens, false, rng2);
  // Same parameters, different permutation handling.
  EXPECT_GT(MaxAbsDiff(with.ToDense(), without.ToDense()), 1e-3);
}

TEST(Butterfly, ComplexityIsNLogN) {
  // Structural: each factor has exactly 2 nonzeros per row, log2(n) factors.
  Rng rng(7);
  const std::size_t n = 64;
  Butterfly bf(n, ButterflyParam::kDense2x2, false, rng);
  EXPECT_EQ(bf.paramCount(), 2 * n * Log2(n));
  // Dense equivalent would be n^2 = 4096 > 768 parameters.
  EXPECT_LT(bf.paramCount(), n * n);
}

TEST(Butterfly, ZeroGradResets) {
  Rng rng(8);
  Butterfly bf(8, ButterflyParam::kDense2x2, true, rng);
  Matrix x = Matrix::RandomNormal(2, 8, rng);
  Matrix y(2, 8), dx(2, 8);
  Butterfly::Workspace ws;
  bf.Forward(x, y, &ws);
  bf.Backward(ws, y, dx);
  double sum = 0.0;
  for (float gv : bf.grads()) sum += std::abs(gv);
  EXPECT_GT(sum, 0.0);
  bf.zeroGrad();
  for (float gv : bf.grads()) EXPECT_EQ(gv, 0.0f);
}

TEST(Butterfly, RejectsNonPow2) {
  Rng rng(9);
  EXPECT_DEATH(Butterfly(12, ButterflyParam::kGivens, true, rng),
               "power of two");
}

TEST(Butterfly, BatchInvariance) {
  // Applying to a stacked batch equals applying row-by-row.
  Rng rng(10);
  Butterfly bf(32, ButterflyParam::kDense2x2, true, rng);
  Matrix x = Matrix::RandomNormal(4, 32, rng);
  Matrix y(4, 32);
  bf.Forward(x, y);
  for (std::size_t r = 0; r < 4; ++r) {
    Matrix xi(1, 32), yi(1, 32);
    std::copy(x.row(r).begin(), x.row(r).end(), xi.row(0).begin());
    bf.Forward(xi, yi);
    for (std::size_t c = 0; c < 32; ++c) {
      EXPECT_FLOAT_EQ(yi(0, c), y(r, c));
    }
  }
}

TEST(Butterfly, CompositionMatchesDenseProduct) {
  // Applying two butterflies in sequence equals multiplying their dense
  // operators -- linearity/composition property of the factorization.
  Rng rng(11);
  Butterfly b1(16, ButterflyParam::kDense2x2, true, rng);
  Butterfly b2(16, ButterflyParam::kGivens, false, rng);
  Matrix x = Matrix::RandomNormal(3, 16, rng);
  Matrix mid(3, 16), out(3, 16);
  b1.Forward(x, mid);
  b2.Forward(mid, out);
  Matrix dense = MatMul(b2.ToDense(), b1.ToDense());
  Matrix ref = MatMul(x, dense.Transposed());
  EXPECT_TRUE(AllClose(out, ref, 1e-3, 1e-3));
}

TEST(Butterfly, LinearityInInput) {
  Rng rng(12);
  Butterfly bf(32, ButterflyParam::kDense2x2, true, rng);
  Matrix a = Matrix::RandomNormal(2, 32, rng);
  Matrix b = Matrix::RandomNormal(2, 32, rng);
  Matrix ya(2, 32), yb(2, 32), ysum(2, 32);
  bf.Forward(a, ya);
  bf.Forward(b, yb);
  Matrix sum = a;
  sum += b;
  bf.Forward(sum, ysum);
  ya += yb;
  EXPECT_TRUE(AllClose(ysum, ya, 1e-3, 1e-3));
}

TEST(Butterfly, GradientAccumulatesAcrossBackwardCalls) {
  Rng rng(13);
  Butterfly bf(8, ButterflyParam::kDense2x2, false, rng);
  Matrix x = Matrix::RandomNormal(2, 8, rng);
  Matrix g = Matrix::RandomNormal(2, 8, rng);
  Matrix y(2, 8), dx(2, 8);
  Butterfly::Workspace ws;
  bf.Forward(x, y, &ws);
  bf.zeroGrad();
  bf.Backward(ws, g, dx);
  std::vector<float> once(bf.grads().begin(), bf.grads().end());
  bf.Backward(ws, g, dx);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(bf.grads()[i], 2.0f * once[i], 1e-4f);
  }
}

TEST(Butterfly, DenseParamCountScalesNLogN) {
  Rng rng(14);
  for (std::size_t n : {8, 16, 32, 64, 128, 256}) {
    Butterfly bf(n, ButterflyParam::kDense2x2, true, rng);
    EXPECT_EQ(bf.paramCount(), 2 * n * Log2(n));
  }
}

// Verbatim copy of the loops Butterfly ran before it expanded each factor's
// coefficients once per call (trig per row for Givens, one copied matrix
// per factor output), over a butterfly's parameters and permutation.
struct ButterflyLoopReference {
  std::size_t n;
  ButterflyParam param;
  const Permutation& perm;
  std::span<const float> params;
  std::vector<float> grads;

  std::size_t numFactors() const { return Log2(n); }
  std::size_t paramsPerFactor() const {
    return param == ButterflyParam::kGivens ? n / 2 : 2 * n;
  }
  void blockCoeffs(std::size_t f, std::size_t p, float& a, float& b, float& c,
                   float& d) const {
    if (param == ButterflyParam::kGivens) {
      const float theta = params[f * paramsPerFactor() + p];
      const float ct = std::cos(theta);
      const float st = std::sin(theta);
      a = ct;
      b = -st;
      c = st;
      d = ct;
    } else {
      const float* w = params.data() + f * paramsPerFactor() + 4 * p;
      a = w[0];
      b = w[1];
      c = w[2];
      d = w[3];
    }
  }
  void applyFactor(std::size_t f, const Matrix& in, Matrix& out) const {
    const std::size_t stride = std::size_t{1} << f;
    for (std::size_t r = 0; r < in.rows(); ++r) {
      const float* src = in.data() + r * n;
      float* dst = out.data() + r * n;
      std::size_t p = 0;
      for (std::size_t base = 0; base < n; base += 2 * stride) {
        for (std::size_t i = 0; i < stride; ++i, ++p) {
          float a, b, c, d;
          blockCoeffs(f, p, a, b, c, d);
          const float top = src[base + i];
          const float bot = src[base + stride + i];
          dst[base + i] = a * top + b * bot;
          dst[base + stride + i] = c * top + d * bot;
        }
      }
    }
  }
  void Forward(const Matrix& x, Matrix& y, std::vector<Matrix>& acts) const {
    Matrix cur(x.rows(), n);
    if (perm.size() == n) {
      perm.ApplyToColumns(x, cur);
    } else {
      cur = x;
    }
    acts.clear();
    acts.push_back(cur);
    Matrix next(x.rows(), n);
    for (std::size_t f = 0; f < numFactors(); ++f) {
      applyFactor(f, cur, next);
      std::swap(cur, next);
      if (f + 1 < numFactors()) acts.push_back(cur);
    }
    y = std::move(cur);
  }
  void Backward(const std::vector<Matrix>& acts, const Matrix& dy,
                Matrix& dx) {
    const std::size_t batch = dy.rows();
    Matrix grad = dy;
    Matrix prev(batch, n);
    for (std::size_t fi = numFactors(); fi-- > 0;) {
      const Matrix& input = acts[fi];
      const std::size_t stride = std::size_t{1} << fi;
      float* g = grads.data() + fi * paramsPerFactor();
      for (std::size_t r = 0; r < batch; ++r) {
        const float* gy = grad.data() + r * n;
        const float* xin = input.data() + r * n;
        float* gx = prev.data() + r * n;
        std::size_t p = 0;
        for (std::size_t base = 0; base < n; base += 2 * stride) {
          for (std::size_t i = 0; i < stride; ++i, ++p) {
            float a, b, c, d;
            blockCoeffs(fi, p, a, b, c, d);
            const float top = xin[base + i];
            const float bot = xin[base + stride + i];
            const float gt = gy[base + i];
            const float gb = gy[base + stride + i];
            gx[base + i] = a * gt + c * gb;
            gx[base + stride + i] = b * gt + d * gb;
            if (param == ButterflyParam::kGivens) {
              const float theta = params[fi * paramsPerFactor() + p];
              const float ct = std::cos(theta);
              const float st = std::sin(theta);
              g[p] += gt * (-st * top - ct * bot) + gb * (ct * top - st * bot);
            } else {
              g[4 * p + 0] += gt * top;
              g[4 * p + 1] += gt * bot;
              g[4 * p + 2] += gb * top;
              g[4 * p + 3] += gb * bot;
            }
          }
        }
      }
      std::swap(grad, prev);
    }
    if (perm.size() == n) {
      dx = Matrix(batch, n);
      for (std::size_t r = 0; r < batch; ++r) {
        const float* src = grad.data() + r * n;
        float* dst = dx.data() + r * n;
        for (std::size_t i = 0; i < n; ++i) dst[perm[i]] = src[i];
      }
    } else {
      dx = std::move(grad);
    }
  }
};

bool SameBits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(ButterflyBits, ForwardBackwardMatchLoopReference) {
  for (const ButterflyParam param :
       {ButterflyParam::kGivens, ButterflyParam::kDense2x2}) {
    for (const bool with_perm : {false, true}) {
      for (const std::size_t n : {2, 64, 1024}) {
        SCOPED_TRACE(testing::Message()
                     << "givens=" << (param == ButterflyParam::kGivens)
                     << " perm=" << with_perm << " n=" << n);
        Rng rng(n + with_perm);
        Butterfly bf(n, param, with_perm, rng);
        ButterflyLoopReference ref{n, param, bf.permutation(), bf.params(),
                                   std::vector<float>(bf.paramCount(), 0.0f)};
        // Two steps with different batch sizes: the workspace is resized,
        // and gradients accumulate across Backward calls.
        Butterfly::Workspace ws;
        for (const std::size_t batch : {7, 3}) {
          const Matrix x = Matrix::RandomNormal(batch, n, rng);
          const Matrix dy = Matrix::RandomNormal(batch, n, rng);
          Matrix y(batch, n), dx, want_y, want_dx;
          std::vector<Matrix> want_acts;
          bf.Forward(x, y, &ws);
          ref.Forward(x, want_y, want_acts);
          ASSERT_TRUE(SameBits(y.flat(), want_y.flat()));
          ASSERT_EQ(ws.acts.size(), want_acts.size());
          for (std::size_t f = 0; f < ws.acts.size(); ++f) {
            ASSERT_TRUE(SameBits(ws.acts[f].flat(), want_acts[f].flat()));
          }
          bf.Backward(ws, dy, dx);
          ref.Backward(want_acts, dy, want_dx);
          ASSERT_TRUE(SameBits(dx.flat(), want_dx.flat()));
          ASSERT_TRUE(SameBits(bf.grads(), ref.grads));
          // Inference (no workspace) gives the training output's bits.
          Matrix y_infer(batch, n);
          bf.Forward(x, y_infer);
          ASSERT_TRUE(SameBits(y_infer.flat(), want_y.flat()));
        }
      }
    }
  }
}

}  // namespace
}  // namespace repro::core
