#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "core/fft.h"
#include "core/fwht.h"
#include "linalg/gemm.h"
#include "nn/structured.h"
#include "util/bitops.h"
#include "util/rng.h"

namespace repro::core {
namespace {

class FwhtSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FwhtSizes, MatchesDenseHadamard) {
  const std::size_t n = GetParam();
  Rng rng(n);
  Matrix x = Matrix::RandomNormal(3, n, rng);
  Matrix fast = x;
  FwhtRows(fast);
  Matrix ref = MatMul(x, HadamardDense(n).Transposed());
  EXPECT_TRUE(AllClose(fast, ref, 1e-3, 1e-3)) << "n=" << n;
}

TEST_P(FwhtSizes, OrthonormalInvolution) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  Matrix x = Matrix::RandomNormal(2, n, rng);
  Matrix y = x;
  FwhtRows(y);
  FwhtRows(y);  // normalised H is its own inverse
  EXPECT_TRUE(AllClose(y, x, 1e-3, 1e-3));
}

INSTANTIATE_TEST_SUITE_P(Pow2, FwhtSizes,
                         ::testing::Values(2, 4, 8, 16, 64, 256, 1024));

TEST(Fwht, PreservesNorm) {
  Rng rng(42);
  Matrix x = Matrix::RandomNormal(1, 128, rng);
  const double before = x.FrobeniusNorm();
  FwhtRows(x);
  EXPECT_NEAR(x.FrobeniusNorm(), before, 1e-3);
}

TEST(Fwht, RejectsNonPow2) {
  std::vector<float> v(12);
  EXPECT_DEATH(Fwht(v), "power-of-two");
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<Cpx> v(n);
  for (auto& c : v) c = Cpx(rng.Normal(), rng.Normal());
  auto ref = DftNaive(v);
  std::vector<Cpx> fast = v;
  Fft(fast);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fast[i].real(), ref[i].real(), 1e-8 * n);
    EXPECT_NEAR(fast[i].imag(), ref[i].imag(), 1e-8 * n);
  }
}

TEST_P(FftSizes, InverseRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n + 7);
  std::vector<Cpx> v(n);
  for (auto& c : v) c = Cpx(rng.Normal(), rng.Normal());
  auto orig = v;
  Fft(v);
  Fft(v, /*inverse=*/true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(v[i].real(), orig[i].real(), 1e-9 * n);
    EXPECT_NEAR(v[i].imag(), orig[i].imag(), 1e-9 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(Pow2, FftSizes,
                         ::testing::Values(2, 4, 8, 32, 128, 512));

// The paper's equation (1): the DFT decomposes into log N butterfly factors
// applied after the even/odd (bit-reversal) permutation. This validates the
// "FFT is a special case of butterfly factorization" claim exactly.
class DftButterflySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DftButterflySizes, ComplexButterflyEqualsDft) {
  const std::size_t n = GetParam();
  auto bf = ComplexButterfly::Dft(n);
  EXPECT_EQ(bf.numFactors(), static_cast<std::size_t>(std::log2(n)));
  Rng rng(n + 3);
  std::vector<Cpx> v(n);
  for (auto& c : v) c = Cpx(rng.Normal(), rng.Normal());
  auto via_butterfly = bf.Apply(v);
  auto ref = DftNaive(v);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(via_butterfly[i].real(), ref[i].real(), 1e-8 * n) << "i=" << i;
    EXPECT_NEAR(via_butterfly[i].imag(), ref[i].imag(), 1e-8 * n) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Pow2, DftButterflySizes,
                         ::testing::Values(2, 4, 8, 16, 64, 128));

TEST(CircularConvolve, MatchesCirculantMatrix) {
  const std::size_t n = 64;
  Rng rng(9);
  std::vector<float> c(n), x(n), out(n);
  rng.FillNormal(c.data(), n, 1.0f);
  rng.FillNormal(x.data(), n, 1.0f);
  CircularConvolve(c, x, out);
  // Reference: dense circulant matrix C[i][j] = c[(i-j) mod n].
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += static_cast<double>(c[(i + n - j) % n]) * x[j];
    }
    EXPECT_NEAR(out[i], acc, 1e-3) << "i=" << i;
  }
}

TEST(CircularConvolve, SmallNonPow2FallsBackToDirect) {
  const std::size_t n = 6;
  std::vector<float> c(n, 0.0f), x{1, 2, 3, 4, 5, 6}, out(n);
  c[1] = 1.0f;  // shift by one
  CircularConvolve(c, x, out);
  const std::vector<float> want{6, 1, 2, 3, 4, 5};
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(out[i], want[i], 1e-5);
}

TEST(CircularCorrelate, FftPathMatchesDirect) {
  const std::size_t n = 64;
  Rng rng(10);
  std::vector<float> x(n), y(n), fast(n), direct(n);
  rng.FillNormal(x.data(), n, 1.0f);
  rng.FillNormal(y.data(), n, 1.0f);
  CircularCorrelate(x, y, fast);  // n = 64 takes the FFT path
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += static_cast<double>(x[i]) * y[(i + j) % n];
    }
    direct[j] = static_cast<float>(acc);
  }
  for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(fast[j], direct[j], 1e-3);
}

TEST(CircularOps, ConvolveCorrelateAdjoint) {
  // <c * x, y> == <x, corr(c, y)>: the adjoint identity the circulant layer
  // backward relies on.
  const std::size_t n = 32;
  Rng rng(11);
  std::vector<float> c(n), x(n), y(n), cx(n), corr(n);
  rng.FillNormal(c.data(), n, 1.0f);
  rng.FillNormal(x.data(), n, 1.0f);
  rng.FillNormal(y.data(), n, 1.0f);
  CircularConvolve(c, x, cx);
  CircularCorrelate(c, y, corr);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    lhs += static_cast<double>(cx[i]) * y[i];
    rhs += static_cast<double>(x[i]) * corr[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// ---------------------------------------------------------------------------
// Planned transforms against the loops they replaced, byte for byte.

// Verbatim copies of Fft, CircularConvolve and CircularCorrelate before the
// FFT had a plan: twiddles recomputed by a running product per group.
void FftLoopReference(std::span<Cpx> v, bool inverse) {
  const std::size_t n = v.size();
  const unsigned bits = Log2(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = BitReverse(static_cast<std::uint32_t>(i), bits);
    if (i < j) std::swap(v[i], v[j]);
  }
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * M_PI / static_cast<double>(len);
    const Cpx wlen(std::cos(angle), std::sin(angle));
    for (std::size_t base = 0; base < n; base += len) {
      Cpx w(1.0, 0.0);
      for (std::size_t i = 0; i < len / 2; ++i) {
        const Cpx u = v[base + i];
        const Cpx t = w * v[base + i + len / 2];
        v[base + i] = u + t;
        v[base + i + len / 2] = u - t;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& x : v) x /= static_cast<double>(n);
  }
}

void CircularConvolveLoopReference(std::span<const float> c,
                                   std::span<const float> x,
                                   std::span<float> out) {
  const std::size_t n = c.size();
  if (IsPow2(n) && n >= 32) {
    std::vector<Cpx> fc(n), fx(n);
    for (std::size_t i = 0; i < n; ++i) {
      fc[i] = Cpx(c[i], 0.0);
      fx[i] = Cpx(x[i], 0.0);
    }
    FftLoopReference(fc, false);
    FftLoopReference(fx, false);
    for (std::size_t i = 0; i < n; ++i) fc[i] *= fx[i];
    FftLoopReference(fc, /*inverse=*/true);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<float>(fc[i].real());
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += static_cast<double>(c[j]) * x[(i + n - j) % n];
    }
    out[i] = static_cast<float>(acc);
  }
}

void CircularCorrelateLoopReference(std::span<const float> x,
                                    std::span<const float> y,
                                    std::span<float> out) {
  const std::size_t n = x.size();
  if (IsPow2(n) && n >= 32) {
    std::vector<Cpx> fx(n), fy(n);
    for (std::size_t i = 0; i < n; ++i) {
      fx[i] = Cpx(x[i], 0.0);
      fy[i] = Cpx(y[i], 0.0);
    }
    FftLoopReference(fx, false);
    FftLoopReference(fy, false);
    for (std::size_t i = 0; i < n; ++i) fx[i] = std::conj(fx[i]) * fy[i];
    FftLoopReference(fx, /*inverse=*/true);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<float>(fx[i].real());
    }
    return;
  }
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += static_cast<double>(x[i]) * y[(i + j) % n];
    }
    out[j] = static_cast<float>(acc);
  }
}

template <typename T>
bool SameBits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(FftBits, PlanMatchesRecurrence) {
  Rng rng(77);
  for (std::size_t n = 2; n <= 4096; n <<= 1) {
    const FftPlan plan(n);
    for (const bool inverse : {false, true}) {
      std::vector<Cpx> x(n);
      for (auto& v : x) v = Cpx(rng.Normal(), rng.Normal());
      std::vector<Cpx> planned = x, oneoff = x, want = x;
      plan.Transform(planned, inverse);
      Fft(oneoff, inverse);
      FftLoopReference(want, inverse);
      ASSERT_TRUE(SameBits<Cpx>(planned, want))
          << "n=" << n << " inverse=" << inverse;
      ASSERT_TRUE(SameBits<Cpx>(oneoff, want))
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(FftBits, NonFiniteInputsMatchRecurrence) {
  // Infinities make 0 * inf products whose both-NaN results std::complex
  // recomputes; the planned transform must take the same path.
  const double inf = std::numeric_limits<double>::infinity();
  for (const Cpx bad : {Cpx(inf, 0.0), Cpx(-inf, inf), Cpx(0.0, std::nan(""))}) {
    for (const bool inverse : {false, true}) {
      std::vector<Cpx> x(64, Cpx(0.5, -0.25));
      x[5] = bad;
      std::vector<Cpx> got = x, want = x;
      Fft(got, inverse);
      FftLoopReference(want, inverse);
      ASSERT_TRUE(SameBits<Cpx>(got, want)) << bad << " inverse=" << inverse;
    }
  }
}

TEST(FftBits, CircularProductsMatchLoopReference) {
  Rng rng(78);
  for (const std::size_t n : {6, 16, 24, 32, 64, 1024}) {
    std::vector<float> x(n), y(n), got(n), want(n);
    rng.FillNormal(x.data(), n, 1.0f);
    rng.FillNormal(y.data(), n, 1.0f);
    CircularConvolve(x, y, got);
    CircularConvolveLoopReference(x, y, want);
    ASSERT_TRUE(SameBits<float>(got, want)) << "convolve n=" << n;
    CircularCorrelate(x, y, got);
    CircularCorrelateLoopReference(x, y, want);
    ASSERT_TRUE(SameBits<float>(got, want)) << "correlate n=" << n;
  }
}

TEST(FftBits, CirculantLayerMatchesLoopReference) {
  // The layer shares the kernel's spectrum across rows and each FFT(dy_r)
  // between its two correlations; outputs, dx and the kernel gradient keep
  // the bits of the per-row CircularConvolve/CircularCorrelate loops.
  for (const std::size_t n : {16, 1024}) {
    Rng rng(n);
    nn::CirculantLayer layer(n, rng);
    const std::vector<nn::ParamRef> params = layer.parameters();
    const std::span<const float> c = params[0].value;
    const std::span<const float> bias = params[1].value;
    std::vector<float> want_cgrad(n, 0.0f), dc(n);
    for (const std::size_t batch : {5, 2}) {
      const Matrix x = Matrix::RandomNormal(batch, n, rng);
      const Matrix dy = Matrix::RandomNormal(batch, n, rng);
      Matrix y, dx;
      layer.Forward(x, y, /*train=*/true);
      layer.Backward(dy, dx);
      Matrix want_y(batch, n), want_dx(batch, n);
      for (std::size_t r = 0; r < batch; ++r) {
        CircularConvolveLoopReference(c, x.row(r), want_y.row(r));
        for (std::size_t j = 0; j < n; ++j) want_y(r, j) += bias[j];
        CircularCorrelateLoopReference(x.row(r), dy.row(r), dc);
        for (std::size_t j = 0; j < n; ++j) want_cgrad[j] += dc[j];
        CircularCorrelateLoopReference(c, dy.row(r), want_dx.row(r));
      }
      ASSERT_TRUE(SameBits<float>(y.flat(), want_y.flat())) << "n=" << n;
      ASSERT_TRUE(SameBits<float>(dx.flat(), want_dx.flat())) << "n=" << n;
      ASSERT_TRUE(SameBits<float>(params[0].grad, want_cgrad)) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace repro::core
