#include "core/fft.h"

#include <cmath>
#include <cstring>

#include "util/bitops.h"
#include "util/error.h"

namespace repro::core {

namespace {

// One complex<double> as an SSE-width vector-extension value (re, im).
typedef double Pair __attribute__((vector_size(16)));
static_assert(sizeof(Pair) == sizeof(Cpx));

Pair LoadPair(const void* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void StorePair(void* p, Pair v) { std::memcpy(p, &v, sizeof v); }

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  REPRO_REQUIRE(IsPow2(n), "FFT needs power-of-two length, got %zu", n);
  const unsigned bits = Log2(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t j = BitReverse(static_cast<std::uint32_t>(i), bits);
    if (i < j) swaps_.emplace_back(static_cast<std::uint32_t>(i), j);
  }
  for (const bool inverse : {false, true}) {
    std::vector<double>& tw = inverse ? inv_ : fwd_;
    tw.reserve(4 * (n - 1));
    const double sign = inverse ? 1.0 : -1.0;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double angle = sign * 2.0 * M_PI / static_cast<double>(len);
      const Cpx wlen(std::cos(angle), std::sin(angle));
      Cpx w(1.0, 0.0);
      for (std::size_t i = 0; i < len / 2; ++i) {
        tw.insert(tw.end(), {w.real(), w.real(), -w.imag(), w.imag()});
        w *= wlen;
      }
    }
  }
}

void FftPlan::Transform(std::span<Cpx> v, bool inverse) const {
  REPRO_REQUIRE(v.size() == n_, "FFT plan of length %zu given %zu values", n_,
                v.size());
  for (const auto& [i, j] : swaps_) std::swap(v[i], v[j]);
  const std::vector<double>& tw = inverse ? inv_ : fwd_;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    const double* stage = tw.data() + 4 * (half - 1);
    for (std::size_t base = 0; base < n_; base += len) {
      Cpx* top = v.data() + base;
      Cpx* bot = top + half;
      for (std::size_t i = 0; i < half; ++i) {
        // t = w * bot[i] as (wr*br - wi*bi, wr*bi + wi*br): the operations,
        // in order, of std::complex's multiply, which recomputes the rare
        // both-parts-NaN result through __muldc3.
        const double* w = stage + 4 * i;
        const Pair b = LoadPair(bot + i);
        Pair t = LoadPair(w) * b + LoadPair(w + 2) * Pair{b[1], b[0]};
        if (std::isnan(t[0]) && std::isnan(t[1])) [[unlikely]] {
          const Cpx exact = Cpx(w[0], w[3]) * bot[i];
          t = Pair{exact.real(), exact.imag()};
        }
        const Pair u = LoadPair(top + i);
        StorePair(top + i, u + t);
        StorePair(bot + i, u - t);
      }
    }
  }
  if (inverse) {
    for (auto& x : v) x /= static_cast<double>(n_);
  }
}

void Fft(std::span<Cpx> v, bool inverse) {
  FftPlan(v.size()).Transform(v, inverse);
}

std::vector<Cpx> DftNaive(std::span<const Cpx> v, bool inverse) {
  const std::size_t n = v.size();
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Cpx> out(n, Cpx(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = sign * 2.0 * M_PI * static_cast<double>(k * j) /
                           static_cast<double>(n);
      out[k] += v[j] * Cpx(std::cos(angle), std::sin(angle));
    }
  }
  if (inverse) {
    for (auto& x : out) x /= static_cast<double>(n);
  }
  return out;
}

ComplexButterfly ComplexButterfly::Dft(std::size_t n) {
  REPRO_REQUIRE(IsPow2(n), "DFT butterfly needs power-of-two size");
  ComplexButterfly b;
  b.n_ = n;
  const unsigned bits = Log2(n);
  b.perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.perm_[i] = BitReverse(static_cast<std::uint32_t>(i), bits);
  }
  // Stage with half-size `stride` merges DFTs of length `stride` into
  // length 2*stride: D1 = D3 = I, D2 = Omega, D4 = -Omega (paper eq. 1).
  for (std::size_t stride = 1; stride < n; stride <<= 1) {
    Factor f;
    f.stride = stride;
    const std::size_t pairs = n / 2;
    f.a.resize(pairs);
    f.b.resize(pairs);
    f.c.resize(pairs);
    f.d.resize(pairs);
    std::size_t p = 0;
    for (std::size_t base = 0; base < n; base += 2 * stride) {
      for (std::size_t i = 0; i < stride; ++i, ++p) {
        const double angle = -2.0 * M_PI * static_cast<double>(i) /
                             static_cast<double>(2 * stride);
        const Cpx omega(std::cos(angle), std::sin(angle));
        f.a[p] = Cpx(1.0, 0.0);
        f.b[p] = omega;
        f.c[p] = Cpx(1.0, 0.0);
        f.d[p] = -omega;
      }
    }
    b.factors_.push_back(std::move(f));
  }
  return b;
}

std::vector<Cpx> ComplexButterfly::Apply(std::span<const Cpx> x) const {
  REPRO_REQUIRE(x.size() == n_, "ComplexButterfly apply size mismatch");
  std::vector<Cpx> v(n_);
  for (std::size_t i = 0; i < n_; ++i) v[i] = x[perm_[i]];
  for (const Factor& f : factors_) {
    std::size_t p = 0;
    for (std::size_t base = 0; base < n_; base += 2 * f.stride) {
      for (std::size_t i = 0; i < f.stride; ++i, ++p) {
        const Cpx top = v[base + i];
        const Cpx bot = v[base + f.stride + i];
        v[base + i] = f.a[p] * top + f.b[p] * bot;
        v[base + f.stride + i] = f.c[p] * top + f.d[p] * bot;
      }
    }
  }
  return v;
}

CircularPlan::CircularPlan(std::size_t n) : n_(n) {
  if (IsPow2(n) && n >= 32) fft_.emplace(n);
}

void CircularPlan::Prepare(std::span<const float> x,
                           std::span<Cpx> out) const {
  REPRO_REQUIRE(x.size() == n_ && out.size() == n_,
                "circular prepare size mismatch");
  for (std::size_t i = 0; i < n_; ++i) out[i] = Cpx(x[i], 0.0);
  if (fft_) fft_->Transform(out);
}

void CircularPlan::Convolve(std::span<const Cpx> c, std::span<const Cpx> x,
                            std::span<Cpx> work, std::span<float> out) const {
  REPRO_REQUIRE(c.size() == n_ && x.size() == n_ && work.size() == n_ &&
                    out.size() == n_,
                "circular convolve size mismatch");
  if (fft_) {
    for (std::size_t i = 0; i < n_; ++i) work[i] = c[i] * x[i];
    fft_->Transform(work, /*inverse=*/true);
    for (std::size_t i = 0; i < n_; ++i) {
      out[i] = static_cast<float>(work[i].real());
    }
    return;
  }
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n_; ++j) {
      acc += c[j].real() * x[(i + n_ - j) % n_].real();
    }
    out[i] = static_cast<float>(acc);
  }
}

void CircularPlan::Correlate(std::span<const Cpx> x, std::span<const Cpx> y,
                             std::span<Cpx> work, std::span<float> out) const {
  REPRO_REQUIRE(x.size() == n_ && y.size() == n_ && work.size() == n_ &&
                    out.size() == n_,
                "circular correlate size mismatch");
  if (fft_) {
    // out = IFFT(conj(FFT(x)) * FFT(y))
    for (std::size_t i = 0; i < n_; ++i) work[i] = std::conj(x[i]) * y[i];
    fft_->Transform(work, /*inverse=*/true);
    for (std::size_t i = 0; i < n_; ++i) {
      out[i] = static_cast<float>(work[i].real());
    }
    return;
  }
  for (std::size_t j = 0; j < n_; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      acc += x[i].real() * y[(i + j) % n_].real();
    }
    out[j] = static_cast<float>(acc);
  }
}

void CircularConvolve(std::span<const float> c, std::span<const float> x,
                      std::span<float> out) {
  const std::size_t n = c.size();
  REPRO_REQUIRE(x.size() == n && out.size() == n,
                "circular convolve size mismatch");
  const CircularPlan plan(n);
  std::vector<Cpx> fc(n), fx(n), work(n);
  plan.Prepare(c, fc);
  plan.Prepare(x, fx);
  plan.Convolve(fc, fx, work, out);
}

void CircularCorrelate(std::span<const float> x, std::span<const float> y,
                       std::span<float> out) {
  const std::size_t n = x.size();
  REPRO_REQUIRE(y.size() == n && out.size() == n,
                "circular correlate size mismatch");
  const CircularPlan plan(n);
  std::vector<Cpx> fx(n), fy(n), work(n);
  plan.Prepare(x, fx);
  plan.Prepare(y, fy);
  plan.Correlate(fx, fy, work, out);
}

}  // namespace repro::core
