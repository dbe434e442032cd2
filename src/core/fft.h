// Radix-2 complex FFT plus the explicit FFT-as-butterfly construction of the
// paper's equation (1): F_N is the product of log N complex butterfly
// factors applied after bit-reversal. Also provides the circular convolution
// used by the Circulant baseline layer.
#pragma once

#include <complex>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace repro::core {

using Cpx = std::complex<double>;

// Tables of a length-n radix-2 FFT (n a power of two): the bit-reversal
// swaps and, per stage, the twiddles of the forward and the inverse
// transform. Each stage's twiddles are the running product w *= wlen that an
// untabled loop recomputes for every butterfly group, so a planned transform
// gives the bits of that loop. Build one per length and reuse it.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t n() const { return n_; }

  // In-place iterative Cooley-Tukey FFT (decimation in time); the inverse
  // divides by n.
  void Transform(std::span<Cpx> v, bool inverse = false) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;
  // Twiddle w is stored as (re, re, -im, im); stage len's len/2 twiddles
  // start at twiddle len/2 - 1.
  std::vector<double> fwd_, inv_;
};

// One-off transform through a fresh plan.
void Fft(std::span<Cpx> v, bool inverse = false);

// O(n^2) reference DFT for validation.
std::vector<Cpx> DftNaive(std::span<const Cpx> v, bool inverse = false);

// A complex butterfly matrix: log N factors of 2x2 complex blocks plus a
// fixed input permutation -- exactly the structure of paper eq. (1)/(2).
// Used to demonstrate that the DFT is a special case of the butterfly
// factorization (D1 = D3 = I, D2 = Omega, D4 = -Omega).
class ComplexButterfly {
 public:
  // Builds the factors whose product (after bit-reversal) is the DFT matrix.
  static ComplexButterfly Dft(std::size_t n);

  std::size_t n() const { return n_; }
  std::size_t numFactors() const { return factors_.size(); }

  // y = B P x (applies the permutation, then each factor).
  std::vector<Cpx> Apply(std::span<const Cpx> x) const;

 private:
  struct Factor {
    std::size_t stride = 1;
    // Per pair p: y_top = a[p]*x_top + b[p]*x_bot; y_bot = c[p]*x_top + d[p]*x_bot
    std::vector<Cpx> a, b, c, d;
  };
  std::size_t n_ = 0;
  std::vector<std::uint32_t> perm_;
  std::vector<Factor> factors_;
};

// Circular convolution and correlation of length-n real signals, on
// operands prepared once and reused: a circulant layer prepares its kernel
// once per call and each upstream gradient once for both of its products.
// Power-of-two n >= 32 goes through an FftPlan (an operand is its spectrum);
// other n use direct O(n^2) sums in double (an operand is the signal
// itself).
class CircularPlan {
 public:
  explicit CircularPlan(std::size_t n);

  std::size_t n() const { return n_; }

  // Prepares x (length n) into `out` (length n).
  void Prepare(std::span<const float> x, std::span<Cpx> out) const;

  // out[i] = sum_j c[j] x[(i-j) mod n], from Prepare(c) and Prepare(x);
  // `work` (length n) is scratch.
  void Convolve(std::span<const Cpx> c, std::span<const Cpx> x,
                std::span<Cpx> work, std::span<float> out) const;

  // out[j] = sum_i x[i] y[(i+j) mod n], from Prepare(x) and Prepare(y);
  // `work` (length n) is scratch.
  void Correlate(std::span<const Cpx> x, std::span<const Cpx> y,
                 std::span<Cpx> work, std::span<float> out) const;

 private:
  std::size_t n_ = 0;
  std::optional<FftPlan> fft_;  // engaged on the FFT path
};

// Circular convolution of real signals: out[i] = sum_j c[j] x[(i-j) mod n].
// This is multiplication by the circulant matrix generated by c.
void CircularConvolve(std::span<const float> c, std::span<const float> x,
                      std::span<float> out);

// Circular cross-correlation: out[j] = sum_i x[i] y[(i+j) mod n]; the
// gradient of circular convolution with respect to the kernel.
void CircularCorrelate(std::span<const float> x, std::span<const float> y,
                       std::span<float> out);

}  // namespace repro::core
