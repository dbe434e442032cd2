#include "core/pixelfly.h"

#include <cmath>

#include "linalg/gemm.h"
#include "util/bitops.h"
#include "util/error.h"

namespace repro::core {

std::size_t PixelflyConfig::paramCount() const {
  const std::size_t levels = Log2(butterfly_size);
  return 2 * grid() * levels * block_size * block_size + 2 * n * low_rank;
}

std::vector<BlockCoord> FlatButterflyPattern(std::size_t n, std::size_t block,
                                             std::size_t butterfly_size) {
  REPRO_REQUIRE(block > 0 && n % block == 0,
                "block size %zu must divide n %zu", block, n);
  const std::size_t grid = n / block;
  REPRO_REQUIRE(IsPow2(butterfly_size) && butterfly_size >= 2 &&
                    butterfly_size <= grid,
                "butterfly size %zu must be a power of two in [2, %zu]",
                butterfly_size, grid);
  const std::size_t levels = Log2(butterfly_size);
  std::vector<BlockCoord> coords;
  coords.reserve(2 * grid * levels);
  for (std::size_t k = 0; k < levels; ++k) {
    const std::uint32_t bit = 1u << k;
    for (std::uint32_t i = 0; i < grid; ++i) {
      coords.push_back({i, i});
      coords.push_back({i, i ^ bit});  // stays inside the s-group: bit < s
    }
  }
  return coords;
}

Pixelfly::Pixelfly(const PixelflyConfig& config, Rng& rng) : config_(config) {
  pattern_ = FlatButterflyPattern(config.n, config.block_size,
                                  config.butterfly_size);
  const std::size_t b2 = config.block_size * config.block_size;
  blocks_.resize(pattern_.size() * b2);
  block_grads_.assign(blocks_.size(), 0.0f);
  // Flat butterfly is a perturbation around the residual identity: blocks
  // start small so I + S + UV^T is near identity.
  const float bscale = 1.0f / std::sqrt(static_cast<float>(config.n));
  rng.FillNormal(blocks_.data(), blocks_.size(), bscale);
  const std::size_t nr = config.n * config.low_rank;
  u_.resize(nr);
  v_.resize(nr);
  u_grads_.assign(nr, 0.0f);
  v_grads_.assign(nr, 0.0f);
  if (nr > 0) {
    const float lrscale =
        1.0f / std::sqrt(static_cast<float>(std::max<std::size_t>(
                  1, config.low_rank)) * config.n);
    rng.FillNormal(u_.data(), nr, lrscale);
    rng.FillNormal(v_.data(), nr, lrscale);
  }
}

void Pixelfly::Forward(const Matrix& x, Matrix& y, Workspace* ws) const {
  const std::size_t n = config_.n;
  const std::size_t b = config_.block_size;
  const std::size_t r = config_.low_rank;
  REPRO_REQUIRE(x.cols() == n && y.rows() == x.rows() && y.cols() == n,
                "pixelfly forward shape mismatch");
  const std::size_t batch = x.rows();
  if (config_.residual) {
    y = x;
  } else {
    y.Zero();
  }
  // Block-sparse term, one GEMM per pattern block in pattern order:
  // Y[:, bi] += X[:, bj] W_q^T.
  const std::size_t b2 = b * b;
  for (std::size_t q = 0; q < pattern_.size(); ++q) {
    GemmStrided(GemmForm::kTransB, batch, b, b,
                x.data() + pattern_[q].bj * b, n, blocks_.data() + q * b2, b,
                y.data() + pattern_[q].bi * b, n, /*accumulate=*/true);
  }
  // Low-rank term: t = x V (batch x r), y += t U^T.
  Matrix t(batch, std::max<std::size_t>(r, 1));
  if (r > 0) {
    GemmStrided(GemmForm::kNN, batch, r, n, x.data(), n, v_.data(), r,
                t.data(), r, /*accumulate=*/false);
    GemmStrided(GemmForm::kTransB, batch, n, r, t.data(), r, u_.data(), r,
                y.data(), n, /*accumulate=*/true);
  }
  if (ws != nullptr) {
    ws->x = x;
    ws->t = std::move(t);
  }
}

void Pixelfly::Backward(const Workspace& ws, const Matrix& dy, Matrix& dx) {
  const std::size_t n = config_.n;
  const std::size_t b = config_.block_size;
  const std::size_t r = config_.low_rank;
  const std::size_t batch = dy.rows();
  REPRO_REQUIRE(ws.x.rows() == batch && dy.cols() == n,
                "pixelfly backward shape mismatch");
  if (config_.residual) {
    dx = dy;
  } else {
    dx = Matrix(batch, n);
  }
  // Per pattern block: dW_q += dY[:, bi]^T X[:, bj] ;
  // dX[:, bj] += dY[:, bi] W_q.
  const std::size_t b2 = b * b;
  for (std::size_t q = 0; q < pattern_.size(); ++q) {
    const float* gy = dy.data() + pattern_[q].bi * b;
    GemmStrided(GemmForm::kTransA, b, b, batch, gy, n,
                ws.x.data() + pattern_[q].bj * b, n,
                block_grads_.data() + q * b2, b, /*accumulate=*/true);
    GemmStrided(GemmForm::kNN, batch, b, b, gy, n, blocks_.data() + q * b2, b,
                dx.data() + pattern_[q].bj * b, n, /*accumulate=*/true);
  }
  if (r > 0) {
    // dT = dY U ; dU += dY^T T ; dV += X^T dT ; dX += dT V^T.
    Matrix dt(batch, r);
    GemmStrided(GemmForm::kNN, batch, r, n, dy.data(), n, u_.data(), r,
                dt.data(), r, /*accumulate=*/false);
    GemmStrided(GemmForm::kTransA, n, r, batch, dy.data(), n, ws.t.data(),
                ws.t.cols(), u_grads_.data(), r, /*accumulate=*/true);
    GemmStrided(GemmForm::kTransA, n, r, batch, ws.x.data(), n, dt.data(), r,
                v_grads_.data(), r, /*accumulate=*/true);
    GemmStrided(GemmForm::kTransB, batch, n, r, dt.data(), r, v_.data(), r,
                dx.data(), n, /*accumulate=*/true);
  }
}

Matrix Pixelfly::ToDense() const {
  const std::size_t n = config_.n;
  Matrix basis = Matrix::Identity(n);
  Matrix out(n, n);
  Forward(basis, out);
  return out.Transposed();
}

void Pixelfly::zeroGrad() {
  block_grads_.assign(block_grads_.size(), 0.0f);
  u_grads_.assign(u_grads_.size(), 0.0f);
  v_grads_.assign(v_grads_.size(), 0.0f);
}

}  // namespace repro::core
