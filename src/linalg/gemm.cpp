#include "linalg/gemm.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "util/bitops.h"
#include "util/parallel.h"

namespace repro {
namespace {

// Register block: kMR rows of A times one kNR-wide panel of B. Ten 4-float
// accumulators fit the sixteen SSE registers of baseline x86-64 alongside
// the B lanes and the broadcast A value, and kMR divides the training batch
// of 50, so batch-major products waste no padded rows.
constexpr std::size_t kMR = 5;
constexpr std::size_t kNR = 8;
typedef float Lanes __attribute__((vector_size(16)));
constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(float);
constexpr std::size_t kNV = kNR / kLanes;  // Lanes per tile row

// Below this many multiply-adds a ParallelFor shard costs more than it saves.
constexpr std::size_t kMinShardMacs = std::size_t{1} << 18;

// How a tile's accumulators start and how they land in C.
enum class Store {
  kOverwrite,  // start from zero, C = sum
  kInto,       // start from C, add each product in turn
  kAddTotal,   // start from zero, C = C + sum
};

Lanes LoadLanes(const float* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void StoreLanes(float* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

// One kMR x kNR tile of C over the full k: ap is the packed A block
// (k x kMR), bp the packed B panel (k x kNR). Each lane of acc[r] is one
// output, summed in ascending p; lanes never mix.
template <Store kStore>
void MicroKernel(std::size_t k, const float* ap, const float* bp, float* c,
                 std::size_t ldc) {
  Lanes acc[kMR][kNV];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < kMR; ++r) {
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kNV; ++v) {
      acc[r][v] = kStore == Store::kInto ? LoadLanes(c + r * ldc + v * kLanes)
                                         : Lanes{};
    }
  }
  for (std::size_t p = 0; p < k; ++p, ap += kMR, bp += kNR) {
    Lanes bv[kNV];
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kNV; ++v) bv[v] = LoadLanes(bp + v * kLanes);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < kMR; ++r) {
#pragma GCC unroll 8
      for (std::size_t v = 0; v < kNV; ++v) acc[r][v] += ap[r] * bv[v];
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < kMR; ++r) {
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kNV; ++v) {
      float* cv = c + r * ldc + v * kLanes;
      StoreLanes(cv, kStore == Store::kAddTotal ? LoadLanes(cv) + acc[r][v]
                                                : acc[r][v]);
    }
  }
}

// Runs the micro-kernel on a partial tile (mr <= kMR rows, nr <= kNR
// columns) through a padded copy; the padding lanes are discarded.
template <Store kStore>
void EdgeKernel(std::size_t k, const float* ap, const float* bp, float* c,
                std::size_t ldc, std::size_t mr, std::size_t nr) {
  float tile[kMR * kNR] = {};
  if constexpr (kStore != Store::kOverwrite) {
    for (std::size_t r = 0; r < mr; ++r) {
      std::copy(c + r * ldc, c + r * ldc + nr, tile + r * kNR);
    }
  }
  MicroKernel<kStore>(k, ap, bp, tile, kNR);
  for (std::size_t r = 0; r < mr; ++r) {
    std::copy(tile + r * kNR, tile + r * kNR + nr, c + r * ldc);
  }
}

// Packs op(A) into kMR-row blocks, each stored k-major (k x kMR) and
// zero-padded past row m.
void PackA(GemmForm form, std::size_t m, std::size_t k, const float* a,
           std::size_t lda, float* ap) {
  for (std::size_t i0 = 0; i0 < m; i0 += kMR, ap += k * kMR) {
    const std::size_t mr = std::min(kMR, m - i0);
    for (std::size_t p = 0; p < k; ++p) {
      float* dst = ap + p * kMR;
      for (std::size_t r = 0; r < kMR; ++r) {
        if (r >= mr) {
          dst[r] = 0.0f;
        } else if (form == GemmForm::kTransA) {
          dst[r] = a[p * lda + i0 + r];
        } else {
          dst[r] = a[(i0 + r) * lda + p];
        }
      }
    }
  }
}

// Packs columns [j0, j0 + nr) of op(B) as a k x kNR panel, zero-padded.
void PackB(GemmForm form, std::size_t k, const float* b, std::size_t ldb,
           std::size_t j0, std::size_t nr, float* bp) {
  for (std::size_t p = 0; p < k; ++p) {
    float* dst = bp + p * kNR;
    for (std::size_t j = 0; j < kNR; ++j) {
      if (j >= nr) {
        dst[j] = 0.0f;
      } else if (form == GemmForm::kTransB) {
        dst[j] = b[(j0 + j) * ldb + p];
      } else {
        dst[j] = b[p * ldb + j0 + j];
      }
    }
  }
}

// Bound on each packing buffer, in floats. B: each shard packs consecutive
// panels up to this size and sweeps them row block by row block, so each
// packed A block is reused across the group while it is hot. A: rows are
// packed (and multiplied) in chunks of at most this size.
constexpr std::size_t kPackFloats = std::size_t{1} << 16;

template <Store kStore>
void RunPanels(GemmForm form, std::size_t m, std::size_t n, std::size_t k,
               const float* ap, const float* b, std::size_t ldb, float* c,
               std::size_t ldc) {
  const std::size_t row_blocks = CeilDiv(m, kMR);
  const std::size_t panel_floats = std::max<std::size_t>(1, k * kNR);
  const std::size_t group =
      std::max<std::size_t>(1, kPackFloats / panel_floats);
  const std::size_t panel_macs = row_blocks * kMR * panel_floats;
  ParallelFor(
      0, CeilDiv(n, kNR),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<float> bp;
        for (std::size_t g0 = lo; g0 < hi; g0 += group) {
          const std::size_t g1 = std::min(g0 + group, hi);
          bp.resize((g1 - g0) * panel_floats);
          for (std::size_t panel = g0; panel < g1; ++panel) {
            const std::size_t j0 = panel * kNR;
            PackB(form, k, b, ldb, j0, std::min(kNR, n - j0),
                  bp.data() + (panel - g0) * panel_floats);
          }
          for (std::size_t blk = 0; blk < row_blocks; ++blk) {
            const std::size_t i0 = blk * kMR;
            const std::size_t mr = std::min(kMR, m - i0);
            const float* apb = ap + blk * k * kMR;
            for (std::size_t panel = g0; panel < g1; ++panel) {
              const std::size_t j0 = panel * kNR;
              const std::size_t nr = std::min(kNR, n - j0);
              const float* bpp = bp.data() + (panel - g0) * panel_floats;
              float* ct = c + i0 * ldc + j0;
              if (mr == kMR && nr == kNR) {
                MicroKernel<kStore>(k, apb, bpp, ct, ldc);
              } else {
                EdgeKernel<kStore>(k, apb, bpp, ct, ldc, mr, nr);
              }
            }
          }
        }
      },
      std::max<std::size_t>(1, kMinShardMacs / panel_macs));
}

}  // namespace

void GemmStrided(GemmForm form, std::size_t m, std::size_t n, std::size_t k,
                 const float* a, std::size_t lda, const float* b,
                 std::size_t ldb, float* c, std::size_t ldc, bool accumulate) {
  if (m == 0 || n == 0) return;
  // Rows per packed chunk of A: a multiple of kMR within kPackFloats.
  const std::size_t chunk =
      kMR * std::max<std::size_t>(
                1, kPackFloats / (kMR * std::max<std::size_t>(1, k)));
  const std::size_t ap_rows = std::min(chunk, CeilDiv(m, kMR) * kMR);
  std::unique_ptr<float[]> ap(new float[ap_rows * k]);
  for (std::size_t i0 = 0; i0 < m; i0 += chunk) {
    const std::size_t rows = std::min(chunk, m - i0);
    const float* a0 = form == GemmForm::kTransA ? a + i0 : a + i0 * lda;
    float* c0 = c + i0 * ldc;
    PackA(form, rows, k, a0, lda, ap.get());
    if (!accumulate) {
      RunPanels<Store::kOverwrite>(form, rows, n, k, ap.get(), b, ldb, c0, ldc);
    } else if (form == GemmForm::kTransB) {
      RunPanels<Store::kAddTotal>(form, rows, n, k, ap.get(), b, ldb, c0, ldc);
    } else {
      RunPanels<Store::kInto>(form, rows, n, k, ap.get(), b, ldb, c0, ldc);
    }
  }
}

void GemmNaive(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  REPRO_REQUIRE(b.rows() == k && c.rows() == m && c.cols() == n,
                "GemmNaive: %zux%zu * %zux%zu -> %zux%zu", a.rows(), a.cols(),
                b.rows(), b.cols(), c.rows(), c.cols());
  if (!accumulate) c.Zero();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a(i, p);
      if (av == 0.0f) continue;
      const float* brow = b.data() + p * n;
      float* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void GemmBlocked(const Matrix& a, const Matrix& b, Matrix& c,
                 bool accumulate) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  REPRO_REQUIRE(b.rows() == k && c.rows() == m && c.cols() == n,
                "GemmBlocked shape mismatch");
  GemmStrided(GemmForm::kNN, m, n, k, a.data(), k, b.data(), n, c.data(), n,
              accumulate);
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  // a is (k x m): C(m x n) = A^T * B.
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  REPRO_REQUIRE(b.rows() == k && c.rows() == m && c.cols() == n,
                "GemmTransA shape mismatch");
  GemmStrided(GemmForm::kTransA, m, n, k, a.data(), m, b.data(), n, c.data(),
              n, accumulate);
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  // b is (n x k): C(m x n) = A * B^T.
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  REPRO_REQUIRE(b.cols() == k && c.rows() == m && c.cols() == n,
                "GemmTransB shape mismatch");
  GemmStrided(GemmForm::kTransB, m, n, k, a.data(), k, b.data(), k, c.data(),
              n, accumulate);
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  GemmBlocked(a, b, c);
  return c;
}

void Gemv(const Matrix& a, std::span<const float> x, std::span<float> y) {
  REPRO_REQUIRE(x.size() == a.cols() && y.size() == a.rows(),
                "Gemv shape mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* row = a.data() + i * a.cols();
    float acc = 0.0f;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}

}  // namespace repro
