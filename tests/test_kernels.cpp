// Specialized-kernel conformance: the generic string-keyed dispatch path is
// the oracle, and for every builtin codelet the specialized batched SoA path
// must reproduce it bit for bit -- tensor bytes, cycle counts, and flops --
// on randomized shapes and across host thread counts. Also covers the
// KernelPlan section of the ipu::Executable wire format: round trip,
// version-mismatch and truncation rejection, and referential validation of
// damaged plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "ipusim/codelet.h"
#include "ipusim/executable.h"
#include "ipusim/session.h"
#include "util/rng.h"

namespace repro::ipu {
namespace {

// One randomized test graph: a program plus the tensors whose final bytes
// define the observable result. Builders must draw from `rng`
// deterministically so the same seed reproduces the same graph on every
// dispatch path.
struct BuiltCase {
  Program prog;
  std::vector<Tensor> outs;
};

using BuilderFn = std::function<BuiltCase(Graph&, Rng&)>;

struct PathRun {
  std::vector<std::vector<float>> outs;
  RunReport report;
};

PathRun RunCase(const BuilderFn& build, std::uint64_t seed, bool specialize,
                std::size_t host_threads) {
  SessionOptions so;
  so.execute = true;
  so.specialize_kernels = specialize;
  so.host_threads = host_threads;
  Session session(Gc200(), so);
  Rng shape_rng(seed);
  BuiltCase bc = build(session.graph(), shape_rng);
  Status st = session.compile(bc.prog);
  EXPECT_TRUE(st.ok()) << st.message();
  // Every variable (inputs AND outputs: accumulate-mode vertices read their
  // initial output bytes) gets the same deterministic data on every path.
  Rng data_rng(seed ^ 0x9e3779b97f4a7c15ull);
  const Graph& g = session.graph();
  for (std::size_t vi = 0; vi < g.variables().size(); ++vi) {
    const std::size_t numel = g.variables()[vi].numel;
    std::vector<float> init(numel);
    data_rng.FillNormal(init.data(), init.size(), 1.0f);
    session.writeTensor(Tensor{static_cast<VarId>(vi), 0, numel, 1, numel},
                        init);
  }
  PathRun r;
  r.report = session.run();
  for (const Tensor& t : bc.outs) {
    std::vector<float> out(t.numel);
    session.readTensor(t, out);
    r.outs.push_back(std::move(out));
  }
  return r;
}

// The parity contract: for several random seeds, the generic single-thread
// run is the oracle; specialize x host_threads variations must match its
// tensor bytes and its report exactly.
void CheckParity(const BuilderFn& build) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const PathRun oracle = RunCase(build, seed, /*specialize=*/false, 1);
    const struct {
      bool specialize;
      std::size_t threads;
    } variants[] = {{false, 4}, {true, 1}, {true, 4}};
    for (const auto& v : variants) {
      const PathRun got = RunCase(build, seed, v.specialize, v.threads);
      ASSERT_EQ(got.outs.size(), oracle.outs.size());
      for (std::size_t i = 0; i < got.outs.size(); ++i) {
        ASSERT_EQ(got.outs[i].size(), oracle.outs[i].size());
        EXPECT_EQ(std::memcmp(got.outs[i].data(), oracle.outs[i].data(),
                              got.outs[i].size() * sizeof(float)),
                  0)
            << "tensor " << i << " differs (seed " << seed << ", specialize "
            << v.specialize << ", threads " << v.threads << ")";
      }
      EXPECT_EQ(got.report.total_cycles, oracle.report.total_cycles);
      EXPECT_EQ(got.report.compute_cycles, oracle.report.compute_cycles);
      EXPECT_EQ(got.report.exchange_cycles, oracle.report.exchange_cycles);
      EXPECT_EQ(got.report.sync_cycles, oracle.report.sync_cycles);
      EXPECT_EQ(got.report.flops, oracle.report.flops);
      EXPECT_EQ(got.report.bytes_exchanged, oracle.report.bytes_exchanged);
    }
  }
}

std::size_t RandSize(Rng& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.Below(hi - lo + 1));
}

// Adds one variable mapped to `tile` and returns its full-window handle.
Tensor Var(Graph& g, const std::string& name, std::size_t numel,
           std::size_t tile) {
  Tensor t = g.addVariable(name, numel);
  g.setTileMapping(t, tile);
  return t;
}

// --- per-codelet randomized builders ---------------------------------------
// Each builder spreads several random-shaped vertices over two tiles, so the
// specialize pass emits real multi-vertex groups on more than one tile.

BuiltCase BuildRelu(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t n = RandSize(rng, 1, 64);
    const std::string s = std::to_string(i);
    Tensor x = Var(g, "x" + s, n, tile), y = Var(g, "y" + s, n, tile);
    VertexId v = g.addVertex(cs, codelets::kRelu, tile);
    g.connect(v, "x", x);
    g.connect(v, "y", y, true);
    bc.outs.push_back(y);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildScaledAdd(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t n = RandSize(rng, 1, 48);
    const std::string s = std::to_string(i);
    Tensor x = Var(g, "x" + s, n, tile), y = Var(g, "y" + s, n, tile);
    VertexId v = g.addVertex(cs, codelets::kScaledAdd, tile);
    g.connect(v, "x", x);
    g.connect(v, "y", y, true);
    // Some vertices rely on the default alpha, exercising imm_present=0.
    if (i % 3 != 0) g.setInitialValue(v, "alpha", rng.Normal());
    bc.outs.push_back(y);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildReduceAdd(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t n = RandSize(rng, 1, 32);
    const std::size_t fan = RandSize(rng, 1, 4);
    const std::string s = std::to_string(i);
    Tensor parts = Var(g, "p" + s, n * fan, tile);
    Tensor out = Var(g, "o" + s, n, tile);
    VertexId v = g.addVertex(cs, codelets::kReduceAdd, tile);
    for (std::size_t f = 0; f < fan; ++f) {
      g.connect(v, "partials", parts.slice(f * n, n));
    }
    g.connect(v, "out", out, true);
    bc.outs.push_back(out);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildBiasRelu(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t rows = RandSize(rng, 1, 8);
    const std::size_t batch = RandSize(rng, 1, 16);
    const std::string s = std::to_string(i);
    Tensor bias = Var(g, "b" + s, rows, tile);
    Tensor x = Var(g, "x" + s, rows * batch, tile);
    Tensor y = Var(g, "y" + s, rows * batch, tile);
    VertexId v = g.addVertex(cs, codelets::kBiasRelu, tile);
    g.connect(v, "bias", bias);
    g.connect(v, "x", x);
    g.connect(v, "y", y, true);
    g.setInitialValue(v, "batch", static_cast<double>(batch));
    if (i % 2 == 0) g.setInitialValue(v, "relu", 0.0);  // identity variant
    bc.outs.push_back(y);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildDiagMul(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t rows = RandSize(rng, 1, 8);
    const std::size_t batch = RandSize(rng, 1, 12);
    const std::string s = std::to_string(i);
    Tensor d = Var(g, "d" + s, rows, tile);
    Tensor x = Var(g, "x" + s, rows * batch, tile);
    Tensor y = Var(g, "y" + s, rows * batch, tile);
    VertexId v = g.addVertex(cs, codelets::kDiagMul, tile);
    g.connect(v, "d", d);
    g.connect(v, "x", x);
    g.connect(v, "y", y, true);
    g.setInitialValue(v, "batch", static_cast<double>(batch));
    bc.outs.push_back(y);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildButterfly(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t rows = RandSize(rng, 1, 6);
    const std::size_t batch = RandSize(rng, 1, 10);
    const std::string s = std::to_string(i);
    Tensor w = Var(g, "w" + s, rows * 4, tile);
    Tensor xt = Var(g, "xt" + s, rows * batch, tile);
    Tensor xb = Var(g, "xb" + s, rows * batch, tile);
    Tensor yt = Var(g, "yt" + s, rows * batch, tile);
    Tensor yb = Var(g, "yb" + s, rows * batch, tile);
    VertexId v = g.addVertex(cs, codelets::kButterfly2x2, tile);
    g.connect(v, "w", w);
    g.connect(v, "x_top", xt);
    g.connect(v, "x_bot", xb);
    g.connect(v, "y_top", yt, true);
    g.connect(v, "y_bot", yb, true);
    g.setInitialValue(v, "batch", static_cast<double>(batch));
    bc.outs.push_back(yt);
    bc.outs.push_back(yb);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildHadamard(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t n = RandSize(rng, 1, 40);
    const std::string s = std::to_string(i);
    Tensor xt = Var(g, "xt" + s, n, tile), xb = Var(g, "xb" + s, n, tile);
    Tensor yt = Var(g, "yt" + s, n, tile), yb = Var(g, "yb" + s, n, tile);
    VertexId v = g.addVertex(cs, codelets::kHadamard2, tile);
    g.connect(v, "x_top", xt);
    g.connect(v, "x_bot", xb);
    g.connect(v, "y_top", yt, true);
    g.connect(v, "y_bot", yb, true);
    bc.outs.push_back(yt);
    bc.outs.push_back(yb);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildGemm(Graph& g, Rng& rng, const char* codelet) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t m = RandSize(rng, 1, 8);
    const std::size_t k = RandSize(rng, 1, 8);
    const std::size_t n = RandSize(rng, 1, 8);
    const std::string s = std::to_string(i);
    Tensor a = Var(g, "a" + s, m * k, tile);
    Tensor b = Var(g, "b" + s, k * n, tile);
    Tensor out = Var(g, "c" + s, m * n, tile);
    VertexId v = g.addVertex(cs, codelet, tile);
    g.connect(v, "a", a);
    g.connect(v, "b", b);
    g.connect(v, "out", out, true);
    g.setInitialValue(v, "m", static_cast<double>(m));
    g.setInitialValue(v, "k", static_cast<double>(k));
    g.setInitialValue(v, "n", static_cast<double>(n));
    if (i % 2 == 1) g.setInitialValue(v, "accumulate", 1.0);
    bc.outs.push_back(out);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildSparseRows(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t m = RandSize(rng, 1, 4);
    const std::size_t k = RandSize(rng, 1, 4);
    const std::size_t n = RandSize(rng, 1, 8);
    const std::string s = std::to_string(i);
    Tensor b = Var(g, "b" + s, k * n, tile);
    Tensor out = Var(g, "o" + s, m * n, tile);
    VertexId v = g.addVertex(cs, codelets::kSparseRowsMac, tile);
    g.connect(v, "b", b);
    g.connect(v, "out", out, true);
    g.setInitialValue(v, "m", static_cast<double>(m));
    g.setInitialValue(v, "n", static_cast<double>(n));
    if (i % 2 == 1) g.setInitialValue(v, "accumulate", 1.0);
    // CSR state: [count_r, (col, val) * count_r] per local row.
    std::vector<float> state;
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t count = RandSize(rng, 0, k);
      state.push_back(static_cast<float>(count));
      for (std::size_t e = 0; e < count; ++e) {
        state.push_back(static_cast<float>(RandSize(rng, 0, k - 1)));
        state.push_back(rng.Normal());
      }
    }
    g.setVertexState(v, std::move(state));
    bc.outs.push_back(out);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildSparseCoo(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t m = RandSize(rng, 1, 4);
    const std::size_t k = RandSize(rng, 1, 4);
    const std::size_t n = RandSize(rng, 1, 8);
    const std::string s = std::to_string(i);
    Tensor b = Var(g, "b" + s, k * n, tile);
    Tensor out = Var(g, "o" + s, m * n, tile);
    VertexId v = g.addVertex(cs, codelets::kSparseCooMac, tile);
    g.connect(v, "b", b);
    g.connect(v, "out", out, true);
    g.setInitialValue(v, "n", static_cast<double>(n));
    if (i % 2 == 1) g.setInitialValue(v, "accumulate", 1.0);
    // COO state: (row, col, val) triples.
    std::vector<float> state;
    const std::size_t nnz = RandSize(rng, 0, 6);
    for (std::size_t e = 0; e < nnz; ++e) {
      state.push_back(static_cast<float>(RandSize(rng, 0, m - 1)));
      state.push_back(static_cast<float>(RandSize(rng, 0, k - 1)));
      state.push_back(rng.Normal());
    }
    g.setVertexState(v, std::move(state));
    bc.outs.push_back(out);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildBlockGemmAmp(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t b = 2 * RandSize(rng, 1, 2);  // 2 or 4
    const std::size_t batch = RandSize(rng, 1, 8);
    const std::size_t nblocks = RandSize(rng, 1, 3);
    const std::string s = std::to_string(i);
    Tensor w = Var(g, "w" + s, nblocks * b * b, tile);
    Tensor x = Var(g, "x" + s, nblocks * b * batch, tile);
    Tensor out = Var(g, "o" + s, b * batch, tile);
    VertexId v = g.addVertex(cs, codelets::kBlockGemmAmp, tile);
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
      g.connect(v, "w", w.slice(blk * b * b, b * b));
      g.connect(v, "x", x.slice(blk * b * batch, b * batch));
    }
    g.connect(v, "out", out, true);
    g.setInitialValue(v, "b", static_cast<double>(b));
    g.setInitialValue(v, "batch", static_cast<double>(batch));
    if (i % 2 == 1) g.setInitialValue(v, "accumulate", 1.0);
    bc.outs.push_back(out);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

// A mixed compute set -- three codelets interleaved over two tiles -- plus a
// second compute set, so per-(cs, tile, codelet) grouping and per-CS group
// ranges are both exercised in one graph.
BuiltCase BuildMixed(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs1 = g.addComputeSet("cs1");
  ComputeSetId cs2 = g.addComputeSet("cs2");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t n = RandSize(rng, 1, 32);
    const std::string s = std::to_string(i);
    Tensor x = Var(g, "x" + s, n, tile);
    Tensor y = Var(g, "y" + s, n, tile);
    Tensor z = Var(g, "z" + s, n, tile);
    VertexId relu = g.addVertex(cs1, codelets::kRelu, tile);
    g.connect(relu, "x", x);
    g.connect(relu, "y", y, true);
    VertexId axpy = g.addVertex(cs2, codelets::kScaledAdd, tile);
    g.connect(axpy, "x", y);
    g.connect(axpy, "y", z, true);
    g.setInitialValue(axpy, "alpha", rng.Normal());
    bc.outs.push_back(y);
    bc.outs.push_back(z);
  }
  bc.prog = Program::Sequence(
      {Program::Execute(cs1), Program::Execute(cs2)});
  return bc;
}

TEST(KernelParity, Relu) { CheckParity(BuildRelu); }
TEST(KernelParity, ScaledAdd) { CheckParity(BuildScaledAdd); }
TEST(KernelParity, ReduceAdd) { CheckParity(BuildReduceAdd); }
TEST(KernelParity, BiasRelu) { CheckParity(BuildBiasRelu); }
TEST(KernelParity, DiagMul) { CheckParity(BuildDiagMul); }
TEST(KernelParity, Butterfly2x2) { CheckParity(BuildButterfly); }
TEST(KernelParity, Hadamard2) { CheckParity(BuildHadamard); }
TEST(KernelParity, ScalarGemm) {
  CheckParity([](Graph& g, Rng& rng) {
    return BuildGemm(g, rng, codelets::kScalarGemm);
  });
}
TEST(KernelParity, AmpGemm) {
  CheckParity([](Graph& g, Rng& rng) {
    return BuildGemm(g, rng, codelets::kAmpGemm);
  });
}
TEST(KernelParity, SparseRowsMac) { CheckParity(BuildSparseRows); }
TEST(KernelParity, SparseCooMac) { CheckParity(BuildSparseCoo); }
TEST(KernelParity, BlockGemmAmp) { CheckParity(BuildBlockGemmAmp); }
TEST(KernelParity, MixedComputeSets) { CheckParity(BuildMixed); }

// ---------------------------------------------------------------------------
// GemmCore against the ikj loop it replaced, byte for byte.

// Verbatim copy of the loop GemmCore ran before it was register-tiled (the
// pixelfly BlockMacCore loop was the same with accumulate always on).
void GemmCoreLoopReference(std::size_t m, std::size_t k, std::size_t n,
                           bool accumulate, std::span<const float> a,
                           std::span<const float> b, std::span<float> out) {
  if (!accumulate) {
    for (auto& o : out) o = 0.0f;
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) {
        out[i * n + j] += av * b[p * n + j];
      }
    }
  }
}

TEST(GemmCoreBits, MatchesLoopReference) {
  Rng rng(2024);
  for (const std::size_t m : {1, 3, 4, 5, 16}) {
    for (const std::size_t n : {1, 7, 8, 31, 32, 33}) {
      for (const std::size_t k : {1, 2, 13, 64, 256}) {
        std::vector<float> a(m * k), b(k * n), init(m * n);
        for (auto& v : a) v = static_cast<float>(rng.Normal());
        for (auto& v : b) v = static_cast<float>(rng.Normal());
        for (auto& v : init) v = static_cast<float>(rng.Normal());
        // Exact zeros of both signs are skipped, so a zero weight facing an
        // infinity adds no NaN and a -0 already in `out` stays -0.
        for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
        for (std::size_t i = 1; i < a.size(); i += 7) a[i] = -0.0f;
        b[0] = std::numeric_limits<float>::infinity();
        init[0] = -0.0f;
        if (m > 1) {  // row 1: all weights zero, outputs -0
          std::fill(a.begin() + k, a.begin() + 2 * k, 0.0f);
          std::fill(init.begin() + n, init.begin() + 2 * n, -0.0f);
        }
        for (const bool accumulate : {false, true}) {
          std::vector<float> got = init, want = init;
          GemmCore(m, k, n, accumulate, a, b, got);
          GemmCoreLoopReference(m, k, n, accumulate, a, b, want);
          ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                   got.size() * sizeof(float)))
              << "m=" << m << " n=" << n << " k=" << k
              << " accumulate=" << accumulate;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// KernelPlan wire format.

Executable CompileMixed(bool specialize) {
  SessionOptions so;
  so.execute = true;
  so.specialize_kernels = specialize;
  Session session(Gc200(), so);
  Rng rng(11);
  BuiltCase bc = BuildMixed(session.graph(), rng);
  EXPECT_TRUE(session.compile(bc.prog).ok());
  return session.executable();
}

TEST(KernelPlanSerialization, RoundTripPreservesPlan) {
  const Executable exe = CompileMixed(true);
  ASSERT_TRUE(exe.kernel_plan.enabled);
  ASSERT_FALSE(exe.kernel_plan.groups.empty());
  const std::vector<std::uint8_t> bytes = exe.Serialize();
  StatusOr<Executable> back = Executable::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  const KernelPlan& a = exe.kernel_plan;
  const KernelPlan& b = back.value().kernel_plan;
  EXPECT_EQ(b.enabled, a.enabled);
  ASSERT_EQ(b.codelets.size(), a.codelets.size());
  for (std::size_t i = 0; i < a.codelets.size(); ++i) {
    EXPECT_EQ(b.codelets[i].name, a.codelets[i].name);
    EXPECT_EQ(b.codelets[i].fields, a.codelets[i].fields);
    EXPECT_EQ(b.codelets[i].imms, a.codelets[i].imms);
  }
  ASSERT_EQ(b.groups.size(), a.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(b.groups[i].cs, a.groups[i].cs);
    EXPECT_EQ(b.groups[i].codelet, a.groups[i].codelet);
    EXPECT_EQ(b.groups[i].tile, a.groups[i].tile);
    EXPECT_EQ(b.groups[i].vertices, a.groups[i].vertices);
    EXPECT_EQ(b.groups[i].edge_start, a.groups[i].edge_start);
    EXPECT_EQ(b.groups[i].imm_values, a.groups[i].imm_values);
    EXPECT_EQ(b.groups[i].imm_present, a.groups[i].imm_present);
  }
  // Cost tables must survive bit-exactly (doubles, not text).
  EXPECT_EQ(b.vertex_cycles, a.vertex_cycles);
  EXPECT_EQ(b.vertex_flops, a.vertex_flops);
  // And the whole artifact re-serializes to identical bytes.
  EXPECT_EQ(back.value().Serialize(), bytes);
}

TEST(KernelPlanSerialization, DisabledPlanRoundTrips) {
  const Executable exe = CompileMixed(false);
  EXPECT_FALSE(exe.kernel_plan.enabled);
  const std::vector<std::uint8_t> bytes = exe.Serialize();
  StatusOr<Executable> back = Executable::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_FALSE(back.value().kernel_plan.enabled);
  EXPECT_TRUE(back.value().kernel_plan.groups.empty());
}

TEST(KernelPlanSerialization, VersionMismatchRejected) {
  std::vector<std::uint8_t> bytes = CompileMixed(true).Serialize();
  // Format version: u32 little-endian straight after the 8-byte magic.
  bytes[8] += 1;
  StatusOr<Executable> back = Executable::Deserialize(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("version"), std::string::npos)
      << back.status().message();
}

TEST(KernelPlanSerialization, TruncationRejected) {
  const std::vector<std::uint8_t> bytes = CompileMixed(true).Serialize();
  // Every prefix must be rejected cleanly -- never a crash or a success.
  for (std::size_t keep : {bytes.size() - 1, bytes.size() - 9,
                           bytes.size() / 2, std::size_t{32}}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(Executable::Deserialize(cut).ok()) << "kept " << keep;
  }
}

TEST(KernelPlanSerialization, ReferentialCorruptionRejected) {
  // Mutate a decoded plan in memory and re-serialize: the checksum is
  // recomputed over the damaged bytes, so only the plan validator stands
  // between the engine and out-of-bounds SoA tables.
  {
    Executable exe = CompileMixed(true);
    exe.kernel_plan.groups[0].vertices[0] =
        static_cast<VertexId>(exe.graph->vertices().size());
    StatusOr<Executable> back = Executable::Deserialize(exe.Serialize());
    EXPECT_FALSE(back.ok());
  }
  {
    Executable exe = CompileMixed(true);
    exe.kernel_plan.groups[0].edges[0].offset = 1u << 20;
    StatusOr<Executable> back = Executable::Deserialize(exe.Serialize());
    EXPECT_FALSE(back.ok());
  }
  {
    Executable exe = CompileMixed(true);
    exe.kernel_plan.groups[0].edge_start.pop_back();
    StatusOr<Executable> back = Executable::Deserialize(exe.Serialize());
    EXPECT_FALSE(back.ok());
  }
  {
    Executable exe = CompileMixed(true);
    exe.kernel_plan.vertex_cycles.pop_back();
    StatusOr<Executable> back = Executable::Deserialize(exe.Serialize());
    EXPECT_FALSE(back.ok());
  }
}

// ---------------------------------------------------------------------------
// VertexArgs fail-loudly contract: a default-constructed placeholder (the
// pre-resolution state of the engine's args table) must die on first use,
// not silently return empty spans.

TEST(VertexArgsDeath, UnboundPlaceholderDiesOnUse) {
  VertexArgs unbound;
  EXPECT_DEATH(unbound.imm("alpha", 1.0), "before assignment");
  EXPECT_DEATH(unbound.arch(), "before assignment");
  EXPECT_DEATH(unbound.state(), "before assignment");
}

}  // namespace
}  // namespace repro::ipu
