// Host-kernel and dispatch-path microbenchmarks.
//
// Part 1 (host kernels): the numeric substrate the training experiments run
// on -- the Table 4 dense step through the GEMM core and through GemmNaive,
// SpMM, butterfly/pixelfly forwards, FWHT, FFT, circular convolution --
// timed with a plain steady_clock loop. --require-host-speedup F exits 1
// unless the core runs the dense step at least F times faster than
// GemmNaive.
//
// Part 2 (dispatch paths): the same vertex graph executed through the
// engine's two dispatch paths -- generic string-keyed per-vertex dispatch
// vs the specialized KernelPlan's fused per-(tile, codelet) batches -- with
// per-path host wall-clock per vertex and the speedup ratio in the --json
// records. Tensor results are byte-compared between the paths, so this
// bench doubles as an end-to-end conformance check, and --require-speedup X
// turns the ratio into a hard gate (exit 1 below X) that scripts/check.sh
// uses to hold the specialization's host-throughput claim.
//
// JSON values here are wall-clock measurements and intentionally vary run
// to run; scripts/check.sh holds only the key schema stable
// (scripts/bench_schemas/bench_kernels.keys).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/butterfly.h"
#include "core/fft.h"
#include "core/fwht.h"
#include "core/pixelfly.h"
#include "ipusim/arch.h"
#include "ipusim/session.h"
#include "linalg/gemm.h"
#include "linalg/spmm.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

using namespace repro;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Appends one kernel record: ns per iteration plus items (flops, elements)
// per second.
void AddKernelRecord(BenchJsonWriter& json, Table& table,
                     const std::string& name, std::size_t n, std::size_t iters,
                     double ns_per_iter, double items_per_iter) {
  const double items_per_s =
      ns_per_iter > 0.0 ? items_per_iter / ns_per_iter * 1e9 : 0.0;
  char rec[256];
  std::snprintf(rec, sizeof rec,
                "{\"kernel\": \"%s\", \"n\": %zu, \"iters\": %zu, "
                "\"ns_per_iter\": %.17g, \"items_per_s\": %.17g}",
                name.c_str(), n, iters, ns_per_iter, items_per_s);
  json.Add(rec);
  table.AddRow({name, Table::Int(static_cast<long long>(n)),
                Table::Int(static_cast<long long>(iters)),
                Table::Num(ns_per_iter / 1e3, 1),
                Table::Num(items_per_s / 1e9, 2)});
}

// Times `iters` calls of `fn` (after one untimed warmup) and records the
// mean time per call.
void TimeKernel(BenchJsonWriter& json, Table& table, const std::string& name,
                std::size_t n, std::size_t iters, std::size_t items_per_iter,
                const std::function<void()>& fn) {
  fn();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  const double s = SecondsSince(t0);
  AddKernelRecord(json, table, name, n, iters,
                  s / static_cast<double>(iters) * 1e9,
                  static_cast<double>(items_per_iter));
}

// One Table 4 dense-layer SGD step's three products at batch 50, n = 1024:
// forward y = x W, weight gradient dW += x^T dy, input gradient dx = dy W^T.
// The core runs them as GemmBlocked / GemmTransA / GemmTransB; the naive
// reference runs all three through GemmNaive with the transposes
// materialised before timing. The two alternate and each keeps its best
// step, so a burst of machine noise cannot favour either. Returns the
// naive / core time ratio.
double TimeDenseStep(BenchJsonWriter& json, Table& table, bool fast) {
  const std::size_t batch = 50, n = 1024;
  const std::size_t reps = fast ? 5 : 15;
  Rng rng(2);
  const Matrix x = Matrix::RandomNormal(batch, n, rng);
  const Matrix w = Matrix::RandomNormal(n, n, rng, 0.03f);
  const Matrix dy = Matrix::RandomNormal(batch, n, rng);
  const Matrix xt = x.Transposed(), wt = w.Transposed();
  Matrix y(batch, n), dw(n, n), dx(batch, n);
  auto core_step = [&] {
    GemmBlocked(x, w, y);
    GemmTransA(x, dy, dw, /*accumulate=*/true);
    GemmTransB(dy, w, dx);
  };
  auto naive_step = [&] {
    GemmNaive(x, w, y);
    GemmNaive(xt, dy, dw, /*accumulate=*/true);
    GemmNaive(dy, wt, dx);
  };
  auto seconds = [](const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return SecondsSince(t0);
  };
  core_step();
  naive_step();
  double core_s = 1e30, naive_s = 1e30;
  for (std::size_t i = 0; i < reps; ++i) {
    core_s = std::min(core_s, seconds(core_step));
    naive_s = std::min(naive_s, seconds(naive_step));
  }
  const double flops = 3.0 * GemmFlops(batch, n, n);
  AddKernelRecord(json, table, "dense_step_core", n, reps, core_s * 1e9, flops);
  AddKernelRecord(json, table, "dense_step_naive", n, reps, naive_s * 1e9,
                  flops);
  return naive_s / core_s;
}

double RunHostKernels(BenchJsonWriter& json, bool fast) {
  PrintBanner("Host kernels: training-side numeric substrate");
  Table t({"kernel", "n", "iters", "us/iter", "Gitems/s"});
  const std::size_t scale = fast ? 1 : 4;

  const double dense_speedup = TimeDenseStep(json, t, fast);
  {
    const std::size_t n = 1024;
    Rng rng(3);
    Csr s = RandomCsr(n, n, 0.05, rng);
    Matrix b = Matrix::RandomNormal(n, 64, rng);
    Matrix c(n, 64);
    TimeKernel(json, t, "spmm_csr", n, 8 * scale, 2 * s.nnz() * 64,
               [&] { SpmmCsr(s, b, c); });
  }
  {
    const std::size_t n = fast ? 256 : 1024;
    Rng rng(4);
    core::Butterfly bf(n, core::ButterflyParam::kGivens, true, rng);
    Matrix x = Matrix::RandomNormal(50, n, rng);
    Matrix y(50, n);
    TimeKernel(json, t, "butterfly_forward", n, 8 * scale,
               50 * 4 * (n / 2) * static_cast<std::size_t>(std::log2(n)),
               [&] { bf.Forward(x, y); });
  }
  {
    Rng rng(5);
    core::PixelflyConfig cfg;  // paper defaults (n=1024, b=16, s=64, r=96)
    core::Pixelfly pf(cfg, rng);
    Matrix x = Matrix::RandomNormal(50, cfg.n, rng);
    Matrix y(50, cfg.n);
    TimeKernel(json, t, "pixelfly_forward", cfg.n, 4 * scale, 50 * cfg.n,
               [&] { pf.Forward(x, y); });
  }
  {
    const std::size_t n = 1024;
    Rng rng(6);
    Matrix x = Matrix::RandomNormal(50, n, rng);
    TimeKernel(json, t, "fwht_rows", n, 8 * scale,
               50 * n * static_cast<std::size_t>(std::log2(n)),
               [&] { core::FwhtRows(x); });
  }
  {
    const std::size_t n = 1024;
    Rng rng(7);
    std::vector<core::Cpx> v(n);
    for (auto& c : v) c = core::Cpx(rng.Normal(), rng.Normal());
    TimeKernel(json, t, "fft", n, 16 * scale,
               n * static_cast<std::size_t>(std::log2(n)),
               [&] { core::Fft(v); });
  }
  {
    const std::size_t n = 1024;
    Rng rng(8);
    std::vector<float> c(n), x(n), out(n);
    rng.FillNormal(c.data(), n, 1.0f);
    rng.FillNormal(x.data(), n, 1.0f);
    TimeKernel(json, t, "circular_convolve", n, 8 * scale, n,
               [&] { core::CircularConvolve(c, x, out); });
  }
  t.Print();
  std::printf("\ndense step (batch 50, n 1024): GEMM core %.2fx GemmNaive\n",
              dense_speedup);
  return dense_speedup;
}

// ---------------------------------------------------------------------------
// Dispatch-path benchmark: one compute set of many tiny mixed-codelet
// vertices, where per-vertex dispatch overhead (string-keyed map lookups,
// one std::function hop per vertex) dominates the arithmetic -- the
// workload the specialized batched path exists for.

struct DispatchShape {
  std::size_t tiles = 64;
  std::size_t per_tile = 32;  // vertices of EACH codelet per tile
  std::size_t elems = 8;      // span elements per vertex
};

struct DispatchGraph {
  ipu::ComputeSetId cs = 0;
  // Output tensors for the cross-path byte comparison.
  std::vector<ipu::Tensor> outs;
  std::size_t vertices = 0;
};

DispatchGraph BuildDispatchGraph(ipu::Session& session,
                                 const DispatchShape& shape) {
  ipu::Graph& g = session.graph();
  DispatchGraph dg;
  dg.cs = g.addComputeSet("dispatch");
  for (std::size_t tile = 0; tile < shape.tiles; ++tile) {
    const std::size_t n = shape.per_tile * shape.elems;
    const std::string suffix = "_" + std::to_string(tile);
    ipu::Tensor x = g.addVariable("x" + suffix, n);
    ipu::Tensor y = g.addVariable("y" + suffix, n);
    ipu::Tensor z = g.addVariable("z" + suffix, n);
    ipu::Tensor w = g.addVariable("w" + suffix, n);
    ipu::Tensor d = g.addVariable("d" + suffix, shape.per_tile);
    for (ipu::Tensor t : {x, y, z, w, d}) g.setTileMapping(t, tile);
    for (std::size_t i = 0; i < shape.per_tile; ++i) {
      const ipu::Tensor xi = x.slice(i * shape.elems, shape.elems);
      ipu::VertexId relu = g.addVertex(dg.cs, ipu::codelets::kRelu, tile);
      g.connect(relu, "x", xi);
      g.connect(relu, "y", y.slice(i * shape.elems, shape.elems), true);
      ipu::VertexId axpy = g.addVertex(dg.cs, ipu::codelets::kScaledAdd, tile);
      g.connect(axpy, "x", xi);
      g.connect(axpy, "y", z.slice(i * shape.elems, shape.elems), true);
      g.setInitialValue(axpy, "alpha", 0.5 + 0.25 * static_cast<double>(i % 3));
      ipu::VertexId diag = g.addVertex(dg.cs, ipu::codelets::kDiagMul, tile);
      g.connect(diag, "d", d.slice(i, 1));
      g.connect(diag, "x", xi);
      g.connect(diag, "y", w.slice(i * shape.elems, shape.elems), true);
      g.setInitialValue(diag, "batch", static_cast<double>(shape.elems));
      dg.vertices += 3;
    }
    dg.outs.push_back(y);
    dg.outs.push_back(z);
    dg.outs.push_back(w);
  }
  return dg;
}

struct DispatchResult {
  double build_ns_per_vertex = 0.0;
  double run_ns_per_vertex = 0.0;
  double vertices_per_dispatch = 0.0;
  std::vector<std::vector<float>> outputs;
};

DispatchResult RunDispatchPath(bool specialize, const DispatchShape& shape,
                               std::size_t runs) {
  ipu::ResetEngineHostStats();
  ipu::SessionOptions so;
  so.execute = true;
  so.host_threads = 1;  // dispatch overhead per vertex, not thread scaling
  so.specialize_kernels = specialize;
  ipu::Session session(ipu::Gc200(), so);
  DispatchGraph dg = BuildDispatchGraph(session, shape);
  REPRO_REQUIRE(session.compile(ipu::Program::Execute(dg.cs)).ok(),
                "dispatch bench graph failed to compile");
  // Deterministic inputs, identical for both paths (variables are written
  // in id order, so the Rng stream lines up between the two sessions).
  Rng rng(7);
  const ipu::Graph& g = session.graph();
  for (std::size_t vi = 0; vi < g.variables().size(); ++vi) {
    const std::size_t numel = g.variables()[vi].numel;
    std::vector<float> init(numel);
    rng.FillNormal(init.data(), init.size(), 1.0f);
    session.writeTensor(
        ipu::Tensor{static_cast<ipu::VarId>(vi), 0, numel, 1, numel}, init);
  }
  for (std::size_t i = 0; i < runs; ++i) session.run();
  const ipu::EngineHostStats s = ipu::EngineHostStatsSnapshot();
  DispatchResult r;
  r.build_ns_per_vertex = s.build_vertices > 0
                              ? s.build_seconds * 1e9 /
                                    static_cast<double>(s.build_vertices)
                              : 0.0;
  r.run_ns_per_vertex =
      s.run_vertices > 0
          ? s.run_seconds * 1e9 / static_cast<double>(s.run_vertices)
          : 0.0;
  r.vertices_per_dispatch =
      s.run_dispatches > 0 ? static_cast<double>(s.run_vertices) /
                                 static_cast<double>(s.run_dispatches)
                           : 0.0;
  r.outputs.reserve(dg.outs.size());
  for (const ipu::Tensor& t : dg.outs) {
    std::vector<float> out(t.numel);
    session.readTensor(t, out);
    r.outputs.push_back(std::move(out));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool fast = cli.Fast();
  BenchIo io("kernels", cli);
  BenchJsonWriter& json = io.json();
  // --require-speedup X: exit nonzero unless the specialized run path is at
  // least X times the generic path's vertex throughput (0 disables).
  const double require_speedup = cli.GetDouble("require-speedup", 0.0);
  // --require-host-speedup F: exit nonzero unless the GEMM core runs the
  // Table 4 dense step at least F times faster than GemmNaive.
  const double require_host_speedup =
      cli.GetDouble("require-host-speedup", 0.0);
  const bool dispatch_only = cli.GetBool("dispatch-only", false);
  REPRO_REQUIRE(!(dispatch_only && require_host_speedup > 0.0),
                "--require-host-speedup needs the host kernels; drop "
                "--dispatch-only");

  double host_speedup = 0.0;
  if (!dispatch_only) host_speedup = RunHostKernels(json, fast);

  PrintBanner("Engine dispatch paths: generic per-vertex vs specialized "
              "batched SoA");
  DispatchShape shape;
  shape.tiles = cli.GetInt("tiles", fast ? 32 : 64);
  shape.per_tile = cli.GetInt("per-tile", 32);
  shape.elems = cli.GetInt("elems", 8);
  const std::size_t runs = cli.GetInt("runs", fast ? 60 : 200);

  const DispatchResult gen = RunDispatchPath(false, shape, runs);
  const DispatchResult spec = RunDispatchPath(true, shape, runs);

  // Conformance: both paths must produce byte-identical tensors.
  REPRO_REQUIRE(gen.outputs.size() == spec.outputs.size(),
                "dispatch paths read different output sets");
  for (std::size_t i = 0; i < gen.outputs.size(); ++i) {
    REPRO_REQUIRE(gen.outputs[i].size() == spec.outputs[i].size() &&
                      std::memcmp(gen.outputs[i].data(), spec.outputs[i].data(),
                                  gen.outputs[i].size() * sizeof(float)) == 0,
                  "dispatch paths disagree on output tensor %zu", i);
  }

  const std::size_t vertices = shape.tiles * shape.per_tile * 3;
  const double run_speedup = spec.run_ns_per_vertex > 0.0
                                 ? gen.run_ns_per_vertex / spec.run_ns_per_vertex
                                 : 0.0;
  const double build_speedup =
      spec.build_ns_per_vertex > 0.0
          ? gen.build_ns_per_vertex / spec.build_ns_per_vertex
          : 0.0;

  Table t({"path", "vertices", "runs", "build ns/vtx", "run ns/vtx",
           "vtx/dispatch"});
  auto row = [&](const char* name, const DispatchResult& r) {
    t.AddRow({name, Table::Int(static_cast<long long>(vertices)),
              Table::Int(static_cast<long long>(runs)),
              Table::Num(r.build_ns_per_vertex, 1),
              Table::Num(r.run_ns_per_vertex, 1),
              Table::Num(r.vertices_per_dispatch, 1)});
  };
  row("generic", gen);
  row("specialized", spec);
  t.Print();
  std::printf("\nrun speedup %.2fx, build speedup %.2fx "
              "(tensor outputs byte-identical across paths)\n",
              run_speedup, build_speedup);

  auto record = [&](const char* name, const DispatchResult& r) {
    char rec[320];
    std::snprintf(rec, sizeof rec,
                  "{\"dispatch\": \"%s\", \"vertices\": %zu, \"runs\": %zu, "
                  "\"build_ns_per_vertex\": %.17g, "
                  "\"run_ns_per_vertex\": %.17g, "
                  "\"run_vertices_per_dispatch\": %.17g}",
                  name, vertices, runs, r.build_ns_per_vertex,
                  r.run_ns_per_vertex, r.vertices_per_dispatch);
    json.Add(rec);
  };
  record("generic", gen);
  record("specialized", spec);
  {
    char rec[192];
    std::snprintf(rec, sizeof rec,
                  "{\"dispatch\": \"summary\", \"run_speedup\": %.17g, "
                  "\"build_speedup\": %.17g}",
                  run_speedup, build_speedup);
    json.Add(rec);
  }
  io.Finish();

  if (require_speedup > 0.0 && run_speedup < require_speedup) {
    std::printf("FAIL: specialized run speedup %.2fx below required %.2fx\n",
                run_speedup, require_speedup);
    return 1;
  }
  if (require_host_speedup > 0.0 && host_speedup < require_host_speedup) {
    std::printf("FAIL: dense-step GEMM core speedup %.2fx below required "
                "%.2fx\n",
                host_speedup, require_host_speedup);
    return 1;
  }
  return 0;
}
