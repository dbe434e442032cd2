// ipu::Session lifecycle and the engine's determinism contract: host thread
// count changes wall-clock only -- never simulated cycles, bytes, or the
// bits of any tensor read back.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ipusim/codelet.h"
#include "ipusim/matmul.h"
#include "ipusim/session.h"
#include "linalg/gemm.h"
#include "util/parallel.h"

namespace repro::ipu {
namespace {

// Builds a workload that exercises every parallelized engine path: a
// multi-compute-set matmul (vertex sharding) whose packing/unpacking flows
// through writeTensor/readTensor, run with a given host thread count.
struct DeterminismRun {
  std::vector<float> c_bits;
  RunReport report;
};

DeterminismRun RunWith(std::size_t host_threads) {
  Session session(Gc200(), SessionOptions{.host_threads = host_threads});
  auto plan =
      BuildMatMul(session.graph(), 96, 192, 48, MatMulImpl::kPoplin);
  EXPECT_TRUE(plan.ok()) << plan.status().message();
  Status s = session.compile(plan.value().prog);
  EXPECT_TRUE(s.ok()) << s.message();
  Rng rng(1234);
  Matrix a = Matrix::RandomNormal(96, 192, rng);
  Matrix b = Matrix::RandomNormal(192, 48, rng);
  DeterminismRun out;
  Matrix c = RunMatMul(plan.value(), session, a, b, &out.report);
  out.c_bits.assign(c.data(), c.data() + c.size());
  return out;
}

TEST(SessionDeterminism, ThreadCountNeverChangesResultsOrCycles) {
  const DeterminismRun t1 = RunWith(1);
  const DeterminismRun t8 = RunWith(8);
  ASSERT_EQ(t1.c_bits.size(), t8.c_bits.size());
  EXPECT_EQ(std::memcmp(t1.c_bits.data(), t8.c_bits.data(),
                        t1.c_bits.size() * sizeof(float)),
            0);
  EXPECT_EQ(t1.report.total_cycles, t8.report.total_cycles);
  EXPECT_EQ(t1.report.compute_cycles, t8.report.compute_cycles);
  EXPECT_EQ(t1.report.exchange_cycles, t8.report.exchange_cycles);
  EXPECT_EQ(t1.report.sync_cycles, t8.report.sync_cycles);
  EXPECT_EQ(t1.report.bytes_exchanged, t8.report.bytes_exchanged);
  EXPECT_DOUBLE_EQ(t1.report.flops, t8.report.flops);
  EXPECT_DOUBLE_EQ(t1.report.host_seconds, t8.report.host_seconds);
}

TEST(SessionDeterminism, GlobalWorkerOverrideNeverChangesResults) {
  // host_threads = 0 defers to the process-wide worker count; vary that too.
  SetParallelWorkers(1);
  const DeterminismRun w1 = RunWith(0);
  SetParallelWorkers(8);
  const DeterminismRun w8 = RunWith(0);
  SetParallelWorkers(0);
  EXPECT_EQ(std::memcmp(w1.c_bits.data(), w8.c_bits.data(),
                        w1.c_bits.size() * sizeof(float)),
            0);
  EXPECT_EQ(w1.report.total_cycles, w8.report.total_cycles);
}

TEST(SessionDeterminism, CopyBundleBitsStableAcrossThreads) {
  // Copy movement (including bundles) is the other parallelized data path.
  auto run_copy = [](std::size_t host_threads) {
    Session session(Gc200(), SessionOptions{.host_threads = host_threads});
    Graph& g = session.graph();
    std::vector<Program> copies;
    std::vector<Tensor> srcs, dsts;
    for (int i = 0; i < 8; ++i) {
      const std::string id = std::to_string(i);
      Tensor a = g.addVariable("a" + id, 4096);
      Tensor b = g.addVariable("b" + id, 4096);
      g.setTileMapping(a, 2 * i);
      g.setTileMapping(b, 2 * i + 1);
      copies.push_back(Program::Copy(a, b));
      srcs.push_back(a);
      dsts.push_back(b);
    }
    EXPECT_TRUE(session.compile(Program::CopyBundle(std::move(copies))).ok());
    std::vector<float> payload(4096);
    for (std::size_t i = 0; i < srcs.size(); ++i) {
      for (std::size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<float>(i * 131 + j) * 0.001f - 2.0f;
      }
      session.writeTensor(srcs[i], payload);
    }
    session.run();
    std::vector<float> all;
    std::vector<float> buf(4096);
    for (const Tensor& d : dsts) {
      session.readTensor(d, buf);
      all.insert(all.end(), buf.begin(), buf.end());
    }
    return all;
  };
  const auto r1 = run_copy(1);
  const auto r8 = run_copy(8);
  EXPECT_EQ(std::memcmp(r1.data(), r8.data(), r1.size() * sizeof(float)), 0);
}

TEST(SessionLifecycle, RepeatedRunsReuseExecutableIdentically) {
  Session session(Gc200());
  Graph& g = session.graph();
  Tensor x = g.addVariable("x", 64);
  g.setTileMapping(x, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kRelu, 0);
  g.connect(v, "x", x);
  g.connect(v, "y", x, true);
  ASSERT_TRUE(session.compile(Program::Execute(cs)).ok());
  ASSERT_TRUE(session.compiled());
  const RunReport r1 = session.run();
  const RunReport r2 = session.run();
  EXPECT_EQ(r1.total_cycles, r2.total_cycles);
  EXPECT_EQ(r1.bytes_exchanged, r2.bytes_exchanged);
  EXPECT_DOUBLE_EQ(r1.flops, r2.flops);
}

TEST(SessionLifecycle, TensorIoRoundTrips) {
  Session session(Gc200());
  Graph& g = session.graph();
  Tensor a = g.addVariable("a", 16);
  Tensor b = g.addVariable("b", 16);
  g.setTileMapping(a, 0);
  g.setTileMapping(b, 5);
  ASSERT_TRUE(session.compile(Program::Copy(a, b)).ok());
  std::vector<float> in(16);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = 0.5f * i - 3.0f;
  session.writeTensor(a, in);
  session.run();
  std::vector<float> out(16);
  session.readTensor(b, out);
  EXPECT_EQ(std::memcmp(in.data(), out.data(), in.size() * sizeof(float)), 0);
}

TEST(SessionLifecycle, FailedCompileLeavesSessionUncompiled) {
  Session session(Gc200());
  Graph& g = session.graph();
  Tensor x = g.addVariable("x", 8);
  g.setTileMapping(x, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  for (int i = 0; i < 2; ++i) {
    VertexId v = g.addVertex(cs, codelets::kRelu, 0);
    g.connect(v, "x", x);
    g.connect(v, "y", x, true);  // both vertices write all of x
  }
  Status s = session.compile(Program::Execute(cs));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(session.compiled());
}

TEST(SessionOptionsTest, ValidateRejectsAbsurdThreadCount) {
  SessionOptions opts;
  opts.host_threads = 1u << 20;
  const Status s = opts.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

TEST(SessionOptionsTest, ValidateRejectsExecutingOversubscribedGraphs) {
  SessionOptions opts;
  opts.execute = true;
  opts.allow_oversubscription = true;
  const Status s = opts.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

TEST(SessionOptionsTest, ValidateRejectsHostThreadsOnTimingOnlySessions) {
  SessionOptions opts;
  opts.execute = false;
  opts.host_threads = 2;
  const Status s = opts.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

TEST(SessionOptionsTest, OptionFieldsFlowToEngineAndCompiler) {
  SessionOptions opts;
  opts.execute = false;
  opts.fast_repeat = false;
  opts.allow_oversubscription = true;
  opts.fuse_compute_sets = false;
  opts.reuse_variable_memory = false;
  opts.host_threads = 2;
  const EngineOptions eo = opts.engineOptions();
  EXPECT_FALSE(eo.execute);
  EXPECT_FALSE(eo.fast_repeat);
  EXPECT_EQ(eo.host_threads, 2u);
  const CompileOptions co = opts.compileOptions();
  EXPECT_TRUE(co.allow_oversubscription);
  EXPECT_FALSE(co.fuse_compute_sets);
  EXPECT_FALSE(co.reuse_variable_memory);
}

TEST(SessionOptionsTest, OversubscriptionAllowsMemoryStudies) {
  IpuArch tiny = Gc200();
  tiny.tile_memory_bytes = 2048;
  Session session(tiny, SessionOptions{.execute = false,
                                       .allow_oversubscription = true});
  Tensor x = session.graph().addVariable("x", 4096);
  session.graph().setTileMapping(x, 7);
  EXPECT_TRUE(session.compile(Program::Sequence({})).ok());
  EXPECT_GT(session.counts().max_tile_bytes, tiny.tile_memory_bytes);
}

}  // namespace
}  // namespace repro::ipu
