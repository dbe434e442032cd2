// Failure injection: malformed graphs, inconsistent plans, and bad inputs
// must fail loudly (Status for data-dependent conditions, fatal checks for
// API misuse) -- never silently compute garbage.
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/router.h"
#include "cluster/shard_plan.h"
#include "core/butterfly.h"
#include "core/fft.h"
#include "core/method.h"
#include "ipusim/codelet.h"
#include "ipusim/matmul.h"
#include "ipusim/session.h"
#include "linalg/gemm.h"
#include "linalg/spmm.h"
#include "nn/export.h"
#include "nn/model.h"
#include "nn/structured.h"
#include "serve/model_plan.h"
#include "serve/replica_pool.h"
#include "serve/server.h"
#include "util/rng.h"

namespace repro {
namespace {

using namespace repro::ipu;

TEST(FailureInjection, SessionRunBeforeCompileDies) {
  Session session(Gc200());
  EXPECT_DEATH(session.run(), "before compile");
}

TEST(FailureInjection, SessionCompileTwiceDies) {
  Session session(Gc200());
  Tensor t = session.graph().addVariable("x", 4);
  session.graph().setTileMapping(t, 0);
  ASSERT_TRUE(session.compile(Program::Sequence({})).ok());
  EXPECT_DEATH({ (void)session.compile(Program::Sequence({})); }, "twice");
}

TEST(FailureInjection, SessionRejectsAbsurdHostThreads) {
  EXPECT_DEATH(Session(Gc200(), SessionOptions{.host_threads = 100000}),
               "host_threads");
}

TEST(FailureInjection, OverlappingVertexOutputsRejectedAtCompile) {
  // Two vertices in one compute set writing the same elements violates the
  // BSP disjointness contract; the compiler must refuse, not race.
  Session session(Gc200());
  Graph& g = session.graph();
  Tensor x = g.addVariable("x", 8);
  g.setTileMapping(x, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  for (int i = 0; i < 2; ++i) {
    VertexId v = g.addVertex(cs, codelets::kRelu, 0);
    g.connect(v, "x", x);
    g.connect(v, "y", x, true);
  }
  Status s = session.compile(Program::Execute(cs));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(s.message().find("overlap"), std::string::npos) << s.message();
}

TEST(FailureInjection, VertexMissingFieldDiesAtExecution) {
  Session session(Gc200());
  Graph& g = session.graph();
  Tensor x = g.addVariable("x", 4);
  g.setTileMapping(x, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kRelu, 0);
  g.connect(v, "x", x);
  // "y" is never connected.
  ASSERT_TRUE(session.compile(Program::Execute(cs)).ok());
  EXPECT_DEATH(session.run(), "not connected");
}

TEST(FailureInjection, GemmVertexShapeMismatchDies) {
  Session session(Gc200());
  Graph& g = session.graph();
  Tensor a = g.addVariable("a", 4);
  Tensor b = g.addVariable("b", 4);
  Tensor c = g.addVariable("c", 4);
  g.setTileMapping(a, 0);
  g.setTileMapping(b, 0);
  g.setTileMapping(c, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kScalarGemm, 0);
  g.connect(v, "a", a);
  g.connect(v, "b", b);
  g.connect(v, "out", c, true);
  g.setInitialValue(v, "m", 4);  // claims 4x4x4 but buffers hold 4 elements
  g.setInitialValue(v, "k", 4);
  g.setInitialValue(v, "n", 4);
  ASSERT_TRUE(session.compile(Program::Execute(cs)).ok());
  EXPECT_DEATH(session.run(), "shape mismatch");
}

TEST(FailureInjection, ConnectEmptyTensorDies) {
  Graph g(Gc200());
  Tensor x = g.addVariable("x", 4);
  g.setTileMapping(x, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kRelu, 0);
  EXPECT_DEATH(g.connect(v, "x", x.slice(0, 0)), "empty tensor");
}

TEST(FailureInjection, VertexOnInvalidTileDies) {
  Graph g(Gc200());
  ComputeSetId cs = g.addComputeSet("cs");
  EXPECT_DEATH(g.addVertex(cs, codelets::kRelu, 1472), "out of range");
}

TEST(FailureInjection, MappingInvalidTileDies) {
  Graph g(Gc200());
  Tensor x = g.addVariable("x", 4);
  EXPECT_DEATH(g.setTileMapping(x, 99999), "out of range");
}

TEST(FailureInjection, WriteTensorWrongSizeDies) {
  Session session(Gc200());
  Tensor x = session.graph().addVariable("x", 4);
  session.graph().setTileMapping(x, 0);
  ASSERT_TRUE(session.compile(Program::Sequence({})).ok());
  std::vector<float> wrong(3);
  EXPECT_DEATH(session.writeTensor(x, wrong), "size mismatch");
}

TEST(FailureInjection, MatmulZeroDimensionDies) {
  Graph g(Gc200());
  EXPECT_DEATH(
      { auto r = BuildMatMul(g, 0, 4, 4, MatMulImpl::kPoplin); (void)r; },
      "empty matmul");
}

TEST(FailureInjection, GemmHostShapeMismatchDies) {
  Rng rng(1);
  Matrix a = Matrix::RandomNormal(3, 4, rng);
  Matrix b = Matrix::RandomNormal(5, 2, rng);  // inner dims disagree
  Matrix c(3, 2);
  EXPECT_DEATH(GemmNaive(a, b, c), "GemmNaive");
}

TEST(FailureInjection, SpmmShapeMismatchDies) {
  Rng rng(2);
  Csr s = RandomCsr(4, 4, 0.5, rng);
  Matrix b = Matrix::RandomNormal(5, 2, rng);
  Matrix c(4, 2);
  EXPECT_DEATH(SpmmCsr(s, b, c), "shape mismatch");
}

TEST(FailureInjection, CircularConvolveSizeMismatchDies) {
  std::vector<float> c(8), x(7), out(8);
  EXPECT_DEATH(core::CircularConvolve(c, x, out), "size mismatch");
}

TEST(FailureInjection, ButterflyStaleWorkspaceDies) {
  Rng rng(3);
  core::Butterfly bf(8, core::ButterflyParam::kDense2x2, false, rng);
  core::Butterfly::Workspace ws;  // never filled by a Forward
  Matrix dy = Matrix::RandomNormal(2, 8, rng);
  Matrix dx(2, 8);
  EXPECT_DEATH(bf.Backward(ws, dy, dx), "stale");
}

TEST(FailureInjection, ButterflyShortWorkspaceDies) {
  // A workspace from a smaller batch would be read past its end.
  Rng rng(3);
  core::Butterfly bf(8, core::ButterflyParam::kGivens, true, rng);
  core::Butterfly::Workspace ws;
  Matrix x = Matrix::RandomNormal(2, 8, rng);
  Matrix y(2, 8);
  bf.Forward(x, y, &ws);
  Matrix dy = Matrix::RandomNormal(5, 8, rng);
  Matrix dx;
  EXPECT_DEATH(bf.Backward(ws, dy, dx), "workspace holds 2 rows");
}

TEST(FailureInjection, CirculantBackwardWithoutMatchingCacheDies) {
  Rng rng(4);
  nn::CirculantLayer layer(64, rng);
  Matrix dy = Matrix::RandomNormal(3, 64, rng);
  Matrix dx;
  // No training forward yet: nothing cached.
  EXPECT_DEATH(layer.Backward(dy, dx), "cached input 0x0");
  // A cache from a smaller batch.
  Matrix x = Matrix::RandomNormal(2, 64, rng);
  Matrix y;
  layer.Forward(x, y, /*train=*/true);
  EXPECT_DEATH(layer.Backward(dy, dx), "cached input 2x64");
}

TEST(FailureInjection, StatusOrTakeOnErrorDies) {
  StatusOr<int> err(Status::OutOfMemory("boom"));
  EXPECT_FALSE(err.ok());
  EXPECT_DEATH(err.value(), "boom");
}

TEST(FailureInjection, UnknownCodeletLookupDies) {
  EXPECT_DEATH(CodeletRegistry::Get().Lookup("DoesNotExist"),
               "unknown codelet");
}

TEST(FailureInjection, OversubscribedTileReportsFullestTile) {
  IpuArch tiny = Gc200();
  tiny.tile_memory_bytes = 2048;
  Graph g(tiny);
  Tensor x = g.addVariable("x", 4096);
  g.setTileMapping(x, 7);
  auto exe = Compile(g, Program::Sequence({}));
  ASSERT_FALSE(exe.ok());
  EXPECT_NE(exe.status().message().find("tile memory exceeded"),
            std::string::npos);
}

// Serving replay: request rows are copied into batches of the model's input
// width and logits land in one matrix, so the inputs must match the model
// and every slot must serve the same shapes.
std::unique_ptr<serve::ModelPlan> ExecutePlan(std::size_t n) {
  Rng rng(5);
  core::ShlShape shape;
  shape.input = n;
  shape.hidden = n;
  shape.classes = 10;
  nn::Sequential model = nn::BuildShl(core::Method::kButterfly, shape, rng);
  auto plan = serve::ModelPlan::Build(nn::ExportForward(model), Gc200(),
                                      serve::PlanOptions{.max_batch = 4});
  REPRO_REQUIRE(plan.ok(), "plan: %s", plan.status().message().c_str());
  return plan.take();
}

TEST(FailureInjection, ServerReplayRejectsMisshapenInputs) {
  auto plan = ExecutePlan(64);
  serve::ReplicaPool pool(*plan, 1);
  serve::Server server(pool, serve::ServerConfig{});
  const serve::ClosedLoopLoad load{.clients = 4, .requests = 8};
  const Matrix wide(4, 65);
  EXPECT_DEATH(server.RunClosedLoop(load, &wide),
               "65 wide, the model takes 64");
  const Matrix no_rows(0, 64);
  EXPECT_DEATH(server.RunOpenLoop({.requests = 8}, &no_rows), "no rows");
}

TEST(FailureInjection, RouterReplayRejectsMisshapenInputsAndMixedModels) {
  auto plan64 = ExecutePlan(64);
  auto plan32 = ExecutePlan(32);
  serve::ReplicaPool a(*plan64, 1), b(*plan64, 1), small(*plan32, 1);
  const serve::ClosedLoopLoad load{.clients = 4, .requests = 8};
  using Pools = std::vector<serve::ReplicaPool*>;
  cluster::Router same(Pools{&a, &b}, cluster::RouterConfig{});
  const Matrix wide(4, 65);
  EXPECT_DEATH(same.RunClosedLoop(load, &wide), "65 wide, the model takes 64");
  const Matrix no_rows(0, 64);
  EXPECT_DEATH(same.RunClosedLoop(load, &no_rows), "no rows");
  cluster::Router mixed(Pools{&a, &small}, cluster::RouterConfig{});
  const Matrix rows(4, 64);
  EXPECT_DEATH(mixed.RunClosedLoop(load, &rows), "slot 1 serves a 32 -> 10");
}

// Both plans index a butterfly spec's input permutation and factor
// coefficients without further checks (host-side input packing, per-chip
// weight slices), so Build must refuse a malformed spec. Accepted, a
// permutation of the wrong length would be taken for the identity, an
// out-of-range entry would read past the input row, and a short factor
// would be over-read by the shard weight upload.
nn::ForwardSpec ButterflySpec64() {
  Rng rng(5);
  core::ShlShape shape;
  shape.input = 64;
  shape.hidden = 64;
  shape.classes = 10;
  nn::Sequential model = nn::BuildShl(core::Method::kButterfly, shape, rng);
  nn::ForwardSpec spec = nn::ExportForward(model);
  spec.butterfly_perm.resize(64);
  std::iota(spec.butterfly_perm.begin(), spec.butterfly_perm.end(), 0u);
  return spec;
}

void ExpectBothPlansReject(const nn::ForwardSpec& spec) {
  auto plan = serve::ModelPlan::Build(spec, Gc200(),
                                      serve::PlanOptions{.max_batch = 4});
  EXPECT_FALSE(plan.ok()) << "ModelPlan accepted the spec";
  if (!plan.ok()) {
    EXPECT_EQ(plan.status().code(), ErrorCode::kInvalidArgument);
  }
  cluster::ShardOptions opts;
  opts.num_chips = 4;
  opts.max_batch = 4;
  auto shard = cluster::ShardPlan::Build(spec, Gc200(), opts);
  EXPECT_FALSE(shard.ok()) << "ShardPlan accepted the spec";
  if (!shard.ok()) {
    EXPECT_EQ(shard.status().code(), ErrorCode::kInvalidArgument);
  }
}

TEST(FailureInjection, ButterflySpecIdentityPermBuilds) {
  const nn::ForwardSpec spec = ButterflySpec64();
  EXPECT_TRUE(serve::ModelPlan::Build(spec, Gc200(),
                                      serve::PlanOptions{.max_batch = 4})
                  .ok());
  cluster::ShardOptions opts;
  opts.num_chips = 4;
  opts.max_batch = 4;
  EXPECT_TRUE(cluster::ShardPlan::Build(spec, Gc200(), opts).ok());
}

TEST(FailureInjection, ButterflySpecPermOfWrongLengthRejected) {
  nn::ForwardSpec spec = ButterflySpec64();
  spec.butterfly_perm.pop_back();
  ExpectBothPlansReject(spec);
}

TEST(FailureInjection, ButterflySpecDuplicatePermEntryRejected) {
  nn::ForwardSpec spec = ButterflySpec64();
  spec.butterfly_perm[5] = 4;
  ExpectBothPlansReject(spec);
}

TEST(FailureInjection, ButterflySpecOutOfRangePermEntryRejected) {
  nn::ForwardSpec spec = ButterflySpec64();
  spec.butterfly_perm[5] = 64;
  ExpectBothPlansReject(spec);
}

TEST(FailureInjection, ButterflySpecShortFactorRejected) {
  nn::ForwardSpec spec = ButterflySpec64();
  spec.butterfly_factors[3].resize(2 * 64 - 4);
  ExpectBothPlansReject(spec);
}

// A zero evaluation interval would re-arm the autoscaler at the same
// simulated instant forever; the router refuses it instead of hanging.
TEST(FailureInjection, RouterAutoscaleZeroIntervalDies) {
  auto plan = ExecutePlan(64);
  serve::ReplicaPool pool(*plan, 1);
  cluster::RouterConfig rc;
  rc.autoscale.enabled = true;
  rc.autoscale.eval_interval_s = 0.0;
  cluster::Router router(std::vector<serve::ReplicaPool*>{&pool}, rc);
  EXPECT_DEATH(router.RunClosedLoop({.clients = 4, .requests = 8}),
               "positive eval interval");
}

}  // namespace
}  // namespace repro
