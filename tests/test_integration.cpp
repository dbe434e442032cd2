// Cross-module integration tests: the host butterfly numerics vs the IPU
// simulator's graph execution, and small end-to-end trainings per method.
#include <gtest/gtest.h>

#include "core/butterfly.h"
#include "data/synthetic.h"
#include "ipusim/codelet.h"
#include "ipusim/matmul.h"
#include "ipusim/session.h"
#include "linalg/gemm.h"
#include "nn/trainer.h"
#include "util/bitops.h"

namespace repro {
namespace {

// Executes a butterfly forward pass *on the IPU simulator* (feature-major
// layout, one compute set per factor, real vertex arithmetic) and checks it
// against the host core::Butterfly. This ties the lowering used for the
// timing experiments to the numerics used for the accuracy experiments.
TEST(Integration, IpuButterflyGraphMatchesHostButterfly) {
  const std::size_t n = 64, batch = 8;
  Rng rng(5);
  core::Butterfly bf(n, core::ButterflyParam::kDense2x2,
                     /*with_permutation=*/false, rng);

  ipu::Session session(ipu::Gc200());
  ipu::Graph& g = session.graph();
  ipu::Tensor x = g.addVariable("x", n, batch);
  g.mapLinearly(x, batch);
  ipu::Program seq = ipu::Program::Sequence({});
  std::vector<ipu::Tensor> weights;
  for (unsigned f = 0; f < Log2(n); ++f) {
    const std::size_t stride = std::size_t{1} << f;
    const std::string id = std::to_string(f);
    ipu::Tensor w = g.addVariable("w" + id, n / 2, 4);
    g.mapLinearly(w, 4);
    weights.push_back(w);
    ipu::ComputeSetId cs = g.addComputeSet("bf" + id);
    std::size_t p = 0;
    for (std::size_t base = 0; base < n; base += 2 * stride) {
      for (std::size_t i = 0; i < stride; ++i, ++p) {
        ipu::VertexId v =
            g.addVertex(cs, ipu::codelets::kButterfly2x2, p % 4);
        g.connect(v, "x_top", x.rowRange(base + i, 1));
        g.connect(v, "x_bot", x.rowRange(base + stride + i, 1));
        g.connect(v, "y_top", x.rowRange(base + i, 1), true);
        g.connect(v, "y_bot", x.rowRange(base + stride + i, 1), true);
        g.connect(v, "w", weights[f].row(p));
        g.setInitialValue(v, "batch", static_cast<double>(batch));
      }
    }
    seq.add(ipu::Program::Execute(cs));
  }
  Status st = session.compile(std::move(seq));
  ASSERT_TRUE(st.ok()) << st.message();

  // Upload weights in the vertex's (a, b, c, d) per-pair layout.
  for (unsigned f = 0; f < Log2(n); ++f) {
    std::vector<float> wf(4 * (n / 2));
    for (std::size_t p = 0; p < n / 2; ++p) {
      // core::Butterfly dense params are stored factor-major, 4 per pair.
      const float* src = bf.params().data() + f * 2 * n + 4 * p;
      std::copy(src, src + 4, wf.data() + 4 * p);
    }
    session.writeTensor(weights[f], wf);
  }
  // Upload activations feature-major: x_dev[row i] = feature i over batch.
  Matrix xin = Matrix::RandomNormal(batch, n, rng);
  std::vector<float> xdev(n * batch);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < batch; ++b) xdev[i * batch + b] = xin(b, i);
  }
  session.writeTensor(x, xdev);
  session.run();
  std::vector<float> ydev(n * batch);
  session.readTensor(x, ydev);

  Matrix want(batch, n);
  bf.Forward(xin, want);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < batch; ++b) {
      EXPECT_NEAR(ydev[i * batch + b], want(b, i), 1e-4)
          << "feature " << i << " sample " << b;
    }
  }
}

// The SHL models should all beat chance (10%) by a wide margin on the
// synthetic task after a short training run, and the rank-1 bottleneck
// should be clearly the worst -- the qualitative core of Table 4.
TEST(Integration, ShortShlTrainingBeatsChance) {
  data::SyntheticConfig cfg;
  cfg.num_samples = 1500;
  data::Dataset train = data::SyntheticCifar10(cfg);
  cfg.sample_seed = 77;  // same world, fresh samples
  cfg.num_samples = 500;
  data::Dataset test = data::SyntheticCifar10(cfg);
  data::StandardizeTogether(train, {&test});

  nn::TrainConfig tcfg;
  tcfg.epochs = 3;
  tcfg.lr = 0.01;  // faster than the paper's 1e-3; this is a smoke test

  auto train_method = [&](core::Method m) {
    Rng rng(42);
    core::ShlShape shape;
    nn::Sequential model = nn::BuildShl(m, shape, rng);
    return nn::Train(model, train, test, tcfg).test_accuracy;
  };
  const double butterfly = train_method(core::Method::kButterfly);
  const double lowrank = train_method(core::Method::kLowRank);
  EXPECT_GT(butterfly, 25.0);
  EXPECT_GT(butterfly, lowrank);
}

// Two independently seeded runs differ (weight init), mirroring the paper's
// note on run-to-run accuracy variation, but both remain sane.
TEST(Integration, SeedSensitivityIsBounded) {
  data::SyntheticConfig cfg;
  cfg.num_samples = 600;
  data::Dataset train = data::SyntheticCifar10(cfg);
  cfg.sample_seed = 78;
  data::Dataset test = data::SyntheticCifar10(cfg);
  data::StandardizeTogether(train, {&test});
  nn::TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.lr = 0.01;
  auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    core::ShlShape shape;
    nn::Sequential model = nn::BuildShl(core::Method::kFastfood, shape, rng);
    return nn::Train(model, train, test, tcfg).test_accuracy;
  };
  const double a = run(1), b = run(2);
  EXPECT_GT(a, 10.0);
  EXPECT_GT(b, 10.0);
  EXPECT_LT(std::abs(a - b), 30.0);
}

// poplin matmul through the full simulator stack matches the host GEMM the
// NN trainer uses -- accuracy results are device-independent up to float
// association order (the paper's <1.5% observation; here exact shapes).
TEST(Integration, PoplinMatchesHostGemmOnTrainingShapes) {
  ipu::Session session(ipu::Gc200());
  auto plan =
      ipu::BuildMatMul(session.graph(), 50, 1024, 10, ipu::MatMulImpl::kPoplin);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(session.compile(plan.value().prog).ok());
  Rng rng(9);
  Matrix a = Matrix::RandomNormal(50, 1024, rng);
  Matrix b = Matrix::RandomNormal(1024, 10, rng);
  Matrix c = ipu::RunMatMul(plan.value(), session, a, b);
  EXPECT_TRUE(AllClose(c, MatMul(a, b), 1e-3, 1e-3));
}

}  // namespace
}  // namespace repro
