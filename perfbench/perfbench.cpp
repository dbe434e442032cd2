// perfbench: the repository's host-wall-clock benchmark.
//
// One binary, three workloads, each run as its own process:
//
//   shl_train       SGD on the SHL model (Table 3 hyperparameters, batch 50)
//                   for dense, butterfly, pixelfly and circulant hidden
//                   layers on data::SyntheticCifar10 -- the host numerics.
//   serve_replay    closed-loop serving of dense/butterfly/pixelfly plans at
//                   n=1024 through 4-replica pools with real inputs, so every
//                   batch replays through the simulated engines.
//   capacity_sweep  cold and cache-warm timing-only plan builds, capacity
//                   probes and long timing-only DES runs (Server + 4-chip
//                   Router) for every method x n in {256, 512, 1024}.
//
// Every workload runs K set-ups, then repeats a fixed unit of work (a
// "round") until --seconds have passed, and reports medians over rounds.
// All timing is host wall clock (std::chrono::steady_clock); the simulated
// results are deterministic and serve only as correctness checks.
//
// --trace 1 alternates untraced and traced rounds. Traced rounds record a
// span around every call the benchmark makes into a module, in memory; the
// spans become the per-layer metrics (self time per round or per set-up),
// a Chrome-trace JSON file (open it in Perfetto) and a self-time table.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/run.py builds this binary and is the entry point.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/router.h"
#include "core/device_time.h"
#include "core/method.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "ipusim/arch.h"
#include "ipusim/compiler.h"
#include "ipusim/engine.h"
#include "ipusim/exe_cache.h"
#include "ipusim/executable.h"
#include "nn/export.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "serve/gemm_lowering.h"
#include "serve/model_plan.h"
#include "serve/replica_pool.h"
#include "serve/server.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace repro;
using core::Method;
using Clock = std::chrono::steady_clock;

const Clock::time_point kStart = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Host worker threads (util::ParallelFor, Server/Router replay). One: host
// training barely uses more, and on a shared VM with CPU steal the 4-thread
// serving replay varied 17-28% from run to run against 1-5% single-threaded.
constexpr std::size_t kHostThreads = 1;

// ---------------------------------------------------------------------------
// Span recorder: host-wall spans kept in memory, written out at exit.

enum class Phase { kSetup, kRound };

struct SpanRecord {
  const char* name;
  double t0, t1;
  double child_s;  // time covered by direct children
  int depth;
  int episode;
};

struct Episode {
  Phase phase;
  bool traced;
  double t0 = 0.0, t1 = 0.0;
};

class Recorder {
 public:
  bool on() const { return on_; }

  void BeginEpisode(Phase phase, bool traced) {
    episodes_.push_back({phase, traced, Now(), 0.0});
    on_ = traced;
  }
  double EndEpisode() {
    Episode& e = episodes_.back();
    e.t1 = Now();
    on_ = false;
    return e.t1 - e.t0;
  }

  std::size_t Open(const char* name) {
    const std::size_t id = spans_.size();
    spans_.push_back({name, Now(), 0.0, 0.0, static_cast<int>(stack_.size()),
                      static_cast<int>(episodes_.size()) - 1});
    stack_.push_back(id);
    return id;
  }
  void Close(std::size_t id) {
    SpanRecord& s = spans_[id];
    s.t1 = Now();
    stack_.pop_back();
    if (!stack_.empty()) spans_[stack_.back()].child_s += s.t1 - s.t0;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<Episode>& episodes() const { return episodes_; }

 private:
  bool on_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
  std::vector<Episode> episodes_;
};

Recorder g_rec;

// RAII span around one call into a module; free when tracing is off.
class Span {
 public:
  explicit Span(const char* name)
      : id_(g_rec.on() ? g_rec.Open(name) : kNone) {}
  ~Span() {
    if (id_ != kNone) g_rec.Close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t id_;
};

// Per-round counters (exact counts the traced run reports).
std::map<std::string, double> g_counts;

// ---------------------------------------------------------------------------
// Output checks.

struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  bool Expect(bool ok, const char* fmt, ...)
      __attribute__((format(printf, 3, 4))) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 20) {
        std::va_list ap;
        va_start(ap, fmt);
        std::fprintf(stderr, "CHECK FAILED: ");
        std::vfprintf(stderr, fmt, ap);
        std::fprintf(stderr, "\n");
        va_end(ap);
      }
    }
    return ok;
  }
};

// What one round contributes to the end-to-end metrics.
struct RoundResult {
  double dense_items = 0.0, dense_s = 0.0;
  double structured_items = 0.0, structured_s = 0.0;
  std::vector<double> op_ms;  // the workload's per-operation latencies
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".";
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds everything the rounds need from scratch (called several times;
  // the last call's state is the one the rounds use).
  virtual void Setup() = 0;
  // Rounds every run makes, however short --seconds is.
  virtual std::size_t MinRounds() const { return 3; }
  virtual void Round(RoundResult& r, Checks& checks) = 0;
  virtual void Finish(Checks& checks) = 0;
};

core::ShlShape ShapeFor(std::size_t n) {
  core::ShlShape shape;
  shape.input = n;
  shape.hidden = n;
  shape.pixelfly = core::ScaledPixelflyConfig(n);
  return shape;
}

const char* MethodKey(Method m) {
  switch (m) {
    case Method::kBaseline: return "dense";
    case Method::kButterfly: return "butterfly";
    case Method::kPixelfly: return "pixelfly";
    case Method::kCirculant: return "circulant";
    default: return "other";
  }
}

// ---------------------------------------------------------------------------
// shl_train

class ShlTrain final : public Workload {
 public:
  explicit ShlTrain(const Config& cfg) : cfg_(cfg) {}

  void Setup() override {
    models_.clear();
    data::SyntheticConfig dcfg;
    dcfg.num_samples = cfg_.tiny ? 300 : 1200;
    dcfg.seed = cfg_.seed;
    dcfg.sample_seed = cfg_.seed + 1;
    data::Dataset train, test;
    {
      Span s("data.synthetic");
      train = data::SyntheticCifar10(dcfg);
      dcfg.sample_seed = cfg_.seed + 99;
      dcfg.num_samples = cfg_.tiny ? 100 : 400;
      test = data::SyntheticCifar10(dcfg);
    }
    {
      Span s("data.split");
      data::StandardizeTogether(train, {&test});
      split_ = std::make_unique<data::Split>(
          data::SplitValidation(train, tcfg_.val_fraction));
      test_ = std::make_unique<data::Dataset>(std::move(test));
    }
    for (std::size_t i = 0; i < std::size(kMethods); ++i) {
      auto m = std::make_unique<Model>();
      m->method = kMethods[i];
      Rng rng(cfg_.seed * 1000 + i);
      core::ShlShape shape;
      shape.batch = tcfg_.batch_size;
      {
        Span s("nn.build");
        m->net = nn::BuildShl(m->method, shape, rng);
        m->opt = std::make_unique<nn::Sgd>(
            m->net.parameters(),
            nn::Sgd::Config{tcfg_.lr, tcfg_.momentum, 0.0});
      }
      m->rng = std::make_unique<Rng>(cfg_.seed * 7919 + i);
      m->it = std::make_unique<data::BatchIterator>(
          split_->train, tcfg_.batch_size, *m->rng);
      const std::string key = MethodKey(m->method);
      m->fwd_name = "nn." + key + ".fwd";
      m->bwd_name = "nn." + key + ".bwd";
      models_.push_back(std::move(m));
    }
  }

  // Each round is one epoch per method; the checks read epoch kCheckEpoch.
  std::size_t MinRounds() const override {
    return cfg_.tiny ? 1 : kCheckEpoch;
  }

  // The models take turns step by step, so that each model's steps are
  // spread over the whole epoch instead of one stretch of it (see
  // ServeReplay::Round). Each model has its own batch iterator, so the order
  // does not change what any model computes.
  void Round(RoundResult& r, Checks& checks) override {
    struct Epoch {
      double train_s = 0.0, loss_sum = 0.0;
      std::size_t samples = 0, steps = 0;
      bool done = false;
    };
    std::vector<Epoch> epochs(models_.size());
    for (auto& mp : models_) mp->it->Reset();
    for (bool stepped = true; stepped;) {
      stepped = false;
      for (std::size_t i = 0; i < models_.size(); ++i) {
        Model& m = *models_[i];
        Epoch& e = epochs[i];
        if (e.done) continue;
        const double t0 = Now();
        {
          Span s("data.batch");
          e.done = !m.it->Next(x_, y_);
        }
        if (e.done) continue;
        const double loss = Step(m);
        const double dt = Now() - t0;
        e.train_s += dt;
        e.samples += y_.size();
        e.loss_sum += loss;
        ++e.steps;
        stepped = true;
        r.op_ms.push_back(dt * 1e3);
        checks.Expect(std::isfinite(loss), "%s: non-finite loss %g",
                      core::MethodName(m.method), loss);
      }
    }
    for (std::size_t i = 0; i < models_.size(); ++i) {
      Model& m = *models_[i];
      const Epoch& e = epochs[i];
      {
        Span s("nn.evaluate");
        m.val_acc = nn::Evaluate(m.net, split_->val);
        m.test_acc.push_back(nn::Evaluate(m.net, *test_));
      }
      m.mean_loss.push_back(
          e.loss_sum / static_cast<double>(std::max<std::size_t>(e.steps, 1)));
      if (m.method == Method::kBaseline) {
        r.dense_items += static_cast<double>(e.samples);
        r.dense_s += e.train_s;
      } else {
        r.structured_items += static_cast<double>(e.samples);
        r.structured_s += e.train_s;
      }
    }
  }

  void Finish(Checks& checks) override {
    // Exact parameter counts at n = 1024, as bench_table4_shl prints them.
    const std::map<Method, std::size_t> kParams = {
        {Method::kBaseline, 1059850},
        {Method::kButterfly, 16394},
        {Method::kPixelfly, 404490},
        {Method::kCirculant, 12298}};
    // After kCheckEpoch epochs (every run trains at least that many): the
    // mean training loss has fallen since the first epoch, and test
    // accuracy clears a floor above chance (10%). The tiny smoke
    // configuration trains on too few samples to be held to the floors.
    for (auto& mp : models_) {
      Model& m = *mp;
      const std::size_t params = m.net.paramCount();
      checks.Expect(params == kParams.at(m.method), "%s: %zu parameters",
                    core::MethodName(m.method), params);
      const std::size_t check_epoch = std::min(kCheckEpoch, m.test_acc.size());
      const double floor =
          cfg_.tiny ? 0.0 : (m.method == Method::kBaseline ? 25.0 : 13.0);
      const double acc = m.test_acc[check_epoch - 1];
      checks.Expect(acc > floor, "%s: test accuracy %.2f%% <= floor %.1f%%",
                    core::MethodName(m.method), acc, floor);
      if (!cfg_.tiny) {
        checks.Expect(m.mean_loss[check_epoch - 1] < m.mean_loss[0],
                      "%s: training loss did not fall (%g -> %g)",
                      core::MethodName(m.method), m.mean_loss[0],
                      m.mean_loss[check_epoch - 1]);
      }
      std::printf("  %-10s params %8zu  epochs %zu  test acc %6.2f%% after "
                  "epoch %zu, %6.2f%% after epoch %zu (val %6.2f%%)\n",
                  core::MethodName(m.method), params, m.test_acc.size(), acc,
                  check_epoch, m.test_acc.back(), m.test_acc.size(),
                  m.val_acc);
    }
  }

 private:
  static constexpr Method kMethods[] = {Method::kBaseline, Method::kButterfly,
                                        Method::kPixelfly, Method::kCirculant};
  static constexpr std::size_t kCheckEpoch = 5;

  struct Model {
    Method method;
    nn::Sequential net;
    std::unique_ptr<nn::Sgd> opt;
    std::unique_ptr<Rng> rng;
    std::unique_ptr<data::BatchIterator> it;
    std::string fwd_name, bwd_name;
    std::vector<Matrix> acts;
    Matrix grad_a, grad_b;
    double val_acc = 0.0;
    std::vector<double> test_acc;   // per epoch
    std::vector<double> mean_loss;  // per epoch
  };

  // One SGD step. Untraced, it runs through nn::Sequential::Forward and
  // Backward; traced, it walks the same layers through the public
  // nn::Layer API (the loop Sequential runs) so each layer gets its own
  // span. The arithmetic is identical either way.
  double Step(Model& m) {
    const Matrix* logits = nullptr;
    if (!g_rec.on()) {
      logits = &m.net.Forward(x_, /*train=*/true);
    } else {
      m.acts.resize(m.net.numLayers());
      const Matrix* cur = &x_;
      for (std::size_t i = 0; i < m.net.numLayers(); ++i) {
        Span s(LayerName(m, i, /*fwd=*/true));
        m.net.layer(i).Forward(*cur, m.acts[i], /*train=*/true);
        cur = &m.acts[i];
      }
      logits = cur;
    }
    nn::LossResult lr;
    {
      Span s("nn.loss");
      lr = nn::SoftmaxCrossEntropy(*logits, y_, &dlogits_);
    }
    {
      Span s("nn.zero_grad");
      m.opt->ZeroGrad();
    }
    if (!g_rec.on()) {
      m.net.Backward(dlogits_);
    } else {
      m.grad_a = dlogits_;
      for (std::size_t i = m.net.numLayers(); i-- > 0;) {
        Span s(LayerName(m, i, /*fwd=*/false));
        m.net.layer(i).Backward(m.grad_a, m.grad_b);
        std::swap(m.grad_a, m.grad_b);
      }
    }
    {
      Span s("nn.sgd_step");
      m.opt->Step();
    }
    return lr.loss;
  }

  static const char* LayerName(const Model& m, std::size_t i, bool fwd) {
    if (i == 0) return fwd ? m.fwd_name.c_str() : m.bwd_name.c_str();
    if (i + 1 == m.net.numLayers()) {
      return fwd ? "nn.classifier.fwd" : "nn.classifier.bwd";
    }
    return fwd ? "nn.relu.fwd" : "nn.relu.bwd";
  }

  const Config& cfg_;
  nn::TrainConfig tcfg_ = [] {
    nn::TrainConfig t;  // Table 3: momentum 0.9, batch 50, 15% validation
    t.lr = 0.003;       // bench_table4_shl's rate for the synthetic task
    return t;
  }();
  std::unique_ptr<data::Split> split_;
  std::unique_ptr<data::Dataset> test_;
  std::vector<std::unique_ptr<Model>> models_;
  Matrix x_, dlogits_;
  std::vector<std::uint8_t> y_;
};

// ---------------------------------------------------------------------------
// serve_replay

class ServeReplay final : public Workload {
 public:
  explicit ServeReplay(const Config& cfg) : cfg_(cfg) {}

  void Setup() override {
    methods_.clear();
    const std::size_t n = kN;
    Rng rng(cfg_.seed);
    inputs_ = Matrix::RandomNormal(kInputRows, n, rng);
    const ipu::IpuArch arch = ipu::Gc200();
    for (std::size_t i = 0; i < std::size(kMethods); ++i) {
      auto m = std::make_unique<MethodState>();
      m->method = kMethods[i];
      Rng mrng(cfg_.seed * 1000 + i);
      nn::Sequential model;
      nn::ForwardSpec spec;
      {
        Span s("nn.build");
        model = nn::BuildShl(m->method, ShapeFor(n), mrng);
      }
      {
        Span s("nn.export");
        spec = nn::ExportForward(model);
      }
      {
        Span s("nn.host_forward");
        m->reference = model.Forward(inputs_, /*train=*/false);
      }
      serve::PlanOptions opts;
      opts.max_batch = kMaxBatch;
      opts.execute = true;
      opts.num_tiles = arch.num_tiles / kReplicas;
      {
        Span s("serve.plan_build");
        auto plan = serve::ModelPlan::Build(spec, arch, opts);
        REPRO_REQUIRE(plan.ok(), "serve_replay plan for %s: %s",
                      core::MethodName(m->method),
                      plan.status().message().c_str());
        m->plan = std::move(plan.value());
      }
      {
        Span s("ipusim.replica_build");
        m->pool = std::make_unique<serve::ReplicaPool>(*m->plan, kReplicas);
      }
      methods_.push_back(std::move(m));
    }
  }

  // The methods take turns chunk by chunk, so that each method's timings
  // are spread over the whole round instead of one stretch of it: the host's
  // speed drifts over seconds, and a method timed in one stretch would carry
  // that stretch's drift into its metric.
  void Round(RoundResult& r, Checks& checks) override {
    const std::size_t requests = cfg_.tiny ? 64 : 512;  // per chunk
    const ipu::EngineHostStats before = ipu::EngineHostStatsSnapshot();
    for (std::size_t chunk = 0; chunk < kChunks; ++chunk) {
      for (auto& mp : methods_) {
        ReplayChunk(*mp, chunk, requests, r, checks);
      }
    }
    const ipu::EngineHostStats after = ipu::EngineHostStatsSnapshot();
    g_counts["ipusim.run_vertices"] +=
        static_cast<double>(after.run_vertices - before.run_vertices);
    g_counts["ipusim.run_dispatches"] +=
        static_cast<double>(after.run_dispatches - before.run_dispatches);
  }

  void Finish(Checks&) override {}

 private:
  static constexpr Method kMethods[] = {Method::kBaseline, Method::kButterfly,
                                        Method::kPixelfly};
  static constexpr std::size_t kN = 1024;
  static constexpr std::size_t kMaxBatch = 32;
  static constexpr std::size_t kReplicas = 4;
  static constexpr std::size_t kClients = 2 * kReplicas * kMaxBatch;
  static constexpr std::size_t kInputRows = 256;
  static constexpr std::size_t kChunks = 16;
  static constexpr double kTol = 1e-3;

  struct MethodState {
    Method method;
    Matrix reference;  // host forward pass over inputs_
    std::unique_ptr<serve::ModelPlan> plan;
    std::unique_ptr<serve::ReplicaPool> pool;
  };

  static double RowDiff(const Matrix& a, std::size_t ra, const Matrix& b,
                        std::size_t rb) {
    double worst = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) {
      worst = std::max(
          worst, static_cast<double>(std::fabs(a(ra, c) - b(rb, c))));
    }
    return worst;
  }

  // One chunk of one method: a closed loop of `requests` with inputs (the
  // DES plus the numerics replay), the same load timing-only, and one direct
  // engine run.
  void ReplayChunk(MethodState& m, std::size_t chunk, std::size_t requests,
                   RoundResult& r, Checks& checks) {
    const bool dense = m.method == Method::kBaseline;
    serve::ServerConfig scfg;
    scfg.batch = serve::BatchPolicy{.max_batch = kMaxBatch,
                                    .max_delay_s = 200e-6};
    scfg.queue_capacity = kClients;
    scfg.host_threads = kHostThreads;
    const serve::ClosedLoopLoad load{
        .clients = kClients, .requests = requests, .think_s = 0.0};

    const double t0 = Now();
    serve::ServeResult res = [&] {
      Span s("serve.replay");
      serve::Server server(*m.pool, scfg);
      return server.RunClosedLoop(load, &inputs_);
    }();
    const double replay_s = Now() - t0;
    if (dense) {
      r.dense_items += static_cast<double>(requests);
      r.dense_s += replay_s;
    } else {
      r.structured_items += static_cast<double>(requests);
      r.structured_s += replay_s;
    }
    const serve::ServeMetrics& sm = res.metrics;
    checks.Expect(sm.completed() == sm.admitted() &&
                      sm.completed() == requests,
                  "%s replay: completed %zu admitted %zu of %zu",
                  core::MethodName(m.method), sm.completed(), sm.admitted(),
                  requests);
    CheckLogits(m, res.logits, requests, checks);

    // The same load, timing-only: isolates the DES from the replay.
    {
      Span s("serve.des_closed");
      serve::Server server(*m.pool, scfg);
      const serve::ServeMetrics t = server.RunClosedLoop(load).metrics;
      checks.Expect(t.qps() == sm.qps(),
                    "%s: timing-only QPS %.17g != replay QPS %.17g",
                    core::MethodName(m.method), t.qps(), sm.qps());
    }

    // One direct engine run: the per-operation latency.
    const std::size_t row0 = (chunk * kMaxBatch) % kInputRows;
    Matrix batch(kMaxBatch, kN);
    std::copy_n(inputs_.data() + row0 * kN, kMaxBatch * kN, batch.data());
    const double b0 = Now();
    Matrix logits;
    {
      Span s("ipusim.engine_run");
      logits = m.plan->RunBatch(m.pool->engine(chunk % kReplicas), batch);
    }
    r.op_ms.push_back((Now() - b0) * 1e3);
    double worst = 0.0;
    for (std::size_t q = 0; q < kMaxBatch; ++q) {
      worst = std::max(worst, RowDiff(logits, q, m.reference, row0 + q));
    }
    checks.Expect(worst <= kTol, "%s direct batch %zu: |logits - host| %g",
                  core::MethodName(m.method), chunk, worst);
  }

  void CheckLogits(const MethodState& m, const Matrix& logits,
                   std::size_t requests, Checks& checks) const {
    if (!checks.Expect(logits.rows() == requests &&
                           logits.cols() == m.reference.cols(),
                       "%s: logits shape %zux%zu", core::MethodName(m.method),
                       logits.rows(), logits.cols())) {
      return;
    }
    for (std::size_t q = 0; q < requests; ++q) {
      const double d = RowDiff(logits, q, m.reference, q % kInputRows);
      checks.Expect(d <= kTol, "%s request %zu: |logits - host| %g",
                    core::MethodName(m.method), q, d);
    }
  }

  const Config& cfg_;
  Matrix inputs_;
  std::vector<std::unique_ptr<MethodState>> methods_;
};

// ---------------------------------------------------------------------------
// capacity_sweep

// Simulated results, pinned. They depend on no seed and on no host-side
// implementation choice, so a change that only speeds up the host must not
// move them.
struct Pin {
  Method method;
  std::size_t n;
  std::size_t replicas;
  double service_s;   // ModelPlan::batchSeconds at the capacity slice
  double closed_qps;  // Server closed loop, kDesRequests
  double router_qps;  // 4-chip Router closed loop, kDesRequests
  double step_s;      // core::TrainStepSeconds(kIpu, ...)
};

const Pin kPins[] = {
    {Method::kBaseline, 256, 256, 4.8615181954887214e-05,
     170282045.55227551, 406759453.98274636, 0.0003884415193895064},
    {Method::kButterfly, 256, 256, 3.413397894736842e-05,
     246156308.11556098, 494066418.33674979, 0.00039964459228914676},
    {Method::kPixelfly, 256, 256, 7.4429467669172934e-05,
     109897410.71751747, 309321333.73702949, 0.00067593876447851343},
    {Method::kBaseline, 512, 256, 0.00013444907067669174,
     60956141.573988207, 198670018.64713806, 0.00039179696234472049},
    {Method::kButterfly, 512, 256, 7.1879145864661665e-05,
     116495843.70158014, 316819198.51546049, 0.0004027787210894083},
    {Method::kPixelfly, 512, 256, 0.00016257989774436091,
     50196793.471707866, 170143349.43061692, 0.00072646135950362562},
    {Method::kBaseline, 1024, 92, 0.00016964541954887219,
     18030185.421732772, 68626485.535344869, 0.00040042631834341289},
    {Method::kButterfly, 1024, 256, 0.0002055988030075188,
     40151389.406950831, 138966901.3315399, 0.000407853810988068},
    {Method::kPixelfly, 1024, 210, 0.00028986196090225564,
     23518486.93759824, 86247950.307733744, 0.00077807825153607818},
};

class CapacitySweep final : public Workload {
 public:
  explicit CapacitySweep(const Config& cfg)
      : cfg_(cfg), root_(cfg.out_dir + "/capacity_cache") {}

  void Setup() override {
    configs_.clear();
    for (const Pin& pin : kPins) {
      if (cfg_.tiny && pin.n != 256) continue;
      auto c = std::make_unique<ConfigState>();
      c->pin = &pin;
      Rng rng(cfg_.seed * 1000 + configs_.size());
      nn::Sequential model;
      {
        Span s("nn.build");
        model = nn::BuildShl(pin.method, ShapeFor(pin.n), rng);
      }
      {
        Span s("nn.export");
        c->spec = nn::ExportForward(model);
      }
      configs_.push_back(std::move(c));
    }
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  void Round(RoundResult& r, Checks& checks) override {
    const std::string dir_base = root_ + "/round" + std::to_string(round_++);
    std::size_t last_n = 0;
    for (auto& cp : configs_) {
      if (cp->pin->n != last_n) {
        last_n = cp->pin->n;
        DirectIpusim(last_n, checks);
      }
      RunConfig(*cp, dir_base, r, checks);
    }
  }

  const std::vector<double>& warmMs() const { return warm_ms_; }

  // Cache directories are removed between rounds, outside the timed work.
  void Cleanup() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  void Finish(Checks&) override {
    Cleanup();
    std::printf("  simulated values seen, in kPins form (method n replicas "
                "service_s closed_qps router_qps step_s):\n");
    for (const auto& cp : configs_) {
      const ConfigState& c = *cp;
      std::printf("    {Method::k%s, %zu, %zu, %s, %s, %s, %s},\n",
                  core::MethodName(c.pin->method),
                  c.pin->n, c.seen.replicas, Num(c.seen.service_s).c_str(),
                  Num(c.seen.closed_qps).c_str(),
                  Num(c.seen.router_qps).c_str(), Num(c.seen.step_s).c_str());
    }
  }

 private:
  static constexpr std::size_t kMaxBatch = 32;
  static constexpr std::size_t kDesRequests = 200000;
  static constexpr std::size_t kChips = 4;

  struct ConfigState {
    const Pin* pin = nullptr;
    nn::ForwardSpec spec;
    Pin seen{};
  };

  serve::PlanOptions TimingOptions(std::size_t tiles,
                                   ipu::ExeCache* cache) const {
    serve::PlanOptions o;
    o.max_batch = kMaxBatch;
    o.execute = false;
    o.num_tiles = tiles;
    o.cache = cache;
    return o;
  }

  // Direct calls into ipusim on a graph the benchmark lowers itself (the
  // plans' n x n k-split GEMM at the serving batch, on a whole GC200):
  // compile, cache key, serialize and deserialize.
  void DirectIpusim(std::size_t n, Checks& checks) {
    ipu::Graph g(ipu::Gc200());
    ipu::Program seq = ipu::Program::Sequence({});
    {
      Span s("serve.gemm_lowering");
      const ipu::Tensor x = g.addVariable("x", n, kMaxBatch);
      g.mapLinearly(x, kMaxBatch);
      const ipu::Tensor y = g.addVariable("y", n, kMaxBatch);
      g.mapLinearly(y, kMaxBatch);
      serve::AddKSplitGemm(g, seq, "gemm", x, y, n, n, /*accumulate=*/false,
                           kMaxBatch);
    }
    const ipu::CompileOptions copts;
    std::uint64_t key = 0;
    {
      Span s("ipusim.cache_key");
      key = ipu::ExeCache::KeyOf(g, seq, copts);
    }
    auto [it, fresh] = gemm_keys_.emplace(n, key);
    checks.Expect(fresh || it->second == key,
                  "gemm n=%zu: cache key changed between rounds", n);
    StatusOr<ipu::Executable> exe = [&] {
      Span s("ipusim.compile");
      return ipu::Compile(g, seq, copts);
    }();
    if (!checks.Expect(exe.ok(), "gemm n=%zu: compile failed", n)) return;
    std::vector<std::uint8_t> bytes, again;
    {
      Span s("ipusim.serialize");
      bytes = exe.value().Serialize();
    }
    StatusOr<ipu::Executable> back = [&] {
      Span s("ipusim.deserialize");
      return ipu::Executable::Deserialize(bytes);
    }();
    if (back.ok()) {
      Span s("ipusim.serialize");
      again = back.value().Serialize();
    }
    g_counts["ipusim.exe_bytes"] += static_cast<double>(bytes.size());
    checks.Expect(back.ok() && again == bytes,
                  "gemm n=%zu: serialize(deserialize(b)) != b", n);
  }

  void RunConfig(ConfigState& c, const std::string& dir_base, RoundResult& r,
                 Checks& checks) {
    const ipu::IpuArch arch = ipu::Gc200();
    const char* name = core::MethodName(c.pin->method);
    const std::size_t n = c.pin->n;
    const std::string dir =
        dir_base + "/" + MethodKey(c.pin->method) + "_" + std::to_string(n);
    const bool dense = c.pin->method == Method::kBaseline;

    // 1. Cold builds at every tile-slice size a capacity probe visits
    //    (doubling + binary search), against an empty on-disk cache.
    ipu::ExeCache cold(dir);
    std::map<std::size_t, std::unique_ptr<serve::ModelPlan>> fitted;
    std::map<std::size_t, bool> fit_of_tiles;
    auto fits = [&](std::size_t k) {
      const std::size_t tiles = arch.num_tiles / k;
      if (tiles < 2) return false;
      auto it = fit_of_tiles.find(tiles);
      if (it != fit_of_tiles.end()) return it->second;
      const double t0 = Now();
      StatusOr<std::unique_ptr<serve::ModelPlan>> plan = [&] {
        Span s("serve.cold_build");
        return serve::ModelPlan::Build(c.spec, arch,
                                       TimingOptions(tiles, &cold));
      }();
      r.op_ms.push_back((Now() - t0) * 1e3);
      const bool ok = plan.ok();
      if (ok) fitted.emplace(tiles, std::move(plan.value()));
      fit_of_tiles.emplace(tiles, ok);
      return ok;
    };
    std::size_t lo = 0;
    if (fits(1)) {
      lo = 1;
      std::size_t hi = 1;
      while (hi < kCap) {
        hi = std::min(kCap, hi * 2);
        if (!fits(hi)) break;
        lo = hi;
      }
      while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (fits(mid)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
    }
    if (!checks.Expect(lo > 0, "%s n=%zu: fits no replica", name, n)) return;
    const std::size_t tiles = arch.num_tiles / lo;
    const serve::ModelPlan& plan = *fitted.at(tiles);
    c.seen.replicas = lo;
    c.seen.service_s = plan.batchSeconds();

    std::vector<std::uint8_t> bytes;
    {
      Span s("ipusim.serialize");
      bytes = plan.executable().Serialize();
    }
    g_counts["ipusim.exe_bytes"] += static_cast<double>(bytes.size());

    // 2. The same (fitting) builds through a fresh cache over the directory:
    //    disk load + deserialize + validate, no compiles.
    {
      ipu::ExeCache warm(dir);
      std::unique_ptr<serve::ModelPlan> warm_serving;
      for (const auto& [t, unused] : fitted) {
        const double t0 = Now();
        StatusOr<std::unique_ptr<serve::ModelPlan>> wp = [&] {
          Span s("serve.warm_build");
          return serve::ModelPlan::Build(c.spec, arch, TimingOptions(t, &warm));
        }();
        warm_ms_.push_back((Now() - t0) * 1e3);  // the cache-load latency
        checks.Expect(wp.ok(), "%s n=%zu tiles=%zu: warm build failed", name, n,
                      t);
        if (wp.ok() && t == tiles) warm_serving = std::move(wp.value());
      }
      const ipu::ExeCacheStats st = warm.stats();
      checks.Expect(st.misses == 0 && st.disk_hits == fitted.size(),
                    "%s n=%zu: warm pass compiled %zu, loaded %zu of %zu", name,
                    n, st.misses, st.disk_hits, fitted.size());
      std::vector<std::uint8_t> warm_bytes;
      if (warm_serving) {
        Span s("ipusim.serialize");
        warm_bytes = warm_serving->executable().Serialize();
      }
      checks.Expect(warm_bytes == bytes,
                    "%s n=%zu: warm artifact differs from cold", name, n);
    }

    // 3. The capacity probe itself (probe-local cache, its own compiles).
    {
      serve::CapacityProbe probe;
      {
        Span s("serve.probe");
        probe = serve::ProbeMaxReplicas(c.spec, arch,
                                        TimingOptions(0, nullptr), kCap);
      }
      g_counts["serve.probe_compiles"] +=
          static_cast<double>(probe.probe_compiles);
      checks.Expect(probe.replicas == lo,
                    "%s n=%zu: probe says %zu replicas, search says %zu", name,
                    n, probe.replicas, lo);
    }

    // IPU train-step lowering of the same SHL shape.
    {
      Span s("core.ipu_step_time");
      c.seen.step_s =
          core::TrainStepSeconds(core::Device::kIpu, c.pin->method,
                                 ShapeFor(n))
              .seconds;
    }

    // 4. Long timing-only DES: Server closed + open loop, 4-chip Router.
    std::unique_ptr<serve::ReplicaPool> pool;
    {
      Span s("ipusim.replica_build");
      pool = std::make_unique<serve::ReplicaPool>(plan, lo);
    }
    const std::size_t clients = 2 * lo * kMaxBatch;
    serve::ServerConfig scfg;
    scfg.batch = serve::BatchPolicy{.max_batch = kMaxBatch,
                                    .max_delay_s = 200e-6};
    scfg.queue_capacity = clients;
    scfg.host_threads = kHostThreads;
    const double d0 = Now();
    {
      Span s("serve.des_closed");
      serve::Server server(*pool, scfg);
      const serve::ServeMetrics m =
          server
              .RunClosedLoop({.clients = clients,
                              .requests = kDesRequests,
                              .think_s = 0.0})
              .metrics;
      c.seen.closed_qps = m.qps();
      checks.Expect(m.completed() == kDesRequests,
                    "%s n=%zu: closed loop completed %zu", name, n,
                    m.completed());
    }
    {
      Span s("serve.des_open");
      serve::Server server(*pool, scfg);
      const serve::ServeMetrics m =
          server
              .RunOpenLoop({.qps = 0.7 * c.seen.closed_qps,
                            .requests = kDesRequests,
                            .seed = cfg_.seed})
              .metrics;
      checks.Expect(m.completed() == m.admitted() &&
                        m.admitted() + m.rejected() == kDesRequests,
                    "%s n=%zu: open loop completed %zu admitted %zu rejected "
                    "%zu",
                    name, n, m.completed(), m.admitted(), m.rejected());
    }
    {
      Span s("cluster.router");
      cluster::RouterConfig rc;
      rc.batch = scfg.batch;
      rc.queue_capacity = kChips * clients;
      rc.host_threads = kHostThreads;
      std::vector<serve::ReplicaPool*> pools(kChips, pool.get());
      cluster::Router router(pools, rc);
      const cluster::ClusterResult res = router.RunClosedLoop(
          {.clients = kChips * clients,
           .requests = kDesRequests,
           .think_s = 0.0});
      c.seen.router_qps = res.metrics.qps();
      checks.Expect(res.metrics.completed() == kDesRequests,
                    "%s n=%zu: router completed %zu", name, n,
                    res.metrics.completed());
    }
    const double des_s = Now() - d0;
    if (dense) {
      r.dense_items += 3.0 * kDesRequests;
      r.dense_s += des_s;
    } else {
      r.structured_items += 3.0 * kDesRequests;
      r.structured_s += des_s;
    }

    const Pin& p = *c.pin;
    checks.Expect(lo == p.replicas, "%s n=%zu: %zu replicas, pinned %zu", name,
                  n, lo, p.replicas);
    checks.Expect(c.seen.service_s == p.service_s &&
                        c.seen.closed_qps == p.closed_qps &&
                        c.seen.router_qps == p.router_qps &&
                        c.seen.step_s == p.step_s,
                  "%s n=%zu: simulated results moved from the pinned values",
                  name, n);
  }

  static constexpr std::size_t kCap = 256;
  const Config& cfg_;
  std::string root_;
  std::size_t round_ = 0;
  std::vector<std::unique_ptr<ConfigState>> configs_;
  std::map<std::size_t, std::uint64_t> gemm_keys_;
  std::vector<double> warm_ms_;  // every warm ModelPlan::Build, all rounds
};

// ---------------------------------------------------------------------------
// Metric tables.

struct LayerMetric {
  const char* metric;
  const char* span;  // span name; nullptr = derived or counted
  double scale;      // seconds -> metric unit
  const char* unit;
};

const LayerMetric kLayerMetrics[] = {
    {"data.synthetic_s", "data.synthetic", 1.0, "s"},
    {"data.split_ms", "data.split", 1e3, "ms"},
    {"data.batch_ms", "data.batch", 1e3, "ms"},
    {"nn.build_ms", "nn.build", 1e3, "ms"},
    {"nn.export_ms", "nn.export", 1e3, "ms"},
    {"nn.host_forward_ms", "nn.host_forward", 1e3, "ms"},
    {"nn.dense.fwd_ms", "nn.dense.fwd", 1e3, "ms"},
    {"nn.dense.bwd_ms", "nn.dense.bwd", 1e3, "ms"},
    {"nn.butterfly.fwd_ms", "nn.butterfly.fwd", 1e3, "ms"},
    {"nn.butterfly.bwd_ms", "nn.butterfly.bwd", 1e3, "ms"},
    {"nn.pixelfly.fwd_ms", "nn.pixelfly.fwd", 1e3, "ms"},
    {"nn.pixelfly.bwd_ms", "nn.pixelfly.bwd", 1e3, "ms"},
    {"nn.circulant.fwd_ms", "nn.circulant.fwd", 1e3, "ms"},
    {"nn.circulant.bwd_ms", "nn.circulant.bwd", 1e3, "ms"},
    {"nn.relu.fwd_ms", "nn.relu.fwd", 1e3, "ms"},
    {"nn.relu.bwd_ms", "nn.relu.bwd", 1e3, "ms"},
    {"nn.classifier.fwd_ms", "nn.classifier.fwd", 1e3, "ms"},
    {"nn.classifier.bwd_ms", "nn.classifier.bwd", 1e3, "ms"},
    {"nn.loss_ms", "nn.loss", 1e3, "ms"},
    {"nn.zero_grad_ms", "nn.zero_grad", 1e3, "ms"},
    {"nn.sgd_step_ms", "nn.sgd_step", 1e3, "ms"},
    {"nn.evaluate_s", "nn.evaluate", 1.0, "s"},
    {"core.ipu_step_time_ms", "core.ipu_step_time", 1e3, "ms"},
    {"ipusim.compile_ms", "ipusim.compile", 1e3, "ms"},
    {"ipusim.cache_key_ms", "ipusim.cache_key", 1e3, "ms"},
    {"ipusim.serialize_ms", "ipusim.serialize", 1e3, "ms"},
    {"ipusim.deserialize_ms", "ipusim.deserialize", 1e3, "ms"},
    {"ipusim.exe_bytes", nullptr, 1.0, "count"},
    {"ipusim.replica_build_ms", "ipusim.replica_build", 1e3, "ms"},
    {"ipusim.engine_run_ms", "ipusim.engine_run", 1e3, "ms"},
    {"ipusim.run_vertices", nullptr, 1.0, "count"},
    {"ipusim.run_dispatches", nullptr, 1.0, "count"},
    {"serve.plan_build_ms", "serve.plan_build", 1e3, "ms"},
    {"serve.cold_build_ms", "serve.cold_build", 1e3, "ms"},
    {"serve.warm_build_ms", "serve.warm_build", 1e3, "ms"},
    {"serve.cache_load_ms_p50", nullptr, 1.0, "ms"},
    {"serve.probe_ms", "serve.probe", 1e3, "ms"},
    {"serve.probe_compiles", nullptr, 1.0, "count"},
    {"serve.des_closed_s", "serve.des_closed", 1.0, "s"},
    {"serve.des_open_s", "serve.des_open", 1.0, "s"},
    {"serve.replay_s", nullptr, 1.0, "s"},
    {"cluster.router_s", "cluster.router", 1.0, "s"},
    {"obs.span_coverage_frac", nullptr, 1.0, "frac"},
    {"obs.trace_overhead_frac", nullptr, 1.0, "frac"},
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(const Checks& checks, const std::vector<Metric>& ms) {
  std::string out = std::string("{\"correct\": ") +
                    (checks.failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(checks.attempted) +
                    ", \"failed\": " + std::to_string(checks.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}}";
}

// Self time by span name, divided by the number of traced episodes of the
// phase it ran in and summed over phases: the per-round (or per-set-up)
// value the per-layer metrics report.
std::map<std::string, double> SelfPerEpisode() {
  const auto& eps = g_rec.episodes();
  std::size_t traced[2] = {0, 0};
  for (const Episode& e : eps) {
    if (e.traced) ++traced[static_cast<int>(e.phase)];
  }
  std::map<std::string, double> per;
  for (const SpanRecord& s : g_rec.spans()) {
    const double self = (s.t1 - s.t0) - s.child_s;
    const int phase = static_cast<int>(eps[s.episode].phase);
    per[s.name] += self / static_cast<double>(traced[phase]);
  }
  return per;
}

void WriteChromeTrace(const std::string& path, const Config& cfg) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 1, \"args\": {\"name\": \"perfbench %s seed %llu "
               "(host wall clock, %zu threads)\"}}",
               cfg.workload.c_str(),
               static_cast<unsigned long long>(cfg.seed), kHostThreads);
  const auto& eps = g_rec.episodes();
  for (std::size_t i = 0; i < eps.size(); ++i) {
    if (!eps[i].traced) continue;
    std::fprintf(f,
                 ",\n{\"name\": \"%s %zu\", \"cat\": \"episode\", \"ph\": "
                 "\"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                 eps[i].phase == Phase::kSetup ? "setup" : "round", i,
                 eps[i].t0 * 1e6, (eps[i].t1 - eps[i].t0) * 1e6);
  }
  for (const SpanRecord& s : g_rec.spans()) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"episode\": %d}}",
                 s.name, layer.c_str(), s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                 s.episode);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// Self time by span over the traced episodes, one table per phase; the
// share is of that phase's traced wall time.
void PrintSelfTimeTable() {
  const auto& eps = g_rec.episodes();
  for (const Phase phase : {Phase::kSetup, Phase::kRound}) {
    double wall = 0.0, top = 0.0;
    std::size_t n = 0;
    for (const Episode& e : eps) {
      if (e.traced && e.phase == phase) {
        wall += e.t1 - e.t0;
        ++n;
      }
    }
    std::map<std::string, std::pair<double, std::size_t>> self;
    for (const SpanRecord& s : g_rec.spans()) {
      if (eps[s.episode].phase != phase) continue;
      auto& [t, calls] = self[s.name];
      t += (s.t1 - s.t0) - s.child_s;
      ++calls;
      if (s.depth == 0) top += s.t1 - s.t0;
    }
    std::vector<std::pair<double, std::string>> order;
    for (const auto& [name, v] : self) order.push_back({-v.first, name});
    std::sort(order.begin(), order.end());
    std::printf("\nself time by span, %s (%zu traced, %.3f s wall):\n",
                phase == Phase::kSetup ? "set-up" : "rounds", n, wall);
    std::printf("  %-24s %8s %12s %12s %8s\n", "span", "calls", "total [ms]",
                "per ep [ms]", "share");
    for (const auto& [neg, name] : order) {
      std::printf("  %-24s %8zu %12.3f %12.3f %7.1f%%\n", name.c_str(),
                  self.at(name).second, -neg * 1e3,
                  n ? -neg * 1e3 / static_cast<double>(n) : 0.0,
                  wall > 0 ? -neg / wall * 100.0 : 0.0);
    }
    std::printf("  top-level spans cover %.1f%% of the %s wall time\n",
                wall > 0 ? 100.0 * top / wall : 0.0,
                phase == Phase::kSetup ? "set-up" : "round");
  }
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload {shl_train|serve_replay|"
               "capacity_sweep} --seed N --seconds S --trace {0|1} "
               "[--tiny] [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = next();
    } else if (a == "--seed") {
      cfg.seed = std::stoull(next());
    } else if (a == "--seconds") {
      cfg.seconds = std::stod(next());
    } else if (a == "--trace") {
      cfg.trace = next() != "0";
    } else if (a == "--tiny") {
      cfg.tiny = true;
    } else if (a == "--out-dir") {
      cfg.out_dir = next();
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return Usage();
    }
  }
  std::unique_ptr<Workload> w;
  CapacitySweep* sweep = nullptr;
  if (cfg.workload == "shl_train") {
    w = std::make_unique<ShlTrain>(cfg);
  } else if (cfg.workload == "serve_replay") {
    w = std::make_unique<ServeReplay>(cfg);
  } else if (cfg.workload == "capacity_sweep") {
    auto s = std::make_unique<CapacitySweep>(cfg);
    sweep = s.get();
    w = std::move(s);
  } else {
    return Usage();
  }
  std::filesystem::create_directories(cfg.out_dir);
  SetParallelWorkers(kHostThreads);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d tiny=%d "
              "threads=%zu\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.tiny ? 1 : 0, kHostThreads);

  // Set-up, several times: its median is setup_s.
  const std::size_t setups = cfg.tiny ? 2 : 9;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < setups; ++i) {
    g_rec.BeginEpisode(Phase::kSetup, cfg.trace);
    w->Setup();
    setup_s.push_back(g_rec.EndEpisode());
  }

  // Rounds until --seconds have passed. With tracing, rounds alternate
  // untraced / traced (odd rounds traced) so both sides see the same mix.
  Checks checks;
  std::vector<double> ops, wall_untraced, wall_traced, dense_rate, struct_rate;
  // Traced runs need at least two rounds on each side.
  const std::size_t min_rounds =
      std::max<std::size_t>(w->MinRounds(), cfg.trace ? 4 : 1);
  const double t_begin = Now();
  for (std::size_t round = 0;
       round < min_rounds || Now() - t_begin < cfg.seconds; ++round) {
    const bool traced = cfg.trace && round % 2 == 1;
    RoundResult r;
    g_rec.BeginEpisode(Phase::kRound, traced);
    w->Round(r, checks);
    const double wall = g_rec.EndEpisode();
    if (sweep) sweep->Cleanup();
    (traced ? wall_traced : wall_untraced).push_back(wall);
    if (traced) continue;
    if (r.dense_s > 0) dense_rate.push_back(r.dense_items / r.dense_s);
    if (r.structured_s > 0) {
      struct_rate.push_back(r.structured_items / r.structured_s);
    }
    ops.insert(ops.end(), r.op_ms.begin(), r.op_ms.end());
  }
  const std::size_t rounds = wall_untraced.size() + wall_traced.size();
  w->Finish(checks);

  std::vector<Metric> out;
  if (!cfg.trace) {
    out = {
        {"setup_s", Median(setup_s), "s"},
        {"wall_s", Median(wall_untraced), "s"},
        {"dense_per_s", Median(dense_rate), "1/s"},
        {"structured_per_s", Median(struct_rate), "1/s"},
        {"op_ms_p50", Quantile(ops, 0.5), "ms"},
        {"op_ms_p90", Quantile(ops, 0.9), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    std::printf("rounds %zu, operations %zu, set-ups %zu\nround wall [s]:",
                rounds, ops.size(), setups);
    for (double v : wall_untraced) std::printf(" %.3f", v);
    std::printf("\nset-up wall [s]:");
    for (double v : setup_s) std::printf(" %.3f", v);
    std::printf("\n");
  } else {
    const std::map<std::string, double> per = SelfPerEpisode();
    double top_s = 0.0, traced_wall = 0.0;
    for (const SpanRecord& s : g_rec.spans()) {
      const Episode& e = g_rec.episodes()[s.episode];
      if (e.phase == Phase::kRound && s.depth == 0) top_s += s.t1 - s.t0;
    }
    for (double v : wall_traced) traced_wall += v;
    auto per_ep = [&](const char* span) {
      auto it = per.find(span);
      return it == per.end() ? 0.0 : it->second;
    };
    auto count = [&](const char* name) {
      auto it = g_counts.find(name);
      return it == g_counts.end()
                 ? 0.0
                 : it->second / static_cast<double>(rounds);
    };
    for (const LayerMetric& lm : kLayerMetrics) {
      const std::string name = lm.metric;
      double v = 0.0;
      if (lm.span != nullptr) {
        v = per_ep(lm.span) * lm.scale;
      } else if (lm.unit == std::string("count")) {
        v = count(lm.metric);
      } else if (name == "serve.cache_load_ms_p50") {
        v = sweep ? Quantile(sweep->warmMs(), 0.5) : 0.0;
      } else if (name == "serve.replay_s") {
        if (per_ep("serve.replay") > 0) {
          v = per_ep("serve.replay") - per_ep("serve.des_closed");
        }
      } else if (name == "obs.span_coverage_frac") {
        v = traced_wall > 0 ? top_s / traced_wall : 0.0;
      } else if (name == "obs.trace_overhead_frac") {
        v = Median(wall_traced) / Median(wall_untraced) - 1.0;
      }
      out.push_back({name, v, lm.unit});
    }
    PrintSelfTimeTable();
    const std::string path = cfg.out_dir + "/trace_" + cfg.workload + "_seed" +
                             std::to_string(cfg.seed) + ".json";
    WriteChromeTrace(path, cfg);
    std::printf("  chrome trace: %s\n", path.c_str());
  }

  std::printf("\n");
  for (const Metric& m : out) {
    std::printf("  %-26s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double failed_frac =
      checks.attempted == 0
          ? 1.0
          : static_cast<double>(checks.failed) /
                static_cast<double>(checks.attempted);
  std::printf("  failed_frac %.6g (%zu of %zu checks failed)\n", failed_frac,
              checks.failed, checks.attempted);
  std::printf("%s\n", ResultJson(checks, out).c_str());
  std::fflush(stdout);
  return 0;
}
