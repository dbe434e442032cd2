#include "cluster/router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "serve/event_loop.h"

namespace repro::cluster {
namespace {

// SplitMix64 finalizer: the deterministic hash behind the ring and request
// keys (std::hash is implementation-defined, so never used here).
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

HashRing::HashRing(std::size_t vnodes) : vnodes_(vnodes) {
  REPRO_REQUIRE(vnodes_ > 0, "hash ring needs at least one vnode per chip");
}

void HashRing::AddChip(std::size_t chip) {
  if (Contains(chip)) return;
  ring_.reserve(ring_.size() + vnodes_);
  for (std::size_t v = 0; v < vnodes_; ++v) {
    ring_.emplace_back(Mix64((static_cast<std::uint64_t>(chip) << 32) | v),
                       chip);
  }
  std::sort(ring_.begin(), ring_.end());
  ++chip_count_;
}

void HashRing::RemoveChip(std::size_t chip) {
  if (!Contains(chip)) return;
  ring_.erase(std::remove_if(
                  ring_.begin(), ring_.end(),
                  [chip](const auto& p) { return p.second == chip; }),
              ring_.end());
  --chip_count_;
}

bool HashRing::Contains(std::size_t chip) const {
  for (const auto& p : ring_) {
    if (p.second == chip) return true;
  }
  return false;
}

std::size_t HashRing::Route(std::uint64_t key) const {
  REPRO_REQUIRE(!ring_.empty(), "routing on an empty hash ring");
  const std::uint64_t h = Mix64(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const auto& p, std::uint64_t v) { return p.first < v; });
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

const char* PlacementName(Placement p) {
  switch (p) {
    case Placement::kLeastLoaded:
      return "least_loaded";
    case Placement::kConsistentHash:
      return "consistent_hash";
  }
  return "unknown";
}

ClusterMetrics::ClusterMetrics(std::size_t max_batch, std::size_t chips)
    : agg_(max_batch),
      routed_(chips, 0),
      completed_(chips, 0),
      rejected_(chips, 0) {}

std::string ClusterMetrics::ToJson() const {
  // Extend the aggregate ServeMetrics object in place: same percentile and
  // occupancy math, same %.17g doubles, one flat JSON object.
  std::string s = agg_.ToJson();
  REPRO_REQUIRE(!s.empty() && s.back() == '}', "malformed aggregate JSON");
  s.pop_back();
  auto arr = [](const std::vector<std::size_t>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) a += ", ";
      a += std::to_string(v[i]);
    }
    a += "]";
    return a;
  };
  s += ", \"chips\": " + std::to_string(routed_.size());
  s += ", \"final_active_chips\": " + std::to_string(final_active_);
  s += ", \"scale_ups\": " + std::to_string(scale_ups_);
  s += ", \"scale_downs\": " + std::to_string(scale_downs_);
  s += ", \"routed_per_chip\": " + arr(routed_);
  s += ", \"completed_per_chip\": " + arr(completed_);
  s += ", \"rejected_per_chip\": " + arr(rejected_);
  s += "}";
  return s;
}

namespace {

using serve::Request;

// A cluster run: the shared serve::EventLoop with one slot per chip, plus
// what only the cluster has -- placement, fabric hops, the autoscaler and
// the per-chip view in ClusterMetrics.
class ClusterRun final : public serve::SlotRouter {
 public:
  ClusterRun(const std::vector<serve::ExecutionBackend*>& backends,
             const RouterConfig& cfg)
      : cfg_(cfg),
        chips_(backends.size()),
        metrics_(cfg.batch.max_batch, chips_),
        outstanding_(chips_, 0),
        active_(chips_, false),
        ring_(cfg.vnodes),
        loop_{.batch = cfg.batch,
              .queue_capacity = cfg.queue_capacity,
              .host_threads = cfg.host_threads,
              .tracer = cfg.tracer,
              .cat = "cluster",
              .router = this,
              .tick_s = cfg.autoscale.enabled ? cfg.autoscale.eval_interval_s
                                              : 0.0} {
    const AutoscalePolicy& p = cfg.autoscale;
    REPRO_REQUIRE(!p.enabled || p.eval_interval_s > 0.0,
                  "the autoscaler needs a positive eval interval");
    // Tracing: the router lane (tid 0) and one track per chip (tid 1 +
    // chip) its replicas share. The chip's substrate is part of the track
    // name, so router -> chip dispatch spans read as routing decisions.
    const std::string pname =
        cfg.trace_label.empty() ? "cluster" : cfg.trace_label;
    if (cfg.tracer != nullptr) {
      loop_.lane = &cfg.tracer->track(cfg.trace_pid, 0, pname, "router");
    }
    // One unpipelined slot per chip at its backend's batchSeconds(), behind
    // one fabric hop each way.
    for (std::size_t c = 0; c < chips_; ++c) {
      serve::ExecutionBackend& b = *backends[c];
      serve::EventLoop::Slot& slot = loop_.slots.emplace_back(
          serve::EventLoop::Slot{.backend = &b,
                                 .timing = {.compute_s = b.batchSeconds()}});
      if (cfg.fabric != nullptr) {
        slot.request_hop_s =
            cfg.fabric->PointToPointSeconds(b.spec().input * sizeof(float));
        slot.response_hop_s =
            cfg.fabric->PointToPointSeconds(b.spec().classes * sizeof(float));
      }
      if (cfg.tracer != nullptr) {
        slot.tracks.assign(
            b.replicas(),
            &cfg.tracer->track(cfg.trace_pid, 1 + c, pname,
                               "chip " + std::to_string(c) + " [" + b.name() +
                                   "]"));
      }
    }
    // Active set: everything, or the autoscaler's starting width.
    std::size_t initial = chips_;
    if (p.enabled) {
      initial = std::max({p.initial_chips, p.min_chips, std::size_t{1}});
      initial = std::max<std::size_t>(
          std::min({initial, p.max_chips, chips_}), 1);
    }
    for (std::size_t c = 0; c < initial; ++c) {
      active_[c] = true;
      ring_.AddChip(c);
    }
  }

  // The loop holds `this` as its router.
  ClusterRun(const ClusterRun&) = delete;
  ClusterRun& operator=(const ClusterRun&) = delete;

  // Serves one load; the run's metrics move into the result.
  template <typename Load>
  ClusterResult Run(const Load& load, const Matrix* inputs) {
    serve::ServeResult r = loop_.Run(load, inputs);
    metrics_.aggregate() = std::move(r.metrics);
    metrics_.SetFinalActiveChips(static_cast<std::size_t>(
        std::count(active_.begin(), active_.end(), true)));
    return ClusterResult{std::move(metrics_), std::move(r.logits)};
  }

  std::size_t Route(const Request& req, double now) override {
    // Consistent hash, or least loaded: fewest outstanding routed requests
    // among active chips, ties to the lowest chip id.
    std::size_t chip = chips_;
    if (cfg_.placement == Placement::kConsistentHash) {
      chip = ring_.Route(req.id);
    } else {
      for (std::size_t c = 0; c < chips_; ++c) {
        if (!active_[c]) continue;
        if (chip == chips_ || outstanding_[c] < outstanding_[chip]) chip = c;
      }
    }
    REPRO_REQUIRE(chip < chips_, "router has no active chip");
    ++outstanding_[chip];
    metrics_.RecordRouted(chip);
    if (obs::TraceTrack* lane = loop_.lane; lane != nullptr) {
      // The request lifecycle span opens at the router and closes when the
      // response hop lands back; the routing decision is an instant.
      lane->AsyncBegin("request", "request", now * 1e6, req.id);
      lane->Instant("route", "cluster", now * 1e6,
                    {obs::Arg("request", req.id),
                     obs::Arg("chip", static_cast<std::uint64_t>(chip))});
      cfg_.tracer->Count("cluster.routed");
    }
    return chip;
  }

  void Finished(std::size_t chip, bool completed) override {
    --outstanding_[chip];
    completed ? metrics_.RecordChipCompletion(chip)
              : metrics_.RecordChipRejection(chip);
  }

  // The autoscaler: compare mean outstanding per active chip against the
  // policy thresholds, then activate the lowest inactive chip or drain the
  // highest active one (it stops receiving traffic; its queued and
  // in-flight work completes normally).
  void OnTick(double now) override {
    const AutoscalePolicy& p = cfg_.autoscale;
    std::size_t active = 0;
    std::size_t outstanding = 0;
    for (std::size_t c = 0; c < chips_; ++c) {
      if (!active_[c]) continue;
      ++active;
      outstanding += outstanding_[c];
    }
    const double per =
        static_cast<double>(outstanding) / static_cast<double>(active);
    if (per > p.up_outstanding_per_chip &&
        active < std::min(p.max_chips, chips_)) {
      Scale(std::find(active_.begin(), active_.end(), false) - active_.begin(),
            /*up=*/true, per, now);
    } else if (per < p.down_outstanding_per_chip &&
               active > std::max<std::size_t>(p.min_chips, 1)) {
      Scale(chips_ - 1 -
                (std::find(active_.rbegin(), active_.rend(), true) -
                 active_.rbegin()),
            /*up=*/false, per, now);
    }
  }

 private:
  void Scale(std::size_t chip, bool up, double per, double now) {
    active_[chip] = up;
    up ? ring_.AddChip(chip) : ring_.RemoveChip(chip);
    up ? metrics_.RecordScaleUp() : metrics_.RecordScaleDown();
    if (loop_.lane == nullptr) return;
    const std::string name = up ? "scale_up" : "scale_down";
    loop_.lane->Instant(name, "cluster", now * 1e6,
                        {obs::Arg("chip", static_cast<std::uint64_t>(chip)),
                         obs::Arg("outstanding_per_chip", per)});
    cfg_.tracer->Count("cluster." + name + "s");
  }

  const RouterConfig& cfg_;
  const std::size_t chips_;
  ClusterMetrics metrics_;
  std::vector<std::size_t> outstanding_;  // routed, not yet finished
  std::vector<bool> active_;
  HashRing ring_;
  serve::EventLoop loop_;
};

}  // namespace

Router::Router(std::vector<serve::ExecutionBackend*> backends,
               RouterConfig config)
    : backends_(std::move(backends)), config_(std::move(config)) {
  REPRO_REQUIRE(!backends_.empty(), "router needs at least one chip slot");
  for (const serve::ExecutionBackend* backend : backends_) {
    REPRO_REQUIRE(backend != nullptr && backend->replicas() > 0,
                  "router chips need live execution backends");
  }
  REPRO_REQUIRE(config_.queue_capacity > 0, "queue capacity must be positive");
}

Router::Router(std::vector<serve::ReplicaPool*> pools, RouterConfig config)
    : config_(std::move(config)) {
  REPRO_REQUIRE(!pools.empty(), "router needs at least one chip pool");
  for (serve::ReplicaPool* pool : pools) {
    REPRO_REQUIRE(pool != nullptr && pool->size() > 0,
                  "router chips need live replica pools");
    owned_.push_back(
        std::make_unique<serve::IpuBackend>(pool->plan(), pool));
    backends_.push_back(owned_.back().get());
  }
  REPRO_REQUIRE(config_.queue_capacity > 0, "queue capacity must be positive");
}

ClusterResult Router::RunOpenLoop(const serve::OpenLoopLoad& load,
                                  const Matrix* inputs) {
  return ClusterRun(backends_, config_).Run(load, inputs);
}

ClusterResult Router::RunClosedLoop(const serve::ClosedLoopLoad& load,
                                    const Matrix* inputs) {
  return ClusterRun(backends_, config_).Run(load, inputs);
}

}  // namespace repro::cluster
