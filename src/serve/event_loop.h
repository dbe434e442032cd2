// serve::EventLoop: the one discrete-event core behind serve::Server and
// cluster::Router.
//
// A loop serves a load over one or more *slots*. A slot is one
// ExecutionBackend behind its own bounded ingress queue and micro-batcher.
// Each replica pipelines three phases per batch (input link, compute,
// output link) at the slot's StreamProfile: a streaming profile admits two
// batches in flight per replica, so batch N+1's input transfer hides behind
// batch N's compute; otherwise a replica holds one batch at a time.
//
// Events pop in (simulated time, creation order):
//   arrival      -- a load request. Unrouted (Server): admitted at slot 0.
//                   Routed (Router): the SlotRouter picks a slot and the
//                   request reaches it request_hop_s later.
//   slot arrival -- admitted to the slot's queue, or shed when it is full.
//   deadline     -- the flush time of a slot's partial batch.
//   done         -- a replica finished a batch; its requests complete
//                   response_hop_s later.
//   tick         -- the router's timer, every tick_s while work remains.
// After each event that touches a slot the loop pumps it: it drains the
// queue into the batcher, dispatches ready batches to the least-loaded free
// replica and schedules the next flush deadline.
//
// Determinism contract: metrics and trace events come only from this
// single-threaded loop. Host threads only replay the recorded (slot,
// replica) batch schedules through the backends for logits, so no metric
// or trace byte depends on host_threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "serve/backend.h"
#include "serve/batcher.h"
#include "serve/metrics.h"
#include "serve/request.h"

namespace repro::obs {
class Tracer;
class TraceTrack;
}  // namespace repro::obs

namespace repro::serve {

// Open loop: `requests` Poisson arrivals at `qps` offered load; rejected
// requests are dropped (load shedding).
struct OpenLoopLoad {
  double qps = 1e5;
  std::size_t requests = 1000;
  std::uint64_t seed = 1;
};

// Closed loop: `clients` outstanding requests, each re-issued `think_s`
// after its completion, until `requests` total have been issued. Requires
// clients <= queue_capacity, so nothing is ever rejected.
struct ClosedLoopLoad {
  std::size_t clients = 8;
  std::size_t requests = 1000;
  double think_s = 0.0;
};

struct ServeResult {
  ServeMetrics metrics;
  // Per-request logits (row = request id; rejected requests stay zero).
  // Only filled for execute plans given a non-empty input matrix.
  Matrix logits;
};

// What a routed front end (cluster::Router) adds to the loop.
class SlotRouter {
 public:
  virtual ~SlotRouter() = default;
  // Picks the slot for a new arrival at `now`.
  virtual std::size_t Route(const Request& req, double now) = 0;
  // A request routed to `slot` left the system: completed, or shed.
  virtual void Finished(std::size_t slot, bool completed) = 0;
  // The timer: every tick_s of simulated time while work remains.
  virtual void OnTick(double now) = 0;
};

struct EventLoop {
  struct Slot {
    ExecutionBackend* backend = nullptr;
    StreamProfile timing;         // one batch's phase split
    double request_hop_s = 0.0;   // router -> slot (routed loops)
    double response_hop_s = 0.0;  // slot -> router, on every completion
    // Per-replica track for batch and device spans (tracing only).
    std::vector<obs::TraceTrack*> tracks = {};
  };

  std::vector<Slot> slots = {};
  BatchPolicy batch;
  std::size_t queue_capacity = 256;  // per slot (admission bound)
  std::size_t host_threads = 0;      // numerics replay workers
  // Trace sink (null = off): `lane` carries the request lifecycle and batch
  // formation; `cat` names the span category and counter prefix.
  obs::Tracer* tracer = nullptr;
  obs::TraceTrack* lane = nullptr;
  std::string cat = {};
  // Null: one unrouted slot. Routed loops also break batch occupancy down
  // per backend label in the metrics.
  SlotRouter* router = nullptr;
  double tick_s = 0.0;  // router timer period; 0 = no timer

  // Serves the load to completion. Logits are replayed when `inputs` is
  // non-null and every slot executes; request i runs row i % rows.
  ServeResult Run(const OpenLoopLoad& load, const Matrix* inputs) const;
  ServeResult Run(const ClosedLoopLoad& load, const Matrix* inputs) const;
};

}  // namespace repro::serve
