// The serving front end: queue -> micro-batcher -> replica pool -> metrics.
//
// A Server is serve::EventLoop (event_loop.h) with one unrouted slot: its
// backend's replicas, dispatched at the backend's own StreamProfile.
// Streaming plans admit two batches in flight per replica, so batch N+1's
// input transfer hides behind batch N's compute (the overlap lands in
// ServeMetrics::overlappedHostSeconds); copy plans serve one batch at a
// time per replica for the constant batchSeconds(). Arrivals (open-loop
// Poisson, or closed-loop clients that re-issue on completion) enter the
// bounded ingress queue: a full queue load-sheds and counts a rejection,
// and closed-loop clients are capped by the queue bound (the backpressure
// contract). Metrics and traces are bitwise identical across host_threads
// (the loop's determinism contract).
#pragma once

#include <memory>
#include <string>

#include "linalg/matrix.h"
#include "serve/backend.h"
#include "serve/batcher.h"
#include "serve/event_loop.h"
#include "serve/metrics.h"
#include "serve/replica_pool.h"

namespace repro::serve {

struct ServerConfig {
  BatchPolicy batch;
  std::size_t queue_capacity = 256;  // admission bound (backpressure)
  // Host workers for replaying batch numerics across replicas (execute
  // plans); 0 defers to REPRO_THREADS. Never affects the metrics.
  std::size_t host_threads = 0;
  // Optional trace sink: per-request lifecycle spans (admission instants,
  // queue-wait and batch-formation async spans, device-run spans on the
  // replica's track) under trace_pid. Timestamps are the scheduler's
  // simulated event times, emitted only from the single-threaded DES loop,
  // so the trace honours the same bitwise host-thread-invariance contract
  // as the metrics JSON. Null = off (no cost on the serving path).
  obs::Tracer* tracer = nullptr;
  std::size_t trace_pid = 0;
  std::string trace_label = {};
};

class Server {
 public:
  // Serve any ExecutionBackend (not owned; must outlive the server).
  Server(ExecutionBackend& backend, ServerConfig config);

  // IPU convenience: wraps the pool in an owned IpuBackend. Identical
  // scheduling, metrics and trace bytes to the backend ctor.
  Server(ReplicaPool& pool, ServerConfig config);

  // `inputs` supplies request features (request i runs row i % inputs.rows());
  // pass nullptr for timing-only serving (no numerics replayed).
  ServeResult RunOpenLoop(const OpenLoopLoad& load,
                          const Matrix* inputs = nullptr);
  ServeResult RunClosedLoop(const ClosedLoopLoad& load,
                            const Matrix* inputs = nullptr);

 private:
  std::unique_ptr<IpuBackend> owned_;  // pool ctor only
  ExecutionBackend* backend_;
  ServerConfig config_;
};

}  // namespace repro::serve
