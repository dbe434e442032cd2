#include "serve/server.h"

#include <string>

#include "obs/trace.h"

namespace repro::serve {
namespace {

// One unrouted slot at the backend's own phase split, traced on an ingress
// lane (admissions, queue waits, batch formation) plus a track per replica
// (device runs, per-request device spans).
EventLoop MakeLoop(ExecutionBackend& backend, const ServerConfig& cfg) {
  EventLoop loop{.slots = {{.backend = &backend,
                            .timing = backend.streamProfile()}},
                 .batch = cfg.batch,
                 .queue_capacity = cfg.queue_capacity,
                 .host_threads = cfg.host_threads,
                 .tracer = cfg.tracer,
                 .cat = "serve"};
  if (cfg.tracer != nullptr) {
    const std::string pname =
        cfg.trace_label.empty() ? "serve" : cfg.trace_label;
    loop.lane = &cfg.tracer->track(cfg.trace_pid, 0, pname, "ingress");
    for (std::size_t r = 0; r < backend.replicas(); ++r) {
      loop.slots[0].tracks.push_back(&cfg.tracer->track(
          cfg.trace_pid, 1 + r, pname, "replica " + std::to_string(r)));
    }
  }
  return loop;
}

}  // namespace

Server::Server(ExecutionBackend& backend, ServerConfig config)
    : backend_(&backend), config_(config) {
  REPRO_REQUIRE(config.queue_capacity > 0, "queue capacity must be positive");
  REPRO_REQUIRE(backend.replicas() > 0,
                "serving backend has no replicas to dispatch to");
}

Server::Server(ReplicaPool& pool, ServerConfig config)
    : owned_(std::make_unique<IpuBackend>(pool.plan(), &pool)),
      backend_(owned_.get()),
      config_(config) {
  REPRO_REQUIRE(config.queue_capacity > 0, "queue capacity must be positive");
}

ServeResult Server::RunOpenLoop(const OpenLoopLoad& load,
                                const Matrix* inputs) {
  return MakeLoop(*backend_, config_).Run(load, inputs);
}

ServeResult Server::RunClosedLoop(const ClosedLoopLoad& load,
                                  const Matrix* inputs) {
  return MakeLoop(*backend_, config_).Run(load, inputs);
}

}  // namespace repro::serve
