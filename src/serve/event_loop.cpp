#include "serve/event_loop.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <set>
#include <utility>

#include "obs/trace.h"
#include "serve/request_queue.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace repro::serve {
namespace {

// Kept small: an open loop holds every arrival in the heap at once.
struct Event {
  enum Kind : std::uint8_t { kArrival, kSlotArrival, kDeadline, kDone, kTick };
  double time = 0.0;
  std::uint64_t seq = 0;  // creation order: the deterministic tie-break
  Kind kind = kArrival;
  Request req;                // kArrival / kSlotArrival
  std::uint32_t slot = 0;
  std::uint32_t replica = 0;  // kDone
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

class Simulation {
 public:
  Simulation(const EventLoop& loop, std::size_t total, const Matrix* inputs,
             bool closed_loop, double think_s)
      : loop_(loop),
        routed_(loop.router != nullptr),
        metrics_(loop.batch.max_batch),
        total_(total),
        closed_loop_(closed_loop),
        think_s_(think_s) {
    REPRO_REQUIRE(routed_ || loop.slots.size() == 1,
                  "an unrouted event loop serves exactly one slot");
    bool replay = inputs != nullptr;
    for (const EventLoop::Slot& s : loop.slots) {
      SlotState& slot = slots_.emplace_back(s, loop);
      if (routed_) slot.row = metrics_.RegisterBackend(s.backend->name());
      replay = replay && s.backend->canExecute();
    }
    if (loop.lane != nullptr) metrics_.AttachTracer(loop.tracer, loop.lane);
    if (loop.tick_s > 0.0) Push(loop.tick_s, Event::kTick);
    if (replay) StartReplay(*inputs);
  }

  void AddArrival(double t) {
    const std::uint64_t id = issued_++;
    const std::uint64_t row = inputs_ != nullptr ? id % inputs_->rows() : 0;
    Push(t, Event::kArrival, Request{id, t, static_cast<std::uint32_t>(row)});
  }

  ServeResult Run() {
    while (!events_.empty()) {
      const Event e = events_.top();
      events_.pop();
      const double now = e.time;
      switch (e.kind) {
        case Event::kArrival:
          if (routed_) {
            const std::size_t s = loop_.router->Route(e.req, now);
            Push(now + slots_[s].spec.request_hop_s, Event::kSlotArrival,
                 e.req, s);
            continue;
          }
          [[fallthrough]];
        case Event::kSlotArrival:
          Admit(e.req, e.slot, now);
          break;
        case Event::kDeadline:
          --slots_[e.slot].pending_deadlines;
          break;
        case Event::kDone:
          Complete(e.slot, e.replica, now);
          break;
        case Event::kTick:
          if (metrics_.completed() + metrics_.rejected() < issued_ ||
              issued_ < total_) {  // the run is not draining yet
            loop_.router->OnTick(now);
            Push(now + loop_.tick_s, Event::kTick);
          }
          continue;
      }
      Pump(e.slot, now);
      ScheduleDeadline(e.slot, now);
    }
    metrics_.Finalize(last_completion_s_);
    ServeResult result{std::move(metrics_), Matrix()};
    ReplayNumerics(result);
    return result;
  }

 private:
  struct InFlight {
    double dispatch_s = 0.0;
    std::vector<Request> batch;
  };

  // One replica's pipeline: the absolute times its phase resources free,
  // plus its in-flight batches in dispatch (= completion) order.
  struct ReplicaState {
    double in_free = 0.0;
    double comp_free = 0.0;
    double out_free = 0.0;
    std::deque<InFlight> fifo;
  };

  struct SlotState {
    SlotState(const EventLoop::Slot& s, const EventLoop& loop)
        : spec(s),
          depth(s.timing.enabled ? 2 : 1),
          queue(loop.queue_capacity),
          batcher(loop.batch),
          replicas(s.backend->replicas()) {
      for (std::size_t r = 0; r < replicas.size(); ++r) free.insert(r);
    }
    const EventLoop::Slot& spec;
    const std::size_t depth;  // in-flight batches per replica (2 = streaming)
    std::size_t row = 0;      // metrics backend row (routed loops)
    BoundedMpmcQueue<Request> queue;
    MicroBatcher batcher;
    std::vector<ReplicaState> replicas;
    // Replicas with pipeline headroom; dispatch picks the least loaded,
    // lowest id on ties.
    std::set<std::size_t> free;
    // Dispatched batches per replica, recorded only for the replay.
    std::vector<std::vector<std::vector<Request>>> schedule;
    std::size_t pending_deadlines = 0;
  };

  void Push(double t, Event::Kind kind, Request req = {}, std::size_t slot = 0,
            std::size_t replica = 0) {
    events_.push(Event{t, seq_++, kind, req, static_cast<std::uint32_t>(slot),
                       static_cast<std::uint32_t>(replica)});
  }

  // The replay needs rows of the model's input width, and one input and
  // output shape across slots: logits share one matrix.
  void StartReplay(const Matrix& inputs) {
    const nn::ForwardSpec& spec = slots_[0].spec.backend->spec();
    REPRO_REQUIRE(inputs.rows() > 0, "replay inputs have no rows");
    REPRO_REQUIRE(inputs.cols() == spec.input,
                  "replay inputs are %zu wide, the model takes %zu",
                  inputs.cols(), spec.input);
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      const nn::ForwardSpec& other = slots_[s].spec.backend->spec();
      REPRO_REQUIRE(other.input == spec.input && other.classes == spec.classes,
                    "slot %zu serves a %zu -> %zu model, slot 0 a %zu -> %zu",
                    s, other.input, other.classes, spec.input, spec.classes);
      slots_[s].schedule.resize(slots_[s].replicas.size());
    }
    inputs_ = &inputs;
  }

  void Admit(const Request& req, std::size_t s, double now) {
    obs::TraceTrack* lane = loop_.lane;
    if (slots_[s].queue.TryPush(req)) {
      metrics_.RecordAdmitted();
      if (lane != nullptr) {
        // The request lifecycle span opens at admission (routed requests
        // opened it at the router) and closes at completion.
        if (!routed_) lane->AsyncBegin("request", "request", now * 1e6, req.id);
        loop_.tracer->Count(loop_.cat + ".admitted");
      }
      return;
    }
    // Per-slot admission control: the bounded queue load-sheds.
    metrics_.RecordRejected();
    if (routed_) loop_.router->Finished(s, /*completed=*/false);
    if (lane != nullptr) {
      std::vector<obs::TraceArg> args{obs::Arg("request", req.id)};
      if (routed_) args.push_back(obs::Arg("chip", std::uint64_t{s}));
      lane->Instant("reject", loop_.cat, now * 1e6, std::move(args));
      if (routed_) lane->AsyncEnd("request", "request", now * 1e6, req.id);
      loop_.tracer->Count(loop_.cat + ".rejected");
    }
    if (closed_loop_ && issued_ < total_) AddArrival(now + think_s_);
  }

  // Alternates draining the slot's bounded queue into the forming batch and
  // dispatching ready batches to free replicas until neither makes
  // progress. The batcher holds at most one forming batch, so backlog
  // accumulates in the queue where TryPush enforces the admission bound.
  //
  // Each phase is a monotonic resource per replica. An unpipelined profile
  // (in_s = out_s = 0, depth 1) makes these formulas reproduce the
  // one-batch-at-a-time event times exactly: done = now + compute_s.
  void Pump(std::size_t s, double now) {
    SlotState& slot = slots_[s];
    const StreamProfile& p = slot.spec.timing;
    for (;;) {
      slot.batcher.Drain(slot.queue);
      if (slot.free.empty() || !slot.batcher.Ready(now)) return;
      std::vector<Request> batch = slot.batcher.Pop();
      // Least-loaded free replica, lowest id on ties (set iterates
      // ascending): spread across idle replicas first, pipeline under load.
      std::size_t r = *slot.free.begin();
      for (std::size_t cand : slot.free) {
        if (slot.replicas[cand].fifo.size() < slot.replicas[r].fifo.size()) {
          r = cand;
        }
      }
      ReplicaState& rs = slot.replicas[r];
      const double in_start = std::max(now, rs.in_free);
      const double in_done = in_start + p.in_s;
      const double comp_start = std::max(in_done, rs.comp_free);
      const double comp_done = comp_start + p.compute_s;
      const double out_start = std::max(comp_done, rs.out_free);
      const double out_done = out_start + p.out_s;
      // Input-link time spent while the replica was still computing the
      // previous batch: transfer hidden behind compute.
      const double overlapped =
          std::max(0.0, std::min(in_done, rs.comp_free) - in_start);
      rs.in_free = in_done;
      rs.comp_free = comp_done;
      rs.out_free = out_done;
      if (routed_) {
        metrics_.RecordBatchFor(slot.row, batch.size(), now);
      } else {
        metrics_.RecordBatch(batch.size(), now);
      }
      metrics_.RecordOverlap(overlapped);
      if (obs::TraceTrack* lane = loop_.lane; lane != nullptr) {
        // Batch formation spans the oldest member's arrival to dispatch.
        const std::uint64_t bid = batch_seq_++;
        std::vector<obs::TraceArg> form{obs::Arg("occupancy", batch.size())};
        std::vector<obs::TraceArg> run{obs::Arg("batch", bid),
                                       obs::Arg("occupancy", batch.size())};
        if (routed_) {
          form.push_back(obs::Arg("chip", std::uint64_t{s}));
          run.push_back(obs::Arg("replica", std::uint64_t{r}));
        }
        lane->AsyncBegin("batch_form", "batch", batch.front().arrival_s * 1e6,
                         bid, std::move(form));
        lane->AsyncEnd("batch_form", "batch", now * 1e6, bid);
        obs::TraceTrack* track = slot.spec.tracks[r];
        if (p.enabled) {
          track->Complete("stream_in", "host", in_start * 1e6, p.in_s * 1e6,
                          {obs::Arg("batch", bid),
                           obs::Arg("overlapped_s", overlapped)});
        }
        track->Complete("device_run", loop_.cat, comp_start * 1e6,
                        p.compute_s * 1e6, std::move(run));
        if (p.enabled) {
          track->Complete("stream_out", "host", out_start * 1e6, p.out_s * 1e6,
                          {obs::Arg("batch", bid)});
        }
        loop_.tracer->Count(loop_.cat + ".batches");
      }
      if (inputs_ != nullptr) slot.schedule[r].push_back(batch);
      rs.fifo.push_back(InFlight{now, std::move(batch)});
      if (rs.fifo.size() >= slot.depth) slot.free.erase(r);
      Push(out_done, Event::kDone, Request{}, s, r);
    }
  }

  // A partial batch left waiting needs a future wake-up at its flush
  // deadline -- but only when a replica is free (otherwise the next kDone
  // re-evaluates) and no earlier deadline event is already pending (front
  // arrivals are FIFO, so pending deadline times never exceed the current
  // one).
  void ScheduleDeadline(std::size_t s, double now) {
    SlotState& slot = slots_[s];
    if (slot.batcher.empty() || slot.free.empty() ||
        slot.pending_deadlines > 0) {
      return;
    }
    const double d = slot.batcher.Deadline();
    if (!std::isfinite(d)) return;
    Push(std::max(d, now), Event::kDeadline, Request{}, s);
    ++slot.pending_deadlines;
  }

  // Per-replica completions are FIFO: out_free advances monotonically at
  // dispatch, so the front of the pipeline is the batch this event
  // announces.
  void Complete(std::size_t s, std::size_t r, double now) {
    SlotState& slot = slots_[s];
    ReplicaState& rs = slot.replicas[r];
    const InFlight done = std::move(rs.fifo.front());
    rs.fifo.pop_front();
    if (rs.fifo.size() < slot.depth) slot.free.insert(r);
    const double done_s = now + slot.spec.response_hop_s;
    last_completion_s_ = std::max(last_completion_s_, done_s);
    for (const Request& req : done.batch) {
      metrics_.RecordCompletion(done_s - req.arrival_s,
                                done.dispatch_s - req.arrival_s);
      if (routed_) loop_.router->Finished(s, /*completed=*/true);
      if (obs::TraceTrack* lane = loop_.lane; lane != nullptr) {
        // Queue wait on the lane, device time on the replica's track; the
        // end event carries the exact latency components the metrics
        // recorded (same doubles, same arithmetic).
        const double disp_us = done.dispatch_s * 1e6;
        lane->AsyncBegin("queue", "request", req.arrival_s * 1e6, req.id);
        lane->AsyncEnd("queue", "request", disp_us, req.id);
        obs::TraceTrack* track = slot.spec.tracks[r];
        track->AsyncBegin("device", "device", disp_us, req.id);
        track->AsyncEnd(
            "device", "device", now * 1e6, req.id,
            {obs::Arg("latency_s", done_s - req.arrival_s),
             obs::Arg("queue_delay_s", done.dispatch_s - req.arrival_s)});
        lane->AsyncEnd("request", "request", done_s * 1e6, req.id);
        loop_.tracer->Count(loop_.cat + ".completed");
      }
      if (closed_loop_ && issued_ < total_) AddArrival(done_s + think_s_);
    }
  }

  // Replays the recorded dispatch schedules through the backends to
  // produce logits. Parallel across (slot, replica), sequential within
  // one; batch composition is fixed by the event loop, so results are
  // independent of host_threads.
  void ReplayNumerics(ServeResult& result) {
    if (inputs_ == nullptr) return;
    const nn::ForwardSpec& spec = slots_[0].spec.backend->spec();
    result.logits = Matrix(total_, spec.classes);
    std::vector<std::pair<std::size_t, std::size_t>> units;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      for (std::size_t r = 0; r < slots_[s].replicas.size(); ++r) {
        units.emplace_back(s, r);
      }
    }
    ParallelForWith(
        loop_.host_threads, 0, units.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t u = begin; u < end; ++u) {
            const auto [s, r] = units[u];
            for (const std::vector<Request>& batch : slots_[s].schedule[r]) {
              Matrix in(batch.size(), spec.input);
              for (std::size_t i = 0; i < batch.size(); ++i) {
                auto src = inputs_->row(batch[i].row);
                std::copy(src.begin(), src.end(), in.row(i).begin());
              }
              Matrix out = slots_[s].spec.backend->ExecuteBatch(r, in);
              for (std::size_t i = 0; i < batch.size(); ++i) {
                auto dst = result.logits.row(batch[i].id);
                std::copy(out.row(i).begin(), out.row(i).end(), dst.begin());
              }
            }
          }
        },
        /*min_grain=*/1);
  }

  const EventLoop& loop_;
  const bool routed_;
  ServeMetrics metrics_;
  const std::size_t total_;
  const bool closed_loop_;
  const double think_s_;
  std::deque<SlotState> slots_;     // deque: SlotState holds a mutex
  const Matrix* inputs_ = nullptr;  // non-null only when replaying
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::uint64_t seq_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t batch_seq_ = 0;
  double last_completion_s_ = 0.0;
};

}  // namespace

ServeResult EventLoop::Run(const OpenLoopLoad& load,
                           const Matrix* inputs) const {
  REPRO_REQUIRE(load.qps > 0.0, "open-loop rate must be positive");
  Simulation sim(*this, load.requests, inputs, /*closed_loop=*/false, 0.0);
  Rng rng(load.seed);
  double t = 0.0;
  for (std::size_t i = 0; i < load.requests; ++i) {
    t += -std::log(1.0 - rng.Uniform()) / load.qps;  // Exp(qps) gaps
    sim.AddArrival(t);
  }
  return sim.Run();
}

ServeResult EventLoop::Run(const ClosedLoopLoad& load,
                           const Matrix* inputs) const {
  REPRO_REQUIRE(load.clients > 0, "closed loop needs at least one client");
  REPRO_REQUIRE(load.clients <= queue_capacity,
                "closed-loop clients (%zu) exceed the queue bound (%zu): the "
                "backpressure contract caps outstanding work at the queue",
                load.clients, queue_capacity);
  Simulation sim(*this, load.requests, inputs, /*closed_loop=*/true,
                 load.think_s);
  for (std::size_t c = 0; c < std::min(load.clients, load.requests); ++c) {
    sim.AddArrival(0.0);
  }
  return sim.Run();
}

}  // namespace repro::serve
