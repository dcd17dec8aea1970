// Concurrent batched inference server on top of the system simulation —
// the "serves traffic" layer of the stack, hardened against the fault
// model of src/fault.
//
// Architecture: one pure planner, one thin executor.
//
//   Submit(input, arrival_cycle[, deadline_cycle])
//     │  under submit_mu_: serve::Planner admits the request, batches
//     │  it, and for every batch that closes decides the replica, the
//     │  cluster faults, hedging and every replica's service timeline
//     │  (datapath faults, stalls, deadlines, scrubs, retries, slow
//     │  penalties, warm state) — see serve/planner.h
//     ▼
//   each closed batch's kOk services are posted to that replica's lane
//     (cluster::AcceleratorPool: N replicas, each with a private DRAM
//     MemoryImage copied from the image built once at start-up and its
//     own SystemContext decoded from those bytes)
//     ▼
//   a lane applies the planned bit flips to its image, runs the planned
//     weight scrubs (checked against the provisioned checksum: mismatch
//     before, match after), then runs SystemContext::Run with the
//     planned weights_resident and keeps the output.
//
// Determinism: every record field except the output, DRAM bytes and
// energy comes from the planner, a pure function of the submission
// order, the arrival cycles, the design's cold/steady/scrub cycle
// counts and the seeded fault plan — never of thread timing.  Outputs
// of kOk requests are bit-identical to running the same inputs through
// sequential HostRuntime::InferBatch, for any replica count, since
// every replica starts from the same provisioned bytes.  The lane
// threads merely overlap the wall-clock cost of producing them.
//
// Lifecycle: kStarting (constructor) → kServing (lanes running) →
// kDraining (Drain called, intake closed) → kStopped (lanes joined,
// observability published).  Submit outside kServing throws
// db::ShutdownError.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "cluster/accelerator_pool.h"
#include "serve/planner.h"
#include "serve/server_stats.h"
#include "sim/host_runtime.h"
#include "sim/system_sim.h"

namespace db::serve {

enum class ServerState { kStarting, kServing, kDraining, kStopped };

constexpr const char* ServerStateName(ServerState state) {
  switch (state) {
    case ServerState::kStarting: return "starting";
    case ServerState::kServing: return "serving";
    case ServerState::kDraining: return "draining";
    case ServerState::kStopped: return "stopped";
  }
  return "unknown";
}

class InferenceServer {
 public:
  /// Serialises the weights into a DRAM image once; the accelerator
  /// pool stamps out one private copy (and one decoded SystemContext)
  /// per replica.  Lane threads start immediately.
  InferenceServer(const Network& net, const AcceleratorDesign& design,
                  const WeightStore& weights, ServeOptions options = {});

  /// Joins all threads (draining first if Drain was not called).
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Admit one request; never blocks on the lanes.  Arrival cycles must
  /// be non-decreasing across calls.  `deadline_cycle` is the absolute
  /// cycle by which service must have started (0: use the options'
  /// default relative deadline, or none).  Returns the request id
  /// (dense, in submission order); a rejected or shed request still
  /// gets an id and a record with its status.  Throws
  /// db::ShutdownError unless the server is in kServing.
  std::int64_t Submit(Tensor input, std::int64_t arrival_cycle,
                      std::int64_t deadline_cycle = 0);

  /// End intake, wait until every submitted request has completed, and
  /// return the records ordered by request id.  Idempotent.
  const std::vector<ServedRequest>& Drain();

  /// Aggregate metrics; valid after Drain().
  ServerStats Stats() const;

  /// Lifecycle observer (see ServerState).
  ServerState state() const { return state_.load(); }

  const ServeOptions& options() const { return planner_.options(); }
  int replicas() const { return pool_.size(); }

  /// Cycle cost the planner charges per invocation (exposed so tests
  /// and benches can reason about the schedule analytically).
  std::int64_t cold_cycles() const { return planner_.costs().cold_cycles; }
  std::int64_t steady_cycles() const {
    return planner_.costs().steady_cycles;
  }
  /// Cycles one weight-region scrub-and-reload charges.
  std::int64_t scrub_cycles() const { return planner_.costs().scrub_cycles; }

  /// Cluster-resilience accounting (valid after Drain()).
  std::int64_t crashes() const { return planner_.counts().crashes; }
  std::int64_t hedges() const { return planner_.counts().hedges; }
  std::int64_t hedge_wins() const { return planner_.counts().hedge_wins; }
  std::int64_t redispatched_requests() const {
    return planner_.counts().redispatched;
  }
  const cluster::ReplicaHealthMonitor& health_monitor() const {
    return planner_.health_monitor();
  }
  const cluster::CircuitBreaker& circuit_breaker() const {
    return planner_.circuit_breaker();
  }

 private:
  /// Post every planned dispatch to its lane (submit_mu_ held), then
  /// drop the inputs no later batch can contain.
  void PostDispatches();
  /// Lane task: run `services` on replica r and fill in their records.
  void Execute(int r, const std::vector<PlannedService>& services,
               const std::vector<Tensor>& inputs);
  /// Emit spans + metrics from the final records (lanes joined); runs
  /// once, from the first Drain().
  void PublishObservability();
  /// Sample the load time-series from the final records and replica
  /// busy intervals (same preconditions as PublishObservability).
  void PublishTimeSeries();

  const AcceleratorDesign& design_;
  const DeviceInfo& device_;
  Planner planner_;
  MemoryImage provisioned_;  // built once; every replica copies its bytes
  std::uint64_t weight_checksum_ = 0;  // of the provisioned image
  /// Guards the planner's records: planning may reallocate them while
  /// lanes write their outputs in.
  std::mutex records_mu_;
  cluster::AcceleratorPool pool_;

  // Submission state (guarded by submit_mu_; Drain holds it throughout).
  mutable std::mutex submit_mu_;
  std::vector<Dispatch> dispatches_;  // scratch for planner output
  std::deque<Tensor> inputs_;         // requests [inputs_base_, next id)
  std::int64_t inputs_base_ = 0;
  std::vector<ServedRequest> results_;  // final records, after Drain

  std::atomic<ServerState> state_{ServerState::kStarting};
};

}  // namespace db::serve
