// serve::Planner — the whole serving schedule as one pure computation.
//
// DeepBurning's accelerator runs a static control flow, so every
// serving timing and outcome is a function of four inputs only: the
// arrival stream, the ServeOptions, the seeded fault plan and the
// design's cold/steady/scrub cycle counts.  No tensor affects any of
// them.  The planner derives that schedule in one place, with no
// threads, tensors, networks or DRAM images:
//
//   Submit(arrival, deadline)
//     │  admission in simulated time (kBlock / kReject / kShedOldest
//     │  against queue_capacity, counted over the open batch)
//     ▼
//   batching: a batch closes at max_batch_size members (ready at the
//     last arrival) or when an arrival falls outside the linger window
//     (ready at first arrival + linger); Flush closes the last one
//     ▼
//   routing view, per replica: planned free cycle, scheduled-warm flag,
//     slow window and scheduled-invocation coordinate.  The ShardRouter
//     picks among the health-monitor/breaker-routable replicas; cluster
//     faults (route failures, hangs, slow windows, crashes that split
//     the batch and re-dispatch the rest) fire against it, and hedging
//     may move the batch to a faster replica
//     ▼
//   service timeline, per replica: local cycle, warm flag, datapath
//     invocation coordinate, fault cursor and dirty weight bits.  Each
//     committed batch is served slot by slot: shed tombstones are
//     skipped; datapath faults fire (bit flips, transients, stalls);
//     requests past their deadline expire; dirty weights are scrubbed;
//     transients retry with bounded exponential backoff (kFaulted when
//     exhausted); slow windows add their penalty.
//
// The routing view is the scheduler's optimistic model (it counts shed
// tombstones and ignores datapath delays); the service timeline is what
// the replica actually does.  Keeping them apart is the policy every
// published artifact depends on.
//
// Output: every request's record except `output`, `dram_bytes` and
// `joules` (which need the datapath), per-replica fault records, busy
// intervals and counters, the cluster episode log — and, for each
// closed batch, a Dispatch listing the kOk services an executor must
// run on which replica, with the planned `weights_resident` and the
// image changes (bit flips, weight scrubs) to apply before each run.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/health_monitor.h"
#include "cluster/shard_router.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "serve/server_stats.h"
#include "sim/perf_model.h"

namespace db::serve {

/// What happens when the simulated queue (the open batch's live
/// members) is full.
///   * kBlock      — nothing: the request joins the batch anyway.
///   * kReject     — the request completes kRejected at its arrival.
///   * kShedOldest — the oldest live member completes kShed; it stays in
///                   its batch as a tombstone the service skips.
enum class AdmissionPolicy { kBlock, kReject, kShedOldest };

constexpr const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kBlock: return "block";
    case AdmissionPolicy::kReject: return "reject";
    case AdmissionPolicy::kShedOldest: return "shed-oldest";
  }
  return "unknown";
}

/// Saturating exponential-backoff charge: base << attempt, computed
/// without shifting past the int64 width and clamped to `cap`.  Pure;
/// exposed so tests can pin the arithmetic.
std::int64_t RetryBackoffCycles(std::int64_t base, int attempt,
                                std::int64_t cap);

/// Cycles of `intervals` (sorted, disjoint) falling inside the window
/// [begin, end) — the per-replica busy share a time-series sample reads.
std::int64_t BusyInWindow(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& intervals,
    std::int64_t begin, std::int64_t end);

struct ServeOptions {
  /// Number of simulated accelerator replicas in the pool.
  int replicas = 2;
  /// How closed batches are spread across the replicas.  All three
  /// policies are deterministic; kLeastLoaded reproduces the historical
  /// earliest-free-datapath placement.
  cluster::RouterPolicy router = cluster::RouterPolicy::kLeastLoaded;
  /// Content hash pinning this server's model under kHashAffinity
  /// (typically the DesignKey digest).  A single-model pool then keeps
  /// one replica hot — the intended shard-per-model behaviour.
  std::uint64_t affinity_hash = 0;
  std::int64_t max_batch_size = 4;
  std::int64_t linger_cycles = 0;
  /// Simulated queue bound: the open batch's live (not shed) members.
  std::size_t queue_capacity = 64;
  /// What happens when the simulated queue is full (see
  /// AdmissionPolicy); a pure function of the arrival stream.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Default relative deadline: a request submitted without an explicit
  /// deadline must start service within this many cycles of arrival.
  /// 0 = no default deadline.
  std::int64_t deadline_cycles = 0;
  /// Seeded deterministic fault campaign (empty = fault-free serving).
  fault::FaultPlan faults;
  /// Transient-failure retry policy: at most `max_retries` attempts are
  /// retried per request, each charging the invocation cost plus
  /// `retry_backoff_cycles << attempt` simulated cycles; exhaustion
  /// completes the request as StatusCode::kFaulted.
  int max_retries = 3;
  std::int64_t retry_backoff_cycles = 64;
  /// Saturation cap for the exponential backoff: the charge for attempt
  /// k is min(retry_backoff_cycles << k, max_retry_backoff_cycles),
  /// computed shift-safely (RetryBackoffCycles), so huge deadlines or
  /// retry counts can never overflow int64 cycle math.
  std::int64_t max_retry_backoff_cycles = std::int64_t{1} << 32;
  /// Opt-in request hedging: when a batch's planned completion exceeds
  /// its ready cycle by more than this many cycles, the planner places
  /// a duplicate on the best other healthy replica starting at
  /// ready + hedge_after_cycles and keeps whichever copy finishes
  /// first; the loser occupies its replica until the winner completes
  /// but never runs the datapath, so outputs stay bit-identical to the
  /// unhedged run.  0 = disabled.
  std::int64_t hedge_after_cycles = 0;
  /// Per-replica circuit breaker (closed/open/half-open with a
  /// cycle-based cooldown); disabled unless `breaker.enabled`.
  cluster::BreakerOptions breaker;
  /// Replica health-monitor knobs (heartbeat grid, miss/failure
  /// thresholds); the readmit scrub charge is overwritten with the
  /// weight-scrub cost.
  cluster::HealthOptions health;
  std::string device_name = "zynq-7045";
  /// Base performance-model options; the server manages
  /// `weights_resident` itself (cold first image per replica, steady
  /// after), matching HostRuntime::InferBatch.
  PerfOptions perf;
  /// Optional observability sinks.  Request lifecycle spans — queue
  /// residency on "serve/queue" (async) plus batch and per-request
  /// service spans on "serve/worker N" — fault/recovery spans, and the
  /// "serve.*" / "fault.*" metrics are published once, inside the first
  /// Drain() call, from the planned records after every lane joined;
  /// the lane threads never touch these sinks, so the emitted trace is
  /// byte-identical across runs.  `perf.metrics` additionally receives
  /// the lanes' per-invocation "sim.*" counters (commutative, still
  /// deterministic).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional deterministic load time-series sink, populated once at
  /// Drain() from the final records and replica busy intervals.  Series
  /// (all sampled on the same simulated-cycle grid): "load.queue_depth"
  /// (requests whose service has not started), "load.in_flight"
  /// (requests inside a datapath window), "load.sheds" (cumulative
  /// shed + rejected + expired + faulted dispositions) and
  /// "load.replica<r>.busy" (busy fraction of the *preceding* sample
  /// window, in [0, 1]).
  obs::TimeSeriesRecorder* timeseries = nullptr;
  /// Sample interval in simulated cycles; 0 picks the smallest power of
  /// two giving at most 64 sample boundaries over the makespan, so the
  /// export stays compact for any workload length.
  std::int64_t timeseries_interval_cycles = 0;
};

/// The design's deterministic cycle charges.
struct PlanCosts {
  std::int64_t cold_cycles = 0;    // an invocation without resident weights
  std::int64_t steady_cycles = 0;  // an invocation with resident weights
  std::int64_t scrub_cycles = 0;   // one weight-region scrub-and-reload
};

/// One change an executor applies to a replica's DRAM image: flip bit
/// `bit` of byte `addr`, or (scrub) reload every weight region from the
/// provisioned image.
struct ImageOp {
  bool scrub = false;
  std::int64_t addr = 0;
  int bit = 0;
};

/// One kOk service: run request `request_id` on the replica's datapath
/// with `weights_resident`, after applying `image_ops` in order.
struct PlannedService {
  std::int64_t request_id = 0;
  bool weights_resident = false;
  std::vector<ImageOp> image_ops;
};

/// The kOk services of one committed batch, in service order.
struct Dispatch {
  int replica = 0;
  std::vector<PlannedService> services;
};

/// One replica's service timeline and what it accumulated.
struct ReplicaTimeline {
  bool warm = false;             // weights resident after a kOk service
  std::int64_t local_cycle = 0;  // the replica's own simulated clock
  std::int64_t busy_cycles = 0;  // kOk service cycles (penalties included)
  std::int64_t batches = 0;      // batches committed here
  std::int64_t requests = 0;     // kOk services
  std::int64_t invocations = 0;  // datapath fault coordinate
  std::size_t fault_cursor = 0;  // next unfired datapath event
  std::int64_t scrubs = 0;       // weight scrubs and readmit passes
  std::vector<fault::FaultRecord> fault_records;
  /// Simulated [start, end) windows the datapath was occupied — service
  /// runs plus charged recovery (retry attempts, stalls, scrubs,
  /// cancelled hedge copies) — in service order, so sorted and
  /// disjoint.
  std::vector<std::pair<std::int64_t, std::int64_t>> busy_intervals;
  /// Weight-region (addr, bit) toggles since the last scrub or readmit;
  /// a second flip of the same bit cancels the first.
  std::set<std::pair<std::int64_t, int>> dirty_bits;
  /// Image changes not yet handed to a kOk service.
  std::vector<ImageOp> pending_ops;
};

/// A cluster-track episode (crash, hang, slow window, route failure,
/// hedge), in planning order.
struct ClusterEpisode {
  std::string name;
  int replica = -1;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Cluster-resilience accounting.
struct ClusterCounts {
  std::int64_t crashes = 0;
  std::int64_t hangs = 0;
  std::int64_t slow_faults = 0;
  std::int64_t route_failures = 0;
  std::int64_t redispatched = 0;  // requests moved off a crashed replica
  std::int64_t readmissions = 0;
  std::int64_t hedges = 0;
  std::int64_t hedge_wins = 0;
};

class Planner {
 public:
  /// Validates the options; `options.replicas` sizes the pool.
  Planner(ServeOptions options, PlanCosts costs);

  /// Admit the next request.  Arrival cycles must be non-decreasing;
  /// `deadline_cycle` is the absolute cycle service must start by (0:
  /// the options' default, or none).  Returns the dense request id and
  /// appends a Dispatch to `out` for every batch this arrival closed
  /// that has kOk services.
  std::int64_t Submit(std::int64_t arrival_cycle, std::int64_t deadline_cycle,
                      std::vector<Dispatch>& out);

  /// End of the stream: close the open batch (ready at its last
  /// arrival) and apply every pending health transition.
  void Flush(std::vector<Dispatch>& out);

  /// Records by request id (outputs, dram_bytes and joules empty).
  const std::vector<ServedRequest>& records() const { return records_; }
  /// An executor fills in `output`, `dram_bytes` and `joules` here.
  ServedRequest& record(std::int64_t id) {
    return records_[static_cast<std::size_t>(id)];
  }
  std::vector<ServedRequest> TakeRecords() { return std::move(records_); }

  /// The smallest request id a later Submit or Flush may still
  /// dispatch: the open batch's first member, or the next id.
  std::int64_t first_open_id() const;

  const ServeOptions& options() const { return options_; }
  const PlanCosts& costs() const { return costs_; }
  int replicas() const { return options_.replicas; }
  const ReplicaTimeline& timeline(int r) const {
    return timelines_[static_cast<std::size_t>(r)];
  }
  const std::vector<ClusterEpisode>& cluster_log() const {
    return cluster_log_;
  }
  const ClusterCounts& counts() const { return counts_; }
  std::int64_t batches_dispatched() const { return batches_dispatched_; }
  const cluster::ReplicaHealthMonitor& health_monitor() const {
    return monitor_;
  }
  const cluster::CircuitBreaker& circuit_breaker() const {
    return breaker_;
  }

 private:
  /// A closed batch: its id, ready cycle and member request ids.
  struct Batch {
    std::int64_t id = 0;
    std::int64_t ready_cycle = 0;
    std::vector<std::int64_t> members;
  };
  /// A batch's window on a replica's routing view: start/finish from
  /// the planned free cycle, per-slot slow surcharges from the
  /// replica's slow window.  Side-effect free so hedging can evaluate
  /// alternates before committing.
  struct BatchPlan {
    std::int64_t start = 0;
    std::int64_t finish = 0;
    std::vector<std::int64_t> penalties;
  };
  struct CrashSplit {
    bool crashed = false;
    std::int64_t event_invocation = 0;  // clamped into the window
    std::int64_t down_cycles = 0;
  };
  /// Per-replica routing view.
  struct RoutingView {
    std::int64_t slow_factor = 1;
    std::int64_t slow_services = 0;  // invocations the factor still covers
    std::int64_t scheduled_invocations = 0;  // cluster fault coordinate
    std::size_t cluster_cursor = 0;
    bool scheduled_warm = false;
  };

  void CloseBatch(std::int64_t ready_cycle, std::vector<Dispatch>& out);
  /// Place `batch` on the cluster at `ready`: health-masked routing,
  /// cluster-fault firing (route failures re-route, crashes split the
  /// batch and re-dispatch the remainder), optional hedging, then
  /// commit.
  void ScheduleOnCluster(Batch batch, std::int64_t ready,
                         std::vector<Dispatch>& out);
  BatchPlan PlanBatch(int r, std::size_t size, std::int64_t ready) const;
  /// Fire replica r's pending cluster events for a dispatch covering
  /// scheduled invocations [scheduled, scheduled + size).  Returns false
  /// when a route failure consumed this attempt (caller re-routes);
  /// fills `crash` when the replica crashes inside the window.
  bool FireClusterEvents(int r, std::int64_t size, std::int64_t ready,
                         CrashSplit* crash);
  /// Advance r's routing view per `plan`, then serve the batch on r's
  /// service timeline.
  void CommitBatch(int r, const Batch& batch, const BatchPlan& plan,
                   std::vector<Dispatch>& out);
  /// Serve `batch` slot by slot on r's service timeline.
  void Serve(int r, const Batch& batch, const BatchPlan& plan,
             std::vector<Dispatch>& out);
  /// Scrub-and-readmit a crashed replica at `readmit_cycle`: charge the
  /// scrub, restore dirty weights, drop warm state.
  void Readmit(int r, std::int64_t readmit_cycle);
  /// The cancelled copy of a hedge occupies r over [start, cancel)
  /// without running the datapath.
  void OccupyCancelled(int r, std::int64_t start, std::int64_t cancel);
  /// Queue a weight scrub on r's image if any weight bit is dirty.
  bool ScrubIfDirty(ReplicaTimeline& rep);
  void Complete(std::int64_t id, StatusCode status,
                std::int64_t finish_cycle);
  void LogClusterEvent(const char* name, int replica, std::int64_t start,
                       std::int64_t end,
                       std::vector<std::pair<std::string, std::string>>
                           args = {});

  ServeOptions options_;
  PlanCosts costs_;
  fault::FaultInjector injector_;
  cluster::ShardRouter router_;
  cluster::ReplicaHealthMonitor monitor_;
  cluster::CircuitBreaker breaker_;

  std::vector<ServedRequest> records_;
  std::int64_t completed_ = 0;
  std::int64_t last_arrival_ = 0;

  // The open batch: every admitted member (shed tombstones included)
  // and its live members, oldest first.
  std::vector<std::int64_t> open_;
  std::deque<std::int64_t> live_;
  std::int64_t next_batch_id_ = 0;
  std::int64_t redispatch_batches_ = 0;  // fresh ids for remainders

  std::vector<std::int64_t> free_cycle_;  // routing view: planned free
  std::vector<RoutingView> routing_;
  std::vector<ReplicaTimeline> timelines_;
  std::int64_t batches_dispatched_ = 0;
  std::vector<ClusterEpisode> cluster_log_;
  ClusterCounts counts_;
};

/// One submission of a planned stream.
struct Arrival {
  std::int64_t arrival_cycle = 0;
  std::int64_t deadline_cycle = 0;  // 0 = the options' default
};

/// Plan a whole stream: a flushed Planner (records, timelines, cluster
/// log and counters) for `arrivals` submitted in order.
Planner Plan(std::span<const Arrival> arrivals, const ServeOptions& options,
             const PlanCosts& costs);

}  // namespace db::serve
