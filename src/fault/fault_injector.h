// FaultInjector: hands a FaultPlan's events to the serving planner, and
// the integrity primitives (weight-region compare, scrub-and-reload)
// the replica lanes use to survive them.
//
// The plan is partitioned per replica once, at construction, into an
// immutable datapath slice (ForWorker) and a cluster slice
// (ClusterForReplica).  The planner keeps a cursor into each and fires
// every event whose `invocation` coordinate has been reached — the
// firing order is a pure function of the plan and the schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/memory_image.h"
#include "fault/fault_plan.h"

namespace db::fault {

/// What one worker did about one fault (injection or recovery), with
/// the simulated-cycle window it charged.  The server publishes these
/// as "fault"-category spans and fault.* metrics at drain time.
struct FaultRecord {
  FaultKind kind = FaultKind::kBitFlip;
  bool recovery = false;  // true for scrub/retry windows, false at injection
  int worker = 0;
  std::int64_t invocation = 0;
  std::int64_t request_id = -1;
  std::int64_t start_cycle = 0;
  std::int64_t end_cycle = 0;
  std::int64_t detail = 0;  // flip addr / stall or backoff cycles / attempt
};

class FaultInjector {
 public:
  /// Partition `plan` across `workers` worker slices, each sorted by
  /// invocation (stable, so equal coordinates keep plan order).
  /// Events naming a worker outside [0, workers) throw db::Error.
  FaultInjector(const FaultPlan& plan, int workers);

  /// Worker `w`'s datapath events (kBitFlip / kTransient / kStall),
  /// sorted by invocation.  Cluster-level kinds never appear here.
  const std::vector<FaultEvent>& ForWorker(int worker) const;

  /// Replica `r`'s cluster-level events (kCrash / kHang / kSlow /
  /// kRouteFail), sorted by invocation.  The `invocation` coordinate of
  /// a cluster event counts *scheduled* services on the replica — the
  /// planner's routing view — not datapath invocations; the planner
  /// fires each event at the dispatch whose invocation window reaches
  /// it.
  const std::vector<FaultEvent>& ClusterForReplica(int replica) const;

  /// True if `worker`'s slice contains any weight-region bit flip — the
  /// only fault kind that requires per-invocation integrity checks.
  bool HasWeightFlips(int worker) const;

  std::size_t total_events() const { return total_events_; }
  std::size_t cluster_events() const { return cluster_events_; }

 private:
  std::vector<std::vector<FaultEvent>> per_worker_;
  std::vector<std::vector<FaultEvent>> per_replica_cluster_;
  std::vector<bool> has_weight_flips_;
  std::size_t total_events_ = 0;
  std::size_t cluster_events_ = 0;
};

/// True when every weight region of `image` holds exactly the bytes of
/// the provisioned `golden` image — the scrub engine's integrity check.
/// Blob/activation regions are excluded: they are rewritten on every
/// invocation, so corruption there is overwritten before anything reads
/// it.
bool WeightsMatch(const MemoryImage& image, const MemoryImage& golden,
                  const MemoryMap& map);

/// Scrub-and-reload: re-copy every weight region of `image` from the
/// provisioned `golden` image.  Returns the number of bytes copied
/// (the basis for the recovery-cycle charge).
std::int64_t ScrubWeights(MemoryImage& image, const MemoryImage& golden,
                          const MemoryMap& map);

/// Total bytes across the map's weight regions.
std::int64_t WeightRegionBytes(const MemoryMap& map);

}  // namespace db::fault
