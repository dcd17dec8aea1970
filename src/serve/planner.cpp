#include "serve/planner.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace db::serve {

std::int64_t RetryBackoffCycles(std::int64_t base, int attempt,
                                std::int64_t cap) {
  if (base <= 0) return 0;
  if (attempt < 0) attempt = 0;
  // `base << attempt` overflows exactly when base > cap >> attempt (or
  // the shift itself would exceed the int64 width); both saturate to the
  // cap instead of wrapping.
  if (attempt >= 63 || base > (cap >> attempt)) return cap;
  return std::min(cap, base << attempt);
}

std::int64_t BusyInWindow(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& intervals,
    std::int64_t begin, std::int64_t end) {
  std::int64_t busy = 0;
  for (const auto& [lo, hi] : intervals) {
    if (lo >= end) break;  // sorted: nothing later can overlap
    busy += std::max<std::int64_t>(
        0, std::min(hi, end) - std::max(lo, begin));
  }
  return busy;
}

namespace {

/// Validated before any member consumes the replica count.
ServeOptions Checked(ServeOptions options) {
  DB_CHECK_MSG(options.replicas >= 1, "server needs at least one replica");
  DB_CHECK_MSG(options.max_batch_size >= 1,
               "max_batch_size must be at least 1");
  DB_CHECK_MSG(options.linger_cycles >= 0,
               "linger_cycles must be non-negative");
  DB_CHECK_MSG(options.queue_capacity >= 1,
               "queue capacity must be at least 1");
  DB_CHECK_MSG(options.max_retries >= 0, "max_retries must be >= 0");
  DB_CHECK_MSG(options.retry_backoff_cycles >= 1,
               "retry_backoff_cycles must be >= 1");
  DB_CHECK_MSG(options.max_retry_backoff_cycles >=
                   options.retry_backoff_cycles,
               "max_retry_backoff_cycles must be >= retry_backoff_cycles");
  DB_CHECK_MSG(options.hedge_after_cycles >= 0,
               "hedge_after_cycles must be >= 0");
  DB_CHECK_MSG(options.deadline_cycles >= 0,
               "deadline_cycles must be >= 0");
  return options;
}

}  // namespace

Planner::Planner(ServeOptions options, PlanCosts costs)
    : options_(Checked(std::move(options))),
      costs_(costs),
      injector_(options_.faults, options_.replicas),
      router_(options_.router, options_.replicas, options_.affinity_hash),
      monitor_(options_.replicas, options_.health),
      breaker_(options_.replicas, options_.breaker) {
  // A readmitted replica turns kHealthy exactly when its scrub pass
  // finishes in simulated time.
  monitor_.set_readmit_scrub_cycles(costs_.scrub_cycles);
  const auto n = static_cast<std::size_t>(options_.replicas);
  free_cycle_.assign(n, 0);
  routing_.assign(n, RoutingView{});
  timelines_.assign(n, ReplicaTimeline{});
}

void Planner::Complete(std::int64_t id, StatusCode status,
                       std::int64_t finish_cycle) {
  ServedRequest& record = records_[static_cast<std::size_t>(id)];
  DB_CHECK_MSG(record.status == StatusCode::kOk, "request completed twice");
  record.status = status;
  record.finish_cycle = finish_cycle;
  ++completed_;
}

std::int64_t Planner::first_open_id() const {
  return open_.empty() ? static_cast<std::int64_t>(records_.size())
                       : open_.front();
}

std::int64_t Planner::Submit(std::int64_t arrival_cycle,
                             std::int64_t deadline_cycle,
                             std::vector<Dispatch>& out) {
  DB_CHECK_MSG(arrival_cycle >= last_arrival_,
               "arrival cycles must be non-decreasing");
  DB_CHECK_MSG(deadline_cycle == 0 || deadline_cycle >= arrival_cycle,
               "deadline precedes arrival");
  last_arrival_ = arrival_cycle;
  if (deadline_cycle == 0 && options_.deadline_cycles > 0)
    deadline_cycle = arrival_cycle + options_.deadline_cycles;
  const auto id = static_cast<std::int64_t>(records_.size());
  ServedRequest& record = records_.emplace_back();
  record.id = id;
  record.arrival_cycle = arrival_cycle;
  record.deadline_cycle = deadline_cycle;

  if (!open_.empty()) {
    // The open batch's linger timer expired before this arrival.
    const std::int64_t expiry =
        records_[static_cast<std::size_t>(open_.front())].arrival_cycle +
        options_.linger_cycles;
    if (arrival_cycle > expiry) CloseBatch(expiry, out);
  }
  if (live_.size() >= options_.queue_capacity) {
    switch (options_.admission) {
      case AdmissionPolicy::kBlock:
        break;
      case AdmissionPolicy::kReject:
        Complete(id, StatusCode::kRejected, arrival_cycle);
        return id;
      case AdmissionPolicy::kShedOldest:
        // The oldest live member stays in its batch as a tombstone, so
        // batch composition does not depend on the policy.
        Complete(live_.front(), StatusCode::kShed, arrival_cycle);
        live_.pop_front();
        break;
    }
  }
  open_.push_back(id);
  live_.push_back(id);
  if (static_cast<std::int64_t>(open_.size()) == options_.max_batch_size)
    CloseBatch(arrival_cycle, out);
  return id;
}

void Planner::Flush(std::vector<Dispatch>& out) {
  // End of intake is explicit, so the last batch dispatches at its last
  // member's arrival instead of waiting out the linger.
  if (!open_.empty())
    CloseBatch(records_[static_cast<std::size_t>(open_.back())].arrival_cycle,
               out);
  // Apply health transitions still pending past the last dispatch so
  // the transition log covers every scheduled recovery.
  monitor_.Flush();
  DB_CHECK_MSG(completed_ == static_cast<std::int64_t>(records_.size()),
               "planner left requests incomplete");
}

void Planner::CloseBatch(std::int64_t ready_cycle,
                         std::vector<Dispatch>& out) {
  Batch batch;
  batch.id = next_batch_id_++;
  batch.ready_cycle = ready_cycle;
  batch.members = std::move(open_);
  open_.clear();
  live_.clear();
  ScheduleOnCluster(std::move(batch), ready_cycle, out);
}

Planner::BatchPlan Planner::PlanBatch(int r, std::size_t size,
                                      std::int64_t ready) const {
  // The routing view: the fault-free plan plus the replica's *known*
  // cluster state (slow window).  Shed tombstones and datapath delays
  // surface only on the service timeline.
  const RoutingView& view = routing_[static_cast<std::size_t>(r)];
  BatchPlan plan;
  plan.start = std::max(ready, free_cycle_[static_cast<std::size_t>(r)]);
  std::int64_t duration = 0;
  std::int64_t slow_left = view.slow_services;
  for (std::size_t i = 0; i < size; ++i) {
    const bool warm = view.scheduled_warm || i > 0;
    const std::int64_t base =
        warm ? costs_.steady_cycles : costs_.cold_cycles;
    std::int64_t penalty = 0;
    if (slow_left > 0) {
      penalty = base * (view.slow_factor - 1);
      --slow_left;
    }
    plan.penalties.push_back(penalty);
    duration += base + penalty;
  }
  plan.finish = plan.start + duration;
  return plan;
}

bool Planner::FireClusterEvents(int r, std::int64_t size, std::int64_t ready,
                                CrashSplit* crash) {
  const std::vector<fault::FaultEvent>& events =
      injector_.ClusterForReplica(r);
  RoutingView& view = routing_[static_cast<std::size_t>(r)];
  std::int64_t& free = free_cycle_[static_cast<std::size_t>(r)];
  while (view.cluster_cursor < events.size() &&
         events[view.cluster_cursor].invocation <
             view.scheduled_invocations + size) {
    const fault::FaultEvent& event = events[view.cluster_cursor++];
    switch (event.kind) {
      case fault::FaultKind::kRouteFail:
        // This dispatch attempt never reaches the replica; the caller
        // re-routes to another one.
        ++counts_.route_failures;
        monitor_.ReportFailure(r, ready);
        breaker_.RecordFailure(r, ready);
        LogClusterEvent("route_fail", r, ready, ready);
        return false;
      case fault::FaultKind::kHang: {
        // The replica stalls for a fixed window before accepting work;
        // missed heartbeats drive the kSuspect/kDown escalation.
        const std::int64_t begin = std::max(ready, free);
        const std::int64_t end = begin + event.stall_cycles;
        free = end;
        monitor_.ReportUnresponsive(r, begin, end);
        ++counts_.hangs;
        LogClusterEvent("hang", r, begin, end,
                        {{"cycles", std::to_string(event.stall_cycles)}});
        break;
      }
      case fault::FaultKind::kSlow:
        // The next `slow_services` invocations on the replica cost
        // `slow_factor` times the planned charge.
        view.slow_factor = event.slow_factor;
        view.slow_services = event.slow_services;
        ++counts_.slow_faults;
        LogClusterEvent("slow", r, ready, ready,
                        {{"factor", std::to_string(event.slow_factor)},
                         {"services", std::to_string(event.slow_services)}});
        break;
      case fault::FaultKind::kCrash:
        // The replica dies partway through the window; the caller splits
        // the batch at the crash coordinate and re-dispatches the rest.
        crash->crashed = true;
        crash->event_invocation =
            std::max(event.invocation, view.scheduled_invocations);
        crash->down_cycles = event.down_cycles;
        return true;
      default:
        DB_CHECK_MSG(false, "datapath fault routed to the cluster partition");
    }
  }
  return true;
}

void Planner::LogClusterEvent(
    const char* name, int replica, std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::string, std::string>> args) {
  cluster_log_.push_back(
      ClusterEpisode{name, replica, start, end, std::move(args)});
}

void Planner::ScheduleOnCluster(Batch batch, std::int64_t ready,
                                std::vector<Dispatch>& out) {
  monitor_.AdvanceTo(ready);
  const int n = options_.replicas;
  const auto size = static_cast<std::int64_t>(batch.members.size());

  // Health-masked routing with deterministic re-route on route
  // failures: every attempt excludes replicas already tried for this
  // batch.  Liveness over purity — with the whole pool non-routable the
  // batch still lands somewhere (the readmitting replica's free cycle
  // already carries its down time).
  std::vector<bool> attempted(static_cast<std::size_t>(n), false);
  int r = -1;
  for (;;) {
    std::vector<bool> routable(static_cast<std::size_t>(n));
    bool any = false;
    for (int i = 0; i < n; ++i) {
      routable[static_cast<std::size_t>(i)] =
          !attempted[static_cast<std::size_t>(i)] && monitor_.Routable(i) &&
          breaker_.Allows(i, ready);
      any = any || routable[static_cast<std::size_t>(i)];
    }
    if (!any) {
      for (int i = 0; i < n; ++i)
        routable[static_cast<std::size_t>(i)] =
            !attempted[static_cast<std::size_t>(i)];
      any = std::find(routable.begin(), routable.end(), true) !=
            routable.end();
    }
    if (!any) routable.assign(static_cast<std::size_t>(n), true);
    r = router_.Route(free_cycle_, routable);
    CrashSplit crash;
    if (!FireClusterEvents(r, size, ready, &crash)) {
      attempted[static_cast<std::size_t>(r)] = true;
      continue;
    }
    if (!crash.crashed) break;

    // Crash inside the window: the prefix before the crash coordinate
    // was served by the dying replica; the remainder is re-dispatched to
    // a survivor at the crash cycle under a fresh id (1 << 20) + k.
    // Those ids collide with dense batch ids once more than 2^20 batches
    // close; nothing checks this.
    RoutingView& view = routing_[static_cast<std::size_t>(r)];
    const std::int64_t prefix =
        crash.event_invocation - view.scheduled_invocations;
    DB_CHECK(prefix >= 0 && prefix < size);
    Batch served;
    served.id = batch.id;
    served.ready_cycle = batch.ready_cycle;
    served.members.assign(batch.members.begin(),
                          batch.members.begin() + prefix);
    Batch rest;
    rest.id = (std::int64_t{1} << 20) + redispatch_batches_++;
    rest.ready_cycle = batch.ready_cycle;
    rest.members.assign(batch.members.begin() + prefix,
                        batch.members.end());
    std::int64_t crash_cycle =
        std::max(ready, free_cycle_[static_cast<std::size_t>(r)]);
    if (prefix > 0) {
      const BatchPlan plan = PlanBatch(r, served.members.size(), ready);
      crash_cycle = plan.finish;
      CommitBatch(r, served, plan, out);
    }
    ++counts_.crashes;
    monitor_.ReportCrash(r, crash_cycle, crash.down_cycles);
    breaker_.RecordFailure(r, crash_cycle);
    const std::int64_t readmit = crash_cycle + crash.down_cycles;
    // The replica is gone until `readmit`, then pays the scrub pass
    // before its datapath frees; a reboot loses weight residency.
    free_cycle_[static_cast<std::size_t>(r)] = readmit + costs_.scrub_cycles;
    view.scheduled_warm = false;
    view.slow_factor = 1;
    view.slow_services = 0;
    LogClusterEvent("crash", r, crash_cycle, readmit + costs_.scrub_cycles,
                    {{"down", std::to_string(crash.down_cycles)},
                     {"redispatched", std::to_string(rest.members.size())}});
    Readmit(r, readmit);
    ++counts_.readmissions;
    counts_.redispatched += static_cast<std::int64_t>(rest.members.size());
    ScheduleOnCluster(std::move(rest), std::max(ready, crash_cycle), out);
    return;
  }

  BatchPlan primary = PlanBatch(r, batch.members.size(), ready);
  if (options_.hedge_after_cycles > 0 &&
      primary.finish - ready > options_.hedge_after_cycles) {
    // Hedge: plan a duplicate on the best other healthy replica issued
    // once the latency threshold elapses; keep whichever copy finishes
    // first.  The loser occupies its replica until the winner completes
    // but never serves the requests.
    const std::int64_t issue = ready + options_.hedge_after_cycles;
    int best = -1;
    BatchPlan alternate;
    for (int i = 0; i < n; ++i) {
      if (i == r || !monitor_.Routable(i) || !breaker_.Allows(i, issue))
        continue;
      BatchPlan candidate = PlanBatch(i, batch.members.size(), issue);
      if (best < 0 || candidate.finish < alternate.finish) {
        best = i;
        alternate = std::move(candidate);
      }
    }
    if (best >= 0) {
      ++counts_.hedges;
      if (alternate.finish < primary.finish) {
        ++counts_.hedge_wins;
        OccupyCancelled(r, primary.start, alternate.finish);
        LogClusterEvent("hedge", best, issue, alternate.finish,
                        {{"primary", std::to_string(r)}, {"won", "1"}});
        CommitBatch(best, batch, alternate, out);
        return;
      }
      OccupyCancelled(best, alternate.start, primary.finish);
      LogClusterEvent("hedge", best, issue, primary.finish,
                      {{"primary", std::to_string(r)}, {"won", "0"}});
    }
  }
  CommitBatch(r, batch, primary, out);
}

void Planner::OccupyCancelled(int r, std::int64_t start,
                              std::int64_t cancel) {
  if (start >= cancel) return;
  free_cycle_[static_cast<std::size_t>(r)] = cancel;
  ReplicaTimeline& rep = timelines_[static_cast<std::size_t>(r)];
  const std::int64_t begin = std::max(rep.local_cycle, start);
  const std::int64_t end = std::max(cancel, begin);
  if (begin < end) rep.busy_intervals.emplace_back(begin, end);
  rep.local_cycle = end;
}

void Planner::CommitBatch(int r, const Batch& batch, const BatchPlan& plan,
                          std::vector<Dispatch>& out) {
  RoutingView& view = routing_[static_cast<std::size_t>(r)];
  const auto size = static_cast<std::int64_t>(batch.members.size());
  free_cycle_[static_cast<std::size_t>(r)] = plan.finish;
  view.scheduled_warm = true;
  view.scheduled_invocations += size;
  view.slow_services = std::max<std::int64_t>(0, view.slow_services - size);
  ++batches_dispatched_;
  // A committed dispatch is the monitor/breaker success signal: the
  // replica accepted work at the planned start.
  breaker_.RecordSuccess(r, plan.start);
  monitor_.ReportSuccess(r, plan.start);
  Serve(r, batch, plan, out);
}

bool Planner::ScrubIfDirty(ReplicaTimeline& rep) {
  if (rep.dirty_bits.empty()) return false;
  rep.dirty_bits.clear();
  rep.pending_ops.push_back(ImageOp{true, 0, 0});
  return true;
}

void Planner::Readmit(int r, std::int64_t readmit_cycle) {
  ReplicaTimeline& rep = timelines_[static_cast<std::size_t>(r)];
  const std::int64_t begin = std::max(rep.local_cycle, readmit_cycle);
  // Readmission re-verifies the weight regions (a crashed card reboots
  // from unknown DRAM) and reloads on mismatch; the charge is the same
  // scrub cost either way.
  ScrubIfDirty(rep);
  ++rep.scrubs;
  fault::FaultRecord record;
  record.kind = fault::FaultKind::kCrash;
  record.recovery = true;  // the scrub-and-readmit window
  record.worker = r;
  record.invocation = rep.invocations;
  record.start_cycle = begin;
  record.end_cycle = begin + costs_.scrub_cycles;
  record.detail = costs_.scrub_cycles;
  rep.fault_records.push_back(record);
  rep.busy_intervals.emplace_back(begin, begin + costs_.scrub_cycles);
  rep.local_cycle = begin + costs_.scrub_cycles;
  rep.warm = false;  // the reboot lost weight residency
}

void Planner::Serve(int r, const Batch& batch, const BatchPlan& plan,
                    std::vector<Dispatch>& out) {
  ReplicaTimeline& rep = timelines_[static_cast<std::size_t>(r)];
  const std::vector<fault::FaultEvent>& events = injector_.ForWorker(r);
  // Recovery may have pushed the service timeline past the routing
  // view's start; service never begins before the datapath frees.
  std::int64_t cycle = std::max(plan.start, rep.local_cycle);
  const std::int64_t batch_start = cycle;
  ++rep.batches;
  Dispatch dispatch;
  dispatch.replica = r;
  for (std::size_t slot = 0; slot < batch.members.size(); ++slot) {
    ServedRequest& request =
        records_[static_cast<std::size_t>(batch.members[slot])];
    // Shed tombstone: evicted at admission after its batch membership
    // was fixed.
    if (request.status != StatusCode::kOk) continue;
    const auto fault_record = [&](fault::FaultKind kind, bool recovery,
                                  std::int64_t invocation, std::int64_t end,
                                  std::int64_t detail) {
      fault::FaultRecord record;
      record.kind = kind;
      record.recovery = recovery;
      record.worker = r;
      record.invocation = invocation;
      record.request_id = request.id;
      record.start_cycle = cycle;
      record.end_cycle = end;
      record.detail = detail;
      rep.fault_records.push_back(record);
    };

    // 1. Fire every datapath fault bound to this invocation.
    std::int64_t stall = 0;
    int failures = 0;
    while (rep.fault_cursor < events.size() &&
           events[rep.fault_cursor].invocation <= rep.invocations) {
      const fault::FaultEvent& event = events[rep.fault_cursor++];
      switch (event.kind) {
        case fault::FaultKind::kBitFlip: {
          rep.pending_ops.push_back(ImageOp{false, event.addr, event.bit});
          if (event.weight_region) {
            const auto [it, fresh] =
                rep.dirty_bits.emplace(event.addr, event.bit);
            if (!fresh) rep.dirty_bits.erase(it);  // flipped back
          }
          fault_record(event.kind, false, rep.invocations, cycle, event.addr);
          break;
        }
        case fault::FaultKind::kTransient:
          ++failures;
          fault_record(event.kind, false, rep.invocations, cycle, failures);
          break;
        case fault::FaultKind::kStall:
          fault_record(event.kind, false, rep.invocations,
                       cycle + event.stall_cycles, event.stall_cycles);
          stall += event.stall_cycles;
          break;
        default:
          DB_CHECK_MSG(false, "cluster fault routed to a replica timeline");
      }
    }
    const std::int64_t invocation = rep.invocations++;
    std::int64_t recovery = stall;
    if (stall > 0) rep.busy_intervals.emplace_back(cycle, cycle + stall);
    cycle += stall;
    request.batch_id = batch.id;
    request.worker = r;

    // 2. Deadline: an expired request completes without occupying the
    // datapath slot.
    if (request.deadline_cycle > 0 && cycle > request.deadline_cycle) {
      request.recovery_cycles = recovery;
      Complete(request.id, StatusCode::kDeadlineExceeded, cycle);
      continue;
    }

    // 3. Weight-region integrity: scrub-and-reload any dirty weights.
    if (ScrubIfDirty(rep)) {
      fault_record(fault::FaultKind::kBitFlip, true, invocation,
                   cycle + costs_.scrub_cycles, costs_.scrub_cycles);
      ++rep.scrubs;
      rep.busy_intervals.emplace_back(cycle, cycle + costs_.scrub_cycles);
      cycle += costs_.scrub_cycles;
      recovery += costs_.scrub_cycles;
    }

    // 4. Transient failures: bounded retries with exponential backoff;
    // each failed attempt occupied the datapath.
    const std::int64_t charged =
        rep.warm ? costs_.steady_cycles : costs_.cold_cycles;
    int retries = 0;
    while (failures > 0 && retries < options_.max_retries) {
      const std::int64_t backoff =
          RetryBackoffCycles(options_.retry_backoff_cycles, retries,
                             options_.max_retry_backoff_cycles);
      fault_record(fault::FaultKind::kTransient, true, invocation,
                   cycle + charged + backoff, backoff);
      rep.busy_intervals.emplace_back(cycle, cycle + charged + backoff);
      cycle += charged + backoff;
      recovery += charged + backoff;
      --failures;
      ++retries;
    }
    request.retries = retries;
    request.recovery_cycles = recovery;
    if (failures > 0) {
      // Retries exhausted: fail the request, never the server.
      Complete(request.id, StatusCode::kFaulted, cycle);
      continue;
    }

    // 5. Service, with the slow-window surcharge the routing view
    // planned for this slot.
    const std::int64_t service = charged + plan.penalties[slot];
    dispatch.services.push_back(
        PlannedService{request.id, rep.warm, std::move(rep.pending_ops)});
    rep.pending_ops.clear();
    rep.warm = true;
    request.start_cycle = batch_start;
    request.finish_cycle = cycle + service;
    request.service_cycles = service;
    ++completed_;
    rep.busy_cycles += service;
    rep.busy_intervals.emplace_back(cycle, cycle + service);
    ++rep.requests;
    cycle += service;
  }
  rep.local_cycle = cycle;
  if (!dispatch.services.empty()) out.push_back(std::move(dispatch));
}

Planner Plan(std::span<const Arrival> arrivals, const ServeOptions& options,
             const PlanCosts& costs) {
  Planner planner(options, costs);
  std::vector<Dispatch> dispatches;
  for (const Arrival& a : arrivals) {
    planner.Submit(a.arrival_cycle, a.deadline_cycle, dispatches);
    dispatches.clear();
  }
  planner.Flush(dispatches);
  return planner;
}

}  // namespace db::serve
