#include "serve/inference_server.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "common/strings.h"
#include "sim/power_model.h"

namespace db::serve {

namespace {

/// The design's cycle charges.  Planning presimulations run untraced
/// and publish no metrics — only actual request service does.
PlanCosts CostsOf(const Network& net, const AcceleratorDesign& design,
                  const PerfOptions& base) {
  PerfOptions perf = base;
  perf.trace = nullptr;
  perf.metrics = nullptr;
  perf.weights_resident = false;
  PlanCosts costs;
  costs.cold_cycles = SimulatePerformance(net, design, perf).total_cycles;
  perf.weights_resident = true;
  costs.steady_cycles = SimulatePerformance(net, design, perf).total_cycles;
  // One scrub-and-reload: the weight bytes over the DRAM port width.
  const std::int64_t port_bytes =
      design.config.ElementBytes() * design.config.memory_port_elems;
  costs.scrub_cycles = std::max<std::int64_t>(
      CeilDiv(fault::WeightRegionBytes(design.memory_map),
              std::max<std::int64_t>(port_bytes, 1)),
      1);
  return costs;
}

/// The planner charges scrubs from each flip's weight_region label, so
/// every flip must lie inside the image and carry the label its address
/// implies.
const ServeOptions& WithValidFlips(const ServeOptions& options,
                                   const MemoryMap& map) {
  for (const fault::FaultEvent& event : options.faults.events) {
    if (event.kind != fault::FaultKind::kBitFlip) continue;
    if (event.addr < 0 || event.addr >= map.total_bytes())
      DB_THROW("fault plan flips byte " << event.addr
               << " outside the " << map.total_bytes() << "-byte image");
    bool in_weights = false;
    for (const MemoryRegion& region : map.regions())
      if (StartsWith(region.name, "weights:") && event.addr >= region.base &&
          event.addr < region.end())
        in_weights = true;
    if (in_weights != event.weight_region)
      DB_THROW("fault plan flips byte " << event.addr << " as a "
               << (event.weight_region ? "weight" : "blob")
               << " flip, but it lies in a "
               << (in_weights ? "weight" : "blob") << " region");
  }
  return options;
}

}  // namespace

InferenceServer::InferenceServer(const Network& net,
                                 const AcceleratorDesign& design,
                                 const WeightStore& weights,
                                 ServeOptions options)
    : design_(design),
      device_(DeviceCatalog(options.device_name)),
      planner_(WithValidFlips(options, design.memory_map),
               CostsOf(net, design, options.perf)),
      provisioned_(BuildHostImage(net, design, weights)),
      weight_checksum_(
          fault::WeightChecksum(provisioned_, design.memory_map)),
      pool_(net, design, provisioned_, planner_.replicas()) {
  state_.store(ServerState::kServing);
}

InferenceServer::~InferenceServer() {
  try {
    Drain();
  } catch (...) {
    // Destructor must not throw; Drain only throws on internal
    // invariant violations, which tests surface through explicit calls.
  }
}

std::int64_t InferenceServer::Submit(Tensor input,
                                     std::int64_t arrival_cycle,
                                     std::int64_t deadline_cycle) {
  std::lock_guard<std::mutex> lock(submit_mu_);
  const ServerState state = state_.load();
  if (state != ServerState::kServing)
    throw ShutdownError(
        StrFormat("InferenceServer cannot accept requests: intake is "
                  "closed (state: %s)",
                  ServerStateName(state)));
  bool rejected = false;
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> records_lock(records_mu_);
    id = planner_.Submit(arrival_cycle, deadline_cycle, dispatches_);
    rejected = planner_.record(id).status == StatusCode::kRejected;
  }
  // A rejected request never reaches a lane.
  inputs_.push_back(rejected ? Tensor() : std::move(input));
  PostDispatches();
  return id;
}

void InferenceServer::PostDispatches() {
  for (Dispatch& dispatch : dispatches_) {
    std::vector<Tensor> inputs;
    inputs.reserve(dispatch.services.size());
    for (const PlannedService& service : dispatch.services)
      inputs.push_back(std::move(
          inputs_[static_cast<std::size_t>(service.request_id -
                                           inputs_base_)]));
    pool_.Post(dispatch.replica,
               [this, r = dispatch.replica,
                services = std::move(dispatch.services),
                inputs = std::move(inputs)] { Execute(r, services, inputs); });
  }
  dispatches_.clear();
  for (; inputs_base_ < planner_.first_open_id(); ++inputs_base_)
    inputs_.pop_front();
}

void InferenceServer::Execute(int r,
                              const std::vector<PlannedService>& services,
                              const std::vector<Tensor>& inputs) {
  cluster::Replica& rep = pool_.replica(r);
  const MemoryMap& map = design_.memory_map;
  for (std::size_t i = 0; i < services.size(); ++i) {
    const PlannedService& service = services[i];
    for (const ImageOp& op : service.image_ops) {
      if (!op.scrub) {
        rep.image.FlipBit(op.addr, op.bit);
        continue;
      }
      DB_CHECK_MSG(fault::WeightChecksum(rep.image, map) != weight_checksum_,
                   "planned scrub of intact weight regions");
      fault::ScrubWeights(rep.image, provisioned_, map);
      DB_CHECK_MSG(fault::WeightChecksum(rep.image, map) == weight_checksum_,
                   "scrub failed to restore the weight regions");
    }
    // Lanes never trace (the interval stream is ordering-sensitive) but
    // do publish the commutative "sim.*" counters when the caller
    // supplied perf.metrics.
    PerfOptions perf = options().perf;
    perf.trace = nullptr;
    perf.weights_resident = service.weights_resident;
    SystemRunResult run = rep.context->Run(rep.image, inputs[i], perf);
    const double joules =
        EstimateEnergy(design_.resources.total, run.perf, device_)
            .total_joules;
    std::lock_guard<std::mutex> lock(records_mu_);
    ServedRequest& record = planner_.record(service.request_id);
    record.output = std::move(run.output);
    record.dram_bytes = run.perf.total_dram_bytes;
    record.joules = joules;
    record.status = run.status;
  }
}

const std::vector<ServedRequest>& InferenceServer::Drain() {
  std::lock_guard<std::mutex> lock(submit_mu_);
  if (state_.load() == ServerState::kStopped) return results_;
  state_.store(ServerState::kDraining);
  {
    std::lock_guard<std::mutex> records_lock(records_mu_);
    planner_.Flush(dispatches_);
  }
  PostDispatches();
  pool_.Close();
  pool_.Join();
  results_ = planner_.TakeRecords();
  PublishObservability();
  if (options().timeseries != nullptr) PublishTimeSeries();
  state_.store(ServerState::kStopped);
  return results_;
}

void InferenceServer::PublishObservability() {
  // Called once, after every lane joined: the records are final and
  // this thread is the only publisher, so span emission order — and the
  // exported trace bytes — are a pure function of the schedule.
  if (options().tracer != nullptr) {
    obs::Tracer& tracer = *options().tracer;
    std::map<std::int64_t, std::vector<const ServedRequest*>> batches;
    for (const ServedRequest& r : results_) {
      if (r.status != StatusCode::kOk) {
        // Shed / rejected / expired / faulted: one async queue span
        // covering arrival to disposition, tagged with the status.
        obs::Span dropped;
        dropped.track = "serve/queue";
        dropped.name = StrFormat("req %lld", static_cast<long long>(r.id));
        dropped.category = "serve";
        dropped.start = r.arrival_cycle;
        dropped.end = std::max(r.finish_cycle, r.arrival_cycle);
        dropped.async = true;
        dropped.id = r.id;
        dropped.args.emplace_back("status", StatusCodeName(r.status));
        tracer.Record(std::move(dropped));
        continue;
      }
      const std::int64_t service_start = r.finish_cycle - r.service_cycles;
      const std::string worker_track =
          StrFormat("serve/worker %d", r.worker);

      // Queue residency overlaps across requests: async span, one row
      // per request id in Perfetto.
      obs::Span queued;
      queued.track = "serve/queue";
      queued.name = StrFormat("req %lld", static_cast<long long>(r.id));
      queued.category = "serve";
      queued.start = r.arrival_cycle;
      queued.end = service_start;
      queued.async = true;
      queued.id = r.id;
      queued.args.emplace_back(
          "batch", std::to_string(r.batch_id));
      queued.args.emplace_back("worker", std::to_string(r.worker));
      tracer.Record(std::move(queued));

      obs::Span service;
      service.track = worker_track;
      service.name = StrFormat("req %lld", static_cast<long long>(r.id));
      service.category = "serve";
      service.start = service_start;
      service.end = r.finish_cycle;
      service.args.emplace_back("batch", std::to_string(r.batch_id));
      service.args.emplace_back("dram_bytes",
                                std::to_string(r.dram_bytes));
      tracer.Record(std::move(service));

      batches[r.batch_id].push_back(&r);
    }
    for (const auto& [batch_id, members] : batches) {
      obs::Span span;
      span.track = StrFormat("serve/worker %d", members.front()->worker);
      span.name = StrFormat("batch %lld", static_cast<long long>(batch_id));
      span.category = "serve";
      span.start = members.front()->start_cycle;
      span.end = 0;
      for (const ServedRequest* r : members)
        span.end = std::max(span.end, r->finish_cycle);
      span.args.emplace_back("size", std::to_string(members.size()));
      tracer.Record(std::move(span));
    }

    // Fault injections and recovery windows, per replica in index order
    // (each replica's log is in its own deterministic service order).
    for (int w = 0; w < planner_.replicas(); ++w) {
      for (const fault::FaultRecord& record :
           planner_.timeline(w).fault_records) {
        obs::Span span;
        span.track = StrFormat("serve/worker %d", w);
        span.category = "fault";
        if (record.recovery) {
          span.name = record.kind == fault::FaultKind::kBitFlip ? "scrub"
                      : record.kind == fault::FaultKind::kCrash
                          ? "readmit"
                          : "retry";
        } else {
          span.name = StrFormat("fault:%s",
                                fault::FaultKindName(record.kind));
        }
        span.start = record.start_cycle;
        span.end = record.end_cycle;
        span.args.emplace_back("invocation",
                               std::to_string(record.invocation));
        span.args.emplace_back("request",
                               std::to_string(record.request_id));
        span.args.emplace_back("detail", std::to_string(record.detail));
        tracer.Record(std::move(span));
      }
    }

    // The cluster track: the planner's resilience episodes (crashes,
    // hangs, slow windows, route failures, hedges) in planning order,
    // then the health monitor's transition log.  Both are planner
    // state, so the emitted bytes are stable run to run.
    for (const ClusterEpisode& episode : planner_.cluster_log()) {
      obs::Span span;
      span.track = "cluster";
      span.category = "cluster";
      span.name = episode.name;
      span.start = episode.start;
      span.end = episode.end;
      span.args.emplace_back("replica",
                             std::to_string(episode.replica));
      for (const auto& arg : episode.args) span.args.push_back(arg);
      tracer.Record(std::move(span));
    }
    for (const cluster::HealthTransition& t : planner_.health_monitor().transitions()) {
      obs::Span span;
      span.track = "cluster";
      span.category = "health";
      span.name = StrFormat("replica %d: %s", t.replica,
                            cluster::ReplicaHealthName(t.to));
      span.start = t.cycle;
      span.end = t.cycle;
      span.args.emplace_back("from",
                             cluster::ReplicaHealthName(t.from));
      span.args.emplace_back("to", cluster::ReplicaHealthName(t.to));
      span.args.emplace_back("cause", t.cause);
      tracer.Record(std::move(span));
    }
  }

  if (options().metrics != nullptr) {
    obs::MetricsRegistry& m = *options().metrics;
    std::int64_t makespan = 0;
    std::map<std::int64_t, std::int64_t> batch_sizes;
    // Queue depth over simulated time: +1 at arrival, -1 when the
    // request leaves the queue — at service start when served, at its
    // disposition cycle when shed or expired (departures at a cycle
    // clear before same-cycle arrivals).  Rejected requests never
    // entered the queue.
    std::vector<std::pair<std::int64_t, int>> depth_events;
    std::int64_t shed = 0, rejected = 0, expired = 0, faulted = 0;
    std::int64_t completed = 0, retries = 0, recovery_cycles = 0;
    for (const ServedRequest& r : results_) {
      m.AddCounter("serve.requests");
      retries += r.retries;
      recovery_cycles += r.recovery_cycles;
      switch (r.status) {
        case StatusCode::kShed:
          ++shed;
          depth_events.emplace_back(r.arrival_cycle, +1);
          depth_events.emplace_back(r.finish_cycle, -1);
          continue;
        case StatusCode::kRejected:
          ++rejected;
          continue;
        case StatusCode::kDeadlineExceeded:
          ++expired;
          depth_events.emplace_back(r.arrival_cycle, +1);
          depth_events.emplace_back(r.finish_cycle, -1);
          continue;
        case StatusCode::kFaulted:
          ++faulted;
          depth_events.emplace_back(r.arrival_cycle, +1);
          depth_events.emplace_back(r.finish_cycle, -1);
          continue;
        case StatusCode::kOk:
          ++completed;
          break;
      }
      const std::int64_t service_start = r.finish_cycle - r.service_cycles;
      m.AddCounter("serve.dram_bytes", r.dram_bytes);
      // The end-to-end latency histogram: the same HistogramStats type
      // (and the same samples) ComputeServerStats aggregates, so the
      // registry's quantiles and ServerStats' percentiles agree exactly.
      m.Observe("serve.latency_cycles",
                static_cast<double>(r.finish_cycle - r.arrival_cycle));
      m.Observe("serve.queue_wait_cycles",
                static_cast<double>(service_start - r.arrival_cycle));
      m.Observe("serve.service_cycles",
                static_cast<double>(r.service_cycles));
      makespan = std::max(makespan, r.finish_cycle);
      ++batch_sizes[r.batch_id];
      depth_events.emplace_back(r.arrival_cycle, +1);
      depth_events.emplace_back(service_start, -1);
    }
    m.AddCounter("serve.completed", completed);
    m.AddCounter("serve.shed", shed);
    m.AddCounter("serve.rejected", rejected);
    m.AddCounter("serve.deadline_exceeded", expired);
    m.AddCounter("serve.faulted", faulted);
    m.AddCounter("serve.retries", retries);
    m.AddCounter("serve.batches",
                 static_cast<std::int64_t>(batch_sizes.size()));
    for (const auto& [batch_id, size] : batch_sizes)
      m.Observe("serve.batch_size", static_cast<double>(size));
    std::sort(depth_events.begin(), depth_events.end());
    std::int64_t depth = 0, peak = 0;
    for (const auto& [cycle, delta] : depth_events)
      peak = std::max(peak, depth += delta);
    m.SetGauge("serve.queue_depth_peak", static_cast<double>(peak));
    m.SetGauge("serve.makespan_cycles", static_cast<double>(makespan));
    m.SetGauge("serve.replicas", static_cast<double>(planner_.replicas()));
    m.SetGauge("serve.router",
               static_cast<double>(static_cast<int>(options().router)));
    for (int w = 0; w < planner_.replicas(); ++w) {
      const ReplicaTimeline& rep = planner_.timeline(w);
      const std::int64_t busy = rep.busy_cycles;
      // Metric names keep the historical "worker" spelling so dashboards
      // survive the replica refactor.
      m.SetGauge(StrFormat("serve.worker%d.busy_cycles", w),
                 static_cast<double>(busy));
      m.SetGauge(StrFormat("serve.worker%d.utilization", w),
                 makespan > 0 ? static_cast<double>(busy) /
                                    static_cast<double>(makespan)
                              : 0.0);
      m.SetGauge(StrFormat("serve.worker%d.requests", w),
                 static_cast<double>(rep.requests));
      m.SetGauge(StrFormat("serve.worker%d.batches", w),
                 static_cast<double>(rep.batches));
    }

    // fault.*: injections by kind, recovery actions and their cost.
    std::int64_t flips = 0, transients = 0, stalls = 0, scrubs = 0;
    for (int w = 0; w < planner_.replicas(); ++w) {
      const ReplicaTimeline& rep = planner_.timeline(w);
      scrubs += rep.scrubs;
      for (const fault::FaultRecord& record : rep.fault_records) {
        if (record.recovery) continue;
        switch (record.kind) {
          case fault::FaultKind::kBitFlip: ++flips; break;
          case fault::FaultKind::kTransient: ++transients; break;
          case fault::FaultKind::kStall: ++stalls; break;
          default:
            // Cluster faults fire on the routing view; a timeline only
            // records them as recovery windows (skipped above).
            DB_CHECK_MSG(false, "cluster fault in a lane fault record");
        }
      }
    }
    m.AddCounter("fault.injected.bit_flip", flips);
    m.AddCounter("fault.injected.transient", transients);
    m.AddCounter("fault.injected.stall", stalls);
    m.AddCounter("fault.scrubs", scrubs);
    m.AddCounter("fault.recovery_cycles", recovery_cycles);

    const ClusterCounts& counts = planner_.counts();
    // cluster.health.*: fleet-resilience accounting — always published
    // (zeros under a fault-free run) so dashboards and the determinism
    // tests see a stable metric set.
    m.AddCounter("cluster.health.crashes", counts.crashes);
    m.AddCounter("cluster.health.hangs", counts.hangs);
    m.AddCounter("cluster.health.slow_replicas", counts.slow_faults);
    m.AddCounter("cluster.health.route_failures", counts.route_failures);
    m.AddCounter("cluster.health.redispatched_requests", counts.redispatched);
    m.AddCounter("cluster.health.readmissions", counts.readmissions);
    m.AddCounter("cluster.health.transitions",
                 static_cast<std::int64_t>(planner_.health_monitor().transitions().size()));
    m.AddCounter("cluster.health.breaker_opens", planner_.circuit_breaker().opens());
    m.AddCounter("cluster.health.hedges", counts.hedges);
    m.AddCounter("cluster.health.hedge_wins", counts.hedge_wins);
  }
}

void InferenceServer::PublishTimeSeries() {
  // Sampled purely from the final records and the replicas' busy
  // intervals — simulated-cycle state, never thread timing — so two
  // runs of the same workload export byte-identical series.
  obs::TimeSeriesRecorder& ts = *options().timeseries;
  std::int64_t makespan = 0;
  for (const ServedRequest& r : results_)
    makespan =
        std::max(makespan, std::max(r.finish_cycle, r.arrival_cycle));
  std::int64_t interval = options().timeseries_interval_cycles;
  if (interval <= 0) {
    interval = 1;
    while (CeilDiv(makespan, interval) + 1 > 64) interval <<= 1;
  }
  ts.SetSampleInterval(interval);

  // State deltas on the simulated timeline.  Departures sort before
  // same-cycle arrivals (-1 < +1), matching the queue-depth convention
  // of the peak gauge.
  std::vector<std::pair<std::int64_t, int>> depth_events;
  std::vector<std::pair<std::int64_t, int>> inflight_events;
  std::vector<std::int64_t> shed_cycles;  // disposition cycles, non-kOk
  for (const ServedRequest& r : results_) {
    switch (r.status) {
      case StatusCode::kRejected:
        shed_cycles.push_back(r.finish_cycle);  // never entered the queue
        continue;
      case StatusCode::kShed:
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kFaulted:
        depth_events.emplace_back(r.arrival_cycle, +1);
        depth_events.emplace_back(r.finish_cycle, -1);
        shed_cycles.push_back(r.finish_cycle);
        continue;
      case StatusCode::kOk: break;
    }
    const std::int64_t service_start = r.finish_cycle - r.service_cycles;
    depth_events.emplace_back(r.arrival_cycle, +1);
    depth_events.emplace_back(service_start, -1);
    inflight_events.emplace_back(service_start, +1);
    inflight_events.emplace_back(r.finish_cycle, -1);
  }
  std::sort(depth_events.begin(), depth_events.end());
  std::sort(inflight_events.begin(), inflight_events.end());
  std::sort(shed_cycles.begin(), shed_cycles.end());

  const std::int64_t last = CeilDiv(makespan, interval) * interval;
  std::size_t di = 0, ii = 0, si = 0;
  std::int64_t depth = 0, in_flight = 0;
  for (std::int64_t t = 0;; t += interval) {
    while (di < depth_events.size() && depth_events[di].first <= t)
      depth += depth_events[di++].second;
    while (ii < inflight_events.size() && inflight_events[ii].first <= t)
      in_flight += inflight_events[ii++].second;
    while (si < shed_cycles.size() && shed_cycles[si] <= t) ++si;
    ts.Append("load.queue_depth", t, static_cast<double>(depth));
    ts.Append("load.in_flight", t, static_cast<double>(in_flight));
    ts.Append("load.sheds", t, static_cast<double>(si));
    for (int w = 0; w < planner_.replicas(); ++w)
      ts.Append(StrFormat("load.replica%d.busy", w), t,
                t == 0 ? 0.0
                       : static_cast<double>(BusyInWindow(
                             planner_.timeline(w).busy_intervals,
                             t - interval, t)) /
                             static_cast<double>(interval));
    // Health column per replica: the monitor's replayed state at the
    // sample boundary (healthy=0, suspect=1, down=2, recovering=3).
    for (int w = 0; w < planner_.replicas(); ++w)
      ts.Append(StrFormat("load.replica%d.health", w), t,
                static_cast<double>(cluster::ReplicaHealthCode(
                    planner_.health_monitor().StateAt(w, t))));
    if (t >= last) break;
  }
}

ServerStats InferenceServer::Stats() const {
  std::lock_guard<std::mutex> lock(submit_mu_);
  DB_CHECK_MSG(state_.load() == ServerState::kStopped,
               "Stats() requires a drained server");
  std::vector<std::int64_t> busy;
  for (int w = 0; w < planner_.replicas(); ++w)
    busy.push_back(planner_.timeline(w).busy_cycles);
  ServerStats stats =
      ComputeServerStats(results_, planner_.batches_dispatched(),
                         design_.config.frequency_mhz, std::move(busy));
  for (int w = 0; w < planner_.replicas(); ++w)
    for (const fault::FaultRecord& record : planner_.timeline(w).fault_records)
      if (!record.recovery) ++stats.faults_injected;
  // Cluster events fire on the routing view, not in timeline records.
  const ClusterCounts& counts = planner_.counts();
  stats.faults_injected += counts.crashes + counts.hangs +
                           counts.slow_faults + counts.route_failures;
  stats.crashes = counts.crashes;
  stats.hangs = counts.hangs;
  stats.slow_faults = counts.slow_faults;
  stats.route_failures = counts.route_failures;
  stats.redispatched = counts.redispatched;
  stats.readmissions = counts.readmissions;
  stats.breaker_opens = planner_.circuit_breaker().opens();
  stats.hedges = counts.hedges;
  stats.hedge_wins = counts.hedge_wins;
  stats.health_transitions = static_cast<std::int64_t>(
      planner_.health_monitor().transitions().size());
  return stats;
}

}  // namespace db::serve
