// The golden serving matrix: one MNIST fixture and a list of serving
// configurations that together cover every scheduling decision the
// server makes — the three admission policies at a tiny queue, batch
// closure by size and by linger, default and explicit deadlines, all
// three router policies on 1/2/4 replicas, a hand-built datapath fault
// plan (a weight bit flipped twice in one invocation, a blob flip, a
// weight flip on an expiring request, transients beyond max_retries,
// stalls) and cluster chaos (crash inside a batch, hang, slow replica,
// route failures) with hedging and the breaker on.
//
// Shared by serve_golden_test (which pins digests of every artifact)
// and serve_plan_test (which checks serve::Plan against the server).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/generator.h"
#include "fault/fault_plan.h"
#include "models/zoo.h"
#include "serve/inference_server.h"
#include "sim/perf_model.h"

namespace db::serve_cases {

struct Fixture {
  Network net;
  AcceleratorDesign design;
  WeightStore weights;
  std::int64_t cold = 0;
  std::int64_t steady = 0;

  Fixture()
      : net(BuildZooModel(ZooModel::kMnist)),
        design(GenerateAccelerator(net, DbConstraint())),
        weights(WeightStore::CreateFor(net)) {
    Rng rng(31);
    weights = WeightStore::CreateRandom(net, rng);
    PerfOptions perf;
    cold = SimulatePerformance(net, design, perf).total_cycles;
    perf.weights_resident = true;
    steady = SimulatePerformance(net, design, perf).total_cycles;
  }

  Tensor Input(std::uint64_t seed) const {
    const BlobShape& s = net.layer(net.input_ids().front()).output_shape;
    Tensor t(Shape{s.channels, s.height, s.width});
    Rng rng(seed);
    t.FillUniform(rng, 0.0f, 1.0f);
    return t;
  }

  /// Base address of the first region whose name starts with `prefix`.
  std::int64_t RegionBase(const char* prefix) const {
    for (const MemoryRegion& region : design.memory_map.regions())
      if (StartsWith(region.name, prefix)) return region.base;
    return -1;
  }
};

/// One submission: arrival cycle and explicit absolute deadline (0 =
/// the options' default).
struct Arrival {
  std::int64_t arrival = 0;
  std::int64_t deadline = 0;
};

struct Case {
  std::string name;
  serve::ServeOptions options;  // observability sinks unset
  std::vector<Arrival> arrivals;
};

/// Arrivals in groups: group k holds sizes[k % n] requests at cycle
/// start + k * gap.
inline std::vector<Arrival> Groups(std::int64_t start, std::int64_t gap,
                                   const std::vector<int>& sizes,
                                   int groups) {
  std::vector<Arrival> out;
  for (int k = 0; k < groups; ++k)
    for (int i = 0; i < sizes[static_cast<std::size_t>(k) % sizes.size()];
         ++i)
      out.push_back({start + k * gap, 0});
  return out;
}

/// Evenly spaced arrivals starting at `start`.
inline std::vector<Arrival> Stream(std::int64_t start, std::int64_t gap,
                                   int n) {
  std::vector<Arrival> out;
  for (int i = 0; i < n; ++i) out.push_back({start + i * gap, 0});
  return out;
}

inline fault::FaultEvent Flip(int worker, std::int64_t invocation,
                              std::int64_t addr, int bit, bool weight) {
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kBitFlip;
  e.worker = worker;
  e.invocation = invocation;
  e.addr = addr;
  e.bit = bit;
  e.weight_region = weight;
  return e;
}

inline fault::FaultEvent Event(fault::FaultKind kind, int worker,
                               std::int64_t invocation) {
  fault::FaultEvent e;
  e.kind = kind;
  e.worker = worker;
  e.invocation = invocation;
  return e;
}

inline std::vector<Case> GoldenCases(const Fixture& fx) {
  const std::int64_t steady = fx.steady;
  std::vector<Case> cases;

  // Admission at queue capacity 2 with linger > 0: groups of 1/3/5/2
  // arrivals 5 steady invocations apart, so batches close by linger
  // (groups of 1-3) and by size (the 5-group), and the simulated queue
  // overflows inside the larger groups.
  const std::pair<const char*, serve::AdmissionPolicy> admissions[] = {
      {"admission-block", serve::AdmissionPolicy::kBlock},
      {"admission-reject", serve::AdmissionPolicy::kReject},
      {"admission-shed-oldest", serve::AdmissionPolicy::kShedOldest}};
  for (const auto& [name, policy] : admissions) {
    Case c;
    c.name = name;
    c.options.replicas = 2;
    c.options.max_batch_size = 4;
    c.options.linger_cycles = 3 * steady;
    c.options.queue_capacity = 2;
    c.options.admission = policy;
    c.arrivals = Groups(0, 5 * steady, {1, 3, 5, 2}, 8);
    cases.push_back(std::move(c));
  }

  // A default deadline that expires part of a burst, plus explicit
  // deadlines (one generous, one already hopeless) later on.
  {
    Case c;
    c.name = "default-deadline";
    c.options.replicas = 1;
    c.options.max_batch_size = 2;
    c.options.deadline_cycles = fx.cold + 2 * steady;
    c.arrivals = Groups(0, 1, {6}, 1);
    const std::int64_t t = 40 * steady;
    c.arrivals.push_back({t, 0});
    c.arrivals.push_back({t, t + 100 * steady});
    c.arrivals.push_back({t, t + 1});
    c.arrivals.push_back({t + steady, 0});
    cases.push_back(std::move(c));
  }

  // Every router policy on 1, 2 and 4 replicas.
  const std::pair<const char*, cluster::RouterPolicy> routers[] = {
      {"round-robin", cluster::RouterPolicy::kRoundRobin},
      {"least-loaded", cluster::RouterPolicy::kLeastLoaded},
      {"hash-affinity", cluster::RouterPolicy::kHashAffinity}};
  for (const auto& [name, policy] : routers) {
    for (const int replicas : {1, 2, 4}) {
      Case c;
      c.name = StrFormat("%s-x%d", name, replicas);
      c.options.replicas = replicas;
      c.options.router = policy;
      c.options.affinity_hash = 0x5eedf00dULL;
      c.options.max_batch_size = 2;
      c.options.linger_cycles = steady;
      c.arrivals = Groups(0, 2 * steady, {3, 1, 4, 1, 5}, 8);
      cases.push_back(std::move(c));
    }
  }

  // Hand-built datapath faults on two replicas.
  {
    const std::int64_t w = fx.RegionBase("weights:");
    const std::int64_t b = fx.RegionBase("blob:");
    Case c;
    c.name = "datapath-faults";
    c.options.replicas = 2;
    c.options.max_batch_size = 3;
    c.options.linger_cycles = steady;
    c.options.max_retries = 1;
    fault::FaultPlan& plan = c.options.faults;
    plan.seed = 5;
    // The same weight bit twice in one invocation: the flips cancel, so
    // no scrub is charged.
    plan.events.push_back(Flip(0, 1, w + 3, 3, true));
    plan.events.push_back(Flip(0, 1, w + 3, 3, true));
    // A blob flip never triggers a scrub.
    plan.events.push_back(Flip(0, 2, b + 1, 1, false));
    // A single weight flip: one scrub; then the same bit again later.
    plan.events.push_back(Flip(0, 3, w + 5, 0, true));
    plan.events.push_back(Flip(0, 6, w + 5, 0, true));
    // Flips on every early invocation of replica 1, so some land on
    // requests that expire or fault before the scrub check.
    for (int k = 0; k < 8; ++k)
      plan.events.push_back(Flip(1, k, w + 11 + k, k % 8, true));
    // Transients beyond max_retries: the request ends kFaulted.
    for (int k = 0; k < 3; ++k)
      plan.events.push_back(Event(fault::FaultKind::kTransient, 1, 1));
    // One retried transient.
    plan.events.push_back(Event(fault::FaultKind::kTransient, 0, 4));
    fault::FaultEvent stall = Event(fault::FaultKind::kStall, 0, 5);
    stall.stall_cycles = 3 * steady;
    plan.events.push_back(stall);
    stall.worker = 1;
    stall.invocation = 3;
    stall.stall_cycles = 700;
    plan.events.push_back(stall);
    c.arrivals = Stream(1, steady / 2, 30);
    // Tight explicit deadlines on every fourth request.
    for (std::size_t i = 2; i < c.arrivals.size(); i += 4)
      c.arrivals[i].deadline = c.arrivals[i].arrival + 1;
    cases.push_back(std::move(c));
  }

  // Cluster chaos: a crash inside a batch (prefix served, rest
  // re-dispatched), a hang, a slow window and route failures, with
  // hedging and the breaker on.
  {
    Case c;
    c.name = "cluster-crash-split";
    c.options.replicas = 2;
    c.options.max_batch_size = 4;
    c.options.hedge_after_cycles = 2 * steady;
    c.options.breaker.enabled = true;
    c.options.breaker.failure_threshold = 2;
    fault::FaultPlan& plan = c.options.faults;
    plan.seed = 6;
    fault::FaultEvent crash = Event(fault::FaultKind::kCrash, 0, 2);
    crash.down_cycles = 3 * steady;
    plan.events.push_back(crash);
    fault::FaultEvent hang = Event(fault::FaultKind::kHang, 1, 6);
    hang.stall_cycles = 4 * steady;
    plan.events.push_back(hang);
    fault::FaultEvent slow = Event(fault::FaultKind::kSlow, 1, 9);
    slow.slow_factor = 5;
    slow.slow_services = 3;
    plan.events.push_back(slow);
    plan.events.push_back(Event(fault::FaultKind::kRouteFail, 0, 8));
    plan.events.push_back(Event(fault::FaultKind::kRouteFail, 0, 8));
    plan.events.push_back(Flip(0, 1, fx.RegionBase("weights:") + 7, 6,
                               true));
    c.arrivals = Stream(0, steady / 3, 40);
    cases.push_back(std::move(c));
  }

  // A slow replica that a hedge beats, and a lone replica whose route
  // failures open its breaker.
  {
    Case c;
    c.name = "hedge-slow-replica";
    c.options.replicas = 4;
    c.options.router = cluster::RouterPolicy::kRoundRobin;
    c.options.max_batch_size = 1;
    c.options.hedge_after_cycles = 3 * steady;
    fault::FaultEvent slow = Event(fault::FaultKind::kSlow, 1, 0);
    slow.slow_factor = 8;
    slow.slow_services = 4;
    c.options.faults.events.push_back(slow);
    c.arrivals = Stream(0, steady, 32);
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.name = "breaker-open";
    c.options.replicas = 1;
    c.options.max_batch_size = 1;
    c.options.breaker.enabled = true;
    c.options.breaker.failure_threshold = 2;
    for (int k = 0; k < 3; ++k)
      c.options.faults.events.push_back(
          Event(fault::FaultKind::kRouteFail, 0, 0));
    c.arrivals = Stream(0, steady / 4, 12);
    cases.push_back(std::move(c));
  }

  // Seeded whole-cluster campaigns (cluster + datapath faults) on 4 and
  // 2 replicas, with a default deadline tight enough to expire some.
  const struct {
    const char* name;
    int replicas;
    cluster::RouterPolicy router;
    std::uint64_t seed;
  } campaigns[] = {
      {"chaos-x4", 4, cluster::RouterPolicy::kLeastLoaded, 11},
      {"chaos-x2-rr", 2, cluster::RouterPolicy::kRoundRobin, 23}};
  for (const auto& campaign : campaigns) {
    constexpr int kRequests = 48;
    Case c;
    c.name = campaign.name;
    c.options.replicas = campaign.replicas;
    c.options.router = campaign.router;
    c.options.max_batch_size = 2;
    c.options.linger_cycles = steady / 2;
    c.options.queue_capacity = 3;
    c.options.admission = serve::AdmissionPolicy::kShedOldest;
    c.options.hedge_after_cycles = 2 * steady;
    c.options.breaker.enabled = true;
    c.options.deadline_cycles = 12 * steady;
    fault::FaultCampaignSpec spec;
    spec.seed = campaign.seed;
    spec.crashes = 2;
    spec.hangs = 2;
    spec.slow_replicas = 1;
    spec.route_fails = 3;
    spec.weight_flips = 12;
    spec.blob_flips = 2;
    spec.transients = 3;
    spec.stalls = 2;
    spec.crash_down_cycles = 4 * steady;
    spec.hang_cycles = 2 * steady;
    spec.invocation_span = kRequests / campaign.replicas;
    spec.workers = campaign.replicas;
    c.options.faults = fault::FaultPlan::Generate(spec, fx.design.memory_map);
    c.arrivals = Stream(0, steady / 3, kRequests);
    cases.push_back(std::move(c));
  }
  return cases;
}

}  // namespace db::serve_cases
