// Cluster-resilience tests: the replica health monitor, circuit
// breaker, health-masked routing, cluster fault planning, crash
// re-dispatch, hedging and the seeded whole-cluster chaos campaign
// (ctest label: chaos).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "cluster/health_monitor.h"
#include "cluster/shard_router.h"
#include "core/generator.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "models/zoo.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "serve/inference_server.h"

namespace db {
namespace {

using cluster::BreakerOptions;
using cluster::BreakerState;
using cluster::CircuitBreaker;
using cluster::HealthOptions;
using cluster::ParseBreakerSpec;
using cluster::ReplicaHealth;
using cluster::ReplicaHealthMonitor;
using cluster::ShardRouter;
using serve::InferenceServer;
using serve::ServedRequest;
using serve::ServeOptions;
using serve::ServerStats;

struct Fixture {
  Network net;
  AcceleratorDesign design;
  WeightStore weights;

  explicit Fixture(ZooModel model = ZooModel::kMnist)
      : net(BuildZooModel(model)),
        design(GenerateAccelerator(net, DbConstraint())),
        weights(WeightStore::CreateFor(net)) {
    Rng rng(31);
    weights = WeightStore::CreateRandom(net, rng);
  }

  Tensor RandomInput(std::uint64_t seed) const {
    const BlobShape& s = net.layer(net.input_ids().front()).output_shape;
    Tensor t(Shape{s.channels, s.height, s.width});
    Rng rng(seed);
    t.FillUniform(rng, 0.0f, 1.0f);
    return t;
  }

  std::vector<Tensor> Inputs(int n) const {
    std::vector<Tensor> inputs;
    for (int i = 0; i < n; ++i)
      inputs.push_back(RandomInput(700 + static_cast<std::uint64_t>(i)));
    return inputs;
  }
};

// ---------------------------------------------------------------------
// ReplicaHealthMonitor

TEST(HealthMonitor, CrashWalksDownRecoveringHealthy) {
  HealthOptions options;
  options.readmit_scrub_cycles = 10;
  ReplicaHealthMonitor monitor(2, options);
  EXPECT_TRUE(monitor.Routable(0));

  monitor.ReportCrash(0, 1000, 4000);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kDown);
  EXPECT_FALSE(monitor.Routable(0));
  EXPECT_EQ(monitor.readmit_cycle(0), 5010);
  EXPECT_EQ(monitor.state(1), ReplicaHealth::kHealthy);

  monitor.AdvanceTo(5000);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kRecovering);
  monitor.AdvanceTo(5010);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kHealthy);
  EXPECT_TRUE(monitor.Routable(0));
  EXPECT_EQ(monitor.readmit_cycle(0), 0);

  ASSERT_EQ(monitor.transitions().size(), 3u);
  EXPECT_EQ(monitor.transitions()[0].to, ReplicaHealth::kDown);
  EXPECT_EQ(monitor.transitions()[0].cause, "crash");
  EXPECT_EQ(monitor.transitions()[1].to, ReplicaHealth::kRecovering);
  EXPECT_EQ(monitor.transitions()[2].to, ReplicaHealth::kHealthy);
  EXPECT_EQ(monitor.transitions()[2].cause, "scrub");
}

TEST(HealthMonitor, HangMissesHeartbeatsOnTheGrid) {
  HealthOptions options;
  options.heartbeat_interval_cycles = 100;
  options.suspect_after_misses = 1;
  options.down_after_misses = 3;
  options.readmit_scrub_cycles = 5;
  ReplicaHealthMonitor monitor(1, options);

  // Misses at ticks 100 (suspect), 200, 300 (down); recovery observed
  // at the first heartbeat at/after 450, i.e. 500.
  monitor.ReportUnresponsive(0, 50, 450);
  monitor.AdvanceTo(100);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kSuspect);
  monitor.AdvanceTo(299);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kSuspect);
  monitor.AdvanceTo(300);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kDown);
  monitor.AdvanceTo(500);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kRecovering);
  monitor.Flush();
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kHealthy);
}

TEST(HealthMonitor, HangShorterThanOneHeartbeatIsUnobserved) {
  HealthOptions options;
  options.heartbeat_interval_cycles = 100;
  ReplicaHealthMonitor monitor(1, options);
  monitor.ReportUnresponsive(0, 10, 60);  // no tick inside [10, 60)
  monitor.Flush();
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kHealthy);
  EXPECT_TRUE(monitor.transitions().empty());
}

TEST(HealthMonitor, ConsecutiveFailuresEscalateAndSuccessLifts) {
  HealthOptions options;
  options.failures_to_suspect = 1;
  options.failures_to_down = 3;
  options.failure_down_cycles = 1000;
  options.readmit_scrub_cycles = 10;
  ReplicaHealthMonitor monitor(1, options);

  monitor.ReportFailure(0, 100);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kSuspect);
  monitor.ReportSuccess(0, 150);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kHealthy);

  monitor.ReportFailure(0, 200);
  monitor.ReportFailure(0, 210);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kSuspect);
  monitor.ReportFailure(0, 220);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kDown);
  monitor.AdvanceTo(1220);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kRecovering);
  monitor.AdvanceTo(1230);
  EXPECT_EQ(monitor.state(0), ReplicaHealth::kHealthy);
}

TEST(HealthMonitor, StateAtReplaysTheTransitionLog) {
  HealthOptions options;
  options.readmit_scrub_cycles = 10;
  ReplicaHealthMonitor monitor(2, options);
  monitor.ReportCrash(1, 500, 1000);
  monitor.Flush();
  EXPECT_EQ(monitor.StateAt(1, 0), ReplicaHealth::kHealthy);
  EXPECT_EQ(monitor.StateAt(1, 499), ReplicaHealth::kHealthy);
  EXPECT_EQ(monitor.StateAt(1, 500), ReplicaHealth::kDown);
  EXPECT_EQ(monitor.StateAt(1, 1500), ReplicaHealth::kRecovering);
  EXPECT_EQ(monitor.StateAt(1, 1510), ReplicaHealth::kHealthy);
  EXPECT_EQ(monitor.StateAt(0, 1510), ReplicaHealth::kHealthy);
}

// ---------------------------------------------------------------------
// CircuitBreaker

TEST(Breaker, OpensAfterThresholdAndHalfOpenTrialDecides) {
  BreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 2;
  options.cooldown_cycles = 100;
  CircuitBreaker breaker(1, options);

  EXPECT_TRUE(breaker.Allows(0, 0));
  breaker.RecordFailure(0, 10);
  EXPECT_TRUE(breaker.Allows(0, 11));
  breaker.RecordFailure(0, 20);
  EXPECT_EQ(breaker.StateAt(0, 50), BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allows(0, 50));
  EXPECT_EQ(breaker.StateAt(0, 120), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.Allows(0, 120));
  EXPECT_EQ(breaker.opens(), 1);

  // A failed half-open trial re-opens with a fresh cooldown.
  breaker.RecordFailure(0, 130);
  EXPECT_FALSE(breaker.Allows(0, 200));
  EXPECT_EQ(breaker.opens(), 2);
  // The next trial succeeds and closes the breaker.
  breaker.RecordSuccess(0, 240);
  EXPECT_EQ(breaker.StateAt(0, 240), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allows(0, 240));
}

TEST(Breaker, DisabledAlwaysAllows) {
  CircuitBreaker breaker(1, BreakerOptions{});
  for (int i = 0; i < 10; ++i) breaker.RecordFailure(0, i);
  EXPECT_TRUE(breaker.Allows(0, 100));
  EXPECT_EQ(breaker.opens(), 0);
}

TEST(Breaker, ParseSpecRoundTripsAndRejectsBogusInput) {
  const BreakerOptions options = ParseBreakerSpec("failures=2,cooldown=100");
  EXPECT_TRUE(options.enabled);
  EXPECT_EQ(options.failure_threshold, 2);
  EXPECT_EQ(options.cooldown_cycles, 100);
  EXPECT_TRUE(ParseBreakerSpec("failures=5").enabled);
  EXPECT_THROW(ParseBreakerSpec("failures=0"), Error);
  EXPECT_THROW(ParseBreakerSpec("failures=abc"), Error);
  EXPECT_THROW(ParseBreakerSpec("bogus=1"), Error);
  EXPECT_THROW(ParseBreakerSpec("failures"), Error);
  // Out of int range: rejected, never narrowed (4294967297 would wrap
  // to 1).
  EXPECT_THROW(ParseBreakerSpec("failures=2147483648"), Error);
  EXPECT_THROW(ParseBreakerSpec("failures=4294967297"), Error);
}

// ---------------------------------------------------------------------
// Health-masked routing

TEST(MaskedRouter, LeastLoadedPicksEarliestRoutable) {
  ShardRouter router(cluster::RouterPolicy::kLeastLoaded, 3);
  const std::vector<std::int64_t> free = {10, 5, 7};
  EXPECT_EQ(router.Route(free, {true, false, true}), 2);
  EXPECT_EQ(router.Route(free, {true, true, true}), 1);
}

TEST(MaskedRouter, RoundRobinScansForwardFromItsAnchor) {
  ShardRouter router(cluster::RouterPolicy::kRoundRobin, 3);
  const std::vector<std::int64_t> free = {0, 0, 0};
  EXPECT_EQ(router.Route(free, {false, true, true}), 1);  // anchor 0 -> 1
  EXPECT_EQ(router.Route(free, {true, false, true}), 2);  // anchor 1 -> 2
  EXPECT_EQ(router.Route(free, {true, false, true}), 2);  // anchor 2
}

TEST(MaskedRouter, FallsBackToFullPoolWhenNothingRoutable) {
  ShardRouter router(cluster::RouterPolicy::kLeastLoaded, 3);
  const std::vector<std::int64_t> free = {10, 5, 7};
  EXPECT_EQ(router.Route(free, {false, false, false}), 1);
}

// ---------------------------------------------------------------------
// Cluster fault planning and the injector split

TEST(ClusterFaultPlan, ParseGenerateAndSplit) {
  const fault::FaultCampaignSpec spec = fault::ParseFaultCampaign(
      "seed=5,crashes=2,hangs=1,slow-replicas=1,route-fails=3,"
      "crash-down-cycles=512,hang-cycles=256,slow-factor=3,"
      "slow-services=4,span=8");
  EXPECT_EQ(spec.seed, 5u);
  EXPECT_EQ(spec.crashes, 2);
  EXPECT_EQ(spec.hangs, 1);
  EXPECT_EQ(spec.slow_replicas, 1);
  EXPECT_EQ(spec.route_fails, 3);
  EXPECT_EQ(spec.crash_down_cycles, 512);
  EXPECT_EQ(spec.hang_cycles, 256);
  EXPECT_EQ(spec.slow_factor, 3);
  EXPECT_EQ(spec.slow_services, 4);
  EXPECT_THROW(fault::ParseFaultCampaign("crashes=-1"), Error);
  EXPECT_THROW(fault::ParseFaultCampaign("slow-factor=1"), Error);

  Fixture f;
  fault::FaultCampaignSpec sized = spec;
  sized.workers = 2;
  const fault::FaultPlan plan =
      fault::FaultPlan::Generate(sized, f.design.memory_map);
  ASSERT_EQ(plan.events.size(), 7u);
  int cluster_events = 0;
  for (const fault::FaultEvent& event : plan.events)
    if (fault::IsClusterFault(event.kind)) ++cluster_events;
  EXPECT_EQ(cluster_events, 7);
  EXPECT_NE(plan.ToString().find("crash"), std::string::npos);

  // Equal (spec, map) pairs yield equal plans.
  const fault::FaultPlan again =
      fault::FaultPlan::Generate(sized, f.design.memory_map);
  EXPECT_EQ(plan.ToString(), again.ToString());

  // The injector deals cluster events into per-replica slices and keeps
  // them out of the datapath lanes.
  fault::FaultInjector injector(plan, 2);
  EXPECT_EQ(injector.cluster_events(), 7u);
  EXPECT_EQ(injector.ClusterForReplica(0).size() +
                injector.ClusterForReplica(1).size(),
            7u);
  for (int w = 0; w < 2; ++w)
    for (const fault::FaultEvent& event : injector.ForWorker(w))
      EXPECT_FALSE(fault::IsClusterFault(event.kind));
}

// ---------------------------------------------------------------------
// Server-level resilience

TEST(ChaosServer, CrashSplitsBatchAndRedispatchesToSurvivor) {
  Fixture f;
  const int kRequests = 12;
  const std::vector<Tensor> inputs = f.Inputs(kRequests);

  auto run = [&](const fault::FaultPlan& plan) {
    ServeOptions options;
    options.replicas = 2;
    options.max_batch_size = 1;
    options.faults = plan;
    InferenceServer server(f.net, f.design, f.weights, options);
    for (const Tensor& input : inputs) server.Submit(input, 0);
    std::vector<ServedRequest> records = server.Drain();
    return std::make_pair(std::move(records), server.Stats());
  };

  fault::FaultPlan plan;
  plan.seed = 1;
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.worker = 0;
  crash.invocation = 2;  // replica 0 dies before its third service
  crash.down_cycles = 4096;
  plan.events.push_back(crash);

  const auto [clean, clean_stats] = run(fault::FaultPlan{});
  const auto [records, stats] = run(plan);

  ASSERT_EQ(records.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(records[i].status, StatusCode::kOk) << "request " << i;
    EXPECT_EQ(records[i].output.storage(), clean[i].output.storage())
        << "request " << i;
  }
  EXPECT_EQ(stats.crashes, 1);
  EXPECT_GE(stats.redispatched, 1);
  EXPECT_EQ(stats.readmissions, 1);
  EXPECT_GE(stats.health_transitions, 1);
  EXPECT_EQ(clean_stats.crashes, 0);
}

TEST(ChaosServer, HedgingBoundsSlowReplicaTailLatency) {
  Fixture f;
  const int kRequests = 32;
  const std::vector<Tensor> inputs = f.Inputs(kRequests);

  fault::FaultPlan plan;
  plan.seed = 2;
  fault::FaultEvent slow;
  slow.kind = fault::FaultKind::kSlow;
  slow.worker = 1;
  slow.invocation = 0;
  slow.slow_factor = 8;
  slow.slow_services = 4;
  plan.events.push_back(slow);

  auto run = [&](const fault::FaultPlan& faults,
                 std::int64_t hedge_after) {
    ServeOptions options;
    options.replicas = 4;
    options.router = cluster::RouterPolicy::kRoundRobin;
    options.max_batch_size = 1;
    options.faults = faults;
    options.hedge_after_cycles = hedge_after;
    InferenceServer server(f.net, f.design, f.weights, options);
    const std::int64_t gap = server.steady_cycles();
    std::int64_t arrival = 0;
    for (const Tensor& input : inputs) {
      server.Submit(input, arrival);
      arrival += gap;
    }
    std::vector<ServedRequest> records = server.Drain();
    return std::make_pair(std::move(records), server.Stats());
  };

  InferenceServer probe(f.net, f.design, f.weights, {});
  const std::int64_t hedge_after = 3 * probe.steady_cycles();
  probe.Drain();

  const auto [clean, clean_stats] = run(fault::FaultPlan{}, 0);
  const auto [slow_records, slow_stats] = run(plan, 0);
  const auto [hedged, hedged_stats] = run(plan, hedge_after);

  ASSERT_EQ(hedged.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(hedged[i].status, StatusCode::kOk) << "request " << i;
    EXPECT_EQ(hedged[i].output.storage(), clean[i].output.storage())
        << "request " << i;
  }
  EXPECT_GE(hedged_stats.hedges, 1);
  EXPECT_GE(hedged_stats.hedge_wins, 1);
  // The documented bound (DESIGN.md "Cluster resilience"): hedged p99
  // stays within 5x fault-free, and beats the unhedged run.
  EXPECT_LE(hedged_stats.latency_p99_s, 5.0 * clean_stats.latency_p99_s);
  EXPECT_LT(hedged_stats.latency_p99_s, slow_stats.latency_p99_s);
  EXPECT_EQ(clean_stats.hedges, 0);
}

TEST(ChaosServer, BreakerOpensUnderRepeatedRouteFailures) {
  Fixture f;
  const int kRequests = 12;
  const std::vector<Tensor> inputs = f.Inputs(kRequests);

  // Three transient route failures stacked on the sole replica's first
  // committed service: a single-replica pool forces the liveness
  // fallback to keep re-attempting it, so the breaker sees the
  // consecutive failures (with more replicas the health monitor parks
  // the replica at kSuspect after one failure and traffic just routes
  // around it).
  fault::FaultPlan plan;
  plan.seed = 3;
  for (int i = 0; i < 3; ++i) {
    fault::FaultEvent event;
    event.kind = fault::FaultKind::kRouteFail;
    event.worker = 0;
    event.invocation = 0;
    plan.events.push_back(event);
  }

  ServeOptions options;
  options.replicas = 1;
  options.max_batch_size = 1;
  options.faults = plan;
  options.breaker.enabled = true;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_cycles = 1 << 14;
  InferenceServer server(f.net, f.design, f.weights, options);
  for (const Tensor& input : inputs) server.Submit(input, 0);
  const std::vector<ServedRequest>& records = server.Drain();
  const ServerStats stats = server.Stats();

  for (const ServedRequest& r : records)
    EXPECT_EQ(r.status, StatusCode::kOk);
  EXPECT_EQ(stats.route_failures, 3);
  EXPECT_EQ(stats.breaker_opens, 1);
  EXPECT_GE(stats.health_transitions, 2);  // suspect, then down
}

// The acceptance campaign: >= 4 replicas, mixed cluster + datapath
// faults, hedging and breaker on — zero lost requests, kOk outputs
// bit-identical to fault-free, metrics/trace/time-series byte-stable
// across reruns.
TEST(ChaosServer, SeededCampaignIsLosslessAndByteStable) {
  Fixture f;
  const int kRequests = 48;
  const int kReplicas = 4;
  const std::vector<Tensor> inputs = f.Inputs(kRequests);

  fault::FaultCampaignSpec spec;
  spec.seed = 11;
  spec.crashes = 2;
  spec.hangs = 2;
  spec.slow_replicas = 1;
  spec.route_fails = 3;
  spec.weight_flips = 20;
  spec.transients = 2;
  spec.invocation_span = kRequests / kReplicas;
  spec.workers = kReplicas;
  const fault::FaultPlan plan =
      fault::FaultPlan::Generate(spec, f.design.memory_map);

  struct Run {
    std::vector<ServedRequest> records;
    ServerStats stats;
    std::string trace;
    std::string metrics;
    std::string timeseries;
  };
  auto run = [&](const fault::FaultPlan& faults) {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    obs::TimeSeriesRecorder timeseries;
    ServeOptions options;
    options.replicas = kReplicas;
    options.max_batch_size = 2;
    options.faults = faults;
    options.hedge_after_cycles = 1 << 16;
    options.breaker.enabled = true;
    options.tracer = &tracer;
    options.metrics = &metrics;
    options.timeseries = &timeseries;
    InferenceServer server(f.net, f.design, f.weights, options);
    std::int64_t arrival = 0;
    for (const Tensor& input : inputs) {
      server.Submit(input, arrival);
      arrival += 50;
    }
    Run result;
    result.records = server.Drain();
    result.stats = server.Stats();
    result.trace =
        obs::WriteChromeTrace(tracer, f.design.config.frequency_mhz);
    result.metrics = metrics.ToJson();
    result.timeseries = timeseries.ToJson();
    return result;
  };

  const Run clean = run(fault::FaultPlan{});
  const Run first = run(plan);
  const Run second = run(plan);

  // Zero lost requests, every kOk output bit-identical to fault-free.
  ASSERT_EQ(first.records.size(), static_cast<std::size_t>(kRequests));
  std::int64_t ok = 0;
  for (int i = 0; i < kRequests; ++i) {
    if (first.records[i].status != StatusCode::kOk) continue;
    ++ok;
    EXPECT_EQ(first.records[i].output.storage(),
              clean.records[i].output.storage())
        << "request " << i;
  }
  EXPECT_EQ(ok + first.stats.shed + first.stats.rejected +
                first.stats.deadline_exceeded + first.stats.faulted,
            kRequests);
  EXPECT_GE(first.stats.crashes + first.stats.hangs +
                first.stats.slow_faults + first.stats.route_failures,
            1);

  // Byte-stable exports across identical reruns.
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.timeseries, second.timeseries);

  // The health time-series column and cluster metrics exist.
  EXPECT_NE(first.timeseries.find("load.replica0.health"),
            std::string::npos);
  EXPECT_NE(first.metrics.find("cluster.health.crashes"),
            std::string::npos);
}

}  // namespace
}  // namespace db
