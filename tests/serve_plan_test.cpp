// Tests for serve::Planner (src/serve/planner.h): batching, a
// million-request chaos plan with no model at all, and agreement with
// the executing server on the golden matrix of serve_cases.h.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "serve/planner.h"
#include "serve_cases.h"

namespace db {
namespace {

using serve::Dispatch;
using serve::Planner;
using serve::PlanCosts;
using serve::ServedRequest;
using serve::ServeOptions;

constexpr PlanCosts kCosts{100, 50, 10};

TEST(Planner, BatchClosesOnMaxBatchSize) {
  ServeOptions options;
  options.replicas = 1;
  options.max_batch_size = 3;
  options.linger_cycles = 1000;
  Planner planner(options, kCosts);
  std::vector<Dispatch> out;
  planner.Submit(10, 0, out);
  planner.Submit(20, 0, out);
  EXPECT_TRUE(out.empty());
  planner.Submit(30, 0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].services.size(), 3u);
  for (const ServedRequest& r : planner.records()) {
    EXPECT_EQ(r.batch_id, 0);
    EXPECT_EQ(r.start_cycle, 30);  // a full batch goes immediately
  }
  out.clear();
  planner.Flush(out);
  EXPECT_TRUE(out.empty());
}

TEST(Planner, LingerExpiryClosesPartialBatch) {
  ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 8;
  options.linger_cycles = 100;
  Planner planner(options, kCosts);
  std::vector<Dispatch> out;
  planner.Submit(50, 0, out);
  planner.Submit(120, 0, out);  // inside the window
  EXPECT_TRUE(out.empty());
  planner.Submit(151, 0, out);  // outside 50 + 100
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].services.size(), 2u);
  EXPECT_EQ(planner.records()[0].start_cycle, 150);  // first + linger
  out.clear();
  planner.Flush(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].services.size(), 1u);
  // The flush dispatches at the last arrival, on the idle replica.
  EXPECT_EQ(planner.records()[2].batch_id, 1);
  EXPECT_EQ(planner.records()[2].start_cycle, 151);
}

TEST(Planner, RejectsDecreasingArrivals) {
  ServeOptions options;
  options.max_batch_size = 4;
  Planner planner(options, kCosts);
  std::vector<Dispatch> out;
  planner.Submit(100, 0, out);
  EXPECT_THROW(planner.Submit(99, 0, out), std::logic_error);
}

// A seeded chaos plan over replicas 0..3 and invocations [0, span),
// built without any memory map: the planner only reads the labels.
fault::FaultPlan ChaosPlan(std::int64_t span) {
  fault::FaultPlan plan;
  plan.seed = 99;
  Rng rng(plan.seed);
  const fault::FaultKind kinds[] = {
      fault::FaultKind::kBitFlip, fault::FaultKind::kTransient,
      fault::FaultKind::kStall,   fault::FaultKind::kCrash,
      fault::FaultKind::kHang,    fault::FaultKind::kSlow,
      fault::FaultKind::kRouteFail};
  for (int k = 0; k < 700; ++k) {
    fault::FaultEvent e;
    e.kind = kinds[k % 7];
    e.worker = static_cast<int>(rng.UniformInt(4));
    e.invocation = static_cast<std::int64_t>(
        rng.UniformInt(static_cast<std::uint64_t>(span)));
    e.addr = static_cast<std::int64_t>(rng.UniformInt(1 << 20));
    e.bit = static_cast<int>(rng.UniformInt(8));
    e.weight_region = rng.UniformInt(4) != 0;
    e.stall_cycles = 300;
    e.down_cycles = 5000;
    e.slow_factor = 3;
    e.slow_services = 8;
    plan.events.push_back(e);
  }
  // Transients stacked beyond max_retries on a few invocations.
  for (int w = 0; w < 4; ++w)
    for (int k = 0; k < 5; ++k) {
      fault::FaultEvent e;
      e.kind = fault::FaultKind::kTransient;
      e.worker = w;
      e.invocation = 1000 * (w + 1);
      plan.events.push_back(e);
    }
  return plan;
}

// 10^6 arrivals on four replicas under a chaos campaign.  No network or
// design exists in this test, so nothing can simulate: the whole
// schedule comes from the planner.  Every request must end in exactly
// one disposition, and the dispatches must list each kOk request
// exactly once.
TEST(Planner, MillionArrivalsUnderChaosLoseNothing) {
  constexpr std::int64_t kRequests = 1'000'000;
  constexpr std::int64_t kSteady = 2000;
  ServeOptions options;
  options.replicas = 4;
  options.max_batch_size = 8;
  options.linger_cycles = 4 * kSteady;
  options.admission = serve::AdmissionPolicy::kShedOldest;
  options.queue_capacity = 6;
  options.deadline_cycles = 64 * kSteady;
  options.hedge_after_cycles = 12 * kSteady;
  options.breaker.enabled = true;
  options.faults = ChaosPlan(kRequests / 4);
  Planner planner(options, PlanCosts{3 * kSteady, kSteady, 500});

  std::vector<std::uint8_t> dispatched(kRequests, 0);
  std::vector<Dispatch> out;
  const auto take = [&] {
    for (const Dispatch& d : out) {
      ASSERT_GE(d.replica, 0);
      ASSERT_LT(d.replica, 4);
      for (const serve::PlannedService& s : d.services)
        ++dispatched[static_cast<std::size_t>(s.request_id)];
    }
    out.clear();
  };
  // One arrival per steady invocation, except for a burst of 12 at the
  // start of every hundred.
  for (std::int64_t i = 0; i < kRequests; ++i) {
    planner.Submit((i % 100 < 12 ? i - i % 100 : i) * kSteady, 0, out);
    take();
  }
  planner.Flush(out);
  take();

  const std::vector<ServedRequest>& records = planner.records();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kRequests));
  std::int64_t by_status[5] = {0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ServedRequest& r = records[i];
    ASSERT_EQ(r.id, static_cast<std::int64_t>(i));
    ASSERT_EQ(dispatched[i], r.status == StatusCode::kOk ? 1 : 0) << i;
    ASSERT_GE(r.finish_cycle, r.arrival_cycle) << i;
    switch (r.status) {
      case StatusCode::kOk:
        ASSERT_GE(r.worker, 0) << i;
        ASSERT_GT(r.service_cycles, 0) << i;
        ASSERT_GE(r.finish_cycle - r.service_cycles, r.arrival_cycle) << i;
        ++by_status[0];
        break;
      case StatusCode::kShed: ++by_status[1]; break;
      case StatusCode::kRejected: ++by_status[2]; break;
      case StatusCode::kDeadlineExceeded:
        ASSERT_GT(r.finish_cycle, r.deadline_cycle) << i;
        ++by_status[3];
        break;
      case StatusCode::kFaulted:
        ASSERT_EQ(r.retries, options.max_retries) << i;
        ++by_status[4];
        break;
    }
  }
  EXPECT_GT(by_status[0], kRequests / 2);
  EXPECT_GT(by_status[1], 0);
  EXPECT_GT(by_status[4], 0);
  EXPECT_GT(planner.counts().crashes, 0);
  EXPECT_GT(planner.counts().hedges, 0);
  EXPECT_GT(planner.counts().redispatched, 0);
}

// serve::Plan alone reproduces every record the executing server
// produces on the golden matrix, outputs aside.
TEST(Planner, PlanMatchesTheServerOnTheGoldenMatrix) {
  const serve_cases::Fixture fx;
  for (const serve_cases::Case& c : serve_cases::GoldenCases(fx)) {
    serve::InferenceServer server(fx.net, fx.design, fx.weights, c.options);
    std::vector<serve::Arrival> arrivals;
    for (std::size_t i = 0; i < c.arrivals.size(); ++i) {
      server.Submit(fx.Input(1000 + i), c.arrivals[i].arrival,
                    c.arrivals[i].deadline);
      arrivals.push_back({c.arrivals[i].arrival, c.arrivals[i].deadline});
    }
    const std::vector<ServedRequest>& served = server.Drain();
    const PlanCosts costs{server.cold_cycles(), server.steady_cycles(),
                          server.scrub_cycles()};
    const Planner plan = serve::Plan(arrivals, c.options, costs);
    const std::vector<ServedRequest>& planned = plan.records();
    ASSERT_EQ(planned.size(), served.size()) << c.name;
    for (std::size_t i = 0; i < served.size(); ++i) {
      const ServedRequest& a = served[i];
      const ServedRequest& b = planned[i];
      EXPECT_EQ(a.id, b.id) << c.name << " " << i;
      EXPECT_EQ(a.batch_id, b.batch_id) << c.name << " " << i;
      EXPECT_EQ(a.worker, b.worker) << c.name << " " << i;
      EXPECT_EQ(a.arrival_cycle, b.arrival_cycle) << c.name << " " << i;
      EXPECT_EQ(a.deadline_cycle, b.deadline_cycle) << c.name << " " << i;
      EXPECT_EQ(a.start_cycle, b.start_cycle) << c.name << " " << i;
      EXPECT_EQ(a.finish_cycle, b.finish_cycle) << c.name << " " << i;
      EXPECT_EQ(a.service_cycles, b.service_cycles) << c.name << " " << i;
      EXPECT_EQ(a.status, b.status) << c.name << " " << i;
      EXPECT_EQ(a.retries, b.retries) << c.name << " " << i;
      EXPECT_EQ(a.recovery_cycles, b.recovery_cycles) << c.name << " " << i;
      EXPECT_EQ(b.output.size(), 0) << c.name << " " << i;
    }
  }
}

}  // namespace
}  // namespace db
