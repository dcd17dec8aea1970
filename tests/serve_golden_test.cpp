// Golden serving oracle (ctest label: differential): FNV digests of
// every byte-stable artifact the inference server produces — each
// record's fields, ServerStats, the Chrome trace, the metrics JSON
// (with the per-invocation sim.* counters) and the load time-series —
// over the golden matrix of serve_cases.h.  The digests were recorded
// before the scheduler was restructured into a pure planner and a thin
// executor; a mismatch means serving behaviour changed, not that the
// digest needs re-recording.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "serve_cases.h"

namespace db {
namespace {

using serve::InferenceServer;
using serve::ServedRequest;
using serve::ServerStats;

std::string RecordText(const ServedRequest& r) {
  return StrFormat(
      "%lld %lld %d %lld %lld %lld %lld %lld %lld %.17g %s %d %lld\n",
      static_cast<long long>(r.id), static_cast<long long>(r.batch_id),
      r.worker, static_cast<long long>(r.arrival_cycle),
      static_cast<long long>(r.deadline_cycle),
      static_cast<long long>(r.start_cycle),
      static_cast<long long>(r.finish_cycle),
      static_cast<long long>(r.service_cycles),
      static_cast<long long>(r.dram_bytes), r.joules,
      StatusCodeName(r.status), r.retries,
      static_cast<long long>(r.recovery_cycles));
}

std::string StatsText(const ServerStats& s) {
  std::string out = StrFormat(
      "%lld %lld %d %.17g | %lld %lld %lld %lld %lld %lld %lld %lld | "
      "%lld %lld %lld %lld %lld %lld %lld %lld %lld %lld | %lld %.17g "
      "%.17g | %.17g %.17g %.17g %.17g %.17g | %lld %.17g |",
      static_cast<long long>(s.requests), static_cast<long long>(s.batches),
      s.workers, s.frequency_mhz, static_cast<long long>(s.completed),
      static_cast<long long>(s.shed), static_cast<long long>(s.rejected),
      static_cast<long long>(s.deadline_exceeded),
      static_cast<long long>(s.faulted), static_cast<long long>(s.retries),
      static_cast<long long>(s.faults_injected),
      static_cast<long long>(s.recovery_cycles),
      static_cast<long long>(s.crashes), static_cast<long long>(s.hangs),
      static_cast<long long>(s.slow_faults),
      static_cast<long long>(s.route_failures),
      static_cast<long long>(s.redispatched),
      static_cast<long long>(s.readmissions),
      static_cast<long long>(s.breaker_opens),
      static_cast<long long>(s.hedges), static_cast<long long>(s.hedge_wins),
      static_cast<long long>(s.health_transitions),
      static_cast<long long>(s.makespan_cycles), s.makespan_seconds,
      s.throughput_rps, s.latency_p50_s, s.latency_p90_s, s.latency_p99_s,
      s.latency_max_s, s.latency_mean_s,
      static_cast<long long>(s.total_dram_bytes), s.total_joules);
  const obs::HistogramStats& h = s.latency_cycles;
  out += StrFormat(" %lld %.17g %.17g %.17g:", static_cast<long long>(h.count),
                   h.sum, h.min, h.max);
  for (const auto& [bucket, count] : h.buckets)
    out += StrFormat(" %d=%lld", bucket, static_cast<long long>(count));
  for (const auto* v : {&s.worker_busy_cycles, &s.replica_requests,
                        &s.replica_batches}) {
    out += " |";
    for (const std::int64_t x : *v)
      out += StrFormat(" %lld", static_cast<long long>(x));
  }
  return out;
}

struct Digests {
  std::uint64_t records = 0;
  std::uint64_t stats = 0;
  std::uint64_t trace = 0;
  std::uint64_t metrics = 0;
  std::uint64_t timeseries = 0;
};

struct Served {
  std::vector<ServedRequest> records;
  ServerStats stats;
  std::string trace;
  std::string metrics;
  std::string timeseries;
};

Served Serve(const serve_cases::Fixture& fx, const serve_cases::Case& c) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::TimeSeriesRecorder timeseries;
  serve::ServeOptions options = c.options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  options.perf.metrics = &metrics;
  options.timeseries = &timeseries;
  InferenceServer server(fx.net, fx.design, fx.weights, options);
  for (std::size_t i = 0; i < c.arrivals.size(); ++i)
    server.Submit(fx.Input(1000 + i), c.arrivals[i].arrival,
                  c.arrivals[i].deadline);
  Served out;
  out.records = server.Drain();
  out.stats = server.Stats();
  out.trace = obs::WriteChromeTrace(tracer, fx.design.config.frequency_mhz);
  out.metrics = metrics.ToJson();
  out.timeseries = timeseries.ToJson();
  return out;
}

Digests DigestOf(const Served& s) {
  Digests d;
  std::string records;
  for (const ServedRequest& r : s.records) records += RecordText(r);
  d.records = Fnv1a64(records);
  d.stats = Fnv1a64(StatsText(s.stats));
  d.trace = Fnv1a64(s.trace);
  d.metrics = Fnv1a64(s.metrics);
  d.timeseries = Fnv1a64(s.timeseries);
  return d;
}

// Recorded on the scheduler that predates serve::Planner.
const std::map<std::string, Digests>& Golden() {
  static const std::map<std::string, Digests> golden = {
      {"admission-block",
       {0x10db9db0b2093f2full, 0x76fa38d63178693bull, 0x2f22ce1badce6fc3ull,
        0x1695450601194b78ull, 0x187d588f62e9bc0eull}},
      {"admission-reject",
       {0x988453d2aec0df27ull, 0xdf427d9583e00839ull, 0x72b1acc2fe1ff16bull,
        0x36b4fdc169342443ull, 0xb06143aa29a34460ull}},
      {"admission-shed-oldest",
       {0xa0a5e3e433769363ull, 0x2581edecc11c9bd5ull, 0x97db39a9914300caull,
        0x184dca120841052eull, 0xabdbbd118c1f8fcfull}},
      {"default-deadline",
       {0xb37bf4dfb3db6e04ull, 0x0080615bcf05ac0cull, 0x903f62505212f4bcull,
        0x710fb76d7ded1c23ull, 0xf27be47c875ccb3eull}},
      {"round-robin-x1",
       {0x076349182aea2eedull, 0x4a7562e38c7393beull, 0xd10cac6e600b9cb0ull,
        0xeb2fc6f80cb7e69cull, 0x441ff3faefe87b27ull}},
      {"round-robin-x2",
       {0xdf20582d4f237189ull, 0xf637f1eba457a501ull, 0x979f8a7aeabaa603ull,
        0x1d086f7218245062ull, 0xf439c4fa812becbcull}},
      {"round-robin-x4",
       {0xa5906f7d60562096ull, 0xcc06874e2c821623ull, 0x7ae9bceed00f54a4ull,
        0xc9f26d749ac44632ull, 0x13191fe9e6a0c423ull}},
      {"least-loaded-x1",
       {0x076349182aea2eedull, 0x4a7562e38c7393beull, 0xd10cac6e600b9cb0ull,
        0x2e817a11fd78c345ull, 0x441ff3faefe87b27ull}},
      {"least-loaded-x2",
       {0xe4dd937f1c0a8219ull, 0x709f6bff90806029ull, 0x72496ce48cdc2eefull,
        0x40d365775d61a02dull, 0x86f19e3feabe9c20ull}},
      {"least-loaded-x4",
       {0x9abcbc0154440300ull, 0x253bf918144f2cd4ull, 0xfdc7fb265ecfcc67ull,
        0x86ed7b9c6a83dc3dull, 0xf412ae7801e24477ull}},
      {"hash-affinity-x1",
       {0x076349182aea2eedull, 0x4a7562e38c7393beull, 0xd10cac6e600b9cb0ull,
        0x1b3651895fb2ce0eull, 0x441ff3faefe87b27ull}},
      {"hash-affinity-x2",
       {0x5620168aee619a67ull, 0x7715d40e2e754ce5ull, 0x416ce3b27a399415ull,
        0xb0f4e5f04c2b86a8ull, 0xe779d89825da4cceull}},
      {"hash-affinity-x4",
       {0x5620168aee619a67ull, 0x0e20cf1bee97b03full, 0x416ce3b27a399415ull,
        0x5e397fa2db2e4e9aull, 0x9df86714e559a2d0ull}},
      {"datapath-faults",
       {0xbb21d528724d226eull, 0x67e4fabb5d2b0734ull, 0x246294e55e31be2full,
        0x0336418abab4268full, 0xc9ab74f74d315f70ull}},
      {"cluster-crash-split",
       {0x9734670bf64805ccull, 0x53f0204f60241f54ull, 0xd86bc414a706f7f2ull,
        0x438693451ed0e6beull, 0x347f6a2038e6e160ull}},
      {"hedge-slow-replica",
       {0x25c3f1358b356f59ull, 0x4644d1f6da198a89ull, 0x69ad82842ad41914ull,
        0xdbc5a3198604b882ull, 0x77b0b7a12167ebd3ull}},
      {"breaker-open",
       {0x567dc9e2d5833bb6ull, 0x441955c74a8552dcull, 0xa8d53d37f007f2eeull,
        0xe6df73a8db298bfcull, 0xa4af3c3c95098f84ull}},
      {"chaos-x4",
       {0xc61c3226d07b434bull, 0xc9fbb322f266b2b1ull, 0xdeb698d01486fe55ull,
        0xd20732228ba4af2dull, 0x0330cdde7e763042ull}},
      {"chaos-x2-rr",
       {0x1af0640adb1bc13aull, 0x0302a34f323c4eb8ull, 0x2f86d932a446d1a7ull,
        0x6fe6181de1707977ull, 0x1b9f7c93c3b33fdcull}},
  };
  return golden;
}

TEST(ServeGolden, EveryArtifactMatchesThePinnedDigests) {
  const serve_cases::Fixture fx;
  std::string actual;
  int mismatches = 0;
  for (const serve_cases::Case& c : serve_cases::GoldenCases(fx)) {
    const Digests d = DigestOf(Serve(fx, c));
    actual += StrFormat(
        "      {\"%s\",\n       {0x%016" PRIx64 "ull, 0x%016" PRIx64
        "ull, 0x%016" PRIx64 "ull,\n        0x%016" PRIx64 "ull, 0x%016" PRIx64
        "ull}},\n",
        c.name.c_str(), d.records, d.stats, d.trace, d.metrics,
        d.timeseries);
    const auto it = Golden().find(c.name);
    if (it == Golden().end()) {
      ++mismatches;
      ADD_FAILURE() << c.name << ": no pinned digest";
      continue;
    }
    const Digests& g = it->second;
    EXPECT_EQ(d.records, g.records) << c.name << ": records";
    EXPECT_EQ(d.stats, g.stats) << c.name << ": ServerStats";
    EXPECT_EQ(d.trace, g.trace) << c.name << ": Chrome trace";
    EXPECT_EQ(d.metrics, g.metrics) << c.name << ": metrics JSON";
    EXPECT_EQ(d.timeseries, g.timeseries) << c.name << ": time series";
    if (d.records != g.records || d.stats != g.stats ||
        d.trace != g.trace || d.metrics != g.metrics ||
        d.timeseries != g.timeseries)
      ++mismatches;
  }
  EXPECT_EQ(Golden().size(), serve_cases::GoldenCases(fx).size());
  if (mismatches > 0) ADD_FAILURE() << "actual digests:\n" << actual;
}

// The matrix must actually reach every path it claims to cover.
TEST(ServeGolden, MatrixExercisesEveryOutcome) {
  const serve_cases::Fixture fx;
  std::map<std::string, ServerStats> stats;
  std::map<std::string, std::string> metrics;
  for (const serve_cases::Case& c : serve_cases::GoldenCases(fx)) {
    Served s = Serve(fx, c);
    stats[c.name] = s.stats;
    metrics[c.name] = s.metrics;
  }
  EXPECT_GT(stats["admission-reject"].rejected, 0);
  EXPECT_GT(stats["admission-shed-oldest"].shed, 0);
  EXPECT_GT(stats["default-deadline"].deadline_exceeded, 0);
  EXPECT_GT(stats["default-deadline"].completed, 0);
  const ServerStats& dp = stats["datapath-faults"];
  EXPECT_GT(dp.faulted, 0);
  EXPECT_GT(dp.retries, 0);
  EXPECT_GT(dp.deadline_exceeded, 0);
  // Scrubs are charged (the twice-flipped bit alone would charge none).
  EXPECT_EQ(metrics["datapath-faults"].find("\"fault.scrubs\": 0"),
            std::string::npos);
  const ServerStats& split = stats["cluster-crash-split"];
  EXPECT_EQ(split.crashes, 1);
  EXPECT_GT(split.redispatched, 0);
  EXPECT_GT(split.hangs, 0);
  EXPECT_GT(split.slow_faults, 0);
  EXPECT_GT(split.route_failures, 0);
  EXPECT_GT(split.hedges, 0);
  // The router policies really route differently.
  EXPECT_NE(stats["round-robin-x4"].replica_requests,
            stats["least-loaded-x4"].replica_requests);
  EXPECT_NE(stats["least-loaded-x2"].replica_requests,
            stats["hash-affinity-x2"].replica_requests);
  EXPECT_GT(stats["hedge-slow-replica"].hedge_wins, 0);
  EXPECT_GT(stats["breaker-open"].breaker_opens, 0);
  for (const char* name : {"chaos-x4", "chaos-x2-rr"}) {
    EXPECT_GT(stats[name].crashes, 0) << name;
    EXPECT_GT(stats[name].hedges, 0) << name;
    EXPECT_GT(stats[name].faults_injected, 0) << name;
  }
}

}  // namespace
}  // namespace db
