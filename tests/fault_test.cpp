// Tests for the deterministic fault-injection subsystem (src/fault) and
// the serving layer's resilience contract under an injected campaign.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "core/generator.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "serve/inference_server.h"
#include "sim/host_runtime.h"

namespace db {
namespace {

using fault::FaultCampaignSpec;
using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::ParseFaultCampaign;
using serve::InferenceServer;
using serve::ServedRequest;
using serve::ServeOptions;
using serve::ServerStats;

struct Fixture {
  Network net;
  AcceleratorDesign design;
  WeightStore weights;

  explicit Fixture(ZooModel model = ZooModel::kAnn0Fft)
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
};

TEST(FaultPlan, GenerateIsDeterministic) {
  const Fixture fx;
  FaultCampaignSpec spec;
  spec.seed = 42;
  spec.weight_flips = 10;
  spec.blob_flips = 3;
  spec.transients = 4;
  spec.stalls = 2;
  spec.workers = 3;
  const FaultPlan a = FaultPlan::Generate(spec, fx.design.memory_map);
  const FaultPlan b = FaultPlan::Generate(spec, fx.design.memory_map);
  ASSERT_EQ(a.events.size(), 19u);
  EXPECT_EQ(a.ToString(), b.ToString());

  FaultCampaignSpec reseeded = spec;
  reseeded.seed = 43;
  const FaultPlan c = FaultPlan::Generate(reseeded, fx.design.memory_map);
  EXPECT_NE(a.ToString(), c.ToString());
}

TEST(FaultPlan, GeneratedFlipsLandInTheirRegions) {
  const Fixture fx;
  FaultCampaignSpec spec;
  spec.seed = 7;
  spec.weight_flips = 50;
  spec.blob_flips = 20;
  spec.workers = 2;
  const FaultPlan plan = FaultPlan::Generate(spec, fx.design.memory_map);
  int weight = 0, blob = 0;
  for (const FaultEvent& e : plan.events) {
    ASSERT_EQ(e.kind, FaultKind::kBitFlip);
    EXPECT_GE(e.bit, 0);
    EXPECT_LT(e.bit, 8);
    EXPECT_GE(e.worker, 0);
    EXPECT_LT(e.worker, 2);
    const MemoryRegion* region = nullptr;
    for (const MemoryRegion& r : fx.design.memory_map.regions())
      if (e.addr >= r.base && e.addr < r.base + r.bytes) region = &r;
    ASSERT_NE(region, nullptr) << "flip addr outside every region";
    EXPECT_EQ(StartsWith(region->name, "weights:"), e.weight_region);
    (e.weight_region ? weight : blob) += 1;
  }
  EXPECT_EQ(weight, 50);
  EXPECT_EQ(blob, 20);
}

TEST(FaultPlan, ParseCampaignSpec) {
  const FaultCampaignSpec spec = ParseFaultCampaign(
      "seed=9,flips=100,blob-flips=4,transients=5,stalls=2,"
      "stall-cycles=512,span=32");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.weight_flips, 100);
  EXPECT_EQ(spec.blob_flips, 4);
  EXPECT_EQ(spec.transients, 5);
  EXPECT_EQ(spec.stalls, 2);
  EXPECT_EQ(spec.stall_cycles, 512);
  EXPECT_EQ(spec.invocation_span, 32);

  EXPECT_THROW(ParseFaultCampaign("flips"), Error);          // no value
  EXPECT_THROW(ParseFaultCampaign("bogus=1"), Error);        // unknown key
  EXPECT_THROW(ParseFaultCampaign("flips=many"), Error);     // bad value
  EXPECT_THROW(ParseFaultCampaign("flips=1000001"), Error);  // too many
  EXPECT_THROW(ParseFaultCampaign("seed=-1"), Error);         // negative
  EXPECT_THROW(ParseFaultCampaign("span=0"), Error);          // below 1
}

TEST(FaultInjector, PartitionsPerWorkerSortedByInvocation) {
  FaultPlan plan;
  plan.events.push_back(
      FaultEvent{FaultKind::kStall, 1, 5, 0, 0, false, 100});
  plan.events.push_back(
      FaultEvent{FaultKind::kTransient, 0, 3, 0, 0, false, 0});
  plan.events.push_back(
      FaultEvent{FaultKind::kBitFlip, 1, 2, 64, 1, true, 0});
  const FaultInjector injector(plan, 2);
  EXPECT_EQ(injector.total_events(), 3u);
  ASSERT_EQ(injector.ForWorker(0).size(), 1u);
  ASSERT_EQ(injector.ForWorker(1).size(), 2u);
  EXPECT_EQ(injector.ForWorker(1)[0].invocation, 2);
  EXPECT_EQ(injector.ForWorker(1)[1].invocation, 5);
  EXPECT_FALSE(injector.HasWeightFlips(0));
  EXPECT_TRUE(injector.HasWeightFlips(1));

  FaultPlan bad;
  bad.events.push_back(
      FaultEvent{FaultKind::kStall, 7, 0, 0, 0, false, 1});
  EXPECT_THROW(FaultInjector(bad, 2), Error);
}

TEST(FaultInjector, WeightCompareDetectsFlipAndScrubRestores) {
  const Fixture fx;
  const MemoryImage golden =
      BuildHostImage(fx.net, fx.design, fx.weights);
  ASSERT_TRUE(fault::WeightsMatch(golden, golden, fx.design.memory_map));
  ASSERT_GT(fault::WeightRegionBytes(fx.design.memory_map), 0);

  MemoryImage image = golden;
  std::int64_t weight_addr = -1;
  for (const MemoryRegion& r : fx.design.memory_map.regions())
    if (StartsWith(r.name, "weights:")) weight_addr = r.base;
  ASSERT_GE(weight_addr, 0);
  image.FlipBit(weight_addr, 3);
  EXPECT_FALSE(fault::WeightsMatch(image, golden, fx.design.memory_map));

  const std::int64_t copied =
      fault::ScrubWeights(image, golden, fx.design.memory_map);
  EXPECT_EQ(copied, fault::WeightRegionBytes(fx.design.memory_map));
  EXPECT_TRUE(fault::WeightsMatch(image, golden, fx.design.memory_map));
}

TEST(FaultInjector, BlobFlipsDoNotAffectWeightCompare) {
  const Fixture fx;
  const MemoryImage golden =
      BuildHostImage(fx.net, fx.design, fx.weights);
  MemoryImage image = golden;
  for (const MemoryRegion& r : fx.design.memory_map.regions())
    if (StartsWith(r.name, "blob:")) {
      image.FlipBit(r.base, 0);
      break;
    }
  EXPECT_NE(image.bytes(), golden.bytes());
  EXPECT_TRUE(fault::WeightsMatch(image, golden, fx.design.memory_map));
}

// ISSUE 3 acceptance: a seeded campaign of >= 100 weight-region bit
// flips plus transient failures and stalls, against an MNIST-class
// served workload, completes with every non-shed, non-expired request's
// output bit-identical to the fault-free run, and the published
// fault.* / serve.* metrics are byte-stable across same-seed runs.
TEST(FaultCampaign, SurvivesBitFlipsTransientsAndStalls) {
  const Fixture fx(ZooModel::kMnist);
  constexpr int kRequests = 32;
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i)
    inputs.push_back(fx.RandomInput(200 + static_cast<std::uint64_t>(i)));

  FaultCampaignSpec spec;
  spec.seed = 2016;
  spec.weight_flips = 110;  // >= 100 DRAM bit flips in weight regions
  spec.transients = 6;
  spec.stalls = 3;
  spec.invocation_span = kRequests / 2;  // every event fires
  spec.workers = 2;
  const FaultPlan plan = FaultPlan::Generate(spec, fx.design.memory_map);

  struct Run {
    std::vector<ServedRequest> records;
    ServerStats stats;
    std::string metrics_json;
  };
  auto serve = [&](const FaultPlan& faults) {
    obs::MetricsRegistry metrics;
    ServeOptions options;
    options.replicas = 2;
    options.max_batch_size = 4;
    options.faults = faults;
    options.metrics = &metrics;
    InferenceServer server(fx.net, fx.design, fx.weights, options);
    for (const Tensor& input : inputs) server.Submit(input, 0);
    Run run{server.Drain(), server.Stats(), std::string()};
    run.metrics_json = metrics.ToJson();
    return run;
  };

  const Run clean = serve(FaultPlan{});
  const Run faulty = serve(plan);

  ASSERT_EQ(faulty.records.size(), clean.records.size());
  for (std::size_t i = 0; i < faulty.records.size(); ++i) {
    if (faulty.records[i].status != StatusCode::kOk) continue;
    EXPECT_EQ(faulty.records[i].output.storage(),
              clean.records[i].output.storage())
        << "request " << i << " corrupted by the campaign";
  }
  EXPECT_EQ(faulty.stats.faults_injected, 119);
  EXPECT_GE(faulty.stats.retries, 1);
  EXPECT_GT(faulty.stats.recovery_cycles, 0);
  EXPECT_EQ(faulty.stats.completed + faulty.stats.faulted, kRequests);
  // Recovery costs simulated time, never correctness.
  EXPECT_GE(faulty.stats.makespan_cycles, clean.stats.makespan_cycles);

  // Same seed, same plan, same bytes out.
  const Run again = serve(plan);
  EXPECT_EQ(faulty.metrics_json, again.metrics_json);
  EXPECT_NE(faulty.metrics_json.find("fault.injected.bit_flip"),
            std::string::npos);
  EXPECT_NE(faulty.metrics_json.find("serve.deadline_exceeded"),
            std::string::npos);
  for (std::size_t i = 0; i < faulty.records.size(); ++i) {
    EXPECT_EQ(faulty.records[i].finish_cycle, again.records[i].finish_cycle)
        << i;
    EXPECT_EQ(faulty.records[i].retries, again.records[i].retries) << i;
  }
}

}  // namespace
}  // namespace db
