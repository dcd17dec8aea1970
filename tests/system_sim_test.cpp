// Tests for the system-level (DRAM-image-driven) simulation and the
// execution trace / VCD export.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "common/error.h"
#include "core/generator.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "sim/raw_weights.h"
#include "sim/system_sim.h"
#include "sim/trace.h"

namespace db {
namespace {

struct Fixture {
  Network net;
  AcceleratorDesign design;
  WeightStore weights;

  explicit Fixture(ZooModel model = ZooModel::kMnist)
      : net(BuildZooModel(model)),
        design(GenerateAccelerator(net, DbConstraint())),
        weights(WeightStore::CreateFor(net)) {
    Rng rng(23);
    weights = WeightStore::CreateRandom(net, rng);
  }
};

TEST(SystemSim, DecodeWeightsRoundTrips) {
  const Fixture fx;
  const MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  const WeightStore decoded = DecodeWeights(image, fx.net, fx.design);
  const double lsb = fx.design.config.format.resolution();
  for (const auto& [name, params] : fx.weights.all()) {
    const LayerParams& d = decoded.at(name);
    EXPECT_LT(MaxAbsDiff(params.weights, d.weights), lsb) << name;
    if (params.bias.size() > 0) {
      EXPECT_LT(MaxAbsDiff(params.bias, d.bias), lsb) << name;
    }
  }
}

TEST(SystemSim, MatchesDirectFunctionalSimulation) {
  const Fixture fx;
  MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  Rng rng(5);
  Tensor input(Shape{1, 12, 12});
  input.FillUniform(rng, 0.0f, 1.0f);

  const SystemRunResult system =
      RunSystem(fx.net, fx.design, image, input);
  FunctionalSimulator direct(fx.net, fx.design, fx.weights);
  const Tensor expected = direct.Run(input);
  // Weights round-trip through the image (one extra quantise, which is
  // idempotent) and the output round-trips through its blob region.
  EXPECT_LT(MaxAbsDiff(system.output, expected),
            2 * fx.design.config.format.resolution());
  EXPECT_GT(system.perf.total_cycles, 0);
}

TEST(SystemSim, CorruptedWeightRegionChangesOutput) {
  const Fixture fx;
  MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  Rng rng(6);
  Tensor input(Shape{1, 12, 12});
  input.FillUniform(rng, 0.0f, 1.0f);
  const Tensor clean = RunSystem(fx.net, fx.design, image, input).output;

  // Smash the first conv layer's weight region.
  const MemoryRegion& region = fx.design.memory_map.Weights("conv1");
  for (std::int64_t addr = region.base; addr < region.base + 64;
       addr += 2)
    image.WriteElem(addr, 0x7FFF, 2);
  const Tensor corrupted =
      RunSystem(fx.net, fx.design, image, input).output;
  EXPECT_GT(MaxAbsDiff(clean, corrupted), 0.01);
}

// Regression: DecodeWeights used to check only per-element underflow,
// so an oversized weight region with trailing garbage decoded silently.
// Now anything beyond one port-alignment beat of padding is rejected.
TEST(SystemSim, TrailingGarbageWeightRegionIsRejected) {
  Fixture fx;
  const std::int64_t align =
      fx.design.config.memory_port_elems *
      static_cast<std::int64_t>(fx.design.config.ElementBytes());
  std::vector<MemoryRegion> regions = fx.design.memory_map.regions();
  bool grown = false;
  for (MemoryRegion& r : regions) {
    if (grown) r.base += align;  // keep successors overlap-free
    if (!grown && r.name == "weights:conv1") {
      r.bytes += align;
      grown = true;
    }
  }
  ASSERT_TRUE(grown);
  fx.design.memory_map = MemoryMap::FromRegions(std::move(regions));
  const MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  EXPECT_THROW(DecodeWeights(image, fx.net, fx.design), Error);
}

TEST(SystemSim, PaddedWeightRegionWithinOneBeatStillDecodes) {
  // The MemoryMap rounds every region up to the port alignment, so a
  // fully-consumed region can legitimately keep < one beat of padding.
  const Fixture fx;
  const MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  EXPECT_NO_THROW(DecodeWeights(image, fx.net, fx.design));
}

TEST(SystemSim, RawDecodeEqualsTheQuantisedStore) {
  const Fixture fx;
  const MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  const RawWeights decoded = RawWeights::Decode(image, fx.net, fx.design);
  const RawWeights quantised =
      RawWeights::Quantize(fx.net, fx.design.config.format, fx.weights);
  int layers = 0;
  for (const IrLayer* layer : fx.net.ComputeLayers()) {
    if (!fx.weights.Has(layer->name())) {
      EXPECT_THROW(decoded.Visit(*layer, [](const auto&) {}), Error)
          << layer->name();
      continue;
    }
    ++layers;
    decoded.Visit(*layer, [&](const auto& d) {
      using Word = typename std::decay_t<decltype(d.weights)>::value_type;
      const RawLayerParams<Word> q = quantised.at<Word>(*layer);
      EXPECT_TRUE(std::ranges::equal(d.weights, q.weights)) << layer->name();
      EXPECT_TRUE(std::ranges::equal(d.bias, q.bias)) << layer->name();
      EXPECT_TRUE(std::ranges::equal(d.recurrent, q.recurrent))
          << layer->name();
      EXPECT_EQ(d.max_abs_weight, q.max_abs_weight) << layer->name();
    });
  }
  EXPECT_GT(layers, 0);
}

/// The snapshot holds the DRAM word: 2 bytes per weight for a format of
/// 16 bits or fewer (every Q7.8 design), 4 for wider formats, whether it
/// was quantised or decoded.  max|w| is recorded for the int16 words.
TEST(SystemSim, SnapshotWordIsTheDramWord) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  Rng rng(5);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);
  const IrLayer& conv1 = *net.ComputeLayers().front();
  for (const int bit_width : {8, 16, 24}) {
    SCOPED_TRACE("bit_width=" + std::to_string(bit_width));
    DesignConstraint constraint = DbConstraint();
    constraint.bit_width = bit_width;
    constraint.frac_bits = bit_width / 2;
    const AcceleratorDesign design = GenerateAccelerator(net, constraint);
    const MemoryImage image = BuildMemoryImage(
        net, design, weights, {{"data", Tensor(Shape{1, 12, 12})}});
    const RawWeights decoded = RawWeights::Decode(image, net, design);
    const RawWeights quantised =
        RawWeights::Quantize(net, design.config.format, weights);
    EXPECT_EQ(decoded.int16_words(), bit_width <= 16);
    EXPECT_EQ(quantised.int16_words(), bit_width <= 16);
    if (bit_width > 16) continue;
    const RawLayerParams<std::int16_t> words =
        decoded.at<std::int16_t>(conv1);
    static_assert(sizeof(words.weights[0]) == 2);
    std::int32_t max_abs = 0;
    for (const std::int16_t w : words.weights)
      max_abs = std::max(max_abs, std::abs(std::int32_t{w}));
    EXPECT_GT(max_abs, 0);
    EXPECT_EQ(words.max_abs_weight, max_abs);
  }
}

/// A flipped weight word reaches the datapath as the hardware reads it:
/// sign-extended from its element width, then saturated to the format.
/// In a four-byte format that is the exact word, even one with more
/// significant bits than a float holds.
TEST(SystemSim, FlippedWeightWordsAreReadAsTheHardwareReadsThem) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  Rng rng(23);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);
  const IrLayer& conv1 = *net.ComputeLayers().front();
  ASSERT_EQ(conv1.name(), "conv1");
  for (const int bit_width : {12, 32}) {
    SCOPED_TRACE("bit_width=" + std::to_string(bit_width));
    DesignConstraint constraint = DbConstraint();
    constraint.bit_width = bit_width;
    constraint.frac_bits = 8;
    const AcceleratorDesign design = GenerateAccelerator(net, constraint);
    const FixedFormat& fmt = design.config.format;
    const int elem_bytes = static_cast<int>(design.config.ElementBytes());
    MemoryImage image = BuildMemoryImage(
        net, design, weights, {{"data", Tensor(Shape{1, 12, 12})}});
    const std::int64_t addr = design.memory_map.Weights("conv1").base;
    const std::int64_t clean = image.ReadElem(addr, elem_bytes);
    // The top bit of the element: the sign bit at 32 bits, a bit above
    // the format's range at 12 bits (two-byte words).
    const int bit = 8 * elem_bytes - 1;
    image.FlipBit(addr + bit / 8, bit % 8);
    const std::int64_t word = image.ReadElem(addr, elem_bytes);
    ASSERT_NE(word, clean);
    std::int32_t decoded = 0;
    RawWeights::Decode(image, net, design)
        .Visit(conv1, [&](const auto& words) {
          decoded = words.weights.front();
        });
    EXPECT_EQ(decoded, fmt.Saturate(word));
    if (bit_width == 32) {
      EXPECT_EQ(decoded, word);
      // More significant bits than a float holds.
      ASSERT_NE(static_cast<std::int64_t>(static_cast<float>(word)), word);
    } else {
      EXPECT_EQ(decoded, clean < 0 ? fmt.raw_max() : fmt.raw_min());
    }
  }
}

TEST(Trace, RecordsBusyIntervals) {
  const Fixture fx(ZooModel::kCifar);
  PerfTrace trace;
  PerfOptions opts;
  opts.trace = &trace;
  const PerfResult perf = SimulatePerformance(fx.net, fx.design, opts);
  EXPECT_EQ(trace.total_cycles, perf.total_cycles);
  EXPECT_FALSE(trace.events.empty());
  for (const TraceEvent& e : trace.events) {
    EXPECT_LE(e.start, e.end);
    EXPECT_GE(e.start, 0);
    EXPECT_LE(e.end, trace.total_cycles);
  }
}

TEST(Trace, ResourceIntervalsDoNotOverlap) {
  const Fixture fx;
  PerfTrace trace;
  PerfOptions opts;
  opts.trace = &trace;
  SimulatePerformance(fx.net, fx.design, opts);
  for (TraceEvent::Resource res :
       {TraceEvent::Resource::kDram, TraceEvent::Resource::kDatapath}) {
    std::vector<std::pair<std::int64_t, std::int64_t>> spans;
    for (const TraceEvent& e : trace.events)
      if (e.resource == res) spans.emplace_back(e.start, e.end);
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      EXPECT_LE(spans[i - 1].second, spans[i].first)
          << "overlap at interval " << i;
  }
}

TEST(Trace, UtilizationBetweenZeroAndOne) {
  const Fixture fx(ZooModel::kCifar);
  PerfTrace trace;
  PerfOptions opts;
  opts.trace = &trace;
  SimulatePerformance(fx.net, fx.design, opts);
  for (TraceEvent::Resource res :
       {TraceEvent::Resource::kDram, TraceEvent::Resource::kDatapath}) {
    const double u = trace.Utilization(res);
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  // A compute-bound design keeps the datapath busier than the channel.
  EXPECT_GT(trace.Utilization(TraceEvent::Resource::kDatapath),
            trace.Utilization(TraceEvent::Resource::kDram));
}

TEST(Trace, VcdWellFormed) {
  const Fixture fx;
  PerfTrace trace;
  PerfOptions opts;
  opts.trace = &trace;
  SimulatePerformance(fx.net, fx.design, opts);
  const std::string vcd = WriteVcd(trace);
  EXPECT_NE(vcd.find("$timescale 10ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("dram_busy"), std::string::npos);
  EXPECT_NE(vcd.find("datapath_busy"), std::string::npos);
  // Toggles balance: equal numbers of rises and falls per wire.
  auto count = [&](const std::string& needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = vcd.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  EXPECT_EQ(count("\n1d"), count("\n0d") - 1);  // initial 0d at time 0
  EXPECT_EQ(count("\n1p"), count("\n0p") - 1);
}

TEST(Trace, EmptyTraceStillValidVcd) {
  PerfTrace trace;
  trace.total_cycles = 10;
  const std::string vcd = WriteVcd(trace);
  EXPECT_NE(vcd.find("#10"), std::string::npos);
  EXPECT_EQ(trace.Utilization(TraceEvent::Resource::kDram), 0.0);
}

}  // namespace
}  // namespace db
