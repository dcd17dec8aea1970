// Tests for the coordinator program (dynamic control flow).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/generator.h"
#include "core/schedule.h"
#include "models/zoo.h"

namespace db {
namespace {

AcceleratorDesign DesignFor(ZooModel model) {
  return GenerateAccelerator(BuildZooModel(model), DbConstraint());
}

/// Every zoo model's stock design, built once.
const std::map<ZooModel, AcceleratorDesign>& ZooDesigns() {
  static const auto* designs = [] {
    auto* out = new std::map<ZooModel, AcceleratorDesign>;
    for (const ZooModel model : AllZooModels())
      out->emplace(model, DesignFor(model));
    return out;
  }();
  return *designs;
}

int CoordinatorFoldEvents(const AcceleratorDesign& design) {
  for (const BlockInstance& block : design.blocks)
    if (block.config.type == BlockType::kCoordinator)
      return block.config.fold_events;
  return -1;
}

TEST(Schedule, OneRunPerTemporalFold) {
  // The program and the RTL coordinator FSM describe the same states.
  for (const auto& [model, design] : ZooDesigns()) {
    SCOPED_TRACE(ZooModelName(model));
    const auto runs = static_cast<std::int64_t>(design.schedule.runs.size());
    EXPECT_EQ(runs, design.fold_plan.TemporalFolds());
    EXPECT_EQ(runs, CoordinatorFoldEvents(design));
  }
}

TEST(Schedule, OneStepPerFoldSegment) {
  // The runs' segments add up to every fold segment of the plan.
  for (const auto& [model, design] : ZooDesigns()) {
    SCOPED_TRACE(ZooModelName(model));
    std::int64_t segments = 0;
    for (const ScheduleRun& run : design.schedule.runs)
      segments += run.segments;
    EXPECT_EQ(segments, design.fold_plan.TotalSegments());
  }
}

TEST(Schedule, StepsIndexedSequentially) {
  // FSM state i executes fold i of the plan.
  const AcceleratorDesign design = DesignFor(ZooModel::kCifar);
  ASSERT_EQ(design.schedule.runs.size(), design.fold_plan.folds.size());
  for (std::size_t i = 0; i < design.schedule.runs.size(); ++i) {
    EXPECT_EQ(design.schedule.runs[i].layer_id,
              design.fold_plan.folds[i].layer_id);
    EXPECT_EQ(design.schedule.runs[i].segments,
              design.fold_plan.folds[i].segments);
  }
}

TEST(Schedule, LayersAppearInPropagationOrder) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
  const std::vector<const IrLayer*> layers = net.ComputeLayers();
  ASSERT_EQ(design.schedule.runs.size(), layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i)
    EXPECT_EQ(design.schedule.runs[i].layer_id, layers[i]->id);
}

TEST(Schedule, EventNamesEncodeLayerAndFold) {
  // A run's patterns trigger on its layer's first fold event.
  const AcceleratorDesign design = DesignFor(ZooModel::kMnist);
  std::map<int, const AguPattern*> patterns;
  for (const AguPattern& p : design.agu_program.patterns)
    patterns[p.id] = &p;
  for (const ScheduleRun& run : design.schedule.runs)
    for (int id : run.pattern_ids) {
      ASSERT_TRUE(patterns.count(id)) << "pattern " << id;
      EXPECT_EQ(patterns[id]->event,
                "layer" + std::to_string(run.layer_id) + "_fold0");
    }
}

TEST(Schedule, PatternsArmOnFirstSegmentOnly) {
  // Every pattern arms once, on entry to its layer's run.
  const AcceleratorDesign design = DesignFor(ZooModel::kCifar);
  std::set<int> armed;
  for (const ScheduleRun& run : design.schedule.runs) {
    EXPECT_FALSE(run.pattern_ids.empty()) << run.layer_id;
    for (int id : run.pattern_ids)
      EXPECT_TRUE(armed.insert(id).second) << "pattern " << id;
  }
  EXPECT_EQ(armed.size(), design.agu_program.patterns.size());
}

TEST(Schedule, ProducerChainsThroughConsumers) {
  const AcceleratorDesign design = DesignFor(ZooModel::kMnist);
  ASSERT_FALSE(design.schedule.runs.empty());
  DatapathPort prev_consumer = DatapathPort::kDataBuffer;
  for (const ScheduleRun& run : design.schedule.runs) {
    EXPECT_EQ(run.producer, prev_consumer) << run.layer_id;
    prev_consumer = run.consumer;
  }
}

TEST(Schedule, ConsumerBlocksMatchLayerKind) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  for (const ScheduleRun& run : design.schedule.runs) {
    const IrLayer& layer = net.layer(run.layer_id);
    switch (layer.kind()) {
      case LayerKind::kConvolution:
      case LayerKind::kInnerProduct:
        EXPECT_EQ(run.consumer, DatapathPort::kSynergyArray) << layer.name();
        break;
      case LayerKind::kPooling:
        EXPECT_EQ(run.consumer, DatapathPort::kPoolingUnit) << layer.name();
        break;
      case LayerKind::kRelu:
      case LayerKind::kSoftmax:
        EXPECT_EQ(run.consumer, DatapathPort::kActivationUnit)
            << layer.name();
        break;
      default:
        break;
    }
  }
}

TEST(Schedule, ToStringListsSteps) {
  const AcceleratorDesign design = DesignFor(ZooModel::kAnn0Fft);
  const std::string text = design.schedule.ToString();
  EXPECT_NE(text.find("layer"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
  EXPECT_NE(text.find("synergy_array"), std::string::npos);
}

TEST(Schedule, HopfieldRunsOnSynergyArray) {
  const AcceleratorDesign design = DesignFor(ZooModel::kHopfield);
  bool saw_mac = false;
  for (const ScheduleRun& run : design.schedule.runs)
    if (run.consumer == DatapathPort::kSynergyArray) saw_mac = true;
  EXPECT_TRUE(saw_mac);
}

}  // namespace
}  // namespace db
