#include "core/schedule.h"

#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/math_util.h"
#include "common/strings.h"

namespace db {

std::string DatapathPortName(DatapathPort port) {
  switch (port) {
    case DatapathPort::kDataBuffer: return "data_buffer";
    case DatapathPort::kSynergyArray: return "synergy_array";
    case DatapathPort::kAccumulator: return "accumulator";
    case DatapathPort::kPoolingUnit: return "pooling_unit";
    case DatapathPort::kActivationUnit: return "activation_unit";
    case DatapathPort::kClassifier: return "classifier";
    case DatapathPort::kConnectionBox: return "connection_box";
  }
  return "?";
}

DatapathPort ConsumerPortFor(const LayerFold& fold) {
  switch (fold.pool) {
    case LanePool::kMac:
      return DatapathPort::kSynergyArray;
    case LanePool::kPooling:
      return DatapathPort::kPoolingUnit;
    case LanePool::kActivation:
      return DatapathPort::kActivationUnit;
    case LanePool::kNone:
      return fold.kind == LayerKind::kClassifier
                 ? DatapathPort::kClassifier
                 : DatapathPort::kConnectionBox;
  }
  return DatapathPort::kSynergyArray;
}

std::string Schedule::ToString() const {
  std::ostringstream os;
  os << StrFormat("  %-5s %-8s %8s %-16s -> %-16s %5s %s\n", "state",
                  "layer", "segments", "producer", "consumer", "shift",
                  "patterns");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ScheduleRun& r = runs[i];
    std::string pats;
    for (std::size_t p = 0; p < r.pattern_ids.size(); ++p) {
      if (p > 0) pats += ",";
      pats += std::to_string(r.pattern_ids[p]);
    }
    os << StrFormat("  %-5zu %-8s %8lld %-16s -> %-16s %5d [%s]\n", i,
                    ("layer" + std::to_string(r.layer_id)).c_str(),
                    static_cast<long long>(r.segments),
                    DatapathPortName(r.producer).c_str(),
                    DatapathPortName(r.consumer).c_str(), r.shift,
                    pats.c_str());
  }
  return os.str();
}

namespace {

/// Average pooling with a power-of-two window divides through the
/// shifting latch; every other layer passes through (shift 0).
int LatchShift(const IrLayer& layer) {
  if (layer.kind() != LayerKind::kPooling ||
      layer.def.pool->method != PoolMethod::kAverage)
    return 0;
  const std::int64_t window =
      layer.def.pool->kernel_size * layer.def.pool->kernel_size;
  if (!IsPow2(window)) return 0;
  return static_cast<int>(
      std::llround(std::log2(static_cast<double>(window))));
}

}  // namespace

Schedule BuildSchedule(const Network& net, const FoldPlan& folds,
                       const AguProgram& agu) {
  Schedule schedule;
  const std::vector<const IrLayer*> layers = net.ComputeLayers();
  schedule.runs.reserve(layers.size());
  DatapathPort producer = DatapathPort::kDataBuffer;
  for (const IrLayer* layer : layers) {
    const LayerFold& fold = folds.ForLayer(layer->id);
    ScheduleRun& run = schedule.runs.emplace_back();
    run.layer_id = layer->id;
    run.segments = fold.segments;
    run.producer = producer;
    run.consumer = ConsumerPortFor(fold);
    run.shift = LatchShift(*layer);
    for (const AguPattern* p : agu.ForLayer(layer->id))
      run.pattern_ids.push_back(p->id);
    producer = run.consumer;
  }
  DB_CHECK_MSG(!schedule.runs.empty(), "empty schedule");
  return schedule;
}

}  // namespace db
