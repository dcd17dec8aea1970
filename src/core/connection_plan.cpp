#include "core/connection_plan.h"

#include <cmath>
#include <set>
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

DatapathPort PortForBlock(const std::string& block_name) {
  if (block_name == "data_buffer") return DatapathPort::kDataBuffer;
  if (StartsWith(block_name, "synergy_array"))
    return DatapathPort::kSynergyArray;
  if (StartsWith(block_name, "accumulator"))
    return DatapathPort::kAccumulator;
  if (StartsWith(block_name, "pooling_unit"))
    return DatapathPort::kPoolingUnit;
  if (StartsWith(block_name, "activation_unit"))
    return DatapathPort::kActivationUnit;
  if (StartsWith(block_name, "classifier"))
    return DatapathPort::kClassifier;
  if (StartsWith(block_name, "connection_box"))
    return DatapathPort::kConnectionBox;
  DB_THROW("unknown datapath block '" << block_name << "'");
}

int ConnectionPlan::DistinctPorts() const {
  std::set<int> ports;
  for (const CrossbarSetting& s : settings) {
    ports.insert(static_cast<int>(s.producer));
    ports.insert(static_cast<int>(s.consumer));
  }
  return static_cast<int>(ports.size());
}

std::string ConnectionPlan::ToString() const {
  std::ostringstream os;
  os << StrFormat("  %-5s %-18s %-16s -> %-16s %6s\n", "step", "event",
                  "producer", "consumer", "shift");
  for (const CrossbarSetting& s : settings)
    os << StrFormat("  %-5d %-18s %-16s -> %-16s %6d\n", s.step_index,
                    s.event.c_str(),
                    DatapathPortName(s.producer).c_str(),
                    DatapathPortName(s.consumer).c_str(), s.shift);
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

ConnectionPlan PlanConnections(const Network& net,
                               const Schedule& schedule) {
  ConnectionPlan plan;
  plan.settings.reserve(schedule.steps.size());
  // The ports and shift are per-layer facts: resolve them only when the
  // step's blocks or layer differ from the previous step's.
  const ScheduleStep* previous = nullptr;
  DatapathPort producer = DatapathPort::kDataBuffer;
  DatapathPort consumer = DatapathPort::kSynergyArray;
  int shift = 0;
  for (const ScheduleStep& step : schedule.steps) {
    if (previous == nullptr ||
        step.producer_block != previous->producer_block)
      producer = PortForBlock(step.producer_block);
    if (previous == nullptr ||
        step.consumer_block != previous->consumer_block)
      consumer = PortForBlock(step.consumer_block);
    if (previous == nullptr || step.layer_id != previous->layer_id)
      shift = LatchShift(net.layer(step.layer_id));
    previous = &step;

    CrossbarSetting& setting = plan.settings.emplace_back();
    setting.step_index = step.index;
    setting.event = step.event;
    setting.producer = producer;
    setting.consumer = consumer;
    setting.shift = shift;
  }
  return plan;
}

}  // namespace db
