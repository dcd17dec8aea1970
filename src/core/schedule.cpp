#include "core/schedule.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace db {
namespace {

/// FoldEventName's characters in a stack buffer: "layer" + an int +
/// "_fold" + an int64 needs at most 41 bytes.
struct FoldEventChars {
  char data[48];
  std::size_t size = 0;

  FoldEventChars(int layer_id, std::int64_t segment) {
    char* const end = data + sizeof data;
    char* p = data;
    std::memcpy(p, "layer", 5);
    p = std::to_chars(p + 5, end, layer_id).ptr;
    std::memcpy(p, "_fold", 5);
    p = std::to_chars(p + 5, end, segment).ptr;
    size = static_cast<std::size_t>(p - data);
  }
  std::string_view view() const { return {data, size}; }
};

}  // namespace

std::string FoldEventName(int layer_id, std::int64_t segment) {
  return std::string(FoldEventChars(layer_id, segment).view());
}

bool IsFoldEvent(std::string_view event, int layer_id,
                 std::int64_t segment) {
  return event == FoldEventChars(layer_id, segment).view();
}

std::string ConsumerBlockFor(const LayerFold& fold) {
  switch (fold.pool) {
    case LanePool::kMac:
      return "synergy_array";
    case LanePool::kPooling:
      return "pooling_unit0";
    case LanePool::kActivation:
      return "activation_unit0";
    case LanePool::kNone:
      return fold.kind == LayerKind::kClassifier ? "classifier0"
                                                 : "connection_box0";
  }
  return "synergy_array";
}

std::string Schedule::ToString() const {
  std::ostringstream os;
  os << StrFormat("  %-5s %-18s %-20s -> %-20s %s\n", "step", "event",
                  "producer", "consumer", "patterns");
  for (const ScheduleStep& s : steps) {
    std::string pats;
    for (std::size_t i = 0; i < s.pattern_ids.size(); ++i) {
      if (i > 0) pats += ",";
      pats += std::to_string(s.pattern_ids[i]);
    }
    os << StrFormat("  %-5d %-18s %-20s -> %-20s [%s]\n", s.index,
                    s.event.c_str(), s.producer_block.c_str(),
                    s.consumer_block.c_str(), pats.c_str());
  }
  return os.str();
}

Schedule BuildSchedule(const Network& net, const FoldPlan& folds,
                       const AguProgram& agu) {
  Schedule schedule;
  const std::vector<const IrLayer*> layers = net.ComputeLayers();
  std::vector<const LayerFold*> layer_folds;
  layer_folds.reserve(layers.size());
  std::size_t total_steps = 0;
  for (const IrLayer* layer : layers) {
    layer_folds.push_back(&folds.ForLayer(layer->id));
    total_steps += static_cast<std::size_t>(
        std::max<std::int64_t>(layer_folds.back()->segments, 0));
  }
  schedule.steps.reserve(total_steps);

  std::string previous_consumer = "data_buffer";
  int index = 0;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const int layer_id = layers[l]->id;
    const LayerFold& fold = *layer_folds[l];
    std::string consumer = ConsumerBlockFor(fold);
    for (std::int64_t seg = 0; seg < fold.segments; ++seg) {
      ScheduleStep& step = schedule.steps.emplace_back();
      step.index = index++;
      step.layer_id = layer_id;
      step.segment = seg;
      step.event = FoldEventChars(layer_id, seg).view();
      step.producer_block = previous_consumer;
      step.consumer_block = consumer;
      // All of the layer's patterns arm on its first segment; later
      // segments run off the already-armed streaming patterns (their
      // y-loop advances per segment).
      if (seg == 0)
        for (const AguPattern* p : agu.ForLayer(layer_id))
          step.pattern_ids.push_back(p->id);
    }
    previous_consumer = std::move(consumer);
  }
  DB_CHECK_MSG(!schedule.steps.empty(), "empty schedule");
  return schedule;
}

}  // namespace db
