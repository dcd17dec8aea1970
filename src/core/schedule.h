// Dynamic control flow: the coordinator's FSM schedule (paper §3.3).
//
// The data-driven architecture needs only producer→consumer reconnection
// at pre-determined beats: each schedule step names the fold segment being
// executed, the functional block consuming data, the block producing it,
// and the AGU patterns whose trigger events fire at the step boundary.
// The RTL coordinator is generated with exactly these steps as its FSM
// states; the simulator walks the same list.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/agu_program.h"
#include "core/folding.h"

namespace db {

/// One coordinator FSM state / fold event.
struct ScheduleStep {
  int index = 0;
  int layer_id = 0;
  std::int64_t segment = 0;       // spatial fold slot within the layer
  std::string event;              // "layer<id>_fold<segment>"
  std::string producer_block;     // block output feeding the step
  std::string consumer_block;     // functional block executing the step
  std::vector<int> pattern_ids;   // AGU patterns triggered by this event
};

/// The whole control flow.
struct Schedule {
  std::vector<ScheduleStep> steps;

  std::int64_t TotalSteps() const {
    return static_cast<std::int64_t>(steps.size());
  }
  std::string ToString() const;
};

/// The fold event of one layer segment: "layer<id>_fold<segment>".
std::string FoldEventName(int layer_id, std::int64_t segment);

/// True when `event` equals FoldEventName(layer_id, segment); formats
/// into a stack buffer, so it never allocates.
bool IsFoldEvent(std::string_view event, int layer_id, std::int64_t segment);

/// Canonical datapath block name executing a fold (e.g. "synergy_array",
/// "pooling_unit0").
std::string ConsumerBlockFor(const LayerFold& fold);

/// Build the coordinator schedule: one step per fold segment of every
/// layer, in propagation order, with the producer chained from the
/// previous layer's consumer (or the data buffer for the first layer).
Schedule BuildSchedule(const Network& net, const FoldPlan& folds,
                       const AguProgram& agu);

}  // namespace db
