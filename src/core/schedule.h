// Dynamic control flow: the coordinator program (paper §3.3).
//
// The coordinator folds the network temporally, one FSM state per
// compute layer in propagation order; PickBlocks sizes the RTL
// coordinator to exactly that many states.  A layer wider than the
// datapath is also folded spatially into segments, which the AGUs'
// y-loops step through while the FSM stays in the layer's state.  So the
// program holds one run per layer: its segment count, the crossbar
// setting the data-driven datapath needs at the layer boundary
// (producer→consumer reconnection, "the synergy neuron set used by one
// layer ... need to be reconnected to accumulators afterwards") and the
// AGU patterns whose trigger events fire when the state is entered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/agu_program.h"
#include "core/folding.h"

namespace db {

/// Fixed datapath port indices (stable across designs so the coordinator
/// microcode is position-independent).
enum class DatapathPort : int {
  kDataBuffer = 0,
  kSynergyArray = 1,
  kAccumulator = 2,
  kPoolingUnit = 3,
  kActivationUnit = 4,
  kClassifier = 5,
  kConnectionBox = 6,
};

/// "data_buffer", "synergy_array", ...; "?" outside the enum.
std::string DatapathPortName(DatapathPort port);

/// The port of the block executing `fold`, dictated by its lane pool.
DatapathPort ConsumerPortFor(const LayerFold& fold);

/// One coordinator FSM state: a whole layer, all its segments.
struct ScheduleRun {
  int layer_id = 0;
  /// Spatial fold segments the AGU y-loops step through in this state.
  std::int64_t segments = 1;
  /// Crossbar setting: the port feeding the layer and the port executing
  /// it.
  DatapathPort producer = DatapathPort::kDataBuffer;
  DatapathPort consumer = DatapathPort::kSynergyArray;
  /// Arithmetic right shift applied by the connection box's shifting
  /// latch (average pooling's power-of-two division); 0 = pass-through.
  int shift = 0;
  /// AGU patterns armed on entering the state.
  std::vector<int> pattern_ids;
};

/// The whole control flow, one run per compute layer.
struct Schedule {
  std::vector<ScheduleRun> runs;

  std::string ToString() const;
};

/// Build the coordinator program: one run per compute layer, in
/// propagation order, with the producer chained from the previous run's
/// consumer (the data buffer for the first run).
Schedule BuildSchedule(const Network& net, const FoldPlan& folds,
                       const AguProgram& agu);

}  // namespace db
