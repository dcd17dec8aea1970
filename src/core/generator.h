// NN-Gen: the DeepBurning accelerator generator (paper §3, Fig. 3).
//
// GenerateAccelerator is the "one-click" entry point: it takes the parsed
// network and the designer's constraint, sizes the datapath, plans
// folding, data layout, AGU programs and the coordinator schedule, picks
// the building-block instances, tallies resources, and emits the RTL.
// The returned AcceleratorDesign carries both the hardware part (RTL,
// block list) and the software part (control flow, data layout, memory
// image) — generated together, as the paper's co-design flow requires.
#pragma once

#include <string>
#include <vector>

#include "core/accel_config.h"
#include "core/agu_program.h"
#include "core/approx_lut.h"
#include "core/buffer_plan.h"
#include "core/data_layout.h"
#include "core/folding.h"
#include "core/memory_map.h"
#include "core/schedule.h"
#include "graph/network.h"
#include "hwlib/resource_model.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "rtl/verilog.h"

namespace db {

/// Everything NN-Gen produces for one (network, constraint) pair.
struct AcceleratorDesign {
  AcceleratorConfig config;
  FoldPlan fold_plan;
  DataLayoutPlan layout;
  MemoryMap memory_map;
  AguProgram agu_program;
  Schedule schedule;  // the coordinator program, one run per layer
  BufferPlan buffer_plan;
  std::vector<ApproxLutSpec> lut_specs;  // one per approximated function
  std::vector<BlockInstance> blocks;
  ResourceReport resources;
  VDesign rtl;

  /// Multi-section human-readable design report.
  std::string Report() const;
};

/// Generate an accelerator for `net` under `constraint`.
/// Throws db::Error when the constraint cannot accommodate the network
/// (e.g. no lanes fit the budget).
///
/// With a tracer, every compilation phase (sizing → folding → data
/// layout → memory map → agu program → schedule → buffer plan →
/// blocks → rtl emit → lint → verify) is recorded as one
/// span on the "toolchain" track, one ordinal tick per phase (the
/// toolchain has no simulated clock); refit attempts annotate their
/// spans.  The timeline continues from the track's prior end, so a
/// caller's own parse/constraint spans slot in before these.
///
/// The final verify phase runs the static design verifier
/// (analysis/verifier.h) as a gate: error diagnostics throw db::Error
/// carrying the report; warnings pass and are counted on `metrics` as
/// `analysis.warnings` plus per-rule `analysis.rule.<id>` counters.
AcceleratorDesign GenerateAccelerator(const Network& net,
                                      const DesignConstraint& constraint,
                                      obs::Tracer* tracer = nullptr,
                                      obs::MetricsRegistry* metrics = nullptr);

/// Convenience wrapper: parse both scripts and generate (the scripted
/// phases land on the same toolchain track when traced).
AcceleratorDesign GenerateFromScripts(
    const std::string& model_prototxt,
    const std::string& constraint_prototxt,
    obs::Tracer* tracer = nullptr,
    obs::MetricsRegistry* metrics = nullptr);

/// The datapath-sizing step alone (exposed for tests and DSE sweeps):
/// decides lanes, buffers and port width under the budget.
AcceleratorConfig SizeDatapath(const Network& net,
                               const DesignConstraint& constraint);

/// Compile the full software bundle (folding, data layout, memory map,
/// AGU programs, schedule, buffer plan) plus the block
/// inventory and resource tally for a FIXED configuration — no sizing,
/// no refit loop, no RTL emission, no verification gate.  Throws
/// db::Error when the configuration cannot run the network at all
/// (e.g. zero MAC lanes for a convolutional model).  This is the
/// parameterised candidate constructor the DSE explorer (src/dse)
/// sweeps; the generator's own refit loop runs the same passes.  Pure
/// function of its arguments, safe to call concurrently from worker
/// threads on the same (const) network.
AcceleratorDesign CompileForConfig(const Network& net,
                                   const AcceleratorConfig& config);

/// Approx-LUT functions the network's layers require (sigmoid/tanh for
/// activations, exp+recip for softmax, lrn_pow for LRN).
std::vector<LutFunction> RequiredLutFunctions(const Network& net);

/// The library's canonical LUT spec for `fn` under `config`: table sizing
/// from the config knobs plus the per-function input-domain policy
/// (softmax exp keys are shifted non-positive, reciprocal-family keys
/// start above zero).  PickBlocks instantiates exactly this spec; the
/// static verifier re-derives it to cross-check a design's recorded
/// specs against the policy.
ApproxLutSpec DefaultLutSpec(LutFunction fn, const AcceleratorConfig& config);

/// One accelerator shared by several network models — the versatility
/// argument of the paper's introduction (an ASIP's fixed ISA cannot; the
/// generated fabric reconfigures per model).  The datapath is sized to
/// the union of the models' needs; each model gets its own compiled
/// software bundle (folding, layout, AGU program, schedule) against the
/// shared configuration.  Every per-model AcceleratorDesign carries the
/// identical config/blocks/resources/RTL.
struct SharedAccelerator {
  AcceleratorConfig config;
  std::vector<AcceleratorDesign> designs;  // one per input network
};

SharedAccelerator GenerateSharedAccelerator(
    const std::vector<const Network*>& nets,
    const DesignConstraint& constraint);

}  // namespace db
