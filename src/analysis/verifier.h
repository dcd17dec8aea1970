// Whole-design static verifier: proves schedule/AGU/memory-map legality
// of a generated AcceleratorDesign before a single simulated cycle.
//
// The generator's invariants (paper §3.3–§3.4) are only implicit in the
// passes that construct a design; nothing re-checks them once a design
// leaves NN-Gen — a corrupted cache entry or a buggy compiler pass is
// otherwise caught dynamically, by the simulator crashing or a
// differential test diverging.  VerifyDesign re-derives every invariant
// from the design artifacts alone and reports violations through the
// diagnostics engine (analysis/diagnostics.h).
//
// Rule catalogue (ids are stable; see DESIGN.md §8 for the severity
// policy):
//   agu.bounds       every AGU pattern footprint resolves inside its
//                    mapped DRAM region (main role) or the on-chip
//                    buffer window (data/weight roles), with no
//                    degenerate loops and no address wrap
//   mem.layout       memory-map regions are non-empty, port-aligned,
//                    non-overlapping, uniquely named, and consistent
//                    with the recorded total size
//   sched.hazard     one coordinator run per compute layer, each
//                    producer layer's run before its consumers', every
//                    producer chained from the previous run's consumer;
//                    pattern triggers are known, belong to the run's
//                    layer and arm exactly once, and the armed streams'
//                    y-loops step exactly the run's segments
//   fold.coverage    spatial segments partition each folded layer
//                    exactly (no gap, no double-compute), the schedule
//                    runs exactly the planned segments, and lane
//                    grants fit the configured pools
//   buffer.capacity  ping/pong/staging slots sit inside the data
//                    buffer, never overlap, and hold the planned tiles
//   conn.ports       every run's crossbar ports are the ones the fold
//                    plan dictates and have instantiated blocks behind
//                    them; shifts fit the datapath width
//   lut.domain       every required Approx LUT exists, covers a
//                    non-empty domain in the datapath format, and its
//                    generated table is key-monotone
//   res.budget       the block inventory re-tallies to the recorded
//                    resource report, fits the constraint budget, and
//                    block parameterisations are library-realisable
#pragma once

#include <string>

#include "analysis/diagnostics.h"
#include "core/generator.h"
#include "core/range_profiler.h"
#include "graph/network.h"

namespace db::analysis {

// Stable rule identifiers (also the `analysis.rule.<id>` metric names).
inline constexpr char kRuleAguBounds[] = "agu.bounds";
inline constexpr char kRuleMemLayout[] = "mem.layout";
inline constexpr char kRuleSchedHazard[] = "sched.hazard";
inline constexpr char kRuleFoldCoverage[] = "fold.coverage";
inline constexpr char kRuleBufferCapacity[] = "buffer.capacity";
inline constexpr char kRuleConnPorts[] = "conn.ports";
inline constexpr char kRuleLutDomain[] = "lut.domain";
inline constexpr char kRuleResBudget[] = "res.budget";

struct VerifyOptions {
  /// Observed activation ranges from the calibration profiler; when set,
  /// LUT input domains are additionally checked against the observed
  /// magnitudes (saturation outside the table domain is a warning).
  const RangeProfile* ranges = nullptr;
};

/// Run every rule pass over the design and collect diagnostics.  Never
/// throws: a pass that trips over a structurally broken artifact (e.g. a
/// fold plan missing a layer) converts the failure into an error
/// diagnostic under its own rule id.
AnalysisReport VerifyDesign(const Network& net,
                            const AcceleratorDesign& design,
                            const VerifyOptions& options = {});

/// Gate form: throws db::Error carrying the report text when VerifyDesign
/// finds any error-severity diagnostic.  Warnings pass.
void VerifyDesignOrThrow(const Network& net,
                         const AcceleratorDesign& design,
                         const VerifyOptions& options = {});

}  // namespace db::analysis
