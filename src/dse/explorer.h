// The design-space exploration driver behind `deepburning tune`.
//
// For one (network, constraint) pair the explorer sizes the baseline
// datapath once, then sweeps the candidate grid (dse/sweep.h): each
// candidate is constructed with CompileForConfig, pruned in a fixed
// order (construction infeasible -> over budget -> static verifier
// rejected) and, only if it survives, scored analytically with the
// existing models — the transaction-level performance simulator for
// latency, the activity/energy model for joules, the resource tally for
// BRAM.  No functional simulation runs per point.  Survivors reduce to
// a Pareto frontier over (latency, energy, BRAM) under the canonical
// contract of dse/pareto.h, and the requested objective picks a single
// winner off the frontier with a deterministic tie-break.
//
// Determinism contract: EvaluateCandidate is a pure function of
// (network, constraint, baseline config, spec) — worker threads only
// decide *when* a candidate is evaluated, never *what* it evaluates, and
// results land in an index-addressed slot.  The frontier reduction,
// winner selection, report rendering, metrics publication and "dse"
// trace spans all run on the calling thread after the workers join, so
// reports and observability output are byte-identical for --jobs 1 and
// --jobs N and across reruns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/design_cache.h"
#include "core/generator.h"
#include "dse/pareto.h"
#include "dse/sweep.h"
#include "frontend/constraint.h"
#include "graph/network.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace db::dse {

/// What the tuner optimises for when picking the winner off the frontier.
enum class Objective { kLatency, kEnergy, kBalanced };

/// "latency" / "energy" / "balanced"; ParseObjective throws db::Error on
/// anything else (the CLI maps that to exit code 2).
const char* ObjectiveName(Objective objective);
Objective ParseObjective(const std::string& text);

/// The three minimised axes of one scored candidate.
struct Objectives {
  std::int64_t latency_cycles = 0;  // SimulatePerformance total cycles
  double energy_joules = 0.0;       // EstimateEnergy total joules
  std::int64_t bram_bytes = 0;      // tallied on-chip memory footprint

  /// (latency, energy, bram) as the Pareto objective vector.
  std::vector<double> AsVector() const;
};

/// Outcome of one candidate.  The Status order mirrors the pruning
/// order; a candidate carries valid `obj` only when kScored.
struct CandidateResult {
  enum class Status { kInfeasible, kOverBudget, kVerifyRejected, kScored };

  CandidateSpec spec;
  Status status = Status::kInfeasible;
  Objectives obj;
};

const char* CandidateStatusName(CandidateResult::Status status);

struct TuneOptions {
  SweepSpec sweep;
  Objective objective = Objective::kLatency;
  /// Worker threads for the evaluation loop; clamped to >= 1.  Changes
  /// wall-clock time only, never a single byte of the result.
  int jobs = 1;
  /// Optional observability sinks, driven from the calling thread only.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Full tune outcome: every candidate in enumeration order, the
/// frontier (indices into `candidates`, canonical order), the winner,
/// and the stock GenerateAccelerator design's scores for comparison.
struct TuneResult {
  std::string network_name;
  Objective objective = Objective::kLatency;
  SweepSpec sweep;
  std::vector<CandidateResult> candidates;
  std::vector<std::size_t> frontier;
  std::size_t winner = 0;  // index into `candidates`, always on frontier
  Objectives default_obj;  // the un-tuned GenerateAccelerator design

  std::size_t CountWithStatus(CandidateResult::Status status) const;

  /// Byte-stable renderings (`deepburning tune` text / --json output).
  std::string ToText() const;
  std::string ToJson() const;
};

/// Map one sweep point onto a concrete configuration derived from the
/// sized baseline `base`: lanes_pct rescales the MAC lane count (DSP
/// lanes first when allowed, fabric multipliers for the rest),
/// port_elems sets the memory port / Method-1 tile width (secondary
/// lane pools and the connection box follow it, as in SizeDatapath),
/// data_split_pct re-splits the BRAM budget between the data and weight
/// buffers.  The fixed-point format is copied from `base` untouched —
/// tuning never changes what the accelerator computes.
AcceleratorConfig CandidateConfig(const Network& net,
                                  const AcceleratorConfig& base,
                                  const CandidateSpec& spec);

/// Construct, prune and score one candidate.  Pure function of its
/// arguments; safe to call concurrently on the same (const) network.
/// Exposed so the test suite can brute-force the whole space
/// single-threaded and cross-check the parallel driver point for point.
CandidateResult EvaluateCandidate(const Network& net,
                                  const DesignConstraint& constraint,
                                  const AcceleratorConfig& base,
                                  const CandidateSpec& spec);

/// Run the sweep.  Throws db::Error when the baseline cannot be sized
/// or when no candidate survives pruning (nothing to put on a frontier).
TuneResult Explore(const Network& net, const DesignConstraint& constraint,
                   const TuneOptions& options = {});

/// Compile the winning candidate into a deployable design: the same
/// construction EvaluateCandidate used, plus RTL emission, lint, the
/// netlist verifier (VerifyRtl, as GenerateAccelerator runs it) and the
/// static-verifier gate (throws db::Error on any of them failing — a
/// frontier member must verify clean, so this is a cross-check, not a
/// filter).
AcceleratorDesign CompileWinner(const Network& net,
                                const DesignConstraint& constraint,
                                const AcceleratorConfig& base,
                                const CandidateSpec& spec);

/// Design-cache key for a tune outcome: the ordinary design key's
/// canonical (network, constraint) text plus a tune suffix appended
/// AFTER the constraint section, so DesignCache::LoadFromDisk still
/// re-verifies the decoded design against the network parsed from the
/// canonical prefix.  Two sweeps that enumerate the same candidates in
/// the same order (SweepSpec::ToString is canonical) under the same
/// objective share a key.
cluster::DesignKey MakeTuneKey(const NetworkDef& def,
                               const DesignConstraint& constraint,
                               const SweepSpec& sweep, Objective objective);

/// Bumps the dse.cache_hits counter: a tune request answered from the
/// design cache's sidecar report, with no exploration run.
void RecordTuneCacheHit(obs::MetricsRegistry& metrics);

}  // namespace db::dse
