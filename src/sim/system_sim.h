// System-level simulation: run an inference entirely through the DRAM
// image, the way the board operates (paper §4.1: the ARM core stores the
// preprocessed weights and inputs into DDR3; the accelerator reads and
// writes DRAM through the AXI switches; the host reads the result back).
//
// The weights the datapath uses are *decoded from the image bytes*, not
// taken from the WeightStore — so a corrupted image region corrupts the
// run, exactly as on hardware.  They are decoded once into a raw-weight
// snapshot (sim/raw_weights.h) that every replica of the image shares.
#pragma once

#include <memory>
#include <vector>

#include "common/error.h"
#include "core/memory_image.h"
#include "sim/functional_sim.h"
#include "sim/perf_model.h"

namespace db {

struct SystemRunResult {
  Tensor output;          // host-visible result, read back from the image
  PerfResult perf;        // accelerator timing for the invocation
  /// Per-invocation disposition, propagated to HostInvocation and the
  /// server's ServedRequest records so failures cross thread boundaries
  /// as values, never as exceptions (see common/error.h).
  StatusCode status = StatusCode::kOk;
};

/// Decode a WeightStore from the image's weight regions: the raw decode
/// (RawWeights::Decode), dequantised.  Exposed for tests and benches; no
/// serving path uses it.
WeightStore DecodeWeights(const MemoryImage& image, const Network& net,
                          const AcceleratorDesign& design);

/// The steady-state half of RunSystem: a weight snapshot and the I/O
/// blob tile orders fixed at construction, so each Run() is just the
/// simulation plus two cached-order blob copies.
///
/// Threading: Run() is marked const but is NOT safe to call concurrently
/// on the same instance — the wrapped FunctionalSimulator owns a mutable
/// scratch arena (see functional_sim.h).  The serving stack honours this
/// by giving every replica its own SystemContext driven by a single lane
/// thread; anything that wants parallel invocations holds one context
/// per thread (ReplicateSystem stamps these out).
///
/// The weights are snapshotted from `image` at construction; a caller
/// that mutates weight regions afterwards (fault injection) must build a
/// fresh context, which is exactly what the RunSystem wrapper does.
class SystemContext {
 public:
  /// Decodes a private snapshot from `image`.
  SystemContext(const Network& net, const AcceleratorDesign& design,
                const MemoryImage& image);

  /// Runs on a snapshot shared with other contexts.
  SystemContext(const Network& net, const AcceleratorDesign& design,
                std::shared_ptr<const RawWeights> weights);

  /// One invocation: write the input blob into `image`, run the
  /// bit-accurate functional simulation with the snapshotted weights,
  /// store the output blob back, and read it out as the host would.
  SystemRunResult Run(MemoryImage& image, const Tensor& input,
                      const PerfOptions& perf_options = {}) const;

  const std::shared_ptr<const RawWeights>& raw_weights() const {
    return sim_.raw_weights();
  }

 private:
  const Network& net_;
  const AcceleratorDesign& design_;
  FunctionalSimulator sim_;
  // Cached per-invocation hot path: the input/output blob regions and
  // their tile permutations never change for a given (net, design).
  const MemoryRegion* in_region_ = nullptr;
  const MemoryRegion* out_region_ = nullptr;
  std::vector<std::int64_t> in_order_;
  std::vector<std::int64_t> out_order_;
};

/// One replicated accelerator instance: a private copy of the
/// provisioned DRAM image plus a SystemContext on the snapshot decoded
/// once from the provisioned image.  The cluster's AcceleratorPool owns
/// one of these per replica, so one replica's image corruption (fault
/// injection) never touches a sibling's bytes; a flipped weight word is
/// scrubbed from the provisioned image before any planned Run, so the
/// shared snapshot always equals every replica's weight regions when the
/// datapath reads them.
struct SystemReplica {
  MemoryImage image;
  std::unique_ptr<SystemContext> context;
};

/// Stamp out `count` replicas of a provisioned system: one decode, one
/// shared snapshot, `count` image copies.  Every replica starts
/// byte-identical to `provisioned`, so a request served by any replica
/// produces bit-identical output.
std::vector<SystemReplica> ReplicateSystem(const Network& net,
                                           const AcceleratorDesign& design,
                                           const MemoryImage& provisioned,
                                           int count);

/// One full invocation against the image: decode weights, run the
/// bit-accurate functional simulation, store the output blob back into
/// the image, and read it out as the host would.  Decodes the weights on
/// every call so image corruption is always visible, word for word as
/// the datapath reads it; steady-state callers (the inference server)
/// hold a SystemContext instead.
SystemRunResult RunSystem(const Network& net,
                          const AcceleratorDesign& design,
                          MemoryImage& image, const Tensor& input,
                          const PerfOptions& perf_options = {});

}  // namespace db
