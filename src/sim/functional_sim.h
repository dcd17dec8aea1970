// Bit-accurate functional simulation of a generated accelerator.
//
// Executes a network's forward propagation with exactly the arithmetic
// the generated datapath performs: operands quantised to the design's
// fixed-point format, full-precision MAC accumulation with saturating
// round-half-away-from-zero writeback, Approx-LUT activation/softmax/LRN
// evaluation (including the super-linear interpolation), and shift-based
// average pooling.  Fig. 10 compares this simulator's outputs against
// the float reference executor.
//
// Hot-path layout: layer state is structure-of-arrays — int32 raw
// activations in a per-simulator arena, int64 accumulators — and the
// dense MAC/activation sweeps run on the sim/kernels.h backend (AVX2
// when the host has it, bit-identical scalar otherwise).  Formats too
// wide for provably-overflow-free int64 accumulation fall back to an
// __int128 scalar path with identical rounding.
//
// Weights: the simulator reads one immutable raw-weight snapshot
// (sim/raw_weights.h), shared with every other simulator built on it.
// Its words are the DRAM words: int16 for formats of 16 bits or fewer.
// Those run convolution on the int16 multiply-add tile, with the
// activations packed into an int16 panel (exact: every activation lies
// in the format's range) and int32 partial sums flushed into int64
// every MaddFlushPairs(max|w|, total_bits) pairs, which keeps them
// exact; a layer holding a -32768 word at 16 bits, where one pair can
// wrap int32, runs the exact int64 tile.  FC, recurrent and LSTM rows
// run dot16 over the same int16 words.
//
// Threading contract: a FunctionalSimulator owns one scratch arena, so
// concurrent Run() calls on the SAME instance are not supported.  Every
// serving replica owns a private SystemContext (and therefore a private
// simulator) driven by one lane thread, which satisfies this by
// construction; the shared snapshot is only ever read.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/generator.h"
#include "nn/weights.h"
#include "sim/kernels.h"
#include "sim/raw_weights.h"

namespace db {

/// Functional simulator bound to one generated design.
class FunctionalSimulator {
 public:
  /// Quantises the weights once at construction, straight into the
  /// snapshot's DRAM words (the ARM host's preprocessing step in the
  /// paper's flow).
  FunctionalSimulator(const Network& net, const AcceleratorDesign& design,
                      const WeightStore& weights);

  /// Runs on an existing snapshot in the design's format.
  FunctionalSimulator(const Network& net, const AcceleratorDesign& design,
                      std::shared_ptr<const RawWeights> weights);

  /// Run one forward propagation; input and output are float tensors at
  /// the network boundary (the host's view), everything in between is
  /// fixed-point.
  Tensor Run(const Tensor& input) const;

  /// Multi-input variant keyed by input-layer name.
  std::map<std::string, Tensor> Run(
      const std::map<std::string, Tensor>& inputs) const;

  /// Run and return *every* layer's activation (dequantised), keyed by
  /// layer name — the probe interface used to compare fixed-point
  /// fidelity at interior points (e.g. pre-softmax logits, where
  /// magnitudes are representable).
  std::map<std::string, Tensor> RunAll(const Tensor& input) const;

  /// The Approx LUT generated for `fn` (throws if the design has none).
  const ApproxLut& LutFor(LutFunction fn) const;

  /// True when this design's accumulations run on the int64 SoA kernel
  /// backend; false means the format is wide enough to need the
  /// __int128 scalar fallback (exposed for tests/benches).
  bool uses_kernel_backend() const { return narrow_; }

  const std::shared_ptr<const RawWeights>& raw_weights() const {
    return weights_;
  }

 private:
  /// One layer's raw activations: an arena-backed int32 span.
  struct RawTensor {
    BlobShape shape;
    std::int32_t* raw = nullptr;
    std::size_t n = 0;
  };

  void RunLayer(const IrLayer& layer, const RawTensor* const* ins,
                std::size_t num_ins, RawTensor& out) const;
  /// Execute all layers; returns the arena-backed per-layer tensors,
  /// indexed by layer id.  `inputs` keys input-layer names.
  const RawTensor* RunGraph(
      const std::map<std::string, const Tensor*>& inputs) const;
  RawTensor QuantizeInput(const Tensor& t, const BlobShape& shape) const;
  Tensor Dequantize(const RawTensor& t) const;

  template <typename Math>
  void RunConv(const Math& math, const IrLayer& layer,
               const RawTensor& in0, RawTensor& out) const;
  template <typename Math>
  void RunInnerProduct(const Math& math, const IrLayer& layer,
                       const RawTensor& in0, RawTensor& out) const;
  template <typename Math>
  void RunLrn(const Math& math, const IrLayer& layer, const RawTensor& in0,
              RawTensor& out) const;
  template <typename Math>
  void RunRecurrent(const Math& math, const IrLayer& layer,
                    const RawTensor& in0, RawTensor& out) const;
  template <typename Math>
  void RunLstm(const Math& math, const IrLayer& layer, const RawTensor& in0,
               RawTensor& out) const;
  void RunPooling(const IrLayer& layer, const RawTensor& in0,
                  RawTensor& out) const;

  const Network& net_;
  FixedFormat fmt_;
  std::shared_ptr<const RawWeights> weights_;
  std::vector<ApproxLut> luts_;
  /// int64 accumulation provably never overflows for this design
  /// (format width x deepest fan-in) — the kernel fast path.
  bool narrow_ = true;
  /// Per-run scratch, recycled across invocations (see class comment
  /// for the single-thread contract).
  mutable sim::SimArena arena_;
};

}  // namespace db
