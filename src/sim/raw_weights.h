// The raw-weight snapshot: every parameterised layer's weights as the
// datapath reads them from DRAM — raw fixed-point words in the design's
// format, held as int32 in natural order (weights, then bias, then the
// recurrent matrix), indexed by layer id.
//
// This is the one weight representation the simulator and the serving
// stack hold (paper §4.1: the ARM host quantises the weights and lays
// them out in DDR3 once; the accelerator only ever reads raw words).  A
// snapshot is immutable once built, so every replica provisioned from
// the same image shares one through shared_ptr<const RawWeights>.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/memory_image.h"

namespace db {

/// One layer's parameters as raw fixed-point words.
struct RawLayerParams {
  std::vector<std::int32_t> weights;
  std::vector<std::int32_t> bias;
  std::vector<std::int32_t> recurrent;
};

class RawWeights {
 public:
  /// Quantise a WeightStore: one FixedFormat::Quantize per weight.
  static RawWeights Quantize(const Network& net, const FixedFormat& fmt,
                             const WeightStore& weights);

  /// Read the image's weight regions (the inverse of BuildMemoryImage's
  /// weight serialisation): each word is sign-extended from its element
  /// width and saturated to the format — the value the datapath reads.
  /// On an image BuildMemoryImage wrote, this equals Quantize.
  /// A region too small for its tensors fails a DB_CHECK (the
  /// verifier's mem.layout rule rules it out); one carrying more than a
  /// port-alignment beat of trailing bytes throws db::Error.
  static RawWeights Decode(const MemoryImage& image, const Network& net,
                           const AcceleratorDesign& design);

  /// The layer's parameters; throws db::Error if it has none.
  const RawLayerParams& at(const IrLayer& layer) const;

 private:
  explicit RawWeights(std::size_t num_layers) : layers_(num_layers) {}

  std::vector<std::optional<RawLayerParams>> layers_;  // by layer id
};

}  // namespace db
