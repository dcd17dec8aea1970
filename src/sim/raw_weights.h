// The raw-weight snapshot: every parameterised layer's weights as the
// datapath reads them from DRAM — raw fixed-point words in the design's
// format, in natural order (weights, then bias, then the recurrent
// matrix), indexed by layer id.
//
// The word is the DRAM word: int16 for every format of 16 bits or fewer
// (all of the zoo's Q7.8 designs: 2 bytes per weight, exactly what the
// image stores), int32 for wider formats.  Every layer's words live in
// one flat buffer that ends in one zero word, so a kernel reading a
// weight pair (sim/kernels.h, conv_tile16) may run one word past any
// layer's last weight.  The snapshot also records each layer's max |w|,
// which bounds the int16 multiply-add tile's int32 partial sums.
//
// This is the one weight representation the simulator and the serving
// stack hold (paper §4.1: the ARM host quantises the weights and lays
// them out in DDR3 once; the accelerator only ever reads raw words).  A
// snapshot is immutable once built, so every replica provisioned from
// the same image shares one through shared_ptr<const RawWeights>.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/error.h"
#include "core/memory_image.h"

namespace db {

/// One layer's parameters as raw words: views into the snapshot.
template <typename Word>
struct RawLayerParams {
  std::span<const Word> weights;
  std::span<const Word> bias;
  std::span<const Word> recurrent;
  /// max |w| over `weights` in an int16 snapshot (2^15 for a Q7.8 word
  /// at raw_min); 0 in an int32 one.
  std::int32_t max_abs_weight = 0;
};

class RawWeights {
 public:
  /// Quantise a WeightStore: one FixedFormat::Quantize per weight.
  static RawWeights Quantize(const Network& net, const FixedFormat& fmt,
                             const WeightStore& weights);

  /// Read the image's weight regions (the inverse of BuildMemoryImage's
  /// weight serialisation): each word is sign-extended from its element
  /// width and saturated to the format — the value the datapath reads.
  /// For 2-byte words that is a copy plus the saturating clamp.
  /// On an image BuildMemoryImage wrote, this equals Quantize.
  /// A region too small for its tensors fails a DB_CHECK (the
  /// verifier's mem.layout rule rules it out); one carrying more than a
  /// port-alignment beat of trailing bytes throws db::Error.
  static RawWeights Decode(const MemoryImage& image, const Network& net,
                           const AcceleratorDesign& design);

  /// True when the words are int16 (formats of 16 bits or fewer); false
  /// means int32.
  bool int16_words() const { return words_.index() == 0; }

  /// The layer's parameters; throws db::Error if it has none.  `Word`
  /// must be the snapshot's word type (int16_words()).
  template <typename Word>
  RawLayerParams<Word> at(const IrLayer& layer) const {
    const auto* words = std::get_if<std::vector<Word>>(&words_);
    DB_CHECK_MSG(words != nullptr, "raw weights read with the wrong word");
    const Slot& s = slot(layer);
    const Word* base = words->data();
    return {{base + s.weights, base + s.bias},
            {base + s.bias, base + s.recurrent},
            {base + s.recurrent, base + s.end},
            s.max_abs_weight};
  }

  /// fn(at<Word>(layer)) with the snapshot's word type.
  template <typename Fn>
  void Visit(const IrLayer& layer, Fn&& fn) const {
    if (int16_words())
      fn(at<std::int16_t>(layer));
    else
      fn(at<std::int32_t>(layer));
  }

 private:
  /// One layer's word offsets: [weights, bias, recurrent, end).
  struct Slot {
    std::size_t weights = 0;
    std::size_t bias = 0;
    std::size_t recurrent = 0;
    std::size_t end = 0;
    std::int32_t max_abs_weight = 0;
  };

  RawWeights() = default;
  /// Lays out every layer `sizes` gives parameters in one buffer and
  /// has `fill(layer, out)` write its weights, bias and recurrent words.
  template <typename Word, typename Sizes, typename Fill>
  static RawWeights Build(const Network& net, Sizes&& sizes, Fill&& fill);
  const Slot& slot(const IrLayer& layer) const;

  std::vector<std::optional<Slot>> layers_;  // by layer id
  std::variant<std::vector<std::int16_t>, std::vector<std::int32_t>> words_;
};

}  // namespace db
