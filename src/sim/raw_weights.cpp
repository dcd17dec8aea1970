#include "sim/raw_weights.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace db {
namespace {

template <typename Word>
void QuantizeInto(Word* out, const FixedFormat& fmt,
                  const std::vector<float>& values) {
  for (const float v : values)
    *out++ = static_cast<Word>(fmt.Quantize(static_cast<double>(v)));
}

/// Sign-extend each little-endian word of `Bytes` bytes and saturate it
/// to the format: the value the datapath reads.
template <int Bytes, typename Word>
void DecodeWords(const std::uint8_t* p, Word* out, std::size_t n,
                 const FixedFormat& fmt) {
  constexpr int kExtend = 64 - 8 * Bytes;
  for (std::size_t i = 0; i < n; ++i, p += Bytes) {
    std::uint64_t bits = 0;
    for (int b = 0; b < Bytes; ++b) bits |= std::uint64_t{p[b]} << (8 * b);
    out[i] = static_cast<Word>(
        fmt.Saturate(static_cast<std::int64_t>(bits << kExtend) >> kExtend));
  }
}

/// The 2-byte case: the image's words are the snapshot's words, so the
/// decode is a copy plus the saturating clamp (a no-op at 16 bits).
void DecodeWords2(const std::uint8_t* p, std::int16_t* out, std::size_t n,
                  const FixedFormat& fmt) {
  static_assert(std::endian::native == std::endian::little,
                "the image's little-endian words are copied as-is");
  std::memcpy(out, p, n * sizeof(std::int16_t));
  const auto lo = static_cast<std::int16_t>(fmt.raw_min());
  const auto hi = static_cast<std::int16_t>(fmt.raw_max());
  for (std::size_t i = 0; i < n; ++i) out[i] = std::clamp(out[i], lo, hi);
}

}  // namespace

template <typename Word, typename Sizes, typename Fill>
RawWeights RawWeights::Build(const Network& net, Sizes&& sizes,
                             Fill&& fill) {
  RawWeights raw;
  raw.layers_.resize(net.layers().size());
  std::size_t total = 0;
  for (const IrLayer* layer : net.ComputeLayers()) {
    const ParamCounts counts = sizes(*layer);
    if (!counts.any) continue;
    Slot& s = raw.layers_[static_cast<std::size_t>(layer->id)].emplace();
    s.weights = total;
    s.bias = s.weights + static_cast<std::size_t>(counts.weights);
    s.recurrent = s.bias + static_cast<std::size_t>(counts.bias);
    s.end = s.recurrent + static_cast<std::size_t>(counts.recurrent);
    total = s.end;
  }
  // One trailing zero word: a weight-pair read may run one word past the
  // last layer's weights.
  std::vector<Word> words(total + 1, Word{0});
  for (const IrLayer* layer : net.ComputeLayers()) {
    std::optional<Slot>& s = raw.layers_[static_cast<std::size_t>(layer->id)];
    if (!s) continue;
    fill(*layer, words.data() + s->weights);
    if constexpr (std::is_same_v<Word, std::int16_t>)
      for (std::size_t i = s->weights; i < s->bias; ++i)
        s->max_abs_weight =
            std::max(s->max_abs_weight, std::abs(std::int32_t{words[i]}));
  }
  raw.words_ = std::move(words);
  return raw;
}

RawWeights RawWeights::Quantize(const Network& net, const FixedFormat& fmt,
                                const WeightStore& weights) {
  auto sizes = [&](const IrLayer& layer) {
    ParamCounts counts;
    if (!weights.Has(layer.name())) return counts;
    const LayerParams& params = weights.at(layer.name());
    counts.weights = params.weights.size();
    counts.bias = params.bias.size();
    counts.recurrent = params.recurrent.size();
    counts.any = true;
    return counts;
  };
  auto fill = [&](const IrLayer& layer, auto* out) {
    const LayerParams& params = weights.at(layer.name());
    QuantizeInto(out, fmt, params.weights.storage());
    out += params.weights.size();
    QuantizeInto(out, fmt, params.bias.storage());
    out += params.bias.size();
    QuantizeInto(out, fmt, params.recurrent.storage());
  };
  return fmt.total_bits() <= 16 ? Build<std::int16_t>(net, sizes, fill)
                                : Build<std::int32_t>(net, sizes, fill);
}

RawWeights RawWeights::Decode(const MemoryImage& image, const Network& net,
                              const AcceleratorDesign& design) {
  const FixedFormat& fmt = design.config.format;
  const int elem_bytes = static_cast<int>(design.config.ElementBytes());
  auto fill = [&](const IrLayer& layer, auto* out) {
    DB_CHECK_MSG(design.memory_map.HasWeights(layer.name()),
                 "parameterised layer missing a weight region");
    const MemoryRegion& region = design.memory_map.Weights(layer.name());
    const ParamCounts counts = ParamCountsFor(layer);
    // Weights, bias and recurrent words lie back to back in the region.
    const std::int64_t n = counts.weights + counts.bias + counts.recurrent;
    const std::int64_t bytes = n * elem_bytes;
    DB_CHECK_MSG(region.base + bytes <= region.end(),
                 "weight region underflows its tensors");
    const std::uint8_t* p = image.Range(region.base, bytes).data();
    const auto count = static_cast<std::size_t>(n);
    using Word = std::remove_pointer_t<decltype(out)>;
    if constexpr (std::is_same_v<Word, std::int16_t>) {
      if (elem_bytes == 1)
        DecodeWords<1>(p, out, count, fmt);
      else
        DecodeWords2(p, out, count, fmt);
    } else {
      if (elem_bytes == 3)
        DecodeWords<3>(p, out, count, fmt);
      else
        DecodeWords<4>(p, out, count, fmt);
    }
    // The region must be fully consumed: anything left beyond the
    // MemoryMap's port-alignment padding is trailing garbage the
    // decoder would silently ignore (an oversized or mis-assembled
    // image).  Mirrors the mem.layout weight-sizing verifier rule.
    const std::int64_t align = std::max<std::int64_t>(
        static_cast<std::int64_t>(design.config.memory_port_elems) *
            elem_bytes,
        1);
    const std::int64_t leftover = region.end() - (region.base + bytes);
    if (leftover >= align)
      DB_THROW("weight region '" << layer.name()
               << "' not fully consumed: " << leftover
               << " trailing bytes exceed one alignment beat (" << align
               << ")");
  };
  return fmt.total_bits() <= 16
             ? Build<std::int16_t>(net, ParamCountsFor, fill)
             : Build<std::int32_t>(net, ParamCountsFor, fill);
}

const RawWeights::Slot& RawWeights::slot(const IrLayer& layer) const {
  const auto id = static_cast<std::size_t>(layer.id);
  if (id >= layers_.size() || !layers_[id])
    DB_THROW("layer '" << layer.name() << "' has no weights");
  return *layers_[id];
}

}  // namespace db
