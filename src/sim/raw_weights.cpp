#include "sim/raw_weights.h"

#include <algorithm>

#include "common/error.h"

namespace db {
namespace {

std::vector<std::int32_t> QuantizeToI32(const FixedFormat& fmt,
                                        const std::vector<float>& values) {
  std::vector<std::int32_t> raw(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    raw[i] = static_cast<std::int32_t>(
        fmt.Quantize(static_cast<double>(values[i])));
  return raw;
}

/// Sign-extend each little-endian word of `Bytes` bytes and saturate it
/// to the format: the value the datapath reads.
template <int Bytes>
void DecodeWords(const std::uint8_t* p, std::vector<std::int32_t>& out,
                 const FixedFormat& fmt) {
  constexpr int kExtend = 64 - 8 * Bytes;
  for (std::int32_t& word : out) {
    std::uint64_t bits = 0;
    for (int b = 0; b < Bytes; ++b) bits |= std::uint64_t{p[b]} << (8 * b);
    word = static_cast<std::int32_t>(
        fmt.Saturate(static_cast<std::int64_t>(bits << kExtend) >> kExtend));
    p += Bytes;
  }
}

}  // namespace

RawWeights RawWeights::Quantize(const Network& net, const FixedFormat& fmt,
                                const WeightStore& weights) {
  RawWeights raw(net.layers().size());
  for (const IrLayer& layer : net.layers()) {
    if (!weights.Has(layer.name())) continue;
    const LayerParams& params = weights.at(layer.name());
    raw.layers_[static_cast<std::size_t>(layer.id)] = RawLayerParams{
        QuantizeToI32(fmt, params.weights.storage()),
        QuantizeToI32(fmt, params.bias.storage()),
        QuantizeToI32(fmt, params.recurrent.storage())};
  }
  return raw;
}

RawWeights RawWeights::Decode(const MemoryImage& image, const Network& net,
                              const AcceleratorDesign& design) {
  const FixedFormat& fmt = design.config.format;
  const int elem_bytes = static_cast<int>(design.config.ElementBytes());
  RawWeights raw(net.layers().size());
  for (const IrLayer* layer : net.ComputeLayers()) {
    const ParamCounts counts = ParamCountsFor(*layer);
    if (!counts.any) continue;
    DB_CHECK_MSG(design.memory_map.HasWeights(layer->name()),
                 "parameterised layer missing a weight region");
    const MemoryRegion& region = design.memory_map.Weights(layer->name());
    RawLayerParams& params =
        raw.layers_[static_cast<std::size_t>(layer->id)].emplace();
    std::int64_t addr = region.base;
    auto decode = [&](std::vector<std::int32_t>& out, std::int64_t n) {
      const std::int64_t bytes = n * elem_bytes;
      DB_CHECK_MSG(addr + bytes <= region.end(),
                   "weight region underflows its tensors");
      const std::uint8_t* p = image.Range(addr, bytes).data();
      out.resize(static_cast<std::size_t>(n));
      switch (elem_bytes) {
        case 1: DecodeWords<1>(p, out, fmt); break;
        case 2: DecodeWords<2>(p, out, fmt); break;
        case 3: DecodeWords<3>(p, out, fmt); break;
        default: DecodeWords<4>(p, out, fmt); break;
      }
      addr += bytes;
    };
    decode(params.weights, counts.weights);
    decode(params.bias, counts.bias);
    decode(params.recurrent, counts.recurrent);
    // The region must be fully consumed: anything left beyond the
    // MemoryMap's port-alignment padding is trailing garbage the
    // decoder would silently ignore (an oversized or mis-assembled
    // image).  Mirrors the mem.layout weight-sizing verifier rule.
    const std::int64_t align = std::max<std::int64_t>(
        static_cast<std::int64_t>(design.config.memory_port_elems) *
            elem_bytes,
        1);
    const std::int64_t leftover = region.end() - addr;
    if (leftover < 0 || leftover >= align)
      DB_THROW("weight region '" << layer->name()
               << "' not fully consumed: " << leftover
               << " trailing bytes exceed one alignment beat (" << align
               << ")");
  }
  return raw;
}

const RawLayerParams& RawWeights::at(const IrLayer& layer) const {
  const auto id = static_cast<std::size_t>(layer.id);
  if (id >= layers_.size() || !layers_[id])
    DB_THROW("layer '" << layer.name() << "' has no weights");
  return *layers_[id];
}

}  // namespace db
