#include "core/memory_image.h"

#include <algorithm>

#include "common/error.h"
#include "core/data_layout.h"

namespace db {
namespace {

/// Quantise each value and store its low `Bytes` bytes little-endian.
template <int Bytes>
void EncodeWords(const std::vector<float>& values, const FixedFormat& fmt,
                 std::uint8_t* p) {
  for (const float v : values) {
    const std::int64_t raw = fmt.Quantize(v);
    for (int b = 0; b < Bytes; ++b)
      p[b] = static_cast<std::uint8_t>(raw >> (8 * b));
    p += Bytes;
  }
}

}  // namespace

MemoryImage::MemoryImage(std::int64_t bytes) {
  DB_CHECK_MSG(bytes >= 0, "negative image size");
  bytes_.assign(static_cast<std::size_t>(bytes), 0);
}

void MemoryImage::WriteElem(std::int64_t addr, std::int64_t raw,
                            int elem_bytes) {
  DB_CHECK_MSG(addr >= 0 && addr + elem_bytes <= size(),
               "image write out of bounds");
  for (int b = 0; b < elem_bytes; ++b)
    bytes_[static_cast<std::size_t>(addr + b)] =
        static_cast<std::uint8_t>((raw >> (8 * b)) & 0xFF);
}

std::int64_t MemoryImage::ReadElem(std::int64_t addr,
                                   int elem_bytes) const {
  DB_CHECK_MSG(addr >= 0 && addr + elem_bytes <= size(),
               "image read out of bounds");
  std::uint64_t value = 0;
  for (int b = 0; b < elem_bytes; ++b)
    value |= static_cast<std::uint64_t>(
                 bytes_[static_cast<std::size_t>(addr + b)])
             << (8 * b);
  // Sign-extend from the element's top bit.
  const int bits = 8 * elem_bytes;
  const std::uint64_t sign_bit = std::uint64_t{1} << (bits - 1);
  if (value & sign_bit) value |= ~((sign_bit << 1) - 1);
  return static_cast<std::int64_t>(value);
}

std::span<std::uint8_t> MemoryImage::Range(std::int64_t addr,
                                           std::int64_t bytes) {
  DB_CHECK_MSG(addr >= 0 && bytes >= 0 && addr + bytes <= size(),
               "image range out of bounds");
  return {bytes_.data() + addr, static_cast<std::size_t>(bytes)};
}

std::span<const std::uint8_t> MemoryImage::Range(std::int64_t addr,
                                                 std::int64_t bytes) const {
  DB_CHECK_MSG(addr >= 0 && bytes >= 0 && addr + bytes <= size(),
               "image range out of bounds");
  return {bytes_.data() + addr, static_cast<std::size_t>(bytes)};
}

void MemoryImage::FlipBit(std::int64_t addr, int bit) {
  DB_CHECK_MSG(addr >= 0 && addr < size(), "bit flip out of bounds");
  DB_CHECK_MSG(bit >= 0 && bit < 8, "bit index must be in [0, 8)");
  bytes_[static_cast<std::size_t>(addr)] ^=
      static_cast<std::uint8_t>(1u << bit);
}

void MemoryImage::CopyRange(const MemoryImage& src, std::int64_t base,
                            std::int64_t bytes) {
  DB_CHECK_MSG(bytes >= 0, "negative copy length");
  DB_CHECK_MSG(base >= 0 && base + bytes <= size() &&
                   base + bytes <= src.size(),
               "copy range out of bounds");
  std::copy(src.bytes_.begin() + base, src.bytes_.begin() + base + bytes,
            bytes_.begin() + base);
}

std::vector<std::int64_t> BlobTileOrder(const Network& net,
                                        const AcceleratorDesign& design,
                                        int producer_layer_id) {
  const IrLayer& producer = net.layer(producer_layer_id);
  // Find the first consumer; its input layout dictates the blob order.
  for (const IrLayer& layer : net.layers()) {
    for (std::size_t i = 0; i < layer.input_ids.size(); ++i) {
      if (layer.input_ids[i] != producer_layer_id) continue;
      const TileSpec& spec =
          design.layout.ForLayer(layer.id).input_layout;
      return TilePermutation(producer.output_shape, spec);
    }
  }
  // Network output: stored linearly.
  std::vector<std::int64_t> identity(
      static_cast<std::size_t>(producer.output_shape.NumElements()));
  for (std::size_t i = 0; i < identity.size(); ++i)
    identity[i] = static_cast<std::int64_t>(i);
  return identity;
}

MemoryImage BuildMemoryImage(const Network& net,
                             const AcceleratorDesign& design,
                             const WeightStore& weights,
                             const std::map<std::string, Tensor>& inputs) {
  const FixedFormat& fmt = design.config.format;
  const int elem_bytes = static_cast<int>(design.config.ElementBytes());
  MemoryImage image(design.memory_map.total_bytes());

  // Weights: natural order — weight matrix, then bias, then recurrent.
  for (const IrLayer* layer : net.ComputeLayers()) {
    if (!design.memory_map.HasWeights(layer->name())) continue;
    const MemoryRegion& region =
        design.memory_map.Weights(layer->name());
    const LayerParams& params = weights.at(layer->name());
    std::int64_t addr = region.base;
    auto emit = [&](const Tensor& t) {
      const std::int64_t bytes = t.size() * elem_bytes;
      DB_CHECK_MSG(addr + bytes <= region.end(),
                   "weights overflow their region");
      std::uint8_t* p = image.Range(addr, bytes).data();
      switch (elem_bytes) {
        case 1: EncodeWords<1>(t.storage(), fmt, p); break;
        case 2: EncodeWords<2>(t.storage(), fmt, p); break;
        case 3: EncodeWords<3>(t.storage(), fmt, p); break;
        default: EncodeWords<4>(t.storage(), fmt, p); break;
      }
      addr += bytes;
    };
    emit(params.weights);
    emit(params.bias);
    emit(params.recurrent);
  }

  // Input blobs, permuted into the consumer's tile order.
  for (int id : net.input_ids()) {
    const IrLayer& in_layer = net.layer(id);
    const auto it = inputs.find(in_layer.name());
    if (it == inputs.end())
      DB_THROW("BuildMemoryImage: missing input '" << in_layer.name()
               << "'");
    StoreBlob(image, net, design, in_layer.name(), it->second);
  }
  return image;
}

void StoreBlob(MemoryImage& image, const AcceleratorDesign& design,
               const MemoryRegion& region,
               const std::vector<std::int64_t>& order,
               const Tensor& value) {
  const FixedFormat& fmt = design.config.format;
  const int elem_bytes = static_cast<int>(design.config.ElementBytes());
  DB_CHECK_MSG(static_cast<std::int64_t>(order.size()) == value.size(),
               "blob size mismatch");
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::int64_t addr =
        region.base + static_cast<std::int64_t>(pos) * elem_bytes;
    DB_CHECK_MSG(addr + elem_bytes <= region.end(),
                 "blob overflows its region");
    image.WriteElem(addr, fmt.Quantize(value[order[pos]]), elem_bytes);
  }
}

void StoreBlob(MemoryImage& image, const Network& net,
               const AcceleratorDesign& design,
               const std::string& layer_name, const Tensor& value) {
  const MemoryRegion& region = design.memory_map.Blob(layer_name);
  int layer_id = -1;
  for (const IrLayer& layer : net.layers())
    if (layer.name() == layer_name) layer_id = layer.id;
  DB_CHECK_MSG(layer_id >= 0, "unknown blob layer");
  StoreBlob(image, design, region, BlobTileOrder(net, design, layer_id),
            value);
}

Tensor ExtractBlob(const MemoryImage& image,
                   const AcceleratorDesign& design,
                   const MemoryRegion& region,
                   const std::vector<std::int64_t>& order,
                   const BlobShape& shape) {
  const FixedFormat& fmt = design.config.format;
  const int elem_bytes = static_cast<int>(design.config.ElementBytes());
  Tensor out(Shape{shape.channels, shape.height, shape.width});
  DB_CHECK_MSG(static_cast<std::int64_t>(order.size()) == out.size(),
               "blob size mismatch");
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::int64_t addr =
        region.base + static_cast<std::int64_t>(pos) * elem_bytes;
    out[order[pos]] = static_cast<float>(
        fmt.Dequantize(image.ReadElem(addr, elem_bytes)));
  }
  return out;
}

Tensor ExtractBlob(const MemoryImage& image, const Network& net,
                   const AcceleratorDesign& design,
                   const std::string& layer_name) {
  int layer_id = -1;
  for (const IrLayer& layer : net.layers())
    if (layer.name() == layer_name) layer_id = layer.id;
  DB_CHECK_MSG(layer_id >= 0, "unknown blob layer");
  return ExtractBlob(image, design,
                     design.memory_map.Blob(layer_name),
                     BlobTileOrder(net, design, layer_id),
                     net.layer(layer_id).output_shape);
}

}  // namespace db
