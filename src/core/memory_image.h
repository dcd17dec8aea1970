// Host-side memory-image construction (the ARM core's job in the
// paper's flow: "The ARM core reorganizes the input data and weight data
// of neural networks into an optimized layout as directed by NN-Gen
// compiler, and then stores them into 2GB on-board DDR3 memory").
//
// The image is the byte-exact DRAM content: every weight array quantised
// and serialised into its region, every input blob quantised and
// reordered into the tile order its consumer's TileSpec demands.  The
// tests close the loop by walking the main AGU's load patterns over the
// image and checking that the fetched stream is exactly the data the
// datapath expects.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/generator.h"
#include "nn/weights.h"

namespace db {

/// A byte-addressable DRAM image.
class MemoryImage {
 public:
  explicit MemoryImage(std::int64_t bytes);

  std::int64_t size() const {
    return static_cast<std::int64_t>(bytes_.size());
  }

  /// Write / read one little-endian fixed-point element of `elem_bytes`
  /// at a byte address.  Bounds-checked.
  void WriteElem(std::int64_t addr, std::int64_t raw, int elem_bytes);
  std::int64_t ReadElem(std::int64_t addr, int elem_bytes) const;

  /// The `bytes` bytes starting at `addr`, bounds-checked once — the
  /// provisioning loops touch a whole tensor per check.
  std::span<std::uint8_t> Range(std::int64_t addr, std::int64_t bytes);
  std::span<const std::uint8_t> Range(std::int64_t addr,
                                      std::int64_t bytes) const;

  /// Flip one bit of the byte at `addr` (a DRAM soft error).
  /// Bounds-checked; `bit` must be in [0, 8).
  void FlipBit(std::int64_t addr, int bit);

  /// Copy `bytes` bytes starting at `base` from `src` into this image
  /// (scrub-and-reload recovery).  Both images must cover the range.
  void CopyRange(const MemoryImage& src, std::int64_t base,
                 std::int64_t bytes);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Build the full image for one invocation: all weights plus the given
/// input blobs (keyed by input-layer name).  Weights serialise in their
/// natural (row-major) order; input blobs are permuted into the tile
/// order of their consumer's layout entry.
MemoryImage BuildMemoryImage(const Network& net,
                             const AcceleratorDesign& design,
                             const WeightStore& weights,
                             const std::map<std::string, Tensor>& inputs);

/// The tile order used for a blob: the layout entry of its first
/// consumer (identity for the network output).  Exposed for tests.
std::vector<std::int64_t> BlobTileOrder(const Network& net,
                                        const AcceleratorDesign& design,
                                        int producer_layer_id);

/// Read a blob back out of the image, undoing the tile permutation and
/// dequantising — the host's post-processing of accelerator outputs.
Tensor ExtractBlob(const MemoryImage& image, const Network& net,
                   const AcceleratorDesign& design,
                   const std::string& layer_name);

/// Write a blob (e.g. a simulated accelerator output) into the image in
/// tile order; inverse of ExtractBlob.
void StoreBlob(MemoryImage& image, const Network& net,
               const AcceleratorDesign& design,
               const std::string& layer_name, const Tensor& value);

/// Hot-path variants taking the blob's region and precomputed tile
/// order (see BlobTileOrder) so steady-state callers — one store and one
/// extract per served request — skip the per-call permutation rebuild.
void StoreBlob(MemoryImage& image, const AcceleratorDesign& design,
               const MemoryRegion& region,
               const std::vector<std::int64_t>& order,
               const Tensor& value);
Tensor ExtractBlob(const MemoryImage& image,
                   const AcceleratorDesign& design,
                   const MemoryRegion& region,
                   const std::vector<std::int64_t>& order,
                   const BlobShape& shape);

}  // namespace db
