// SoA fixed-point kernel layer for the simulator hot path.
//
// The functional simulator executes the folded datapath as dense MAC /
// activation sweeps over structure-of-arrays state.  Activations are
// int32 (every FixedFormat raw value fits — total_bits <= 32) and
// accumulators are int64.  Weights are the raw-weight snapshot's words
// (sim/raw_weights.h): int16 for formats of 16 bits or fewer — every zoo
// design, at Q7.8 — and int32 for wider ones.  This header is the
// contract between the simulator and the two interchangeable kernel
// backends:
//
//   * scalar  — portable reference, always available
//   * avx2    — vectorised variants, compiled into the build on x86-64
//               and selected at runtime only when the CPU reports AVX2
//
// Every convolution lowers onto one tile op: the simulator packs one
// output row's receptive fields into a zero-padded tap panel (tap =
// (ic, ky, kx), which absorbs stride, pad, clipping and groups), and the
// tile op sweeps it in register blocks of kConvTileRows output channels
// x kConvTileWidth pixels — the loop tiling and register blocking of an
// FPGA MAC array, applied on the host.  With int16 words the panel is
// int16 too, its taps interleaved in pairs, and `conv_tile16` runs the
// 16-bit multiply-add datapath of paper §4.1 (_mm256_madd_epi16: two
// 16x16-bit products summed into one int32 lane).  Its int32 partial
// sums are flushed into the int64 accumulators every K pairs, where
// K = MaddFlushPairs(max|w|, total_bits) makes each flushed sum provably
// fit int32; a layer where a single pair can wrap (K = 0) runs
// ConvTile16Exact instead.
//
// Both backends are BIT-IDENTICAL by construction: every kernel either
// is elementwise or accumulates exact integer sums (the simulator only
// routes a layer through these kernels when the accumulation provably
// cannot overflow 63 bits, and only hands conv_tile16 a flush interval
// whose int32 partial sums cannot wrap, so summation order is
// immaterial).  The differential test suite pins this equivalence
// across the model zoo, and pins golden activation digests that do not
// depend on either backend.
//
// The arena allocator below carries the per-run scratch state (layer
// activations, tap panels, accumulator tiles, gate buffers) so a
// steady-state serving replica performs no per-invocation heap churn
// after warm-up — the iob-versat emitter/arena idiom applied to
// simulation state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace db::sim {

// ---------------------------------------------------------------------
// Rounding
// ---------------------------------------------------------------------

/// Arithmetic shift right by `frac_bits` with round-half-away-from-zero
/// on the discarded bits — the documented hardware rounder, matching
/// FixedFormat::Quantize.  (A bare `+ half; >> frac` rounds negative
/// ties toward +inf; subtracting the sign bit first repairs exactly the
/// tie case.)
inline std::int64_t RoundShiftHalfAway(std::int64_t v, int frac_bits) {
  if (frac_bits == 0) return v;
  const std::int64_t half = std::int64_t{1} << (frac_bits - 1);
  return (v + half - ((v >> 63) & 1)) >> frac_bits;
}

/// Wide variant for the __int128 fallback path (formats too wide for
/// int64 accumulation).
inline __int128 RoundShiftHalfAway128(__int128 v, int frac_bits) {
  if (frac_bits == 0) return v;
  const __int128 half = static_cast<__int128>(1) << (frac_bits - 1);
  return (v + half - (v < 0 ? 1 : 0)) >> frac_bits;
}

// ---------------------------------------------------------------------
// Kernel ops table
// ---------------------------------------------------------------------

/// Register-block shape of the conv tile ops: output channels x pixels
/// per block.  Tap panels are padded to a multiple of the width.
inline constexpr std::size_t kConvTileRows = 4;
inline constexpr std::size_t kConvTileWidth = 8;

/// The flush interval K of KernelOps::conv_tile16 for a layer whose
/// largest weight magnitude is `max_abs_weight`, in a format of
/// `total_bits` <= 16.  Activations lie in [-2^(tb-1), 2^(tb-1)), so one
/// pair sum is at most 2 * max|w| * 2^(tb-1) in magnitude and K of them
/// at most K times that:
///   K = floor((2^31 - 1) / (2 * max|w| * 2^(tb-1)))
/// keeps every flushed int32 sum exact.  K = 0 only when one pair can
/// wrap: a -32768 word at 16 bits, where (-32768)^2 * 2 = 2^31.  All-zero
/// weights never need a flush (SIZE_MAX).
std::size_t MaddFlushPairs(std::int32_t max_abs_weight, int total_bits);

/// The exact int16 tile a K = 0 layer runs: conv_tile16's sum and
/// layout with one int64 product per tap, scalar.
void ConvTile16Exact(std::int64_t* acc, const std::int16_t* panel,
                     std::size_t taps, std::size_t width,
                     const std::int16_t* w, const std::int64_t* bias,
                     std::size_t n_oc);

/// The vectorisable inner loops of the datapath, dispatched once per
/// process (or overridden per test).  All pointers may be unaligned.
struct KernelOps {
  const char* name;

  /// The int32 convolution tile (formats wider than 16 bits): for j in
  /// [0, n_oc) and x in [0, width),
  ///   acc[j * width + x] = bias[j]
  ///       + sum_t int64(w[j * taps + t]) * panel[t * width + x]
  /// where `panel` is one output row's tap panel P[tap][x], `width` is a
  /// multiple of kConvTileWidth and 1 <= n_oc <= kConvTileRows.
  void (*conv_tile)(std::int64_t* acc, const std::int32_t* panel,
                    std::size_t taps, std::size_t width,
                    const std::int32_t* w, const std::int64_t* bias,
                    std::size_t n_oc);

  /// The int16 convolution tile (formats of 16 bits or fewer): the same
  /// sum, over a panel whose taps are interleaved in pairs, P[t/2][x][2]
  /// — tap t of pixel x at panel[(t / 2) * 2 * width + 2 * x + t % 2] —
  /// with the second half of the last pair zero when `taps` is odd.  The
  /// weights stay in natural order and are read a pair at a time, so
  /// `w` must be readable one word past row n_oc-1's last tap (that
  /// word meets the zero half).  Each pair's two products are summed in
  /// int32 and the int32 sums are added into the int64 accumulators
  /// every `flush_pairs` >= 1 pairs; the caller picks flush_pairs with
  /// MaddFlushPairs, which is what makes the result exact.
  void (*conv_tile16)(std::int64_t* acc, const std::int16_t* panel,
                      std::size_t taps, std::size_t width,
                      const std::int16_t* w, const std::int64_t* bias,
                      std::size_t n_oc, std::size_t flush_pairs);

  /// sum_i int64(a[i]) * b[i] — the dot product of an FC/recurrent row.
  std::int64_t (*dot)(const std::int32_t* a, const std::int32_t* b,
                      std::size_t n);

  /// sum_i int64(w[i]) * a[i] over int16 weight words: the FC/recurrent
  /// row of a format of 16 bits or fewer (half the weight bytes of dot).
  std::int64_t (*dot16)(const std::int16_t* w, const std::int32_t* a,
                        std::size_t n);

  /// out[i] = clamp(RoundShiftHalfAway(acc[i], frac_bits), raw_min,
  /// raw_max) — the accumulator writeback stage of the synergy-neuron
  /// pipeline.
  void (*writeback)(std::int32_t* out, const std::int64_t* acc,
                    std::size_t n, int frac_bits, std::int32_t raw_min,
                    std::int32_t raw_max);

  /// out[i] = max(in[i], 0) — the ReLU activation lane.
  void (*relu)(std::int32_t* out, const std::int32_t* in, std::size_t n);

  /// Running max of in[0..n) seeded with `init` (max-pool windows,
  /// softmax max-subtraction).
  std::int32_t (*max_value)(const std::int32_t* in, std::size_t n,
                            std::int32_t init);
};

// ---------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------

enum class KernelBackend {
  kAuto,    // pick AVX2 when compiled in and the CPU supports it
  kScalar,  // force the portable reference kernels
  kAvx2,    // force the AVX2 kernels (throws if unavailable)
};

std::string KernelBackendName(KernelBackend backend);

/// True when the AVX2 kernels are compiled into this binary AND the
/// running CPU advertises AVX2.
bool Avx2Available();

/// Override the backend (tests, benches, DB_SIM_KERNEL env).  Throws
/// db::Error when forcing kAvx2 on a host without it.
void SetKernelBackend(KernelBackend backend);

/// The backend requests resolve to: kScalar or kAvx2, never kAuto.
/// Honors SetKernelBackend first, then the DB_SIM_KERNEL environment
/// variable ("scalar" | "avx2" | "auto"), then CPU detection.
KernelBackend ActiveKernelBackend();

/// The ops table for ActiveKernelBackend().
const KernelOps& ActiveKernels();

/// The two backends, directly (differential tests compare them).
const KernelOps& ScalarKernels();
/// Returns the AVX2 table; throws db::Error when !Avx2Available().
const KernelOps& Avx2Kernels();

// ---------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------

/// Bump allocator for per-run simulator scratch.  Reset() recycles the
/// committed memory without releasing it, so a warm simulator reuses one
/// stable footprint run after run; growth coalesces into a single block
/// on the next Reset().  Allocations are 64-byte aligned (cache line /
/// full YMM beat).  Not thread-safe: an arena belongs to exactly one
/// simulator, which belongs to exactly one replica lane.
class SimArena {
 public:
  SimArena() = default;
  SimArena(const SimArena&) = delete;
  SimArena& operator=(const SimArena&) = delete;
  ~SimArena();

  /// Uninitialised scratch of `count` Ts, valid until the next Reset().
  template <typename T>
  T* Alloc(std::size_t count) {
    return static_cast<T*>(AllocBytes(count * sizeof(T)));
  }

  /// Zero-initialised variant.
  template <typename T>
  T* AllocZeroed(std::size_t count) {
    T* p = Alloc<T>(count);
    for (std::size_t i = 0; i < count; ++i) p[i] = T{};
    return p;
  }

  /// Recycle all allocations; capacity is retained (and defragmented
  /// into one block if the previous run overflowed).
  void Reset();

  /// Total bytes of backing capacity (diagnostics / tests).
  std::size_t capacity_bytes() const;
  /// Bytes handed out since the last Reset().
  std::size_t used_bytes() const { return used_; }
  /// Number of backing blocks (1 once warm).
  std::size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::byte* data = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* AllocBytes(std::size_t bytes);
  static std::byte* AlignedNew(std::size_t bytes);
  static void AlignedDelete(std::byte* p);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // block accepting allocations
  std::size_t used_ = 0;     // bytes since Reset()
};

}  // namespace db::sim
