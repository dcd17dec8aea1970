#include "sim/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/error.h"
#include "common/strings.h"

namespace db::sim {

// ---------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------

namespace {

void ScalarConvTile(std::int64_t* acc, const std::int32_t* panel,
                    std::size_t taps, std::size_t width,
                    const std::int32_t* w, const std::int64_t* bias,
                    std::size_t n_oc) {
  for (std::size_t x0 = 0; x0 < width; x0 += kConvTileWidth) {
    std::int64_t tile[kConvTileRows][kConvTileWidth];
    for (std::size_t j = 0; j < n_oc; ++j)
      for (std::int64_t& v : tile[j]) v = bias[j];
    for (std::size_t t = 0; t < taps; ++t) {
      const std::int32_t* p = panel + t * width + x0;
      for (std::size_t j = 0; j < n_oc; ++j) {
        const std::int64_t wt = w[j * taps + t];
        for (std::size_t i = 0; i < kConvTileWidth; ++i)
          tile[j][i] += wt * p[i];
      }
    }
    for (std::size_t j = 0; j < n_oc; ++j)
      std::copy(tile[j], tile[j] + kConvTileWidth, acc + j * width + x0);
  }
}

/// conv_tile16's pair sums: int32 partial sums, flushed every
/// `flush_pairs` pairs (exact under the MaddFlushPairs bound).
void ScalarConvTile16(std::int64_t* acc, const std::int16_t* panel,
                      std::size_t taps, std::size_t width,
                      const std::int16_t* w, const std::int64_t* bias,
                      std::size_t n_oc, std::size_t flush_pairs) {
  const std::size_t pairs = (taps + 1) / 2;
  for (std::size_t x0 = 0; x0 < width; x0 += kConvTileWidth) {
    std::int64_t tile[kConvTileRows][kConvTileWidth];
    for (std::size_t j = 0; j < n_oc; ++j)
      for (std::int64_t& v : tile[j]) v = bias[j];
    const std::int16_t* p = panel + 2 * x0;
    for (std::size_t pp = 0; pp < pairs;) {
      const std::size_t end =
          pairs - pp > flush_pairs ? pp + flush_pairs : pairs;
      std::int32_t sum[kConvTileRows][kConvTileWidth] = {};
      for (; pp < end; ++pp, p += 2 * width) {
        for (std::size_t j = 0; j < n_oc; ++j) {
          const std::int32_t w0 = w[j * taps + 2 * pp];
          const std::int32_t w1 = w[j * taps + 2 * pp + 1];
          for (std::size_t i = 0; i < kConvTileWidth; ++i)
            sum[j][i] += w0 * p[2 * i] + w1 * p[2 * i + 1];
        }
      }
      for (std::size_t j = 0; j < n_oc; ++j)
        for (std::size_t i = 0; i < kConvTileWidth; ++i)
          tile[j][i] += sum[j][i];
    }
    for (std::size_t j = 0; j < n_oc; ++j)
      std::copy(tile[j], tile[j] + kConvTileWidth, acc + j * width + x0);
  }
}

/// dot (Word = int32) and dot16 (Word = int16).
template <typename Word>
std::int64_t ScalarDot(const Word* a, const std::int32_t* b, std::size_t n) {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i)
    sum += static_cast<std::int64_t>(a[i]) * b[i];
  return sum;
}

void ScalarWriteback(std::int32_t* out, const std::int64_t* acc,
                     std::size_t n, int frac_bits, std::int32_t raw_min,
                     std::int32_t raw_max) {
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t v = RoundShiftHalfAway(acc[i], frac_bits);
    if (v > raw_max) v = raw_max;
    if (v < raw_min) v = raw_min;
    out[i] = static_cast<std::int32_t>(v);
  }
}

void ScalarRelu(std::int32_t* out, const std::int32_t* in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0 ? in[i] : 0;
}

std::int32_t ScalarMaxValue(const std::int32_t* in, std::size_t n,
                            std::int32_t init) {
  std::int32_t best = init;
  for (std::size_t i = 0; i < n; ++i)
    if (in[i] > best) best = in[i];
  return best;
}

constexpr KernelOps kScalarOps = {
    "scalar",
    ScalarConvTile,
    ScalarConvTile16,
    ScalarDot<std::int32_t>,
    ScalarDot<std::int16_t>,
    ScalarWriteback,
    ScalarRelu,
    ScalarMaxValue,
};

}  // namespace

std::size_t MaddFlushPairs(std::int32_t max_abs_weight, int total_bits) {
  DB_CHECK_MSG(total_bits >= 1 && total_bits <= 16 && max_abs_weight >= 0,
               "the madd tile serves formats of 16 bits or fewer");
  if (max_abs_weight == 0) return SIZE_MAX;
  const std::int64_t pair_max = std::int64_t{2} * max_abs_weight
                                << (total_bits - 1);
  return static_cast<std::size_t>(INT32_MAX / pair_max);
}

void ConvTile16Exact(std::int64_t* acc, const std::int16_t* panel,
                     std::size_t taps, std::size_t width,
                     const std::int16_t* w, const std::int64_t* bias,
                     std::size_t n_oc) {
  for (std::size_t j = 0; j < n_oc; ++j) {
    std::int64_t* row = acc + j * width;
    std::fill(row, row + width, bias[j]);
    for (std::size_t t = 0; t < taps; ++t) {
      const std::int64_t wt = w[j * taps + t];
      const std::int16_t* p = panel + (t / 2) * 2 * width + t % 2;
      for (std::size_t x = 0; x < width; ++x) row[x] += wt * p[2 * x];
    }
  }
}

const KernelOps& ScalarKernels() { return kScalarOps; }

// ---------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------

#if defined(DB_HAVE_AVX2_KERNELS)
namespace detail {
// Defined in kernels_avx2.cpp (compiled with -mavx2).
const KernelOps& Avx2KernelsImpl();
}  // namespace detail
#endif

bool Avx2Available() {
#if defined(DB_HAVE_AVX2_KERNELS) && defined(__x86_64__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const KernelOps& Avx2Kernels() {
#if defined(DB_HAVE_AVX2_KERNELS)
  if (Avx2Available()) return detail::Avx2KernelsImpl();
#endif
  DB_THROW("AVX2 kernels are not available on this host");
}

std::string KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto: return "auto";
    case KernelBackend::kScalar: return "scalar";
    case KernelBackend::kAvx2: return "avx2";
  }
  return "?";
}

namespace {

KernelBackend ParseBackend(const std::string& name) {
  const std::string n = ToLower(name);
  if (n == "auto") return KernelBackend::kAuto;
  if (n == "scalar") return KernelBackend::kScalar;
  if (n == "avx2") return KernelBackend::kAvx2;
  DB_THROW("unknown kernel backend '" << name
           << "' (want auto, scalar or avx2)");
}

/// The initial request: DB_SIM_KERNEL env var, else auto.
KernelBackend InitialBackend() {
  const char* env = std::getenv("DB_SIM_KERNEL");
  if (env == nullptr || *env == '\0') return KernelBackend::kAuto;
  return ParseBackend(env);
}

std::atomic<KernelBackend>& RequestedBackend() {
  static std::atomic<KernelBackend> requested{InitialBackend()};
  return requested;
}

}  // namespace

void SetKernelBackend(KernelBackend backend) {
  if (backend == KernelBackend::kAvx2 && !Avx2Available())
    DB_THROW("cannot select the avx2 kernel backend: "
             "not available on this host");
  RequestedBackend().store(backend, std::memory_order_relaxed);
}

KernelBackend ActiveKernelBackend() {
  const KernelBackend requested =
      RequestedBackend().load(std::memory_order_relaxed);
  if (requested == KernelBackend::kScalar) return KernelBackend::kScalar;
  if (requested == KernelBackend::kAvx2) return KernelBackend::kAvx2;
  return Avx2Available() ? KernelBackend::kAvx2 : KernelBackend::kScalar;
}

const KernelOps& ActiveKernels() {
  return ActiveKernelBackend() == KernelBackend::kAvx2 ? Avx2Kernels()
                                                       : ScalarKernels();
}

// ---------------------------------------------------------------------
// SimArena
// ---------------------------------------------------------------------

namespace {
constexpr std::size_t kArenaAlign = 64;
constexpr std::size_t kArenaMinBlock = std::size_t{64} * 1024;

std::size_t RoundUpAligned(std::size_t bytes) {
  return (bytes + kArenaAlign - 1) & ~(kArenaAlign - 1);
}
}  // namespace

std::byte* SimArena::AlignedNew(std::size_t bytes) {
  return static_cast<std::byte*>(
      ::operator new(bytes, std::align_val_t{kArenaAlign}));
}

void SimArena::AlignedDelete(std::byte* p) {
  ::operator delete(p, std::align_val_t{kArenaAlign});
}

SimArena::~SimArena() {
  for (Block& b : blocks_) AlignedDelete(b.data);
}

std::size_t SimArena::capacity_bytes() const {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

void* SimArena::AllocBytes(std::size_t bytes) {
  const std::size_t need = RoundUpAligned(bytes == 0 ? 1 : bytes);
  while (current_ < blocks_.size()) {
    Block& b = blocks_[current_];
    if (b.used + need <= b.size) {
      void* p = b.data + b.used;
      b.used += need;
      used_ += need;
      return p;
    }
    ++current_;
  }
  // Grow: at least double the current capacity so the block count stays
  // logarithmic in the eventual footprint.
  std::size_t size = std::max(need, kArenaMinBlock);
  size = std::max(size, capacity_bytes());
  Block b;
  b.data = AlignedNew(size);
  b.size = size;
  b.used = need;
  blocks_.push_back(b);
  current_ = blocks_.size() - 1;
  used_ += need;
  return b.data;
}

void SimArena::Reset() {
  if (blocks_.size() > 1) {
    // The last run overflowed into extra blocks: coalesce into one block
    // sized for the whole footprint, so the steady state is a single
    // stable allocation.
    const std::size_t total = capacity_bytes();
    for (Block& b : blocks_) AlignedDelete(b.data);
    blocks_.clear();
    Block b;
    b.data = AlignedNew(total);
    b.size = total;
    blocks_.push_back(b);
  }
  for (Block& b : blocks_) b.used = 0;
  current_ = 0;
  used_ = 0;
}

}  // namespace db::sim
