// Unit tests for the SoA kernel layer (sim/kernels.h): the rounding
// helpers, both kernel backends (bit-for-bit against each other and
// against brute-force references, across saturation and tie edges), the
// runtime backend dispatch, and the scratch arena's reuse contract.
#include "sim/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace db::sim {
namespace {

// ------------------------------------------------------------- rounding

TEST(RoundShiftHalfAway, TiesRoundAwayFromZeroBothSigns) {
  // frac_bits = 8: half = 128.
  EXPECT_EQ(RoundShiftHalfAway(128, 8), 1);
  EXPECT_EQ(RoundShiftHalfAway(-128, 8), -1);
  EXPECT_EQ(RoundShiftHalfAway(384, 8), 2);
  EXPECT_EQ(RoundShiftHalfAway(-384, 8), -2);
  // One below the tie rounds toward zero.
  EXPECT_EQ(RoundShiftHalfAway(127, 8), 0);
  EXPECT_EQ(RoundShiftHalfAway(-127, 8), 0);
  // One above the tie rounds away.
  EXPECT_EQ(RoundShiftHalfAway(129, 8), 1);
  EXPECT_EQ(RoundShiftHalfAway(-129, 8), -1);
  // frac_bits = 0 is the identity.
  EXPECT_EQ(RoundShiftHalfAway(-7, 0), -7);
}

TEST(RoundShiftHalfAway, WideVariantMatchesNarrowOnInt64Range) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<std::int64_t>(rng.Next() >> 16) -
                   (std::int64_t{1} << 47);
    const int frac = 1 + static_cast<int>(rng.UniformInt(24));
    EXPECT_EQ(static_cast<std::int64_t>(
                  RoundShiftHalfAway128(static_cast<__int128>(v), frac)),
              RoundShiftHalfAway(v, frac))
        << "v=" << v << " frac=" << frac;
  }
}

// ------------------------------------------------- backends, bit for bit

/// Both tables when AVX2 is live on this host, else just the scalar one.
std::vector<const KernelOps*> Backends() {
  std::vector<const KernelOps*> ops{&ScalarKernels()};
  if (Avx2Available()) ops.push_back(&Avx2Kernels());
  return ops;
}

std::vector<std::int32_t> RandomI32(Rng& rng, std::size_t n,
                                    std::int32_t lo, std::int32_t hi) {
  std::vector<std::int32_t> v(n);
  for (auto& x : v)
    x = lo + static_cast<std::int32_t>(rng.UniformInt(
                 static_cast<std::uint64_t>(hi - lo) + 1));
  return v;
}

/// Brute-force conv_tile: __int128 sums, checked to fit int64.
std::vector<std::int64_t> ConvTileReference(
    const std::vector<std::int32_t>& panel, std::size_t taps,
    std::size_t width, const std::vector<std::int32_t>& w,
    const std::vector<std::int64_t>& bias, std::size_t n_oc) {
  std::vector<std::int64_t> want(n_oc * width);
  for (std::size_t j = 0; j < n_oc; ++j)
    for (std::size_t x = 0; x < width; ++x) {
      __int128 sum = bias[j];
      for (std::size_t t = 0; t < taps; ++t)
        sum += static_cast<__int128>(w[j * taps + t]) * panel[t * width + x];
      EXPECT_EQ(sum, static_cast<std::int64_t>(sum));
      want[j * width + x] = static_cast<std::int64_t>(sum);
    }
  return want;
}

/// Runs conv_tile on every backend for 1..kConvTileRows output channels
/// and checks the stored rows against the reference; rows past n_oc
/// must stay untouched.
void ExpectConvTileMatches(const std::vector<std::int32_t>& panel,
                           std::size_t taps, std::size_t width,
                           const std::vector<std::int32_t>& w,
                           const std::vector<std::int64_t>& bias) {
  constexpr std::int64_t kSentinel = 0x5a5a5a5a5a5a5a5a;
  for (std::size_t n_oc = 1; n_oc <= kConvTileRows; ++n_oc) {
    const std::vector<std::int64_t> want =
        ConvTileReference(panel, taps, width, w, bias, n_oc);
    for (const KernelOps* ops : Backends()) {
      std::vector<std::int64_t> acc(kConvTileRows * width, kSentinel);
      ops->conv_tile(acc.data(), panel.data(), taps, width, w.data(),
                     bias.data(), n_oc);
      EXPECT_TRUE(std::equal(want.begin(), want.end(), acc.begin()))
          << ops->name << " taps=" << taps << " width=" << width
          << " n_oc=" << n_oc;
      EXPECT_TRUE(std::all_of(acc.begin() + static_cast<std::ptrdiff_t>(
                                                n_oc * width),
                              acc.end(),
                              [](std::int64_t v) { return v == kSentinel; }))
          << ops->name << " wrote past n_oc=" << n_oc;
    }
  }
}

TEST(Kernels, ConvTileMatchesBruteForce) {
  // The widest format the simulator's narrow-path proof admits for
  // 2400 taps plus a bias: 2*(tb-1) + bit_width(2401) <= 62 gives
  // tb = 26, so operands reach +-2^25 and products 2^50.
  constexpr std::size_t kMaxTaps = 2400;
  constexpr int kTotalBits =
      (62 - static_cast<int>(std::bit_width(kMaxTaps + 1))) / 2 + 1;
  static_assert(kTotalBits == 26);
  constexpr std::int32_t kEdge = std::int32_t{1} << (kTotalBits - 1);
  constexpr std::int64_t kBiasEdge = std::int64_t{1}
                                     << (2 * (kTotalBits - 1));
  Rng rng(7);
  // Tap counts: a 1x1 single channel, one kernel row, Alexnet conv1
  // (3*11*11) and NiN conv2 (96*5*5).  Output widths straddle the
  // 8-pixel tile: each is padded up to a multiple of kConvTileWidth.
  for (const std::size_t taps : {std::size_t{1}, std::size_t{3},
                                 std::size_t{363}, kMaxTaps}) {
    for (const std::size_t out_w : {6u, 13u, 27u, 54u, 55u}) {
      SCOPED_TRACE("taps=" + std::to_string(taps) +
                   " out_w=" + std::to_string(out_w));
      const std::size_t width =
          (out_w + kConvTileWidth - 1) / kConvTileWidth * kConvTileWidth;
      // Random operands over the whole format range.
      const std::vector<std::int32_t> panel =
          RandomI32(rng, taps * width, -kEdge, kEdge);
      const std::vector<std::int32_t> w =
          RandomI32(rng, kConvTileRows * taps, -kEdge, kEdge);
      std::vector<std::int64_t> bias(kConvTileRows);
      for (std::int64_t& b : bias)
        b = static_cast<std::int64_t>(rng.UniformInt(
                static_cast<std::uint64_t>(2 * kBiasEdge) + 1)) -
            kBiasEdge;
      ExpectConvTileMatches(panel, taps, width, w, bias);

      // Every operand at +-2^(tb-1): the largest sums of either sign
      // (a 32-bit product or a lost sign extension would show here).
      const std::vector<std::int32_t> edge_panel(taps * width, -kEdge);
      std::vector<std::int32_t> edge_w(kConvTileRows * taps);
      for (std::size_t j = 0; j < kConvTileRows; ++j)
        for (std::size_t t = 0; t < taps; ++t)
          edge_w[j * taps + t] = (j == 1 || (j == 3 && t % 2 == 0))
                                     ? kEdge
                                     : -kEdge;
      const std::vector<std::int64_t> edge_bias = {kBiasEdge, -kBiasEdge,
                                                   -kBiasEdge, kBiasEdge};
      ExpectConvTileMatches(edge_panel, taps, width, edge_w, edge_bias);
    }
  }
}

TEST(Kernels, DotMatchesBruteForce) {
  Rng rng(8);
  for (const std::size_t n : {0u, 1u, 5u, 8u, 13u, 32u, 67u}) {
    const std::vector<std::int32_t> a =
        RandomI32(rng, n, -(1 << 15), 1 << 15);
    const std::vector<std::int32_t> b =
        RandomI32(rng, n, -(1 << 15), 1 << 15);
    std::int64_t want = 0;
    for (std::size_t i = 0; i < n; ++i)
      want += static_cast<std::int64_t>(a[i]) * b[i];
    for (const KernelOps* ops : Backends())
      EXPECT_EQ(ops->dot(a.data(), b.data(), n), want)
          << ops->name << " n=" << n;
  }
}

TEST(Kernels, WritebackSaturatesAndRoundsTiesAwayFromZero) {
  // A 16-bit format with 8 fractional bits: raw range [-32768, 32767].
  constexpr int kFrac = 8;
  constexpr std::int32_t kMin = -32768, kMax = 32767;
  const std::vector<std::int64_t> acc = {
      128,   -128,  384,  -384,  127,    -127,        // tie edges
      (std::int64_t{kMax} << kFrac) + 500,            // above raw_max
      (std::int64_t{kMin} << kFrac) - 500,            // below raw_min
      std::numeric_limits<std::int64_t>::max() / 2,   // deep saturation
      std::numeric_limits<std::int64_t>::min() / 2,
      0};
  std::vector<std::int32_t> want(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const std::int64_t r = RoundShiftHalfAway(acc[i], kFrac);
    want[i] = static_cast<std::int32_t>(
        r < kMin ? kMin : (r > kMax ? kMax : r));
  }
  EXPECT_EQ(want[0], 1);
  EXPECT_EQ(want[1], -1);  // the PR's tie-break bug would give 0 here
  for (const KernelOps* ops : Backends()) {
    std::vector<std::int32_t> out(acc.size(), 99);
    ops->writeback(out.data(), acc.data(), acc.size(), kFrac, kMin, kMax);
    EXPECT_EQ(out, want) << ops->name;
  }
}

TEST(Kernels, ReluAndMaxValueMatchBruteForce) {
  Rng rng(9);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 25u}) {
    const std::vector<std::int32_t> in =
        RandomI32(rng, n, -1000, 1000);
    std::vector<std::int32_t> want(n);
    std::int32_t want_max = -5000;
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = in[i] > 0 ? in[i] : 0;
      want_max = std::max(want_max, in[i]);
    }
    for (const KernelOps* ops : Backends()) {
      std::vector<std::int32_t> out(n, 99);
      ops->relu(out.data(), in.data(), n);
      EXPECT_EQ(out, want) << ops->name;
      EXPECT_EQ(ops->max_value(in.data(), n, -5000), want_max)
          << ops->name;
    }
  }
}

// ------------------------------------------------------------- dispatch

struct BackendGuard {
  ~BackendGuard() { SetKernelBackend(KernelBackend::kAuto); }
};

TEST(Kernels, BackendDispatchHonorsOverride) {
  BackendGuard guard;
  SetKernelBackend(KernelBackend::kScalar);
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
  EXPECT_STREQ(ActiveKernels().name, "scalar");
  if (Avx2Available()) {
    SetKernelBackend(KernelBackend::kAvx2);
    EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kAvx2);
    EXPECT_STREQ(ActiveKernels().name, "avx2");
  } else {
    EXPECT_THROW(SetKernelBackend(KernelBackend::kAvx2), Error);
  }
  SetKernelBackend(KernelBackend::kAuto);
  // kAuto always resolves to a concrete backend.
  EXPECT_NE(ActiveKernelBackend(), KernelBackend::kAuto);
}

// ---------------------------------------------------------------- arena

TEST(SimArena, ReusesCapacityAndCoalescesAfterGrowth) {
  SimArena arena;
  EXPECT_EQ(arena.capacity_bytes(), 0u);

  // First run: several allocations, forcing at least one growth.
  std::int32_t* a = arena.AllocZeroed<std::int32_t>(1000);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a[i], 0);
  (void)arena.Alloc<std::int64_t>(100 * 1024);  // ~800 KiB: must grow
  const std::size_t grown = arena.capacity_bytes();
  EXPECT_GE(grown, 1000 * sizeof(std::int32_t) +
                       100 * 1024 * sizeof(std::int64_t));

  // Reset keeps the footprint and coalesces into one block.
  arena.Reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_GE(arena.capacity_bytes(), grown);
  EXPECT_EQ(arena.block_count(), 1u);

  // Warm run of the same shape: no further growth.
  (void)arena.Alloc<std::int32_t>(1000);
  (void)arena.Alloc<std::int64_t>(100 * 1024);
  EXPECT_EQ(arena.capacity_bytes(), arena.capacity_bytes());
  EXPECT_EQ(arena.block_count(), 1u);

  // Alignment contract: every allocation is 64-byte aligned.
  arena.Reset();
  for (int i = 0; i < 8; ++i) {
    const auto addr = reinterpret_cast<std::uintptr_t>(
        arena.Alloc<std::byte>(static_cast<std::size_t>(3 + i)));
    EXPECT_EQ(addr % 64, 0u);
  }
}

}  // namespace
}  // namespace db::sim
