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

// ------------------------------------------------- the int16 madd tile

std::vector<std::int16_t> RandomI16(Rng& rng, std::size_t n, std::int32_t lo,
                                    std::int32_t hi) {
  std::vector<std::int16_t> v(n);
  for (auto& x : v)
    x = static_cast<std::int16_t>(
        lo + static_cast<std::int32_t>(rng.UniformInt(
                 static_cast<std::uint64_t>(hi - lo) + 1)));
  return v;
}

/// conv_tile16's panel from a natural-order one, flat[t * width + x]:
/// taps interleaved in pairs, P[t/2][x][2], the odd half zero.
std::vector<std::int16_t> PairPanel(const std::vector<std::int16_t>& flat,
                                    std::size_t taps, std::size_t width) {
  std::vector<std::int16_t> paired((taps + 1) / 2 * 2 * width, 0);
  for (std::size_t t = 0; t < taps; ++t)
    for (std::size_t x = 0; x < width; ++x)
      paired[t / 2 * 2 * width + 2 * x + t % 2] = flat[t * width + x];
  return paired;
}

/// Runs conv_tile16 (every backend) and ConvTile16Exact for 1..4 output
/// channels against int64 brute force over the natural-order panel.
/// Each call sees exactly n_oc rows of weights plus the one readable
/// word past them (set non-zero: it must meet the zero panel half), so
/// an over-read shows under ASan.
void ExpectConvTile16Matches(const std::vector<std::int16_t>& flat,
                             std::size_t taps, std::size_t width,
                             const std::vector<std::int16_t>& w,
                             const std::vector<std::int64_t>& bias,
                             std::size_t flush_pairs) {
  constexpr std::int64_t kSentinel = 0x5a5a5a5a5a5a5a5a;
  const std::vector<std::int16_t> panel = PairPanel(flat, taps, width);
  for (std::size_t n_oc = 1; n_oc <= kConvTileRows; ++n_oc) {
    SCOPED_TRACE("taps=" + std::to_string(taps) + " width=" +
                 std::to_string(width) + " n_oc=" + std::to_string(n_oc) +
                 " flush=" + std::to_string(flush_pairs));
    std::vector<std::int64_t> want(n_oc * width);
    for (std::size_t j = 0; j < n_oc; ++j)
      for (std::size_t x = 0; x < width; ++x) {
        std::int64_t sum = bias[j];
        for (std::size_t t = 0; t < taps; ++t)
          sum += std::int64_t{w[j * taps + t]} * flat[t * width + x];
        want[j * width + x] = sum;
      }
    std::vector<std::int16_t> rows(w.begin(),
                                   w.begin() + static_cast<std::ptrdiff_t>(
                                                   n_oc * taps));
    rows.push_back(-12345);
    auto check = [&](const char* name, const std::vector<std::int64_t>& acc) {
      EXPECT_TRUE(std::equal(want.begin(), want.end(), acc.begin())) << name;
      EXPECT_TRUE(std::all_of(
          acc.begin() + static_cast<std::ptrdiff_t>(n_oc * width), acc.end(),
          [](std::int64_t v) { return v == kSentinel; }))
          << name << " wrote past n_oc";
    };
    for (const KernelOps* ops : Backends()) {
      std::vector<std::int64_t> acc(kConvTileRows * width, kSentinel);
      ops->conv_tile16(acc.data(), panel.data(), taps, width, rows.data(),
                       bias.data(), n_oc, flush_pairs);
      check(ops->name, acc);
    }
    std::vector<std::int64_t> acc(kConvTileRows * width, kSentinel);
    ConvTile16Exact(acc.data(), panel.data(), taps, width, rows.data(),
                    bias.data(), n_oc);
    check("exact", acc);
  }
}

TEST(Kernels, ConvTile16MatchesBruteForce) {
  Rng rng(16);
  struct Case {
    int total_bits;
    std::int32_t max_w;  // weights in [-max_w, max_w]
  };
  // Full-range Q7.8 weights (K = 1), mid-range ones (K ~ 10^2, so a
  // 363-tap row flushes), tiny ones (K past every pair count: one flush
  // at the end) and an 8-bit format.
  for (const Case c : {Case{16, 32767}, Case{16, 300}, Case{16, 3},
                       Case{8, 128}}) {
    const std::int32_t act = std::int32_t{1} << (c.total_bits - 1);
    const std::size_t k_full = MaddFlushPairs(c.max_w, c.total_bits);
    ASSERT_GE(k_full, 1u);
    // Odd and even tap counts: one tap, one pair, a 3x3 window, NiN's
    // 5x5x96 = 2400 and Alexnet conv1's 3*11*11 = 363.
    for (const std::size_t taps :
         {std::size_t{1}, std::size_t{2}, std::size_t{9}, std::size_t{363},
          std::size_t{2400}}) {
      for (const std::size_t width : {8u, 16u, 32u}) {
        const std::vector<std::int16_t> flat =
            RandomI16(rng, taps * width, -act, act - 1);
        const std::vector<std::int16_t> w =
            RandomI16(rng, kConvTileRows * taps, -c.max_w, c.max_w);
        std::vector<std::int64_t> bias(kConvTileRows);
        for (std::int64_t& b : bias)
          b = static_cast<std::int64_t>(rng.UniformInt(1u << 24)) -
              (1 << 23);
        for (const std::size_t flush : {std::size_t{1}, std::size_t{2},
                                        k_full})
          if (flush <= k_full)
            ExpectConvTile16Matches(flat, taps, width, w, bias, flush);
      }
    }
  }
  // The tightest legal pair: -32767 weights against -32768 activations
  // sum to 2 * 32767 * 32768 = 2^31 - 2^16, one pair per flush.
  ASSERT_EQ(MaddFlushPairs(32767, 16), 1u);
  for (const std::size_t taps : {std::size_t{7}, std::size_t{64}}) {
    const std::vector<std::int16_t> flat(taps * 8, -32768);
    const std::vector<std::int16_t> w(kConvTileRows * taps, -32767);
    ExpectConvTile16Matches(flat, taps, 8, w, {1, -1, 0, 7}, 1);
  }
}

/// (-32768)^2 * 2 = 2^31 is one past int32: a layer holding a -32768
/// weight word at 16 bits gets no flush interval (K = 0), and the
/// simulator runs ConvTile16Exact, which is exact there.
TEST(Kernels, ConvTile16WrapEdgeTakesTheExactTile) {
  EXPECT_EQ(MaddFlushPairs(32768, 16), 0u);
  EXPECT_EQ(MaddFlushPairs(32767, 16), 1u);
  EXPECT_EQ(MaddFlushPairs(128, 8), 65535u);
  EXPECT_EQ(MaddFlushPairs(0, 16), std::numeric_limits<std::size_t>::max());
  const std::int64_t pair = std::int64_t{-32768} * -32768 * 2;
  EXPECT_GT(pair, std::int64_t{std::numeric_limits<std::int32_t>::max()});

  for (const std::size_t taps : {std::size_t{5}, std::size_t{50}}) {
    SCOPED_TRACE("taps=" + std::to_string(taps));
    constexpr std::size_t kWidth = 16;
    const std::vector<std::int16_t> flat(taps * kWidth, -32768);
    const std::vector<std::int16_t> panel = PairPanel(flat, taps, kWidth);
    std::vector<std::int16_t> w(kConvTileRows * taps + 1, -32768);
    w.back() = 0;
    const std::vector<std::int64_t> bias = {3, -3, 0, 1};
    std::vector<std::int64_t> acc(kConvTileRows * kWidth);
    ConvTile16Exact(acc.data(), panel.data(), taps, kWidth, w.data(),
                    bias.data(), kConvTileRows);
    for (std::size_t j = 0; j < kConvTileRows; ++j)
      for (std::size_t x = 0; x < kWidth; ++x)
        EXPECT_EQ(acc[j * kWidth + x],
                  bias[j] + static_cast<std::int64_t>(taps) * (1ll << 30));
  }
}

TEST(Kernels, Dot16MatchesBruteForce) {
  Rng rng(9);
  for (const std::size_t n : {0u, 1u, 5u, 8u, 13u, 32u, 67u, 9216u}) {
    const std::vector<std::int16_t> w = RandomI16(rng, n, -32768, 32767);
    // Activations across the 16-bit range, and wider ones: the contract
    // is any int32.
    for (const std::int32_t edge : {std::int32_t{1} << 15,
                                    std::int32_t{1} << 30}) {
      const std::vector<std::int32_t> a = RandomI32(rng, n, -edge, edge - 1);
      std::int64_t want = 0;
      for (std::size_t i = 0; i < n; ++i)
        want += std::int64_t{w[i]} * a[i];
      for (const KernelOps* ops : Backends())
        EXPECT_EQ(ops->dot16(w.data(), a.data(), n), want)
            << ops->name << " n=" << n << " edge=" << edge;
    }
    // Every operand at raw_min: no pair may wrap.
    const std::vector<std::int16_t> w_min(n, -32768);
    const std::vector<std::int32_t> a_min(n, -32768);
    for (const KernelOps* ops : Backends())
      EXPECT_EQ(ops->dot16(w_min.data(), a_min.data(), n),
                static_cast<std::int64_t>(n) * (1ll << 30))
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
