// AVX2 kernel backend.  This translation unit is compiled with -mavx2
// (see src/sim/CMakeLists.txt) and is only entered after
// Avx2Available() confirmed the CPU supports it.
//
// Bit-identity with the scalar backend is structural: every op is either
// elementwise (writeback, relu, max) or an exact integer accumulation
// (conv_tile, conv_tile16, dot, dot16) whose summation order cannot
// matter because the simulator guarantees no-overflow before routing
// work here.
#include "sim/kernels.h"

#if defined(DB_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <cstring>

namespace db::sim::detail {
namespace {

/// Stores one channel's 8 pixels from its even-pixel (0, 2, 4, 6) and
/// odd-pixel (1, 3, 5, 7) accumulators, in pixel order.
inline void StoreEvenOdd(std::int64_t* out, __m256i even, __m256i odd) {
  // (0,1 | 4,5) and (2,3 | 6,7), then the 128-bit halves in order.
  const __m256i lo = _mm256_unpacklo_epi64(even, odd);
  const __m256i hi = _mm256_unpackhi_epi64(even, odd);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permute2x128_si256(lo, hi, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4),
                      _mm256_permute2x128_si256(lo, hi, 0x31));
}

void Avx2ConvTile(std::int64_t* acc, const std::int32_t* panel,
                  std::size_t taps, std::size_t width,
                  const std::int32_t* w, const std::int64_t* bias,
                  std::size_t n_oc) {
  static_assert(kConvTileRows == 4 && kConvTileWidth == 8,
                "the register block below is written out for 4 x 8");
  // Rows past n_oc repeat the last real row: computed, never stored.
  auto row = [&](std::size_t j) { return j < n_oc ? j : n_oc - 1; };
  const std::int32_t* w0 = w + row(0) * taps;
  const std::int32_t* w1 = w + row(1) * taps;
  const std::int32_t* w2 = w + row(2) * taps;
  const std::int32_t* w3 = w + row(3) * taps;
  for (std::size_t x0 = 0; x0 < width; x0 += kConvTileWidth) {
    // _mm256_mul_epi32 multiplies the sign-extended low 32 bits of each
    // 64-bit lane, so one 8-pixel load feeds the even pixels directly
    // and the odd pixels after a 32-bit shift.  e<j>/o<j> hold output
    // channel j's even/odd pixels: 8 accumulators, all in registers.
    __m256i e0 = _mm256_set1_epi64x(bias[row(0)]), o0 = e0;
    __m256i e1 = _mm256_set1_epi64x(bias[row(1)]), o1 = e1;
    __m256i e2 = _mm256_set1_epi64x(bias[row(2)]), o2 = e2;
    __m256i e3 = _mm256_set1_epi64x(bias[row(3)]), o3 = e3;
    const std::int32_t* p = panel + x0;
    for (std::size_t t = 0; t < taps; ++t, p += width) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      const __m256i v_odd = _mm256_srli_epi64(v, 32);
      __m256i wt = _mm256_set1_epi32(w0[t]);
      e0 = _mm256_add_epi64(e0, _mm256_mul_epi32(v, wt));
      o0 = _mm256_add_epi64(o0, _mm256_mul_epi32(v_odd, wt));
      wt = _mm256_set1_epi32(w1[t]);
      e1 = _mm256_add_epi64(e1, _mm256_mul_epi32(v, wt));
      o1 = _mm256_add_epi64(o1, _mm256_mul_epi32(v_odd, wt));
      wt = _mm256_set1_epi32(w2[t]);
      e2 = _mm256_add_epi64(e2, _mm256_mul_epi32(v, wt));
      o2 = _mm256_add_epi64(o2, _mm256_mul_epi32(v_odd, wt));
      wt = _mm256_set1_epi32(w3[t]);
      e3 = _mm256_add_epi64(e3, _mm256_mul_epi32(v, wt));
      o3 = _mm256_add_epi64(o3, _mm256_mul_epi32(v_odd, wt));
    }
    std::int64_t* out = acc + x0;
    StoreEvenOdd(out, e0, o0);
    if (n_oc > 1) StoreEvenOdd(out + width, e1, o1);
    if (n_oc > 2) StoreEvenOdd(out + 2 * width, e2, o2);
    if (n_oc > 3) StoreEvenOdd(out + 3 * width, e3, o3);
  }
}

/// One weight pair (w[0], w[1]) in every 32-bit lane: one broadcast load.
inline __m256i BroadcastPair(const std::int16_t* w) {
  std::int32_t pair;
  std::memcpy(&pair, w, sizeof pair);
  return _mm256_set1_epi32(pair);
}

/// Adds 8 int32 pixel sums into one channel's 8 int64 accumulators.
inline void Flush(std::int64_t* out, __m256i sum) {
  const __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(sum));
  const __m256i hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(sum, 1));
  auto* o = reinterpret_cast<__m256i*>(out);
  _mm256_storeu_si256(o, _mm256_add_epi64(_mm256_loadu_si256(o), lo));
  _mm256_storeu_si256(o + 1, _mm256_add_epi64(_mm256_loadu_si256(o + 1), hi));
}

void Avx2ConvTile16(std::int64_t* acc, const std::int16_t* panel,
                    std::size_t taps, std::size_t width,
                    const std::int16_t* w, const std::int64_t* bias,
                    std::size_t n_oc, std::size_t flush_pairs) {
  static_assert(kConvTileRows == 4 && kConvTileWidth == 8,
                "the register block below is written out for 4 x 8");
  // Rows past n_oc repeat the last real row: computed, never stored.
  auto row = [&](std::size_t j) { return j < n_oc ? j : n_oc - 1; };
  const std::int16_t* w0 = w + row(0) * taps;
  const std::int16_t* w1 = w + row(1) * taps;
  const std::int16_t* w2 = w + row(2) * taps;
  const std::int16_t* w3 = w + row(3) * taps;
  const std::size_t pairs = (taps + 1) / 2;
  for (std::size_t x0 = 0; x0 < width; x0 += kConvTileWidth) {
    alignas(32) std::int64_t tile[kConvTileRows][kConvTileWidth];
    for (std::size_t j = 0; j < kConvTileRows; ++j)
      for (std::int64_t& v : tile[j]) v = bias[row(j)];
    // One 16-lane load is 8 pixels x one tap pair; _mm256_madd_epi16
    // against a broadcast weight pair gives each pixel's pair sum in an
    // int32 lane.  s<j> holds output channel j's 8 pixel sums.
    const std::int16_t* p = panel + 2 * x0;
    for (std::size_t pp = 0; pp < pairs;) {
      const std::size_t end =
          pairs - pp > flush_pairs ? pp + flush_pairs : pairs;
      __m256i s0 = _mm256_setzero_si256(), s1 = s0, s2 = s0, s3 = s0;
      for (; pp < end; ++pp, p += 2 * width) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
        s0 = _mm256_add_epi32(
            s0, _mm256_madd_epi16(v, BroadcastPair(w0 + 2 * pp)));
        s1 = _mm256_add_epi32(
            s1, _mm256_madd_epi16(v, BroadcastPair(w1 + 2 * pp)));
        s2 = _mm256_add_epi32(
            s2, _mm256_madd_epi16(v, BroadcastPair(w2 + 2 * pp)));
        s3 = _mm256_add_epi32(
            s3, _mm256_madd_epi16(v, BroadcastPair(w3 + 2 * pp)));
      }
      Flush(tile[0], s0);
      Flush(tile[1], s1);
      Flush(tile[2], s2);
      Flush(tile[3], s3);
    }
    for (std::size_t j = 0; j < n_oc; ++j)
      std::memcpy(acc + j * width + x0, tile[j], sizeof tile[j]);
  }
}

/// dot (Word = int32) and dot16 (Word = int16, widened on load).
template <typename Word>
std::int64_t Avx2Dot(const Word* a, const std::int32_t* b, std::size_t n) {
  // Two independent accumulators break the add dependency chain (the
  // int64 sum is exact, so regrouping cannot change the result).
  __m256i sum_even = _mm256_setzero_si256();
  __m256i sum_odd = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i va;
    if constexpr (sizeof(Word) == 2)
      va = _mm256_cvtepi16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    else
      va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // Even 32-bit elements live in the low half of each 64-bit lane;
    // shifting right by 32 exposes the odd elements there.
    sum_even = _mm256_add_epi64(sum_even, _mm256_mul_epi32(va, vb));
    sum_odd = _mm256_add_epi64(
        sum_odd, _mm256_mul_epi32(_mm256_srli_epi64(va, 32),
                                  _mm256_srli_epi64(vb, 32)));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                     _mm256_add_epi64(sum_even, sum_odd));
  std::int64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) total += static_cast<std::int64_t>(a[i]) * b[i];
  return total;
}

void Avx2Writeback(std::int32_t* out, const std::int64_t* acc,
                   std::size_t n, int frac_bits, std::int32_t raw_min,
                   std::int32_t raw_max) {
  const __m256i vmax = _mm256_set1_epi64x(raw_max);
  const __m256i vmin = _mm256_set1_epi64x(raw_min);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i half = _mm256_set1_epi64x(
      frac_bits > 0 ? std::int64_t{1} << (frac_bits - 1) : 0);
  // Gather the low 32 bits of each 64-bit lane into the low 128 bits.
  const __m256i pack_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    if (frac_bits > 0) {
      // v = (v + half - sign_bit) >> frac_bits, arithmetic — AVX2 has no
      // 64-bit arithmetic shift, so emulate via logical shift + sign
      // fill.
      v = _mm256_sub_epi64(_mm256_add_epi64(v, half),
                           _mm256_srli_epi64(v, 63));
      const __m256i negative = _mm256_cmpgt_epi64(zero, v);
      v = _mm256_or_si256(
          _mm256_srli_epi64(v, frac_bits),
          _mm256_slli_epi64(negative, 64 - frac_bits));
    }
    v = _mm256_blendv_epi8(v, vmax, _mm256_cmpgt_epi64(v, vmax));
    v = _mm256_blendv_epi8(v, vmin, _mm256_cmpgt_epi64(vmin, v));
    const __m256i packed = _mm256_permutevar8x32_epi32(v, pack_idx);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(packed));
  }
  for (; i < n; ++i) {
    std::int64_t v = RoundShiftHalfAway(acc[i], frac_bits);
    if (v > raw_max) v = raw_max;
    if (v < raw_min) v = raw_min;
    out[i] = static_cast<std::int32_t>(v);
  }
}

void Avx2Relu(std::int32_t* out, const std::int32_t* in, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_max_epi32(v, zero));
  }
  for (; i < n; ++i) out[i] = in[i] > 0 ? in[i] : 0;
}

std::int32_t Avx2MaxValue(const std::int32_t* in, std::size_t n,
                          std::int32_t init) {
  std::int32_t best = init;
  std::size_t i = 0;
  if (n >= 8) {
    __m256i vbest = _mm256_set1_epi32(init);
    for (; i + 8 <= n; i += 8) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
      vbest = _mm256_max_epi32(vbest, v);
    }
    alignas(32) std::int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vbest);
    for (std::int32_t lane : lanes)
      if (lane > best) best = lane;
  }
  for (; i < n; ++i)
    if (in[i] > best) best = in[i];
  return best;
}

constexpr KernelOps kAvx2Ops = {
    "avx2",
    Avx2ConvTile,
    Avx2ConvTile16,
    Avx2Dot<std::int32_t>,
    Avx2Dot<std::int16_t>,
    Avx2Writeback,
    Avx2Relu,
    Avx2MaxValue,
};

}  // namespace

const KernelOps& Avx2KernelsImpl() { return kAvx2Ops; }

}  // namespace db::sim::detail

#endif  // DB_HAVE_AVX2_KERNELS
