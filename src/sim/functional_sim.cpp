#include "sim/functional_sim.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/error.h"
#include "common/math_util.h"
#include "nn/cmac.h"

namespace db {
namespace {

/// Deepest accumulation fan-in (number of summed terms, bias included)
/// across the network — the bound that decides whether int64
/// accumulation can ever overflow for this design's format.
std::int64_t MaxAccTerms(const Network& net) {
  std::int64_t worst = 1;
  for (const IrLayer& layer : net.layers()) {
    if (layer.input_ids.empty()) continue;
    const BlobShape& in_shape =
        net.layer(layer.input_ids.front()).output_shape;
    std::int64_t terms = 1;
    switch (layer.kind()) {
      case LayerKind::kConvolution: {
        const ConvolutionParams& p = *layer.def.conv;
        const std::int64_t k = p.kernel_size;
        terms = (in_shape.channels / p.group) * k * k + 1;
        break;
      }
      case LayerKind::kInnerProduct:
        terms = in_shape.NumElements() + 1;
        break;
      case LayerKind::kLrn:
        terms = layer.def.lrn->local_size;
        break;
      case LayerKind::kRecurrent:
        terms = in_shape.NumElements() +
                layer.def.recurrent->num_output + 1;
        break;
      case LayerKind::kLstm:
        terms = in_shape.NumElements() + layer.def.lstm->num_output + 1;
        break;
      default:
        break;
    }
    worst = std::max(worst, terms);
  }
  return worst;
}

// ---------------------------------------------------------------------
// Accumulation math policies
//
// NarrowMath drives the SoA kernel backend with exact int64 sums; it is
// selected only when MaxAccTerms x format width proves 63-bit
// accumulation cannot overflow, which is what makes the vector lane
// order immaterial (bit-identical to scalar).  Its Word is the
// snapshot's: int16 words run the multiply-add conv tile and dot16,
// int32 words the int32 ones.  WideMath is the __int128 fallback for
// formats where that proof fails (int32 words only); it shares the
// round-half-away writeback so both paths implement the same hardware
// rounder.
// ---------------------------------------------------------------------

template <typename W>
struct NarrowMath {
  using Word = W;
  using Acc = std::int64_t;
  const sim::KernelOps& ops;

  static Acc Bias(std::int32_t b, int f) {
    return static_cast<Acc>(b) << f;
  }
  /// `flush_pairs` is conv_tile16's MaddFlushPairs interval; 0 runs the
  /// exact tile.  Unused for int32 words.
  void ConvTile(Acc* acc, const Word* panel, std::size_t taps,
                std::size_t width, const Word* w, const Acc* bias,
                std::size_t n_oc, std::size_t flush_pairs) const {
    if constexpr (std::is_same_v<Word, std::int16_t>) {
      if (flush_pairs == 0)
        sim::ConvTile16Exact(acc, panel, taps, width, w, bias, n_oc);
      else
        ops.conv_tile16(acc, panel, taps, width, w, bias, n_oc,
                        flush_pairs);
    } else {
      ops.conv_tile(acc, panel, taps, width, w, bias, n_oc);
    }
  }
  Acc Dot(const Word* w, const std::int32_t* a, std::size_t n) const {
    if constexpr (std::is_same_v<Word, std::int16_t>)
      return ops.dot16(w, a, n);
    else
      return ops.dot(w, a, n);
  }
  void Writeback(std::int32_t* out, const Acc* acc, std::size_t n,
                 const FixedFormat& fmt) const {
    ops.writeback(out, acc, n, fmt.frac_bits(),
                  static_cast<std::int32_t>(fmt.raw_min()),
                  static_cast<std::int32_t>(fmt.raw_max()));
  }
};

struct WideMath {
  using Word = std::int32_t;
  using Acc = __int128;

  static Acc Bias(std::int32_t b, int f) {
    return static_cast<Acc>(b) << f;
  }
  void ConvTile(Acc* acc, const std::int32_t* panel, std::size_t taps,
                std::size_t width, const std::int32_t* w, const Acc* bias,
                std::size_t n_oc, std::size_t /*flush_pairs*/) const {
    for (std::size_t j = 0; j < n_oc; ++j) {
      Acc* row = acc + j * width;
      std::fill(row, row + width, bias[j]);
      for (std::size_t t = 0; t < taps; ++t) {
        const std::int64_t wt = w[j * taps + t];
        const std::int32_t* p = panel + t * width;
        for (std::size_t x = 0; x < width; ++x) row[x] += Acc{wt * p[x]};
      }
    }
  }
  Acc Dot(const std::int32_t* a, const std::int32_t* b,
          std::size_t n) const {
    Acc sum = 0;
    for (std::size_t i = 0; i < n; ++i)
      sum += Acc{static_cast<std::int64_t>(a[i]) * b[i]};
    return sum;
  }
  void Writeback(std::int32_t* out, const Acc* acc, std::size_t n,
                 const FixedFormat& fmt) const {
    const Acc raw_max = fmt.raw_max();
    const Acc raw_min = fmt.raw_min();
    for (std::size_t i = 0; i < n; ++i) {
      Acc v = sim::RoundShiftHalfAway128(acc[i], fmt.frac_bits());
      if (v > raw_max) v = raw_max;
      if (v < raw_min) v = raw_min;
      out[i] = static_cast<std::int32_t>(v);
    }
  }
};

}  // namespace

FunctionalSimulator::FunctionalSimulator(const Network& net,
                                         const AcceleratorDesign& design,
                                         const WeightStore& weights)
    : FunctionalSimulator(net, design,
                          std::make_shared<const RawWeights>(
                              RawWeights::Quantize(net, design.config.format,
                                                   weights))) {}

FunctionalSimulator::FunctionalSimulator(
    const Network& net, const AcceleratorDesign& design,
    std::shared_ptr<const RawWeights> weights)
    : net_(net),
      fmt_(design.config.format),
      weights_(std::move(weights)) {
  DB_CHECK_MSG(weights_ != nullptr, "simulator needs a weight snapshot");
  for (const ApproxLutSpec& spec : design.lut_specs)
    luts_.push_back(ApproxLut::Generate(spec));
  // |sum of T products| <= T * 2^(2*(total_bits-1)), so int64
  // accumulation is safe iff 2*(tb-1) + ceil_log2(T) stays within 62
  // bits (one bit of headroom below the sign).
  const std::int64_t max_terms = MaxAccTerms(net_);
  const int term_bits = std::bit_width(
      static_cast<std::uint64_t>(max_terms));
  narrow_ = 2 * (fmt_.total_bits() - 1) + term_bits <= 62;
  // Network::Build caps every tensor, so an int16 format's fan-in never
  // reaches the 2^32 terms that would fail the proof.
  DB_CHECK_MSG(narrow_ || !weights_->int16_words(),
               "int16 weight words need int64 accumulation");
  // Resolve the kernel backend now, on the constructing thread: a bad
  // DB_SIM_KERNEL value must surface as db::Error where the CLI can
  // report it, not escape a replica lane thread and terminate.
  (void)sim::ActiveKernels();
}

const ApproxLut& FunctionalSimulator::LutFor(LutFunction fn) const {
  for (const ApproxLut& lut : luts_)
    if (lut.spec().function == fn) return lut;
  DB_THROW("design has no Approx LUT for function " << LutFunctionName(fn));
}

// ---------------------------------------------------------------------
// MAC layers (templated over the accumulation policy)
// ---------------------------------------------------------------------

template <typename Math>
void FunctionalSimulator::RunConv(const Math& math, const IrLayer& layer,
                                  const RawTensor& in0,
                                  RawTensor& out) const {
  using Acc = typename Math::Acc;
  using Word = typename Math::Word;
  // Taps per panel column: conv_tile16 interleaves int16 taps in pairs.
  constexpr std::int64_t kPair = sizeof(std::int32_t) / sizeof(Word);
  const ConvolutionParams& p = *layer.def.conv;
  const RawLayerParams<Word> rp = weights_->at<Word>(layer);
  const int f = fmt_.frac_bits();
  const std::size_t flush_pairs =
      kPair == 2 ? sim::MaddFlushPairs(rp.max_abs_weight, fmt_.total_bits())
                 : 0;
  const std::int64_t in_h = in0.shape.height;
  const std::int64_t in_w = in0.shape.width;
  const std::int64_t out_h = out.shape.height;
  const std::int64_t out_w = out.shape.width;
  const std::int64_t k = p.kernel_size;
  const std::int64_t s = p.stride;
  const std::int64_t group_in = in0.shape.channels / p.group;
  const std::int64_t group_out = out.shape.channels / p.group;
  const std::size_t taps = static_cast<std::size_t>(group_in * k * k);
  const std::size_t width =
      (static_cast<std::size_t>(out_w) + sim::kConvTileWidth - 1) /
      sim::kConvTileWidth * sim::kConvTileWidth;
  // One panel row holds kPair taps of every pixel: P[t/kPair][x][kPair].
  const std::int64_t padded_w = static_cast<std::int64_t>(width);
  const std::int64_t row_words = padded_w * kPair;
  const std::int64_t panel_rows =
      (static_cast<std::int64_t>(taps) + kPair - 1) / kPair;
  Word* panel =
      arena_.Alloc<Word>(static_cast<std::size_t>(panel_rows * row_words));
  // An odd tap count leaves the last pair's second half: zero it once.
  if (static_cast<std::int64_t>(taps) % kPair != 0) {
    Word* half = panel + (panel_rows - 1) * row_words + 1;
    for (std::int64_t x = 0; x < padded_w; ++x) half[x * kPair] = 0;
  }
  Acc* acc = arena_.Alloc<Acc>(sim::kConvTileRows * width);
  Acc* bias = arena_.Alloc<Acc>(static_cast<std::size_t>(out.shape.channels));
  for (std::int64_t oc = 0; oc < out.shape.channels; ++oc)
    bias[oc] = rp.bias.empty()
                   ? Acc{0}
                   : Math::Bias(rp.bias[static_cast<std::size_t>(oc)], f);
  // Output pixel x of tap (ky, kx) reads input column x*s - pad + kx;
  // the pixels whose column lies in [0, in_w) are [x_lo, x_hi).
  auto first_x_reading_at_least = [&](std::int64_t col, std::int64_t kx) {
    const std::int64_t num = col + p.pad - kx;
    return num <= 0 ? 0 : std::min(out_w, (num + s - 1) / s);
  };
  for (std::int64_t y = 0; y < out_h; ++y) {
    for (std::int64_t g = 0; g < p.group; ++g) {
      // 1. Pack the zero-padded tap panel.  Activations are in the
      //    format's range, so an int16 panel holds them exactly.
      std::int64_t t = 0;
      for (std::int64_t ic = g * group_in; ic < (g + 1) * group_in; ++ic) {
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = y * s - p.pad + ky;
          const bool inside = iy >= 0 && iy < in_h;
          for (std::int64_t kx = 0; kx < k; ++kx, ++t) {
            Word* row = panel + t / kPair * row_words + t % kPair;
            const std::int64_t x_lo =
                inside ? first_x_reading_at_least(0, kx) : 0;
            const std::int64_t x_hi =
                inside ? first_x_reading_at_least(in_w, kx) : 0;
            for (std::int64_t x = 0; x < x_lo; ++x) row[x * kPair] = 0;
            if (x_lo < x_hi) {
              const std::int32_t* src =
                  in0.raw + (ic * in_h + iy) * in_w + x_lo * s - p.pad + kx;
              for (std::int64_t x = x_lo; x < x_hi; ++x)
                row[x * kPair] = static_cast<Word>(src[(x - x_lo) * s]);
            }
            for (std::int64_t x = x_hi; x < padded_w; ++x) row[x * kPair] = 0;
          }
        }
      }
      // 2. Register-blocked tiles of output channels, 3. writeback.
      const std::int64_t oc_end = (g + 1) * group_out;
      for (std::int64_t oc = g * group_out; oc < oc_end;
           oc += static_cast<std::int64_t>(sim::kConvTileRows)) {
        const std::size_t n_oc = std::min(
            sim::kConvTileRows, static_cast<std::size_t>(oc_end - oc));
        math.ConvTile(acc, panel, taps, width,
                      rp.weights.data() + static_cast<std::size_t>(oc) * taps,
                      bias + oc, n_oc, flush_pairs);
        for (std::size_t j = 0; j < n_oc; ++j)
          math.Writeback(
              out.raw + ((oc + static_cast<std::int64_t>(j)) * out_h + y) *
                            out_w,
              acc + j * width, static_cast<std::size_t>(out_w), fmt_);
      }
    }
  }
}

template <typename Math>
void FunctionalSimulator::RunInnerProduct(const Math& math,
                                          const IrLayer& layer,
                                          const RawTensor& in0,
                                          RawTensor& out) const {
  using Acc = typename Math::Acc;
  const InnerProductParams& p = *layer.def.fc;
  const auto rp = weights_->at<typename Math::Word>(layer);
  const int f = fmt_.frac_bits();
  const std::int64_t in_n = in0.shape.NumElements();
  Acc* acc = arena_.Alloc<Acc>(static_cast<std::size_t>(p.num_output));
  for (std::int64_t o = 0; o < p.num_output; ++o) {
    const Acc bias =
        rp.bias.empty()
            ? Acc{0}
            : Math::Bias(rp.bias[static_cast<std::size_t>(o)], f);
    acc[o] = bias + math.Dot(rp.weights.data() + o * in_n, in0.raw,
                             static_cast<std::size_t>(in_n));
  }
  math.Writeback(out.raw, acc, static_cast<std::size_t>(p.num_output),
                 fmt_);
}

template <typename Math>
void FunctionalSimulator::RunLrn(const Math& math, const IrLayer& layer,
                                 const RawTensor& in0,
                                 RawTensor& out) const {
  using Acc = typename Math::Acc;
  const LrnParams& p = *layer.def.lrn;
  const ApproxLut& lut = LutFor(LutFunction::kLrnPow);
  const std::int64_t half = p.local_size / 2;
  const std::int64_t alpha_raw =
      fmt_.Quantize(p.alpha / static_cast<double>(p.local_size));
  const std::int64_t one_raw = fmt_.Quantize(1.0);
  const std::int64_t h = out.shape.height;
  const std::int64_t w = out.shape.width;
  const std::int64_t plane = h * w;
  for (std::int64_t c = 0; c < out.shape.channels; ++c) {
    const std::int64_t c0 = std::max<std::int64_t>(c - half, 0);
    const std::int64_t c1 =
        std::min<std::int64_t>(c + half + 1, out.shape.channels);
    for (std::int64_t i = 0; i < plane; ++i) {
      Acc sum_sq = 0;
      for (std::int64_t cc = c0; cc < c1; ++cc) {
        const std::int64_t v = in0.raw[cc * plane + i];
        sum_sq += Acc{v * v};
      }
      std::int32_t sum_raw = 0;
      math.Writeback(&sum_raw, &sum_sq, 1, fmt_);
      const std::int64_t scale_raw =
          fmt_.Add(one_raw, fmt_.Mul(alpha_raw, sum_raw));
      const std::int64_t pow_raw = lut.EvalRaw(scale_raw);
      out.raw[c * plane + i] = static_cast<std::int32_t>(
          fmt_.Mul(in0.raw[c * plane + i], pow_raw));
    }
  }
}

template <typename Math>
void FunctionalSimulator::RunRecurrent(const Math& math,
                                       const IrLayer& layer,
                                       const RawTensor& in0,
                                       RawTensor& out) const {
  using Acc = typename Math::Acc;
  const RecurrentParams& p = *layer.def.recurrent;
  const auto rp = weights_->at<typename Math::Word>(layer);
  const int f = fmt_.frac_bits();
  const std::int64_t in_n = in0.shape.NumElements();
  const std::size_t n_out = static_cast<std::size_t>(p.num_output);
  std::int32_t* h = arena_.AllocZeroed<std::int32_t>(n_out);
  std::int32_t* next = arena_.AllocZeroed<std::int32_t>(n_out);
  const ApproxLut* act = nullptr;
  if (p.activation == RecurrentActivation::kTanh)
    act = &LutFor(LutFunction::kTanh);
  else if (p.activation == RecurrentActivation::kSigmoid)
    act = &LutFor(LutFunction::kSigmoid);
  for (std::int64_t t = 0; t < p.time_steps; ++t) {
    for (std::int64_t o = 0; o < p.num_output; ++o) {
      Acc acc =
          rp.bias.empty()
              ? Acc{0}
              : Math::Bias(rp.bias[static_cast<std::size_t>(o)], f);
      acc += math.Dot(rp.weights.data() + o * in_n, in0.raw,
                      static_cast<std::size_t>(in_n));
      acc += math.Dot(rp.recurrent.data() + o * p.num_output, h, n_out);
      std::int32_t v = 0;
      math.Writeback(&v, &acc, 1, fmt_);
      if (act != nullptr)
        v = static_cast<std::int32_t>(act->EvalRaw(v));
      next[static_cast<std::size_t>(o)] = v;
    }
    std::swap(h, next);
  }
  std::memcpy(out.raw, h, n_out * sizeof(std::int32_t));
}

template <typename Math>
void FunctionalSimulator::RunLstm(const Math& math, const IrLayer& layer,
                                  const RawTensor& in0,
                                  RawTensor& out) const {
  using Acc = typename Math::Acc;
  const LstmParams& p = *layer.def.lstm;
  const auto rp = weights_->at<typename Math::Word>(layer);
  const int f = fmt_.frac_bits();
  const std::int64_t in_n = in0.shape.NumElements();
  const std::int64_t h = p.num_output;
  const std::size_t n_h = static_cast<std::size_t>(h);
  const ApproxLut& sig = LutFor(LutFunction::kSigmoid);
  const ApproxLut& tanh_lut = LutFor(LutFunction::kTanh);
  std::int32_t* hidden = arena_.AllocZeroed<std::int32_t>(n_h);
  std::int32_t* cell = arena_.AllocZeroed<std::int32_t>(n_h);
  std::int32_t* gates = arena_.AllocZeroed<std::int32_t>(4 * n_h);
  for (std::int64_t t = 0; t < p.time_steps; ++t) {
    for (std::int64_t g = 0; g < 4 * h; ++g) {
      Acc acc =
          rp.bias.empty()
              ? Acc{0}
              : Math::Bias(rp.bias[static_cast<std::size_t>(g)], f);
      acc += math.Dot(rp.weights.data() + g * in_n, in0.raw,
                      static_cast<std::size_t>(in_n));
      acc += math.Dot(rp.recurrent.data() + g * h, hidden, n_h);
      math.Writeback(&gates[static_cast<std::size_t>(g)], &acc, 1, fmt_);
    }
    // The elementwise gate combination is a chain of saturating Mul/Add
    // in a fixed order — kept scalar on purpose.
    for (std::int64_t j = 0; j < h; ++j) {
      const std::int64_t gi =
          sig.EvalRaw(gates[static_cast<std::size_t>(j)]);
      const std::int64_t gf =
          sig.EvalRaw(gates[static_cast<std::size_t>(h + j)]);
      const std::int64_t gc =
          tanh_lut.EvalRaw(gates[static_cast<std::size_t>(2 * h + j)]);
      const std::int64_t go =
          sig.EvalRaw(gates[static_cast<std::size_t>(3 * h + j)]);
      cell[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(
          fmt_.Add(fmt_.Mul(gf, cell[static_cast<std::size_t>(j)]),
                   fmt_.Mul(gi, gc)));
      hidden[static_cast<std::size_t>(j)] =
          static_cast<std::int32_t>(fmt_.Mul(
              go,
              tanh_lut.EvalRaw(cell[static_cast<std::size_t>(j)])));
    }
  }
  std::memcpy(out.raw, hidden, n_h * sizeof(std::int32_t));
}

// ---------------------------------------------------------------------
// Non-MAC layers
// ---------------------------------------------------------------------

void FunctionalSimulator::RunPooling(const IrLayer& layer,
                                     const RawTensor& in0,
                                     RawTensor& out) const {
  const sim::KernelOps& ops = sim::ActiveKernels();
  const PoolingParams& p = *layer.def.pool;
  const std::int64_t window = p.kernel_size * p.kernel_size;
  const bool pow2_window = IsPow2(window);
  const int shift =
      pow2_window ? static_cast<int>(std::llround(
                        std::log2(static_cast<double>(window))))
                  : 0;
  const std::int64_t recip_raw =
      pow2_window ? 0 : fmt_.Quantize(1.0 / static_cast<double>(window));
  const std::int64_t in_h = in0.shape.height;
  const std::int64_t in_w = in0.shape.width;
  const std::int64_t out_h = out.shape.height;
  const std::int64_t out_w = out.shape.width;
  const std::int32_t raw_min = static_cast<std::int32_t>(fmt_.raw_min());
  for (std::int64_t c = 0; c < out.shape.channels; ++c) {
    const std::int32_t* in_plane = in0.raw + c * in_h * in_w;
    std::int32_t* out_plane = out.raw + c * out_h * out_w;
    for (std::int64_t y = 0; y < out_h; ++y) {
      for (std::int64_t x = 0; x < out_w; ++x) {
        const std::int64_t y0 =
            std::max<std::int64_t>(y * p.stride - p.pad, 0);
        const std::int64_t x0 =
            std::max<std::int64_t>(x * p.stride - p.pad, 0);
        const std::int64_t y1 =
            std::min(y * p.stride - p.pad + p.kernel_size, in_h);
        const std::int64_t x1 =
            std::min(x * p.stride - p.pad + p.kernel_size, in_w);
        if (p.method == PoolMethod::kMax) {
          std::int32_t best = raw_min;
          for (std::int64_t iy = y0; iy < y1; ++iy)
            best = ops.max_value(in_plane + iy * in_w + x0,
                                 static_cast<std::size_t>(x1 - x0), best);
          out_plane[y * out_w + x] = best;
        } else {
          // Window sums of raw values always fit int64.
          std::int64_t sum = 0;
          for (std::int64_t iy = y0; iy < y1; ++iy)
            for (std::int64_t ix = x0; ix < x1; ++ix)
              sum += in_plane[iy * in_w + ix];
          // Average via the connection box's shifting latch when the
          // window is a power of two; otherwise multiply by the
          // quantised reciprocal.
          out_plane[y * out_w + x] = static_cast<std::int32_t>(
              pow2_window ? fmt_.Saturate(sum >> shift)
                          : fmt_.Mul(fmt_.Saturate(sum), recip_raw));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

void FunctionalSimulator::RunLayer(const IrLayer& layer,
                                   const RawTensor* const* ins,
                                   std::size_t num_ins,
                                   RawTensor& out) const {
  out.shape = layer.output_shape;
  out.n = static_cast<std::size_t>(out.shape.NumElements());
  out.raw = arena_.Alloc<std::int32_t>(out.n);
  DB_CHECK(num_ins >= 1);
  const RawTensor& in0 = *ins[0];
  const sim::KernelOps& ops = sim::ActiveKernels();
  // fn(math) with this design's accumulation policy.
  auto with_math = [&](auto&& fn) {
    if (weights_->int16_words())
      fn(NarrowMath<std::int16_t>{ops});
    else if (narrow_)
      fn(NarrowMath<std::int32_t>{ops});
    else
      fn(WideMath{});
  };

  switch (layer.kind()) {
    case LayerKind::kConvolution:
      with_math([&](const auto& math) { RunConv(math, layer, in0, out); });
      break;
    case LayerKind::kInnerProduct:
      with_math(
          [&](const auto& math) { RunInnerProduct(math, layer, in0, out); });
      break;
    case LayerKind::kPooling:
      RunPooling(layer, in0, out);
      break;
    case LayerKind::kRelu:
      ops.relu(out.raw, in0.raw, in0.n);
      break;
    case LayerKind::kSigmoid: {
      const ApproxLut& lut = LutFor(LutFunction::kSigmoid);
      for (std::size_t i = 0; i < in0.n; ++i)
        out.raw[i] = static_cast<std::int32_t>(lut.EvalRaw(in0.raw[i]));
      break;
    }
    case LayerKind::kTanh: {
      const ApproxLut& lut = LutFor(LutFunction::kTanh);
      for (std::size_t i = 0; i < in0.n; ++i)
        out.raw[i] = static_cast<std::int32_t>(lut.EvalRaw(in0.raw[i]));
      break;
    }
    case LayerKind::kLrn:
      with_math([&](const auto& math) { RunLrn(math, layer, in0, out); });
      break;
    case LayerKind::kSoftmax: {
      const ApproxLut& exp_lut = LutFor(LutFunction::kExp);
      const ApproxLut& recip_lut = LutFor(LutFunction::kRecip);
      const std::int32_t max_raw =
          ops.max_value(in0.raw, in0.n,
                        static_cast<std::int32_t>(fmt_.raw_min()));
      std::int64_t sum = 0;
      for (std::size_t i = 0; i < in0.n; ++i) {
        out.raw[i] = static_cast<std::int32_t>(
            exp_lut.EvalRaw(fmt_.Saturate(
                static_cast<std::int64_t>(in0.raw[i]) - max_raw)));
        sum += out.raw[i];
      }
      const std::int64_t recip = recip_lut.EvalRaw(fmt_.Saturate(sum));
      for (std::size_t i = 0; i < out.n; ++i)
        out.raw[i] =
            static_cast<std::int32_t>(fmt_.Mul(out.raw[i], recip));
      break;
    }
    case LayerKind::kDropout:
      // Inference: inverted dropout is identity.
      std::memcpy(out.raw, in0.raw, in0.n * sizeof(std::int32_t));
      break;
    case LayerKind::kRecurrent:
      with_math(
          [&](const auto& math) { RunRecurrent(math, layer, in0, out); });
      break;
    case LayerKind::kLstm:
      with_math([&](const auto& math) { RunLstm(math, layer, in0, out); });
      break;
    case LayerKind::kAssociative: {
      // CMAC: the per-output sum over active cells is a chain of
      // SATURATING adds in cell order — order-sensitive, kept scalar.
      const AssociativeParams& p = *layer.def.associative;
      std::vector<float> x;
      x.reserve(in0.n);
      for (std::size_t i = 0; i < in0.n; ++i)
        x.push_back(static_cast<float>(fmt_.Dequantize(in0.raw[i])));
      const std::vector<std::int64_t> cells = CmacActiveCells(x, p);
      weights_->Visit(layer, [&](const auto& rp) {
        for (std::int64_t o = 0; o < p.num_output; ++o) {
          std::int64_t acc = 0;
          for (std::int64_t cell : cells)
            acc = fmt_.Add(acc, rp.weights[static_cast<std::size_t>(
                                    o * p.num_cells + cell)]);
          out.raw[static_cast<std::size_t>(o)] =
              static_cast<std::int32_t>(acc);
        }
      });
      break;
    }
    case LayerKind::kConcat: {
      std::size_t pos = 0;
      for (std::size_t i = 0; i < num_ins; ++i) {
        std::memcpy(out.raw + pos, ins[i]->raw,
                    ins[i]->n * sizeof(std::int32_t));
        pos += ins[i]->n;
      }
      DB_CHECK(pos == out.n);
      break;
    }
    case LayerKind::kClassifier: {
      const ClassifierParams& p = *layer.def.classifier;
      std::fill(out.raw, out.raw + out.n, 0);
      std::vector<std::int64_t> order(in0.n);
      for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<std::int64_t>(i);
      const std::int64_t k = std::min<std::int64_t>(
          p.top_k, static_cast<std::int64_t>(in0.n));
      std::partial_sort(
          order.begin(), order.begin() + k, order.end(),
          [&](std::int64_t a, std::int64_t b) {
            const std::int32_t va = in0.raw[static_cast<std::size_t>(a)];
            const std::int32_t vb = in0.raw[static_cast<std::size_t>(b)];
            if (va != vb) return va > vb;
            return a < b;
          });
      for (std::int64_t i = 0; i < k; ++i)
        out.raw[static_cast<std::size_t>(i)] =
            static_cast<std::int32_t>(fmt_.Quantize(static_cast<double>(
                order[static_cast<std::size_t>(i)])));
      break;
    }
    case LayerKind::kInput:
      DB_THROW("input layer reached RunLayer");
  }
}

// ---------------------------------------------------------------------
// Graph execution
// ---------------------------------------------------------------------

FunctionalSimulator::RawTensor FunctionalSimulator::QuantizeInput(
    const Tensor& t, const BlobShape& shape) const {
  RawTensor rt;
  rt.shape = shape;
  rt.n = static_cast<std::size_t>(shape.NumElements());
  rt.raw = arena_.Alloc<std::int32_t>(rt.n);
  const std::vector<float>& v = t.storage();
  DB_CHECK(v.size() == rt.n);
  for (std::size_t i = 0; i < rt.n; ++i)
    rt.raw[i] = static_cast<std::int32_t>(
        fmt_.Quantize(static_cast<double>(v[i])));
  return rt;
}

Tensor FunctionalSimulator::Dequantize(const RawTensor& rt) const {
  Tensor t(Shape{rt.shape.channels, rt.shape.height, rt.shape.width});
  for (std::int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(
        fmt_.Dequantize(rt.raw[static_cast<std::size_t>(i)]));
  return t;
}

const FunctionalSimulator::RawTensor* FunctionalSimulator::RunGraph(
    const std::map<std::string, const Tensor*>& inputs) const {
  arena_.Reset();
  const std::size_t n_layers = net_.layers().size();
  RawTensor* by_id = arena_.AllocZeroed<RawTensor>(n_layers);
  for (const IrLayer& layer : net_.layers()) {
    const std::size_t id = static_cast<std::size_t>(layer.id);
    if (layer.kind() == LayerKind::kInput) {
      const auto it = inputs.find(layer.name());
      if (it == inputs.end())
        DB_THROW("missing input '" << layer.name() << "'");
      by_id[id] = QuantizeInput(*it->second, layer.output_shape);
      continue;
    }
    const std::size_t num_ins = layer.input_ids.size();
    const RawTensor** ins =
        arena_.Alloc<const RawTensor*>(num_ins == 0 ? 1 : num_ins);
    for (std::size_t i = 0; i < num_ins; ++i)
      ins[i] = &by_id[static_cast<std::size_t>(layer.input_ids[i])];
    RunLayer(layer, ins, num_ins, by_id[id]);
  }
  return by_id;
}

std::map<std::string, Tensor> FunctionalSimulator::Run(
    const std::map<std::string, Tensor>& inputs) const {
  std::map<std::string, const Tensor*> in_ptrs;
  for (const auto& [name, t] : inputs) in_ptrs.emplace(name, &t);
  const RawTensor* by_id = RunGraph(in_ptrs);
  const IrLayer& out_layer = net_.OutputLayer();
  std::map<std::string, Tensor> result;
  result[out_layer.name()] =
      Dequantize(by_id[static_cast<std::size_t>(out_layer.id)]);
  return result;
}

std::map<std::string, Tensor> FunctionalSimulator::RunAll(
    const Tensor& input) const {
  DB_CHECK_MSG(net_.input_ids().size() == 1,
               "RunAll requires a single-input network");
  const IrLayer& in_layer = net_.layer(net_.input_ids().front());
  const RawTensor* by_id =
      RunGraph({{in_layer.name(), &input}});
  std::map<std::string, Tensor> acts;
  for (const IrLayer& layer : net_.layers())
    acts[layer.name()] =
        Dequantize(by_id[static_cast<std::size_t>(layer.id)]);
  return acts;
}

Tensor FunctionalSimulator::Run(const Tensor& input) const {
  DB_CHECK_MSG(net_.input_ids().size() == 1,
               "single-input Run requires a single-input network");
  const IrLayer& in_layer = net_.layer(net_.input_ids().front());
  auto outs = Run(std::map<std::string, Tensor>{{in_layer.name(), input}});
  return outs.at(net_.OutputLayer().name());
}

}  // namespace db
