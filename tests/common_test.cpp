// Tests for the common substrate: strings, RNG, math utilities, errors,
// fixed-point quantisation edges.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/fixed_point.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/strings.h"

namespace db {
namespace {

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleToken) {
  const auto parts = Split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(Strings, TrimStripsBothEnds) {
  EXPECT_EQ(Trim("  hello\t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("layer0_fold0", "layer"));
  EXPECT_FALSE(StartsWith("la", "layer"));
  EXPECT_TRUE(EndsWith("conv.prototxt", ".prototxt"));
  EXPECT_FALSE(EndsWith("conv", ".prototxt"));
}

TEST(Strings, ToLowerAscii) {
  EXPECT_EQ(ToLower("CONVOLUTION"), "convolution");
  EXPECT_EQ(ToLower("MiXeD_123"), "mixed_123");
}

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(Strings, StrFormatBasic) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(Strings, ParseIntAcceptsOnlyWholeIntegersInRange) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(ParseInt("42", 0, 100, "--n"), 42);
  EXPECT_EQ(ParseInt("-7", -10, 10, "--n"), -7);
  EXPECT_EQ(ParseInt("9223372036854775807", 0, kMax, "--n"), kMax);
  for (const char* bad : {"", "abc", "12x", " 12", "+12", "1.5",
                          "9223372036854775808", "-1", "101"})
    EXPECT_THROW(ParseInt(bad, 0, 100, "--n"), Error) << bad;
  try {
    ParseInt("abc", 1, 5, "--requests");
    FAIL() << "expected db::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "--requests: 'abc' is not an integer in [1, 5]");
  }
}

/// The libm formulation of FixedFormat::Quantize: scale by ldexp,
/// round half away from zero with floor/ceil, saturate.
std::int64_t ReferenceQuantize(const FixedFormat& fmt, double value) {
  if (std::isnan(value)) return 0;
  const double scaled = std::ldexp(value, fmt.frac_bits());
  const double rounded = scaled >= 0 ? std::floor(scaled + 0.5)
                                     : std::ceil(scaled - 0.5);
  if (rounded >= static_cast<double>(fmt.raw_max())) return fmt.raw_max();
  if (rounded <= static_cast<double>(fmt.raw_min())) return fmt.raw_min();
  return static_cast<std::int64_t>(rounded);
}

TEST(FixedPoint, QuantizeMatchesTheLibmReferenceOnEdges) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (int tb = 2; tb <= 32; ++tb) {
    for (int fb = 0; fb < tb; ++fb) {
      const FixedFormat fmt(tb, fb);
      const double lsb = std::ldexp(1.0, -fb);
      std::vector<double> inputs = {
          0.0, -0.0, std::nan(""), kInf, -kInf, FLT_MAX, -FLT_MAX,
          std::numeric_limits<float>::denorm_min(),
          -std::numeric_limits<float>::denorm_min(),
          std::numeric_limits<double>::denorm_min(),
          // The largest double below half an LSB: x + 0.5 rounds up.
          std::nextafter(0.5, 0.0) * lsb,
          -std::nextafter(0.5, 0.0) * lsb};
      // raw_max / raw_min and one LSB either side.
      for (const std::int64_t edge : {fmt.raw_max(), fmt.raw_min()})
        for (std::int64_t d = -1; d <= 1; ++d)
          inputs.push_back(static_cast<double>(edge + d) * lsb);
      // Ties at +-(k + 0.5) LSB near zero and near both bounds, plus
      // their neighbouring doubles.
      std::vector<std::int64_t> ks;
      for (std::int64_t k = 0; k < 8; ++k) ks.push_back(k);
      for (std::int64_t d = -2; d <= 1; ++d) {
        ks.push_back(fmt.raw_max() + d);
        ks.push_back(-fmt.raw_min() + d);
      }
      for (const std::int64_t k : ks) {
        for (const double sign : {1.0, -1.0}) {
          const double tie = sign * (static_cast<double>(k) + 0.5) * lsb;
          inputs.push_back(tie);
          inputs.push_back(std::nextafter(tie, kInf));
          inputs.push_back(std::nextafter(tie, -kInf));
        }
      }
      for (const double v : inputs)
        ASSERT_EQ(fmt.Quantize(v), ReferenceQuantize(fmt, v))
            << fmt.ToString() << " total_bits=" << tb << " value=" << v;
    }
  }
}

TEST(Strings, ToIdentifierSanitises) {
  EXPECT_EQ(ToIdentifier("conv1"), "conv1");
  EXPECT_EQ(ToIdentifier("my-layer.0"), "my_layer_0");
  EXPECT_EQ(ToIdentifier("3layers"), "_3layers");
  EXPECT_EQ(ToIdentifier(""), "_");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.Next() == b.Next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
  for (std::uint64_t v : seen) EXPECT_LT(v, 8u);
}

TEST(Rng, GaussianRoughMoments) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (rng.Bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(1, 5), 1);
  EXPECT_EQ(CeilDiv(0, 5), 0);
}

TEST(MathUtil, CeilDivRejectsContractViolations) {
  // The documented contract is a >= 0, b > 0; violations used to slip
  // through and produce floored quotients (or UB for b == 0).
  EXPECT_THROW(CeilDiv(10, 0), std::logic_error);
  EXPECT_THROW(CeilDiv(10, -3), std::logic_error);
  EXPECT_THROW(CeilDiv(-1, 3), std::logic_error);
}

TEST(MathUtil, RoundUp) {
  EXPECT_EQ(RoundUp(10, 4), 12);
  EXPECT_EQ(RoundUp(12, 4), 12);
  EXPECT_EQ(RoundUp(0, 8), 0);
}

TEST(MathUtil, RoundUpRejectsContractViolations) {
  EXPECT_THROW(RoundUp(10, 0), std::logic_error);
  EXPECT_THROW(RoundUp(-10, 4), std::logic_error);
}

TEST(MathUtil, CeilDivExactNearIntMax) {
  // The textbook (a + b - 1) / b form overflows here; the DSE sweeps
  // reach this scale when a degenerate candidate saturates a cost.
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(CeilDiv(kMax, 1), kMax);
  EXPECT_EQ(CeilDiv(kMax, kMax), 1);
  EXPECT_EQ(CeilDiv(kMax, 2), kMax / 2 + 1);
  EXPECT_EQ(CeilDiv(kMax - 1, kMax), 1);
  EXPECT_EQ(CeilDiv(kMax, kMax - 1), 2);
}

TEST(MathUtil, SatMulSaturatesInsteadOfWrapping) {
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(SatMul(0, kMax), 0);
  EXPECT_EQ(SatMul(kMax, 0), 0);
  EXPECT_EQ(SatMul(1, kMax), kMax);
  EXPECT_EQ(SatMul(3, 7), 21);
  EXPECT_EQ(SatMul(kMax, 2), kMax);
  EXPECT_EQ(SatMul(kMax / 2, 3), kMax);
  EXPECT_EQ(SatMul(std::int64_t{1} << 32, std::int64_t{1} << 32), kMax);
  // Largest exact products on either side of the boundary.
  EXPECT_EQ(SatMul(kMax / 2, 2), kMax - 1);
  EXPECT_THROW(SatMul(-1, 2), std::logic_error);
  EXPECT_THROW(SatMul(2, -1), std::logic_error);
}

TEST(MathUtil, SatAddSaturatesInsteadOfWrapping) {
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(SatAdd(0, 0), 0);
  EXPECT_EQ(SatAdd(kMax, 0), kMax);
  EXPECT_EQ(SatAdd(kMax, 1), kMax);
  EXPECT_EQ(SatAdd(kMax - 1, 1), kMax);
  EXPECT_EQ(SatAdd(kMax / 2, kMax / 2), kMax - 1);
  EXPECT_THROW(SatAdd(-1, 1), std::logic_error);
}

TEST(MathUtil, RoundUpSaturatesAtWideWidths) {
  // RoundUp(CeilDiv(v, a) * a) saturates rather than wrapping when the
  // re-multiplication exceeds the representable range — the resource
  // model relies on this to poison absurd datapath-width tallies.
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(RoundUp(kMax, 2), kMax);          // kMax is odd: would wrap
  EXPECT_EQ(RoundUp(kMax - 1, kMax), kMax);   // exact at the boundary
  EXPECT_EQ(RoundUp(kMax, kMax), kMax);
  EXPECT_EQ(RoundUp((std::int64_t{1} << 62) + 1, std::int64_t{1} << 62),
            kMax);
}

TEST(MathUtil, FloorPow2) {
  EXPECT_EQ(FloorPow2(1), 1);
  EXPECT_EQ(FloorPow2(2), 2);
  EXPECT_EQ(FloorPow2(3), 2);
  EXPECT_EQ(FloorPow2(1023), 512);
  EXPECT_EQ(FloorPow2(1024), 1024);
}

TEST(MathUtil, FloorPow2NoOverflowNearIntMax) {
  // Regression: the loop used to compute p * 2 before comparing, which
  // is signed overflow (UB) once p reaches 2^62 — exactly what happens
  // for any value >= 2^62.
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t kPow62 = std::int64_t{1} << 62;
  EXPECT_EQ(FloorPow2(kMax), kPow62);
  EXPECT_EQ(FloorPow2(kMax - 1), kPow62);
  EXPECT_EQ(FloorPow2(kPow62), kPow62);
  EXPECT_EQ(FloorPow2(kPow62 - 1), kPow62 / 2);
  EXPECT_THROW(FloorPow2(0), std::logic_error);
  EXPECT_THROW(FloorPow2(-8), std::logic_error);
}

TEST(MathUtil, IsPow2) {
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(256));
  EXPECT_FALSE(IsPow2(0));
  EXPECT_FALSE(IsPow2(3));
  EXPECT_FALSE(IsPow2(-4));
}

TEST(MathUtil, Gcd3MatchesMethod1Example) {
  // Paper Fig. 7: kernel 12, port 4, stride 4 -> common divisor 4.
  EXPECT_EQ(Gcd3(12, 4, 4), 4);
  EXPECT_EQ(Gcd3(5, 16, 1), 1);
  EXPECT_EQ(Gcd3(6, 4, 2), 2);
}

TEST(MathUtil, ConvOutDim) {
  EXPECT_EQ(ConvOutDim(227, 11, 4, 0), 55);  // Alexnet conv1
  EXPECT_EQ(ConvOutDim(12, 3, 1, 0), 10);
  EXPECT_EQ(ConvOutDim(8, 3, 1, 1), 8);      // same padding
}

TEST(MathUtil, ActivationRanges) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_GT(Sigmoid(10.0), 0.9999);
  EXPECT_LT(Sigmoid(-10.0), 0.0001);
  EXPECT_NEAR(TanhFn(0.0), 0.0, 1e-12);
  EXPECT_EQ(Relu(-3.0), 0.0);
  EXPECT_EQ(Relu(3.5), 3.5);
}

TEST(Error, DbThrowCarriesMessage) {
  try {
    DB_THROW("bad value " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad value 42"),
              std::string::npos);
  }
}

TEST(Error, ParseErrorCarriesLine) {
  ParseError err(17, "oops");
  EXPECT_EQ(err.line(), 17);
  EXPECT_NE(std::string(err.what()).find("line 17"), std::string::npos);
}

TEST(Error, CheckThrowsLogicError) {
  EXPECT_THROW(DB_CHECK(1 == 2), std::logic_error);
  EXPECT_NO_THROW(DB_CHECK(1 == 1));
  EXPECT_THROW(DB_CHECK_MSG(false, "context"), std::logic_error);
}

TEST(Logging, ParseLogLevelAcceptsNamesAndNumbers) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("INFO"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("  warn \n"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("Warning"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("none"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("0"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("4"), LogLevel::kOff);
}

TEST(Logging, ParseLogLevelRejectsGarbage) {
  EXPECT_EQ(ParseLogLevel(""), std::nullopt);
  EXPECT_EQ(ParseLogLevel("loud"), std::nullopt);
  EXPECT_EQ(ParseLogLevel("5"), std::nullopt);
  EXPECT_EQ(ParseLogLevel("-1"), std::nullopt);
  EXPECT_EQ(ParseLogLevel("1.5"), std::nullopt);
}

TEST(Logging, SetLevelRoundTrips) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(before);
  EXPECT_EQ(GetLogLevel(), before);
}

}  // namespace
}  // namespace db
