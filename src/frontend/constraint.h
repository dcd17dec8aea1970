// Designer-specified overhead constraint (paper §3.1): the resource budget
// and datapath parameters NN-Gen must respect when scaling the generated
// accelerator.
//
// Constraints use the same prototxt syntax as model scripts:
//
//   device: "zynq-7045"
//   budget: MEDIUM          # LOW / MEDIUM / HIGH fraction of the device
//   bit_width: 16
//   frac_bits: 8
//   frequency_mhz: 100
//   dsp: 220                # optional explicit overrides
//
#pragma once

#include <cstdint>
#include <string>

namespace db {

/// Coarse budget level; translated into a fraction of the target device's
/// resources (DB-S = kLow on Z-7020, DB = kMedium, DB-L = kHigh on Z-7045).
enum class BudgetLevel { kLow, kMedium, kHigh };

std::string BudgetLevelName(BudgetLevel level);

/// Absolute programmable-logic resources available to the design.
struct ResourceBudget {
  std::int64_t dsp = 0;
  std::int64_t lut = 0;
  std::int64_t ff = 0;
  std::int64_t bram_bytes = 0;

  /// True if `used` fits within this budget on every axis.
  bool Fits(const ResourceBudget& used) const {
    return used.dsp <= dsp && used.lut <= lut && used.ff <= ff &&
           used.bram_bytes <= bram_bytes;
  }

  ResourceBudget Scaled(double fraction) const;
  std::string ToString() const;
};

/// Full design constraint passed to NN-Gen.
struct DesignConstraint {
  std::string device = "zynq-7045";
  BudgetLevel budget = BudgetLevel::kMedium;
  /// Explicit budget override; any field left 0 is filled from the device
  /// catalogue scaled by `budget`.
  ResourceBudget explicit_budget;
  int bit_width = 16;   // datapath fixed-point total bits
  int frac_bits = 8;    // fractional bits
  double frequency_mhz = 100.0;
  /// Off-chip DDR bandwidth available to the accelerator's AXI ports, in
  /// gigabytes per second.  Capped by the target device's board figure.
  double dram_bandwidth_gbs = 16.0;
  /// Approx LUT entries for activation approximation.
  std::int64_t approx_lut_entries = 256;
  bool approx_lut_interpolate = true;
};

/// The accepted ranges of the double fields.  A fabric clock runs between
/// 1 MHz and 1 GHz; a DDR interface moves between 1 MB/s and 1 TB/s.
inline constexpr double kMinFrequencyMhz = 1.0;
inline constexpr double kMaxFrequencyMhz = 1000.0;
inline constexpr double kMinDramBandwidthGbs = 0.001;
inline constexpr double kMaxDramBandwidthGbs = 1000.0;

/// Parse a constraint script.  Unknown fields are rejected so typos fail
/// loudly (the constraint is small and user-authored), and so are
/// doubles outside their ranges above (NaN and infinities included) and
/// a bram_kb whose byte count overflows int64.
DesignConstraint ParseConstraint(const std::string& prototxt_text);

/// Canonical serialisation (round-trip tests).
std::string ConstraintToPrototxt(const DesignConstraint& constraint);

}  // namespace db
