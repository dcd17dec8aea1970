#include "frontend/constraint.h"

#include <sstream>

#include "common/error.h"
#include "common/strings.h"
#include "frontend/prototxt.h"

namespace db {

std::string BudgetLevelName(BudgetLevel level) {
  switch (level) {
    case BudgetLevel::kLow: return "LOW";
    case BudgetLevel::kMedium: return "MEDIUM";
    case BudgetLevel::kHigh: return "HIGH";
  }
  return "?";
}

ResourceBudget ResourceBudget::Scaled(double fraction) const {
  ResourceBudget out;
  out.dsp = static_cast<std::int64_t>(static_cast<double>(dsp) * fraction);
  out.lut = static_cast<std::int64_t>(static_cast<double>(lut) * fraction);
  out.ff = static_cast<std::int64_t>(static_cast<double>(ff) * fraction);
  out.bram_bytes = static_cast<std::int64_t>(
      static_cast<double>(bram_bytes) * fraction);
  return out;
}

std::string ResourceBudget::ToString() const {
  std::ostringstream os;
  os << "{dsp=" << dsp << ", lut=" << lut << ", ff=" << ff
     << ", bram=" << bram_bytes / 1024 << "KiB}";
  return os.str();
}

namespace {

/// Rejects NaN, the infinities and anything outside [lo, hi].
void RequireInRange(const char* field, double value, double lo, double hi) {
  if (!(value >= lo && value <= hi))
    DB_THROW(field << " must be in [" << lo << ", " << hi << "], got "
             << value);
}

/// A resource count of the explicit budget, in [0, max].
std::int64_t BudgetCount(const PtMessage& root, const char* field,
                         std::int64_t max) {
  const std::int64_t value = root.GetInt(field, 0);
  if (value < 0 || value > max)
    DB_THROW(field << " must be in [0, " << max << "], got " << value);
  return value;
}

}  // namespace

DesignConstraint ParseConstraint(const std::string& prototxt_text) {
  const PtMessage root = ParsePrototxt(prototxt_text);
  DesignConstraint c;
  for (const PtField& f : root.fields()) {
    if (f.name == "device") {
      c.device = ToLower(root.GetString("device", c.device));
    } else if (f.name == "budget") {
      const std::string level = root.GetEnum("budget", "medium");
      if (level == "low") {
        c.budget = BudgetLevel::kLow;
      } else if (level == "medium" || level == "mediate") {
        c.budget = BudgetLevel::kMedium;
      } else if (level == "high") {
        c.budget = BudgetLevel::kHigh;
      } else {
        throw ParseError(f.line, "unknown budget level '" + level + "'");
      }
    } else if (f.name == "bit_width") {
      c.bit_width = static_cast<int>(root.GetInt("bit_width", c.bit_width));
    } else if (f.name == "frac_bits") {
      c.frac_bits = static_cast<int>(root.GetInt("frac_bits", c.frac_bits));
    } else if (f.name == "frequency_mhz") {
      c.frequency_mhz = root.GetDouble("frequency_mhz", c.frequency_mhz);
    } else if (f.name == "dram_bandwidth_gbs") {
      c.dram_bandwidth_gbs =
          root.GetDouble("dram_bandwidth_gbs", c.dram_bandwidth_gbs);
    } else if (f.name == "approx_lut_entries") {
      c.approx_lut_entries =
          root.GetInt("approx_lut_entries", c.approx_lut_entries);
    } else if (f.name == "approx_lut_interpolate") {
      c.approx_lut_interpolate =
          root.GetBool("approx_lut_interpolate", true);
    } else if (f.name == "dsp") {
      c.explicit_budget.dsp = BudgetCount(root, "dsp", INT64_MAX);
    } else if (f.name == "lut") {
      c.explicit_budget.lut = BudgetCount(root, "lut", INT64_MAX);
    } else if (f.name == "ff") {
      c.explicit_budget.ff = BudgetCount(root, "ff", INT64_MAX);
    } else if (f.name == "bram_kb") {
      c.explicit_budget.bram_bytes =
          BudgetCount(root, "bram_kb", INT64_MAX / 1024) * 1024;
    } else {
      throw ParseError(f.line, "unknown constraint field '" + f.name + "'");
    }
  }
  if (c.bit_width < 4 || c.bit_width > 32)
    DB_THROW("constraint bit_width must be in [4,32], got " << c.bit_width);
  if (c.frac_bits < 0 || c.frac_bits >= c.bit_width)
    DB_THROW("constraint frac_bits must be in [0,bit_width)");
  RequireInRange("frequency_mhz", c.frequency_mhz, kMinFrequencyMhz,
                 kMaxFrequencyMhz);
  RequireInRange("dram_bandwidth_gbs", c.dram_bandwidth_gbs,
                 kMinDramBandwidthGbs, kMaxDramBandwidthGbs);
  if (c.approx_lut_entries < 2)
    DB_THROW("approx_lut_entries must be >= 2");
  return c;
}

std::string ConstraintToPrototxt(const DesignConstraint& c) {
  std::ostringstream os;
  os << "device: \"" << c.device << "\"\n";
  os << "budget: " << BudgetLevelName(c.budget) << "\n";
  os << "bit_width: " << c.bit_width << "\n";
  os << "frac_bits: " << c.frac_bits << "\n";
  os << "frequency_mhz: " << c.frequency_mhz << "\n";
  os << "dram_bandwidth_gbs: " << c.dram_bandwidth_gbs << "\n";
  os << "approx_lut_entries: " << c.approx_lut_entries << "\n";
  os << "approx_lut_interpolate: "
     << (c.approx_lut_interpolate ? "true" : "false") << "\n";
  if (c.explicit_budget.dsp > 0) os << "dsp: " << c.explicit_budget.dsp
                                    << "\n";
  if (c.explicit_budget.lut > 0) os << "lut: " << c.explicit_budget.lut
                                    << "\n";
  if (c.explicit_budget.ff > 0) os << "ff: " << c.explicit_budget.ff << "\n";
  if (c.explicit_budget.bram_bytes > 0)
    os << "bram_kb: " << c.explicit_budget.bram_bytes / 1024 << "\n";
  return os.str();
}

}  // namespace db
