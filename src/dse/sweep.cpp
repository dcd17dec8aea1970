#include "dse/sweep.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/math_util.h"
#include "common/strings.h"

namespace db::dse {
namespace {

/// Split `text` on `sep`, dropping empty pieces.
std::vector<std::string> SplitNonEmpty(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

std::int64_t ParseIntValue(const std::string& axis,
                           const std::string& value) {
  return ParseInt(value, 0, std::numeric_limits<std::int64_t>::max(),
                  "sweep axis '" + axis + "'");
}

template <typename T>
void SortUnique(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

}  // namespace

std::string CandidateSpec::ToString() const {
  return StrFormat("lanes=%d%%,port=%lld,split=%d%%,dsp=%s", lanes_pct,
                   static_cast<long long>(port_elems), data_split_pct,
                   allow_dsp ? "on" : "off");
}

std::size_t SweepSpec::CandidateCount() const {
  return lanes_pct.size() * port_elems.size() * data_split_pct.size() *
         allow_dsp.size();
}

std::vector<CandidateSpec> SweepSpec::Enumerate() const {
  std::vector<CandidateSpec> specs;
  specs.reserve(CandidateCount());
  for (int lanes : lanes_pct)
    for (std::int64_t port : port_elems)
      for (int split : data_split_pct)
        for (bool dsp : allow_dsp) {
          CandidateSpec spec;
          spec.lanes_pct = lanes;
          spec.port_elems = port;
          spec.data_split_pct = split;
          spec.allow_dsp = dsp;
          specs.push_back(spec);
        }
  return specs;
}

std::string SweepSpec::ToString() const {
  std::ostringstream os;
  auto join = [&os](const char* axis, const auto& values,
                    auto&& render) {
    os << axis << "=";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) os << ",";
      os << render(values[i]);
    }
  };
  join("lanes", lanes_pct, [](int v) { return std::to_string(v); });
  os << ";";
  join("port", port_elems,
       [](std::int64_t v) { return std::to_string(v); });
  os << ";";
  join("split", data_split_pct,
       [](int v) { return std::to_string(v); });
  os << ";";
  join("dsp", allow_dsp,
       [](bool v) { return std::string(v ? "on" : "off"); });
  return os.str();
}

SweepSpec ParseSweepSpec(const std::string& text) {
  SweepSpec spec;
  if (text.empty()) return spec;
  bool seen_lanes = false, seen_port = false, seen_split = false,
       seen_dsp = false;
  for (const std::string& clause : SplitNonEmpty(text, ';')) {
    const std::size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= clause.size())
      throw Error("sweep clause '" + clause +
                  "' is not of the form axis=v1,v2,...");
    const std::string axis = clause.substr(0, eq);
    const std::vector<std::string> values =
        SplitNonEmpty(clause.substr(eq + 1), ',');
    if (values.empty())
      throw Error("sweep axis '" + axis + "' has an empty value list");
    if (axis == "lanes") {
      if (seen_lanes) throw Error("duplicate sweep axis 'lanes'");
      seen_lanes = true;
      spec.lanes_pct.clear();
      for (const std::string& v : values) {
        const std::int64_t pct = ParseIntValue(axis, v);
        if (pct < 1 || pct > 1600)
          throw Error("sweep axis 'lanes': " + v +
                      "% is out of range [1, 1600]");
        spec.lanes_pct.push_back(static_cast<int>(pct));
      }
    } else if (axis == "port") {
      if (seen_port) throw Error("duplicate sweep axis 'port'");
      seen_port = true;
      spec.port_elems.clear();
      for (const std::string& v : values) {
        const std::int64_t port = ParseIntValue(axis, v);
        if (port < 2 || port > 256 || !IsPow2(port))
          throw Error("sweep axis 'port': " + v +
                      " is not a power of two in [2, 256]");
        spec.port_elems.push_back(port);
      }
    } else if (axis == "split") {
      if (seen_split) throw Error("duplicate sweep axis 'split'");
      seen_split = true;
      spec.data_split_pct.clear();
      for (const std::string& v : values) {
        const std::int64_t pct = ParseIntValue(axis, v);
        if (pct < 5 || pct > 90)
          throw Error("sweep axis 'split': " + v +
                      "% is out of range [5, 90]");
        spec.data_split_pct.push_back(static_cast<int>(pct));
      }
    } else if (axis == "dsp") {
      if (seen_dsp) throw Error("duplicate sweep axis 'dsp'");
      seen_dsp = true;
      spec.allow_dsp.clear();
      for (const std::string& v : values) {
        if (v == "on")
          spec.allow_dsp.push_back(true);
        else if (v == "off")
          spec.allow_dsp.push_back(false);
        else
          throw Error("sweep axis 'dsp': '" + v +
                      "' is not 'on' or 'off'");
      }
    } else {
      throw Error("unknown sweep axis '" + axis +
                  "' (expected lanes, port, split or dsp)");
    }
  }
  SortUnique(spec.lanes_pct);
  SortUnique(spec.port_elems);
  SortUnique(spec.data_split_pct);
  // dsp sorts descending so "on" precedes "off", matching the default
  // spec's stored order (canonical ToString must round-trip).
  std::sort(spec.allow_dsp.begin(), spec.allow_dsp.end(),
            std::greater<>());
  spec.allow_dsp.erase(
      std::unique(spec.allow_dsp.begin(), spec.allow_dsp.end()),
      spec.allow_dsp.end());
  return spec;
}

}  // namespace db::dse
