#include "core/design_json.h"

#include <sstream>

namespace db {
namespace {

/// Minimal JSON writer: tracks nesting and comma placement.
class JsonWriter {
 public:
  std::string Take() { return os_.str(); }

  void BeginObject(const std::string& key = "") { Open(key, '{'); }
  void EndObject() { Close('}'); }
  void BeginArray(const std::string& key = "") { Open(key, '['); }
  void EndArray() { Close(']'); }

  void Field(const std::string& key, const std::string& value) {
    Prefix(key);
    os_ << '"' << Escape(value) << '"';
  }
  void Field(const std::string& key, std::int64_t value) {
    Prefix(key);
    os_ << value;
  }
  void Field(const std::string& key, int value) {
    Field(key, static_cast<std::int64_t>(value));
  }
  void Field(const std::string& key, double value) {
    Prefix(key);
    os_ << value;
  }
  void Field(const std::string& key, bool value) {
    Prefix(key);
    os_ << (value ? "true" : "false");
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  void Prefix(const std::string& key) {
    if (needs_comma_) os_ << ",";
    os_ << "\n" << std::string(2 * depth_, ' ');
    if (!key.empty()) os_ << '"' << key << "\": ";
    needs_comma_ = true;
  }

  void Open(const std::string& key, char bracket) {
    Prefix(key);
    os_ << bracket;
    ++depth_;
    needs_comma_ = false;
  }

  void Close(char bracket) {
    --depth_;
    os_ << "\n" << std::string(2 * depth_, ' ') << bracket;
    needs_comma_ = true;
  }

  std::ostringstream os_;
  int depth_ = 0;
  bool needs_comma_ = false;
};

}  // namespace

std::string DesignToJson(const AcceleratorDesign& design) {
  JsonWriter w;
  w.BeginObject();

  w.BeginObject("config");
  w.Field("network", design.config.network_name);
  w.Field("format", design.config.format.ToString());
  w.Field("frequency_mhz", design.config.frequency_mhz);
  w.Field("dsp_lanes", design.config.dsp_lanes);
  w.Field("lut_lanes", design.config.lut_lanes);
  w.Field("pooling_lanes", design.config.pooling_lanes);
  w.Field("activation_lanes", design.config.activation_lanes);
  w.Field("memory_port_elems", design.config.memory_port_elems);
  w.Field("data_buffer_bytes", design.config.data_buffer_bytes);
  w.Field("weight_buffer_bytes", design.config.weight_buffer_bytes);
  w.Field("approx_lut_entries", design.config.approx_lut_entries);
  w.Field("approx_lut_interpolate",
          design.config.approx_lut_interpolate);
  w.EndObject();

  w.BeginObject("resources");
  w.Field("dsp", design.resources.total.dsp);
  w.Field("lut", design.resources.total.lut);
  w.Field("ff", design.resources.total.ff);
  w.Field("bram_bytes", design.resources.total.bram_bytes);
  w.EndObject();

  w.BeginArray("folds");
  for (const LayerFold& f : design.fold_plan.folds) {
    w.BeginObject();
    w.Field("layer", f.layer_name);
    w.Field("kind", LayerKindName(f.kind));
    w.Field("pool", LanePoolName(f.pool));
    w.Field("parallel_units", f.parallel_units);
    w.Field("lanes_used", f.lanes_used);
    w.Field("segments", f.segments);
    w.Field("unit_work", f.unit_work);
    w.EndObject();
  }
  w.EndArray();

  w.BeginArray("memory_map");
  for (const MemoryRegion& r : design.memory_map.regions()) {
    w.BeginObject();
    w.Field("name", r.name);
    w.Field("base", r.base);
    w.Field("bytes", r.bytes);
    w.EndObject();
  }
  w.EndArray();

  w.BeginArray("agu_patterns");
  for (const AguPattern& p : design.agu_program.patterns) {
    w.BeginObject();
    w.Field("id", p.id);
    w.Field("role", AguRoleName(p.role));
    w.Field("kind", TransferKindName(p.kind));
    w.Field("event", p.event);
    w.Field("start", p.start_addr);
    w.Field("x_length", p.x_length);
    w.Field("y_length", p.y_length);
    w.Field("stride", p.stride);
    w.Field("offset", p.offset);
    w.Field("beat_bytes", p.beat_bytes);
    w.EndObject();
  }
  w.EndArray();

  w.BeginArray("schedule");
  for (const ScheduleRun& r : design.schedule.runs) {
    w.BeginObject();
    w.Field("layer_id", r.layer_id);
    w.Field("segments", r.segments);
    w.Field("producer", DatapathPortName(r.producer));
    w.Field("consumer", DatapathPortName(r.consumer));
    w.Field("shift", r.shift);
    w.EndObject();
  }
  w.EndArray();

  w.BeginArray("approx_luts");
  for (const ApproxLutSpec& spec : design.lut_specs) {
    w.BeginObject();
    w.Field("function", LutFunctionName(spec.function));
    w.Field("entries", spec.entries);
    w.Field("interpolate", spec.interpolate);
    w.Field("in_min", spec.in_min);
    w.Field("in_max", spec.in_max);
    w.EndObject();
  }
  w.EndArray();

  w.Field("rtl_top", design.rtl.top);
  w.Field("rtl_modules",
          static_cast<std::int64_t>(design.rtl.modules.size()));
  w.EndObject();
  return w.Take() + "\n";
}

}  // namespace db
