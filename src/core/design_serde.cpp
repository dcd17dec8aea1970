#include "core/design_serde.h"

#include <cstring>
#include <type_traits>
#include <utility>

#include "common/error.h"

namespace db {
namespace {

// One symmetric Ser() function per struct drives both directions: the
// Writer appends fields to a byte string, the Reader assigns them back
// in the same order.  Integers are little-endian fixed-width, doubles
// are bit-copied (the round-trip must be bit-exact), strings and
// vectors are length-prefixed.

constexpr char kMagic[4] = {'D', 'B', 'S', 'D'};

class Writer {
 public:
  static constexpr bool kReading = false;

  void P(bool& v) { out_.push_back(v ? 1 : 0); }
  void P(int& v) { Fixed(static_cast<std::uint32_t>(v)); }
  void P(std::uint32_t& v) { Fixed(v); }
  void P(std::int64_t& v) { Fixed(static_cast<std::uint64_t>(v)); }
  void P(std::uint64_t& v) { Fixed(v); }
  void P(double& v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    Fixed(bits);
  }
  void P(std::string& v) {
    std::uint64_t n = v.size();
    Fixed(n);
    out_.append(v);
  }

  std::string Take() && { return std::move(out_); }

 private:
  template <typename U>
  void Fixed(U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i)
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }

  std::string out_;
};

class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(std::string_view in) : in_(in) {}

  void P(bool& v) {
    const std::uint8_t byte = Byte();
    if (byte > 1) throw Error("design decode: invalid bool");
    v = byte != 0;
  }
  void P(int& v) { v = static_cast<int>(Fixed<std::uint32_t>()); }
  void P(std::uint32_t& v) { v = Fixed<std::uint32_t>(); }
  void P(std::int64_t& v) {
    v = static_cast<std::int64_t>(Fixed<std::uint64_t>());
  }
  void P(std::uint64_t& v) { v = Fixed<std::uint64_t>(); }
  void P(double& v) {
    const std::uint64_t bits = Fixed<std::uint64_t>();
    std::memcpy(&v, &bits, sizeof(v));
  }
  void P(std::string& v) {
    const std::uint64_t n = Fixed<std::uint64_t>();
    if (n > Remaining()) throw Error("design decode: truncated string");
    v.assign(in_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
  }

  std::size_t Remaining() const { return in_.size() - pos_; }

 private:
  std::uint8_t Byte() {
    if (pos_ >= in_.size()) throw Error("design decode: truncated payload");
    return static_cast<std::uint8_t>(in_[pos_++]);
  }
  template <typename U>
  U Fixed() {
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i)
      v |= static_cast<U>(Byte()) << (8 * i);
    return v;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

// Primitive / enum / container dispatch.
template <class A, typename T>
  requires(std::is_arithmetic_v<T> || std::is_same_v<T, std::string>)
void Ser(A& a, T& v) {
  a.P(v);
}

template <class A, typename E>
  requires std::is_enum_v<E>
void SerEnum(A& a, E& v, int max_value) {
  int raw = static_cast<int>(v);
  a.P(raw);
  if constexpr (A::kReading) {
    if (raw < 0 || raw > max_value)
      throw Error("design decode: enum value out of range");
    v = static_cast<E>(raw);
  }
}

template <class A, typename T>
void Ser(A& a, std::vector<T>& v);

void Ser(Writer& a, const FixedFormat& fmt) {
  int total = fmt.total_bits(), frac = fmt.frac_bits();
  a.P(total);
  a.P(frac);
}
void Ser(Reader& a, FixedFormat& fmt) {
  int total = 0, frac = 0;
  a.P(total);
  a.P(frac);
  fmt = FixedFormat(total, frac);  // ctor re-validates the widths
}

template <class A>
void Ser(A& a, ResourceBudget& b) {
  Ser(a, b.dsp);
  Ser(a, b.lut);
  Ser(a, b.ff);
  Ser(a, b.bram_bytes);
}

template <class A>
void Ser(A& a, AcceleratorConfig& c) {
  Ser(a, c.network_name);
  Ser(a, c.format);
  Ser(a, c.frequency_mhz);
  Ser(a, c.dram_bandwidth_gbs);
  Ser(a, c.dsp_lanes);
  Ser(a, c.lut_lanes);
  Ser(a, c.pooling_lanes);
  Ser(a, c.activation_lanes);
  Ser(a, c.accumulator_lanes);
  Ser(a, c.has_lrn);
  Ser(a, c.has_dropout);
  Ser(a, c.has_classifier);
  Ser(a, c.classifier_k);
  Ser(a, c.has_connection_box);
  Ser(a, c.connection_box_ports);
  Ser(a, c.data_buffer_bytes);
  Ser(a, c.weight_buffer_bytes);
  Ser(a, c.memory_port_elems);
  Ser(a, c.approx_lut_entries);
  Ser(a, c.approx_lut_interpolate);
  Ser(a, c.budget);
}

template <class A>
void Ser(A& a, LayerFold& f) {
  Ser(a, f.layer_id);
  Ser(a, f.layer_name);
  SerEnum(a, f.kind, static_cast<int>(LayerKind::kClassifier));
  SerEnum(a, f.pool, static_cast<int>(LanePool::kNone));
  Ser(a, f.parallel_units);
  Ser(a, f.lanes_used);
  Ser(a, f.segments);
  Ser(a, f.unit_work);
  Ser(a, f.total_ops);
}

template <class A>
void Ser(A& a, FoldPlan& p) {
  Ser(a, p.folds);
}

template <class A>
void Ser(A& a, TileSpec& t) {
  SerEnum(a, t.rule, static_cast<int>(TileRule::kLinear));
  Ser(a, t.tile_h);
  Ser(a, t.tile_w);
  Ser(a, t.interleave_maps);
  Ser(a, t.port_elems);
  Ser(a, t.utilization);
  Ser(a, t.refetch);
}

template <class A>
void Ser(A& a, DataLayoutPlan::Entry& e) {
  Ser(a, e.layer_id);
  Ser(a, e.layer_name);
  Ser(a, e.input_layout);
  Ser(a, e.weight_layout);
}

template <class A>
void Ser(A& a, DataLayoutPlan& p) {
  Ser(a, p.entries);
}

template <class A>
void Ser(A& a, MemoryRegion& r) {
  Ser(a, r.name);
  Ser(a, r.base);
  Ser(a, r.bytes);
}

void Ser(Writer& a, const MemoryMap& m) {
  std::vector<MemoryRegion> regions = m.regions();
  Ser(a, regions);
}
void Ser(Reader& a, MemoryMap& m) {
  std::vector<MemoryRegion> regions;
  Ser(a, regions);
  m = MemoryMap::FromRegions(std::move(regions));
}

template <class A>
void Ser(A& a, AguPattern& p) {
  Ser(a, p.id);
  SerEnum(a, p.role, static_cast<int>(AguRole::kWeight));
  SerEnum(a, p.kind, static_cast<int>(TransferKind::kStreamWeights));
  Ser(a, p.layer_id);
  Ser(a, p.event);
  Ser(a, p.start_addr);
  Ser(a, p.x_length);
  Ser(a, p.y_length);
  Ser(a, p.stride);
  Ser(a, p.offset);
  Ser(a, p.beat_bytes);
}

template <class A>
void Ser(A& a, AguProgram& p) {
  Ser(a, p.patterns);
}

template <class A>
void Ser(A& a, ScheduleRun& r) {
  Ser(a, r.layer_id);
  Ser(a, r.segments);
  SerEnum(a, r.producer, static_cast<int>(DatapathPort::kConnectionBox));
  SerEnum(a, r.consumer, static_cast<int>(DatapathPort::kConnectionBox));
  Ser(a, r.shift);
  Ser(a, r.pattern_ids);
}

template <class A>
void Ser(A& a, Schedule& s) {
  Ser(a, s.runs);
}

template <class A>
void Ser(A& a, BufferSlot& s) {
  Ser(a, s.name);
  Ser(a, s.base);
  Ser(a, s.bytes);
}

template <class A>
void Ser(A& a, BufferPlanEntry& e) {
  Ser(a, e.layer_id);
  Ser(a, e.layer_name);
  Ser(a, e.tile_bytes);
  Ser(a, e.ping);
  Ser(a, e.pong);
  Ser(a, e.out_stage);
  Ser(a, e.input_resident);
}

template <class A>
void Ser(A& a, BufferPlan& p) {
  Ser(a, p.data_buffer_bytes);
  Ser(a, p.entries);
}

template <class A>
void Ser(A& a, ApproxLutSpec& s) {
  SerEnum(a, s.function, static_cast<int>(LutFunction::kLrnPow));
  Ser(a, s.entries);
  Ser(a, s.interpolate);
  Ser(a, s.format);
  Ser(a, s.in_min);
  Ser(a, s.in_max);
  Ser(a, s.beta);
}

template <class A>
void Ser(A& a, BlockConfig& c) {
  SerEnum(a, c.type, static_cast<int>(BlockType::kBufferBank));
  Ser(a, c.bit_width);
  Ser(a, c.lanes);
  Ser(a, c.use_dsp);
  Ser(a, c.ports);
  Ser(a, c.depth);
  Ser(a, c.patterns);
  SerEnum(a, c.agu_role, static_cast<int>(AguRole::kWeight));
  Ser(a, c.fold_events);
  Ser(a, c.interpolate);
}

template <class A>
void Ser(A& a, BlockInstance& b) {
  Ser(a, b.name);
  Ser(a, b.config);
}

template <class A>
void Ser(A& a, ResourceReport::Entry& e) {
  Ser(a, e.instance);
  Ser(a, e.description);
  Ser(a, e.cost);
}

template <class A>
void Ser(A& a, ResourceReport& r) {
  Ser(a, r.entries);
  Ser(a, r.total);
}

template <class A>
void Ser(A& a, VExpr& e) {
  SerEnum(a, e.kind, static_cast<int>(VExprKind::kSigned));
  Ser(a, e.text);
  Ser(a, e.value);
  Ser(a, e.width);
  int base = e.base;
  Ser(a, base);
  if constexpr (A::kReading) {
    if (base != 'd' && base != 'b' && base != 'h')
      throw Error("design decode: invalid literal base");
    e.base = static_cast<char>(base);
  }
  Ser(a, e.msb);
  Ser(a, e.lsb);
  Ser(a, e.compact);
  Ser(a, e.args);
}

template <class A>
void Ser(A& a, VStmt& s) {
  SerEnum(a, s.kind, static_cast<int>(VStmtKind::kSeq));
  Ser(a, s.lhs);
  Ser(a, s.rhs);
  Ser(a, s.non_blocking);
  Ser(a, s.cond);
  Ser(a, s.then_stmts);
  Ser(a, s.else_stmts);
  SerEnum(a, s.then_style, static_cast<int>(VBranchStyle::kBlockOwnLine));
  SerEnum(a, s.else_style, static_cast<int>(VBranchStyle::kBlockOwnLine));
}

template <class A>
void Ser(A& a, VPort& p) {
  Ser(a, p.name);
  SerEnum(a, p.dir, static_cast<int>(PortDir::kOutput));
  Ser(a, p.width);
  Ser(a, p.is_reg);
  Ser(a, p.width_param);
}

template <class A>
void Ser(A& a, VParam& p) {
  Ser(a, p.name);
  Ser(a, p.value);
}

template <class A>
void Ser(A& a, VNet& n) {
  Ser(a, n.name);
  Ser(a, n.width);
  Ser(a, n.is_reg);
  Ser(a, n.depth);
}

template <class A>
void Ser(A& a, VAssign& v) {
  Ser(a, v.lhs);
  Ser(a, v.rhs);
}

template <class A>
void Ser(A& a, VBinding& b) {
  Ser(a, b.formal);
  Ser(a, b.actual);
}

template <class A>
void Ser(A& a, VInstance& i) {
  Ser(a, i.module_name);
  Ser(a, i.instance_name);
  Ser(a, i.params);
  Ser(a, i.ports);
}

template <class A>
void Ser(A& a, VAlways& b) {
  Ser(a, b.sensitivity);
  Ser(a, b.body);
}

template <class A>
void Ser(A& a, VModule& m) {
  Ser(a, m.name);
  Ser(a, m.comment);
  Ser(a, m.params);
  Ser(a, m.ports);
  Ser(a, m.nets);
  Ser(a, m.assigns);
  Ser(a, m.instances);
  Ser(a, m.always_blocks);
}

template <class A>
void Ser(A& a, VDesign& d) {
  Ser(a, d.modules);
  Ser(a, d.top);
}

template <class A>
void Ser(A& a, AcceleratorDesign& d) {
  Ser(a, d.config);
  Ser(a, d.fold_plan);
  Ser(a, d.layout);
  Ser(a, d.memory_map);
  Ser(a, d.agu_program);
  Ser(a, d.schedule);
  Ser(a, d.buffer_plan);
  Ser(a, d.lut_specs);
  Ser(a, d.blocks);
  Ser(a, d.resources);
  Ser(a, d.rtl);
}

template <class A, typename T>
void Ser(A& a, std::vector<T>& v) {
  std::uint64_t n = v.size();
  a.P(n);
  if constexpr (A::kReading) {
    // Every element encodes to at least one byte, so the remaining
    // payload bounds the plausible count — rejects corrupt huge sizes
    // before the resize allocates.
    if (n > a.Remaining()) throw Error("design decode: truncated vector");
    v.resize(static_cast<std::size_t>(n));
  }
  for (T& e : v) Ser(a, e);
}

}  // namespace

std::string SerializeDesign(const AcceleratorDesign& design) {
  Writer w;
  std::string magic(kMagic, sizeof(kMagic));
  w.P(magic);
  std::uint32_t version = kDesignSerdeVersion;
  w.P(version);
  AcceleratorDesign copy = design;  // the symmetric codec mutates in place
  Ser(w, copy);
  return std::move(w).Take();
}

AcceleratorDesign DeserializeDesign(std::string_view bytes) {
  Reader r(bytes);
  std::string magic;
  r.P(magic);
  if (magic != std::string_view(kMagic, sizeof(kMagic)))
    throw Error("design decode: bad magic (not a serialized design)");
  std::uint32_t version = 0;
  r.P(version);
  if (version != kDesignSerdeVersion)
    throw Error("design decode: unsupported version " +
                std::to_string(version));
  AcceleratorDesign design;
  Ser(r, design);
  if (r.Remaining() != 0)
    throw Error("design decode: trailing bytes after payload");
  return design;
}

}  // namespace db
