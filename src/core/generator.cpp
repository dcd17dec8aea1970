#include "core/generator.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/rtl_verifier.h"
#include "analysis/verifier.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/strings.h"
#include "core/rtl_builder.h"
#include "graph/layer_stats.h"
#include "hwlib/device.h"
#include "rtl/lint.h"

namespace db {
namespace {

/// Lane ceiling per budget level — the generator's aggressiveness knob.
/// Calibrated so a high-budget (DB-L) Alexnet lands near the paper's
/// ~20 ms while the medium budget (DB) stays ~3-4x behind it.
std::int64_t LaneCeiling(BudgetLevel level) {
  switch (level) {
    case BudgetLevel::kLow: return 64;
    case BudgetLevel::kMedium: return 128;
    case BudgetLevel::kHigh: return 448;
  }
  return 128;
}

std::int64_t PortElems(BudgetLevel level) {
  switch (level) {
    case BudgetLevel::kLow: return 8;
    case BudgetLevel::kMedium: return 16;  // the Fig. 7 example width
    case BudgetLevel::kHigh: return 32;
  }
  return 16;
}

/// LUT cost of one fabric-multiplier MAC lane at the given width
/// (mirrors hwlib/resource_model's synergy-neuron cost).
std::int64_t LutLaneCost(int bit_width) {
  BlockConfig c;
  c.type = BlockType::kSynergyNeuron;
  c.bit_width = bit_width;
  c.lanes = 1;
  c.use_dsp = false;
  return BlockCost(c).lut;
}

std::int64_t DspLaneLutCost(int bit_width) {
  BlockConfig c;
  c.type = BlockType::kSynergyNeuron;
  c.bit_width = bit_width;
  c.lanes = 1;
  c.use_dsp = true;
  return BlockCost(c).lut;
}

struct NetworkNeeds {
  bool mac = false;        // conv / fc / recurrent / lrn / associative
  bool pooling = false;
  bool activation = false;  // relu/sigmoid/tanh/softmax/dropout
  bool lrn = false;
  bool dropout = false;
  bool classifier = false;
  std::int64_t classifier_k = 1;
  bool recurrence = false;
  bool concat = false;
  /// Max independent output units across MAC layers (lane demand cap).
  std::int64_t max_mac_units = 0;
  /// Max MAC work in any single layer (tiny-model lane cap input).
  std::int64_t total_macs = 0;
  /// Largest layer input working set / weight array (buffer sizing).
  std::int64_t max_input_bytes = 0;
  std::int64_t max_weight_bytes = 0;
};

NetworkNeeds AnalyzeNetwork(const Network& net, std::int64_t elem_bytes) {
  NetworkNeeds needs;
  for (const IrLayer* layer : net.ComputeLayers()) {
    const LayerStats stats = ComputeLayerStats(*layer);
    needs.total_macs += stats.macs;
    needs.max_input_bytes =
        std::max(needs.max_input_bytes, stats.input_elems * elem_bytes);
    needs.max_weight_bytes =
        std::max(needs.max_weight_bytes, stats.weight_count * elem_bytes);
    switch (layer->kind()) {
      case LayerKind::kConvolution:
      case LayerKind::kInnerProduct:
      case LayerKind::kRecurrent:
      case LayerKind::kLstm:
      case LayerKind::kAssociative:
        needs.mac = true;
        needs.max_mac_units = std::max(
            needs.max_mac_units, layer->output_shape.NumElements());
        break;
      case LayerKind::kLrn:
        needs.mac = true;
        needs.lrn = true;
        needs.activation = true;
        break;
      case LayerKind::kPooling:
        needs.pooling = true;
        break;
      case LayerKind::kRelu:
      case LayerKind::kSigmoid:
      case LayerKind::kTanh:
      case LayerKind::kSoftmax:
        needs.activation = true;
        break;
      case LayerKind::kDropout:
        needs.dropout = true;
        needs.activation = true;
        break;
      case LayerKind::kClassifier:
        needs.classifier = true;
        needs.classifier_k = std::max(needs.classifier_k,
                                      layer->def.classifier->top_k);
        break;
      case LayerKind::kConcat:
        needs.concat = true;
        break;
      case LayerKind::kInput:
        break;
    }
  }
  needs.recurrence = net.HasRecurrence();
  return needs;
}

}  // namespace

std::vector<LutFunction> RequiredLutFunctions(const Network& net) {
  std::set<LutFunction> fns;
  for (const IrLayer* layer : net.ComputeLayers()) {
    switch (layer->kind()) {
      case LayerKind::kSigmoid:
        fns.insert(LutFunction::kSigmoid);
        break;
      case LayerKind::kTanh:
        fns.insert(LutFunction::kTanh);
        break;
      case LayerKind::kSoftmax:
        fns.insert(LutFunction::kExp);
        fns.insert(LutFunction::kRecip);
        break;
      case LayerKind::kLrn:
        fns.insert(LutFunction::kLrnPow);
        break;
      case LayerKind::kLstm:
        fns.insert(LutFunction::kSigmoid);
        fns.insert(LutFunction::kTanh);
        break;
      case LayerKind::kRecurrent:
        switch (layer->def.recurrent->activation) {
          case RecurrentActivation::kTanh:
            fns.insert(LutFunction::kTanh);
            break;
          case RecurrentActivation::kSigmoid:
            fns.insert(LutFunction::kSigmoid);
            break;
          case RecurrentActivation::kNone:
            break;
        }
        break;
      default:
        break;
    }
  }
  return {fns.begin(), fns.end()};
}

ApproxLutSpec DefaultLutSpec(LutFunction fn, const AcceleratorConfig& config) {
  ApproxLutSpec spec;
  spec.function = fn;
  spec.entries = config.approx_lut_entries;
  spec.interpolate = config.approx_lut_interpolate;
  spec.format = config.format;
  if (fn == LutFunction::kExp) {
    spec.in_min = -16.0;
    spec.in_max = 0.0;  // softmax uses exp(x - max) <= 1
  } else if (fn == LutFunction::kRecip || fn == LutFunction::kLrnPow) {
    spec.in_min = 1.0 / 128.0;
    spec.in_max = config.format.value_max();
  }
  return spec;
}

AcceleratorConfig SizeDatapath(const Network& net,
                               const DesignConstraint& constraint) {
  AcceleratorConfig config;
  config.network_name = net.name();
  config.format = FixedFormat(constraint.bit_width, constraint.frac_bits);
  config.frequency_mhz = constraint.frequency_mhz;
  config.dram_bandwidth_gbs =
      std::min(constraint.dram_bandwidth_gbs,
               DeviceCatalog(constraint.device).dram_bandwidth_gbs);
  config.budget = ResolveBudget(constraint);
  config.approx_lut_entries = constraint.approx_lut_entries;
  config.approx_lut_interpolate = constraint.approx_lut_interpolate;
  config.memory_port_elems = PortElems(constraint.budget);

  const NetworkNeeds needs =
      AnalyzeNetwork(net, config.ElementBytes());

  // ---- MAC lane allocation ----
  if (needs.mac) {
    // Demand: no more lanes than the widest layer exposes, and no more
    // than the budget level's ceiling.  At LOW/MEDIUM budgets the
    // generator also right-sizes to the total work (a 1k-MAC model should
    // not occupy hundreds of multipliers); the HIGH budget (DB-L) trusts
    // the designer's ask and unfolds small models too — that is the
    // performance provision the paper's DB-L scheme buys.
    std::int64_t demand = needs.max_mac_units;
    if (constraint.budget != BudgetLevel::kHigh)
      demand = std::min(
          demand,
          std::max<std::int64_t>(1, CeilDiv(needs.total_macs, 1000)));
    demand = std::min(demand, LaneCeiling(constraint.budget));
    demand = std::max<std::int64_t>(demand, 1);

    // Reserve roughly a third of LUTs/FFs for control, AGUs, buffers and
    // the secondary units before spending the rest on fabric multipliers.
    // DSP slices are shared with the SoC's other masters, so NN-Gen only
    // claims a fraction of the budget's DSPs and builds the remaining
    // lanes as fabric multipliers (Table 3: large models pair a handful
    // of DSPs with tens of thousands of LUTs).
    const std::int64_t dsp_avail = std::max<std::int64_t>(
        std::max<std::int64_t>(config.budget.dsp / 8, 2) -
            (needs.lrn ? 1 : 0),
        0);
    config.dsp_lanes = static_cast<int>(std::min(demand, dsp_avail));
    const std::int64_t lut_for_lanes =
        config.budget.lut * 2 / 3 -
        config.dsp_lanes * DspLaneLutCost(config.format.total_bits());
    const std::int64_t lut_lane_cost =
        LutLaneCost(config.format.total_bits());
    const std::int64_t remaining_demand = demand - config.dsp_lanes;
    config.lut_lanes = static_cast<int>(std::clamp<std::int64_t>(
        std::min(remaining_demand, lut_for_lanes / lut_lane_cost), 0,
        demand));
    if (config.TotalLanes() == 0)
      DB_THROW("constraint too small: no MAC lane fits budget "
               << config.budget.ToString());
    config.accumulator_lanes = config.TotalLanes();
  }

  if (needs.pooling)
    config.pooling_lanes =
        static_cast<int>(std::min<std::int64_t>(config.memory_port_elems,
                                                 16));
  if (needs.activation || needs.mac)
    config.activation_lanes =
        static_cast<int>(std::min<std::int64_t>(config.memory_port_elems,
                                                 16));
  config.has_lrn = needs.lrn;
  config.has_dropout = needs.dropout;
  config.has_classifier = needs.classifier;
  config.classifier_k = static_cast<int>(needs.classifier_k);
  config.has_connection_box = needs.recurrence || needs.concat;
  if (config.has_connection_box)
    config.connection_box_ports = static_cast<int>(
        std::clamp<std::int64_t>(config.memory_port_elems, 2, 32));

  // ---- buffers ----
  const std::int64_t bram = config.budget.bram_bytes;
  const std::int64_t min_buf =
      config.memory_port_elems * config.ElementBytes() * 16;
  config.data_buffer_bytes = std::clamp<std::int64_t>(
      needs.max_input_bytes, min_buf, bram * 3 / 5);
  config.weight_buffer_bytes = std::clamp<std::int64_t>(
      needs.max_weight_bytes, min_buf,
      std::max<std::int64_t>(bram - config.data_buffer_bytes -
                                 config.approx_lut_entries * 4,
                             min_buf));
  return config;
}

namespace {

std::vector<BlockInstance> PickBlocks(const AcceleratorConfig& config,
                                      const Network& net,
                                      const AguProgram& agu,
                                      const FoldPlan& folds,
                                      std::vector<ApproxLutSpec>& lut_specs) {
  std::vector<BlockInstance> blocks;
  const int w = config.format.total_bits();
  auto add = [&](const std::string& name, BlockConfig cfg) {
    cfg.bit_width = w;
    blocks.push_back({name, cfg});
  };

  if (config.TotalLanes() > 0) {
    // The primary lane array is always instantiated as "synergy_array"
    // (the top-level wiring keys on that name); a mixed DSP+fabric
    // allocation adds a secondary bank.
    if (config.dsp_lanes > 0) {
      BlockConfig c;
      c.type = BlockType::kSynergyNeuron;
      c.lanes = config.dsp_lanes;
      c.use_dsp = true;
      add("synergy_array", c);
    }
    if (config.lut_lanes > 0) {
      BlockConfig c;
      c.type = BlockType::kSynergyNeuron;
      c.lanes = config.lut_lanes;
      c.use_dsp = false;
      add(config.dsp_lanes > 0 ? "synergy_array_b" : "synergy_array", c);
    }
    BlockConfig acc;
    acc.type = BlockType::kAccumulator;
    acc.lanes = config.accumulator_lanes;
    add("accumulator0", acc);
  }
  if (config.pooling_lanes > 0) {
    BlockConfig c;
    c.type = BlockType::kPoolingUnit;
    c.lanes = config.pooling_lanes;
    add("pooling_unit0", c);
  }
  if (config.activation_lanes > 0) {
    BlockConfig c;
    c.type = BlockType::kActivationUnit;
    c.lanes = config.activation_lanes;
    add("activation_unit0", c);
  }
  // One Approx LUT per approximated function in the model.
  for (LutFunction fn : RequiredLutFunctions(net)) {
    const ApproxLutSpec spec = DefaultLutSpec(fn, config);
    lut_specs.push_back(spec);
    BlockConfig c;
    c.type = BlockType::kApproxLut;
    c.depth = spec.entries;
    c.interpolate = spec.interpolate;
    add("approx_lut_" + LutFunctionName(fn), c);

  }
  if (config.has_lrn) {
    BlockConfig c;
    c.type = BlockType::kLrnUnit;
    c.lanes = 1;
    add("lrn_unit0", c);
  }
  if (config.has_dropout) {
    BlockConfig c;
    c.type = BlockType::kDropoutUnit;
    c.lanes = 1;
    add("dropout_unit0", c);
  }
  if (config.has_classifier) {
    BlockConfig c;
    c.type = BlockType::kClassifier;
    c.lanes = std::max(config.classifier_k, 1);
    add("classifier0", c);
  }
  if (config.has_connection_box) {
    BlockConfig c;
    c.type = BlockType::kConnectionBox;
    c.ports = config.connection_box_ports;
    add("connection_box0", c);
  }

  // AGUs: reduced from the template to the pattern counts the compiler
  // emitted (paper: "the final AGU ... is reduced from this template").
  for (AguRole role : {AguRole::kMain, AguRole::kData, AguRole::kWeight}) {
    const int patterns = agu.CountFor(role);
    if (patterns == 0 && role == AguRole::kWeight) continue;
    BlockConfig c;
    c.type = BlockType::kAgu;
    c.agu_role = role;
    c.patterns = std::max(patterns, 1);
    add("agu_" + AguRoleName(role), c);
  }
  {
    // The coordinator FSM holds one state per temporal fold (layer); the
    // spatial fold segments inside a layer are iterated by the AGUs'
    // y-counters, so FSM size does not scale with segment count.
    BlockConfig c;
    c.type = BlockType::kCoordinator;
    c.fold_events =
        static_cast<int>(std::max<std::int64_t>(folds.TemporalFolds(), 1));
    add("coordinator0", c);
  }
  {
    BlockConfig c;
    c.type = BlockType::kBufferBank;
    c.lanes = static_cast<int>(config.memory_port_elems);
    c.depth = config.data_buffer_bytes;
    add("buffer_data", c);
    c.depth = config.weight_buffer_bytes;
    add("buffer_weight", c);
  }
  return blocks;
}

/// One full run of the compiler passes for the design's CURRENT config:
/// folding through block picking + resource tally.  `phase` wraps each
/// pass — tracer spans in GenerateAccelerator, a no-op for the DSE
/// explorer's fixed-config candidates.
template <typename Phase>
void CompilePasses(const Network& net, AcceleratorDesign& design,
                   Phase&& phase) {
  design.lut_specs.clear();
  phase("folding",
        [&] { design.fold_plan = PlanFolding(net, design.config); });
  phase("data layout", [&] {
    design.layout = PlanDataLayout(net, design.config.memory_port_elems);
  });
  phase("memory map", [&] {
    design.memory_map = MemoryMap::Build(net, design.config);
  });
  phase("agu program", [&] {
    design.agu_program =
        BuildAguProgram(net, design.config, design.fold_plan,
                        design.layout, design.memory_map);
  });
  phase("schedule", [&] {
    design.schedule =
        BuildSchedule(net, design.fold_plan, design.agu_program);
  });
  phase("buffer plan", [&] {
    design.buffer_plan = PlanBuffers(net, design.config, design.fold_plan,
                                     design.layout);
  });
  phase("pick blocks", [&] {
    design.blocks = PickBlocks(design.config, net, design.agu_program,
                               design.fold_plan, design.lut_specs);
    design.resources = TallyResources(design.blocks);
  });
}

}  // namespace

AcceleratorDesign CompileForConfig(const Network& net,
                                   const AcceleratorConfig& config) {
  AcceleratorDesign design;
  design.config = config;
  CompilePasses(net, design,
                [](const char*, auto&& body) { body(); });
  return design;
}

namespace {

/// The generator's post-pass gate: run the static verifier, publish
/// warning counts, and refuse to return an illegal design.
void VerifyGate(const Network& net, const AcceleratorDesign& design,
                obs::MetricsRegistry* metrics) {
  const analysis::AnalysisReport report = analysis::VerifyDesign(net, design);
  if (metrics != nullptr) {
    metrics->AddCounter("analysis.designs_verified");
    if (report.WarningCount() > 0)
      metrics->AddCounter("analysis.warnings", report.WarningCount());
    for (const analysis::Diagnostic& d : report.diagnostics())
      if (d.severity == analysis::Severity::kWarning)
        metrics->AddCounter("analysis.rule." + d.rule);
  }
  for (const analysis::Diagnostic& d : report.diagnostics()) {
    if (d.severity == analysis::Severity::kWarning) {
      DB_LOG(kWarn) << "verify[" << d.rule << "] " << d.location << ": "
                    << d.message;
    }
  }
  if (!report.ok())
    DB_THROW("design verification failed for '" << net.name() << "':\n"
             << report.ToText());
}

/// The RTL counterpart: elaborate the emitted design and run the rtl.*
/// netlist passes before the hardware can leave the generator.
void RtlVerifyGate(const Network& net, const AcceleratorDesign& design,
                   obs::MetricsRegistry* metrics) {
  const analysis::AnalysisReport report = analysis::VerifyRtl(design.rtl);
  if (metrics != nullptr) {
    metrics->AddCounter("analysis.rtl.designs_verified");
    if (report.WarningCount() > 0)
      metrics->AddCounter("analysis.rtl.warnings", report.WarningCount());
    for (const analysis::Diagnostic& d : report.diagnostics())
      if (d.severity == analysis::Severity::kWarning)
        metrics->AddCounter("analysis.rtl.rule." + d.rule);
  }
  for (const analysis::Diagnostic& d : report.diagnostics()) {
    if (d.severity == analysis::Severity::kWarning) {
      DB_LOG(kWarn) << "rtl-verify[" << d.rule << "] " << d.location
                    << ": " << d.message;
    }
  }
  if (!report.ok())
    DB_THROW("RTL verification failed for '" << net.name() << "':\n"
             << report.ToText());
}

}  // namespace

AcceleratorDesign GenerateAccelerator(const Network& net,
                                      const DesignConstraint& constraint,
                                      obs::Tracer* tracer,
                                      obs::MetricsRegistry* metrics) {
  // Toolchain spans tick an ordinal clock (one tick per phase) starting
  // where the caller's own toolchain spans (parse, constraint) ended —
  // deterministic, unlike wall time.
  obs::TickClock clock(tracer != nullptr ? tracer->TrackEnd("toolchain")
                                         : 0);
  auto phase = [&](const char* name, int attempt, auto&& body) {
    obs::ScopedSpan span(tracer, clock, "toolchain", name, "toolchain");
    if (attempt > 0) span.AddArg("attempt", std::to_string(attempt));
    body();
    clock.Advance(1);
  };

  AcceleratorDesign design;
  phase("size datapath", 0,
        [&] { design.config = SizeDatapath(net, constraint); });

  // Iteratively compile and tally; if the realised design exceeds the
  // budget (LUT-multiplier lanes are the dominant knob), fold harder by
  // halving the lane allocation and recompiling.
  for (int attempt = 0;; ++attempt) {
    CompilePasses(net, design, [&](const char* name, auto&& body) {
      phase(name, attempt, body);
    });
    if (design.config.budget.Fits(design.resources.total)) break;
    if (attempt >= 24)
      DB_THROW("network '" << net.name() << "' does not fit budget "
               << design.config.budget.ToString() << " even at minimum "
               "datapath width (uses "
               << design.resources.total.ToString() << ")");

    const ResourceBudget& used = design.resources.total;
    const std::int64_t min_buf = design.config.memory_port_elems *
                                 design.config.ElementBytes() * 16;
    const bool bram_over =
        used.bram_bytes > design.config.budget.bram_bytes;
    const bool logic_over = used.lut > design.config.budget.lut ||
                            used.ff > design.config.budget.ff ||
                            used.dsp > design.config.budget.dsp;
    bool shrunk = false;
    if (bram_over && design.config.data_buffer_bytes +
                             design.config.weight_buffer_bytes >
                         2 * min_buf) {
      // On-chip memory pressure: shrink buffers toward the port minimum
      // before sacrificing compute lanes.
      design.config.data_buffer_bytes = std::max<std::int64_t>(
          design.config.data_buffer_bytes / 2, min_buf);
      design.config.weight_buffer_bytes = std::max<std::int64_t>(
          design.config.weight_buffer_bytes / 2, min_buf);
      shrunk = true;
    }
    if (logic_over || !shrunk) {
      if (design.config.TotalLanes() <= 1)
        DB_THROW("network '" << net.name() << "' does not fit budget "
                 << design.config.budget.ToString()
                 << " even at minimum datapath width (uses "
                 << design.resources.total.ToString() << ")");
      if (design.config.lut_lanes > 0)
        design.config.lut_lanes /= 2;
      else
        design.config.dsp_lanes = std::max(design.config.dsp_lanes / 2, 1);
      design.config.accumulator_lanes = design.config.TotalLanes();
    }
  }
  phase("rtl emit", 0,
        [&] { design.rtl = BuildRtl(design.config, design.blocks); });
  phase("lint", 0, [&] { CheckDesignOrThrow(design.rtl); });
  phase("rtl verify", 0, [&] { RtlVerifyGate(net, design, metrics); });
  phase("verify", 0, [&] { VerifyGate(net, design, metrics); });

  DB_LOG(kInfo) << "generated accelerator for '" << net.name() << "': "
                << design.config.TotalLanes() << " lanes, "
                << design.fold_plan.TotalSegments() << " fold segments, "
                << design.resources.total.ToString();
  return design;
}

AcceleratorDesign GenerateFromScripts(
    const std::string& model_prototxt,
    const std::string& constraint_prototxt,
    obs::Tracer* tracer,
    obs::MetricsRegistry* metrics) {
  obs::TickClock clock(tracer != nullptr ? tracer->TrackEnd("toolchain")
                                         : 0);
  NetworkDef def;
  {
    obs::ScopedSpan span(tracer, clock, "toolchain", "parse model",
                         "toolchain");
    def = ParseNetworkDef(model_prototxt);
    clock.Advance(1);
  }
  const Network net = Network::Build(def);
  DesignConstraint constraint;
  {
    obs::ScopedSpan span(tracer, clock, "toolchain", "parse constraint",
                         "toolchain");
    constraint = ParseConstraint(constraint_prototxt);
    clock.Advance(1);
  }
  return GenerateAccelerator(net, constraint, tracer, metrics);
}

SharedAccelerator GenerateSharedAccelerator(
    const std::vector<const Network*>& nets,
    const DesignConstraint& constraint) {
  if (nets.empty()) DB_THROW("GenerateSharedAccelerator needs >= 1 model");

  SharedAccelerator shared;
  // Union of the per-model datapath needs: max of every sizing axis.
  shared.config = SizeDatapath(*nets.front(), constraint);
  shared.config.network_name = "shared";
  for (std::size_t i = 1; i < nets.size(); ++i) {
    const AcceleratorConfig other = SizeDatapath(*nets[i], constraint);
    shared.config.dsp_lanes =
        std::max(shared.config.dsp_lanes, other.dsp_lanes);
    shared.config.lut_lanes =
        std::max(shared.config.lut_lanes, other.lut_lanes);
    shared.config.accumulator_lanes = shared.config.TotalLanes();
    shared.config.pooling_lanes =
        std::max(shared.config.pooling_lanes, other.pooling_lanes);
    shared.config.activation_lanes =
        std::max(shared.config.activation_lanes, other.activation_lanes);
    shared.config.has_lrn |= other.has_lrn;
    shared.config.has_dropout |= other.has_dropout;
    shared.config.has_classifier |= other.has_classifier;
    shared.config.classifier_k =
        std::max(shared.config.classifier_k, other.classifier_k);
    shared.config.has_connection_box |= other.has_connection_box;
    shared.config.connection_box_ports = std::max(
        shared.config.connection_box_ports, other.connection_box_ports);
    shared.config.data_buffer_bytes = std::max(
        shared.config.data_buffer_bytes, other.data_buffer_bytes);
    shared.config.weight_buffer_bytes = std::max(
        shared.config.weight_buffer_bytes, other.weight_buffer_bytes);
    shared.config.memory_port_elems = std::max(
        shared.config.memory_port_elems, other.memory_port_elems);
  }

  // Compile every model's software bundle against the shared datapath.
  for (const Network* net : nets) {
    AcceleratorDesign design;
    design.config = shared.config;
    design.fold_plan = PlanFolding(*net, design.config);
    design.layout = PlanDataLayout(*net, design.config.memory_port_elems);
    design.memory_map = MemoryMap::Build(*net, design.config);
    design.agu_program =
        BuildAguProgram(*net, design.config, design.fold_plan,
                        design.layout, design.memory_map);
    design.schedule =
        BuildSchedule(*net, design.fold_plan, design.agu_program);
    design.buffer_plan = PlanBuffers(*net, design.config,
                                     design.fold_plan, design.layout);
    shared.designs.push_back(std::move(design));
  }

  // The hardware is generated once, with the union of the LUT functions.
  std::set<LutFunction> fn_union;
  for (const Network* net : nets)
    for (LutFunction fn : RequiredLutFunctions(*net)) fn_union.insert(fn);
  // Blocks come from the first compiled design's AGU/fold structure but
  // LUT specs must cover the union — synthesise them against a network
  // that needs all of them by merging spec lists manually.
  AcceleratorDesign& proto = shared.designs.front();
  proto.lut_specs.clear();
  proto.blocks = PickBlocks(proto.config, *nets.front(),
                            proto.agu_program, proto.fold_plan,
                            proto.lut_specs);
  // The shared control hardware must hold every model's state, not just
  // the first model's: size the AGU pattern stores and the coordinator
  // FSM to the union across the compiled designs.
  bool has_weight_agu = false;
  for (BlockInstance& block : proto.blocks) {
    if (block.config.type == BlockType::kAgu) {
      if (block.config.agu_role == AguRole::kWeight) has_weight_agu = true;
      int need = block.config.patterns;
      for (const AcceleratorDesign& d : shared.designs)
        need = std::max(need,
                        d.agu_program.CountFor(block.config.agu_role));
      block.config.patterns = need;
    }
    if (block.config.type == BlockType::kCoordinator) {
      std::int64_t need = block.config.fold_events;
      for (const AcceleratorDesign& d : shared.designs)
        need = std::max(need, d.fold_plan.TemporalFolds());
      block.config.fold_events = static_cast<int>(need);
    }
  }
  if (!has_weight_agu) {
    int weight_patterns = 0;
    for (const AcceleratorDesign& d : shared.designs)
      weight_patterns =
          std::max(weight_patterns, d.agu_program.CountFor(AguRole::kWeight));
    if (weight_patterns > 0) {
      BlockConfig c;
      c.type = BlockType::kAgu;
      c.bit_width = proto.config.format.total_bits();
      c.agu_role = AguRole::kWeight;
      c.patterns = weight_patterns;
      proto.blocks.push_back({"agu_" + AguRoleName(AguRole::kWeight), c});
    }
  }
  // Append LUT blocks for functions the first model alone did not need.
  std::set<LutFunction> have;
  for (const ApproxLutSpec& spec : proto.lut_specs)
    have.insert(spec.function);
  for (LutFunction fn : fn_union) {
    if (have.count(fn)) continue;
    const ApproxLutSpec spec = DefaultLutSpec(fn, proto.config);
    proto.lut_specs.push_back(spec);
    BlockConfig c;
    c.type = BlockType::kApproxLut;
    c.bit_width = proto.config.format.total_bits();
    c.depth = spec.entries;
    c.interpolate = spec.interpolate;
    proto.blocks.push_back({"approx_lut_" + LutFunctionName(fn), c});
  }
  proto.resources = TallyResources(proto.blocks);
  if (!proto.config.budget.Fits(proto.resources.total))
    DB_THROW("shared accelerator exceeds the budget "
             << proto.config.budget.ToString() << " (uses "
             << proto.resources.total.ToString() << ")");
  proto.rtl = BuildRtl(proto.config, proto.blocks);
  CheckDesignOrThrow(proto.rtl);
  analysis::VerifyRtlOrThrow(proto.rtl);

  // Propagate the common hardware artifacts to every model's view.
  for (std::size_t i = 1; i < shared.designs.size(); ++i) {
    shared.designs[i].lut_specs = proto.lut_specs;
    shared.designs[i].blocks = proto.blocks;
    shared.designs[i].resources = proto.resources;
    shared.designs[i].rtl = proto.rtl;
  }
  // Gate every model's compiled view, same as the single-model path.
  for (std::size_t i = 0; i < shared.designs.size(); ++i)
    analysis::VerifyDesignOrThrow(*nets[i], shared.designs[i]);
  return shared;
}

std::string AcceleratorDesign::Report() const {
  std::ostringstream os;
  os << "=== DeepBurning accelerator design: " << config.network_name
     << " ===\n";
  os << StrFormat(
      "datapath: %s, %d DSP + %d LUT MAC lanes, %d pool, %d act lanes\n",
      config.format.ToString().c_str(), config.dsp_lanes, config.lut_lanes,
      config.pooling_lanes, config.activation_lanes);
  os << StrFormat(
      "buffers: data %lld B, weight %lld B, port %lld elems, "
      "freq %.0f MHz\n",
      static_cast<long long>(config.data_buffer_bytes),
      static_cast<long long>(config.weight_buffer_bytes),
      static_cast<long long>(config.memory_port_elems),
      config.frequency_mhz);
  os << "-- fold plan --\n" << fold_plan.ToString();
  os << "-- data layout --\n" << layout.ToString();
  os << "-- memory map --\n" << memory_map.ToString();
  os << "-- agu program --\n" << agu_program.ToString();
  os << "-- buffer plan --\n" << buffer_plan.ToString();
  os << "-- resources --\n" << resources.ToString();
  return os.str();
}

}  // namespace db
