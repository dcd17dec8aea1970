// The DeepBurning command-line front-end: the "one-click" flow of Fig. 3.
//
//   deepburning --model model.prototxt --constraint constraint.prototxt
//     --out out_dir [--report] [--simulate]
//
// Reads the Caffe-compatible model script and the designer constraint,
// runs NN-Gen, and writes the hardware/software bundle (Verilog, design
// report, coordinator schedule, memory map, AGU program) into the output
// directory.  --simulate additionally runs the performance/energy
// simulation and prints the summary.
// The `serve` subcommand runs the concurrent batched inference server
// against a generated accelerator and prints its simulated-time serving
// report:
//
//   deepburning serve --zoo MNIST --requests 64 --replicas 2 --batch 4
//     [--router POLICY] [--design-cache <dir>] [--linger <cycles>]
//     [--arrival-gap <cycles>] [--constraint file]
//
// The `verify` subcommand generates the design for a model/constraint
// pair, runs the static design verifier over it, and prints the
// diagnostics report (byte-stable across runs).  Exit code 0 when the
// design is clean, 2 when any error-severity diagnostic is reported:
//
//   deepburning verify (--zoo MNIST | --model m.prototxt)
//     [--constraint file] [--json]
//
// The `profile` subcommand simulates one forward propagation and prints
// the per-layer bottleneck-attribution report (DRAM-transfer vs
// datapath-MAC vs control/stall cycles, PE/buffer utilisation, sorted
// hottest-first; byte-stable across runs):
//
//   deepburning profile (<zoo-name> | --zoo NAME | --model m.prototxt)
//     [--constraint file] [--json] [--out <file>]
//
// The `tune` subcommand runs the design-space exploration engine: it
// enumerates the sweep grid, prunes each candidate (construction ->
// budget -> static verifier), scores survivors analytically and prints
// the Pareto frontier over (latency, energy, BRAM) plus the winner for
// the requested objective (byte-identical for any --jobs value and
// across reruns):
//
//   deepburning tune (<zoo-name> | --zoo NAME | --model m.prototxt)
//     [--constraint file] [--budget low|medium|high]
//     [--objective latency|energy|balanced] [--sweep SPEC] [--jobs N]
//     [--json] [--out <file>] [--design-cache <dir>]
//
// --design-cache points the commands at a content-addressed on-disk
// cache of generator output: a warm entry for the same canonical
// (network, constraint) pair skips NN-Gen entirely (zero toolchain
// spans in --trace-out; cluster.cache.* counters record the reuse).
// `tune` keys its winner (and a sidecar copy of the report) on the
// (network, constraint, sweep, objective) digest, so a warm tune run
// replays the report without re-exploring.
//
// Every subcommand accepts --trace-out=<file> (Chrome Trace Event JSON:
// toolchain phases, per-layer simulator intervals, per-request serving
// spans — open in Perfetto) and --metrics-out=<file> (counters, gauges
// and histograms as JSON).  Both artifacts are pure functions of the
// simulated workload, byte-identical across runs.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "analysis/rtl_mutations.h"
#include "analysis/rtl_verifier.h"
#include "analysis/testing_mutations.h"
#include "analysis/verifier.h"
#include "cluster/design_cache.h"
#include "cluster/shard_router.h"
#include "common/error.h"
#include "common/strings.h"
#include "core/generator.h"
#include "core/design_json.h"
#include "dse/explorer.h"
#include "fault/fault_plan.h"
#include "models/zoo.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "rtl/testbench.h"
#include "serve/inference_server.h"
#include "sim/trace.h"
#include "sim/perf_model.h"
#include "sim/power_model.h"

namespace {

struct CliOptions {
  std::string model_path;
  std::string constraint_path;
  std::string out_dir = "deepburning_out";
  std::string trace_out;
  std::string metrics_out;
  std::string profile_out;  // per-layer bottleneck report (JSON)
  std::string design_cache;  // content-addressed generator cache dir
  bool report = false;
  bool simulate = false;
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "DeepBurning NN-Gen: automatic generation of FPGA-based learning "
      "accelerators\n\n"
      "usage: deepburning --model <model.prototxt> "
      "[--constraint <constraint.prototxt>]\n"
      "                   [--out <dir>] [--report] [--simulate]\n"
      "                   [--trace-out <file>] [--metrics-out <file>]\n"
      "       deepburning serve ...   (batched inference server; "
      "`deepburning serve --help`)\n"
      "       deepburning verify ...  (static design verifier; "
      "`deepburning verify --help`)\n"
      "       deepburning profile ... (per-layer bottleneck report; "
      "`deepburning profile --help`)\n"
      "       deepburning tune ...    (design-space exploration; "
      "`deepburning tune --help`)\n\n"
      "  --model       Caffe-compatible network descriptive script "
      "(required)\n"
      "  --constraint  designer resource constraint script (default: "
      "medium Zynq-7045 budget)\n"
      "  --out         output directory for the generated bundle\n"
      "  --report      print the full design report to stdout\n"
      "  --simulate    run the performance/energy simulation\n"
      "  --trace-out   write a Chrome-trace JSON (toolchain phases; with "
      "--simulate\n"
      "                also per-layer DRAM/datapath intervals) for "
      "Perfetto\n"
      "  --metrics-out write the metrics registry as JSON\n"
      "  --profile-out write the per-layer bottleneck-attribution report "
      "as JSON\n"
      "  --design-cache  content-addressed cache directory for generator\n"
      "                output; a warm entry skips NN-Gen entirely\n"
      "  --help        this message\n");
}

/// Match `--name value` and `--name=value`; fills *out and returns true
/// when `arg` is this flag.  `next` supplies the following argv entry.
template <typename NextFn>
bool FlagValue(const std::string& arg, const char* name, NextFn&& next,
               std::string* out) {
  const std::string prefix = std::string(name) + "=";
  if (arg == name) {
    *out = next();
    return true;
  }
  if (db::StartsWith(arg, prefix)) {
    *out = arg.substr(prefix.size());
    return true;
  }
  return false;
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc)
        throw db::Error("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--model") {
      opts.model_path = next();
    } else if (arg == "--constraint") {
      opts.constraint_path = next();
    } else if (arg == "--out") {
      opts.out_dir = next();
    } else if (FlagValue(arg, "--trace-out", next, &opts.trace_out) ||
               FlagValue(arg, "--metrics-out", next, &opts.metrics_out) ||
               FlagValue(arg, "--profile-out", next, &opts.profile_out) ||
               FlagValue(arg, "--design-cache", next,
                         &opts.design_cache)) {
    } else if (arg == "--report") {
      opts.report = true;
    } else if (arg == "--simulate") {
      opts.simulate = true;
    } else if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else {
      throw db::Error("unknown argument '" + arg + "' (see --help)");
    }
  }
  return opts;
}

struct ServeCliOptions {
  std::string zoo_name;
  std::string model_path;
  std::string constraint_path;
  std::string trace_out;
  std::string metrics_out;
  std::string profile_out;     // steady-state bottleneck report (JSON)
  std::string timeseries_out;  // load time-series export (JSON)
  std::string faults;     // fault-campaign spec, e.g. "seed=7,flips=100"
  std::string admission;  // block | reject | shed-oldest
  std::string router;     // round-robin | least-loaded | hash-affinity
  std::string breaker;    // circuit-breaker spec, "failures=N,cooldown=M"
  std::string design_cache;  // content-addressed generator cache dir
  int requests = 64;
  int replicas = 2;
  std::int64_t batch = 4;
  std::int64_t linger = 0;
  std::int64_t arrival_gap = 0;
  std::int64_t deadline_cycles = 0;
  std::int64_t hedge_after_cycles = 0;  // 0 = hedging disabled
  std::size_t queue_capacity = 64;
  bool help = false;
};

db::serve::AdmissionPolicy ParseAdmissionPolicy(const std::string& name) {
  using db::serve::AdmissionPolicy;
  if (name == "block") return AdmissionPolicy::kBlock;
  if (name == "reject") return AdmissionPolicy::kReject;
  if (name == "shed-oldest") return AdmissionPolicy::kShedOldest;
  throw db::Error("unknown admission policy '" + name +
                  "' (expected block, reject or shed-oldest)");
}

void PrintServeUsage() {
  std::printf(
      "usage: deepburning serve (--zoo <name> | --model <model.prototxt>)\n"
      "                         [--constraint <constraint.prototxt>]\n"
      "                         [--requests N] [--replicas N] [--batch N]\n"
      "                         [--router POLICY] "
      "[--design-cache <dir>]\n"
      "                         [--linger CYCLES] [--arrival-gap CYCLES]\n"
      "                         [--queue-capacity N] [--admission POLICY]\n"
      "                         [--deadline-cycles CYCLES] "
      "[--faults <spec>]\n"
      "                         [--hedge-after-cycles CYCLES] "
      "[--breaker <spec>]\n"
      "                         [--trace-out <file>] "
      "[--metrics-out <file>]\n\n"
      "  --zoo          benchmark model name (ANN-0, ANN-1, ANN-2, "
      "Hopfield,\n"
      "                 CMAC, MNIST, Alexnet, NiN, Cifar)\n"
      "  --model        Caffe-compatible network script instead of --zoo\n"
      "  --constraint   designer resource constraint script\n"
      "  --requests     number of requests to submit (default 64)\n"
      "  --replicas     accelerator replicas in the pool, each with a\n"
      "                 private DRAM image (default 2)\n"
      "  --router       batch routing policy: least-loaded (default),\n"
      "                 round-robin, hash-affinity\n"
      "  --design-cache content-addressed cache directory for generator\n"
      "                 output; a warm entry skips NN-Gen entirely\n"
      "  --batch        max requests per batch (default 4)\n"
      "  --linger       cycles a partial batch waits to fill (default 0)\n"
      "  --arrival-gap  cycles between request arrivals (default 0: all "
      "at once)\n"
      "  --queue-capacity  simulated queue depth: live requests in the "
      "open\n"
      "                 batch (default 64)\n"
      "  --admission    full-queue policy, evaluated in simulated time:\n"
      "                 block (admit anyway, default), reject "
      "(kRejected),\n"
      "                 shed-oldest (evict the oldest queued request)\n"
      "  --deadline-cycles  relative deadline: service must start within\n"
      "                 this many cycles of arrival (default 0: none)\n"
      "  --faults       seeded deterministic fault campaign, e.g.\n"
      "                 'seed=7,flips=100,transients=8,stalls=4' or a\n"
      "                 cluster chaos campaign\n"
      "                 'seed=7,crashes=2,hangs=2,slow-replicas=1,"
      "route-fails=3'\n"
      "                 (keys: seed, flips, blob-flips, transients, "
      "stalls,\n"
      "                 stall-cycles, span, crashes, crash-down-cycles,\n"
      "                 hangs, hang-cycles, slow-replicas, slow-factor,\n"
      "                 slow-services, route-fails; see DESIGN.md)\n"
      "  --hedge-after-cycles  hedge a batch onto a second healthy "
      "replica\n"
      "                 when its planned completion exceeds the ready "
      "cycle\n"
      "                 by this many cycles; the first completion wins "
      "and\n"
      "                 the loser is cancelled (default 0: disabled)\n"
      "  --breaker      per-replica circuit breaker spec, e.g.\n"
      "                 'failures=3,cooldown=16384' (consecutive "
      "dispatch\n"
      "                 failures that open it, cycles before the "
      "half-open\n"
      "                 trial)\n"
      "  --trace-out    write the toolchain + per-request serving spans "
      "as\n"
      "                 Chrome-trace JSON (open in Perfetto)\n"
      "  --metrics-out  write the serve.*/sim.* metrics registry as "
      "JSON\n"
      "  --profile-out  write the steady-state per-layer bottleneck "
      "report as JSON\n"
      "  --timeseries-out  write the load.* time-series (queue depth,\n"
      "                 in-flight, sheds, per-replica busy fraction,\n"
      "                 sampled on simulated-cycle boundaries) as JSON\n");
}

db::ZooModel ZooModelByName(const std::string& name) {
  for (db::ZooModel model : db::AllZooModels())
    if (db::ToLower(db::ZooModelName(model)) == db::ToLower(name))
      return model;
  throw db::Error("unknown zoo model '" + name + "' (see --help)");
}

std::string ReadFile(const std::string& path);
void WriteFile(const std::filesystem::path& path, const std::string& text);

void PrintVerifyUsage() {
  std::printf(
      "usage: deepburning verify (--zoo <name> | --model <model.prototxt>)\n"
      "                          [--constraint <constraint.prototxt>] "
      "[--rtl]\n"
      "                          [--json]\n\n"
      "Generates the accelerator design for the model/constraint pair and\n"
      "runs the static design verifier (AGU bounds, memory-map layout,\n"
      "schedule hazards, fold coverage, buffer capacity, connection ports,\n"
      "Approx-LUT domains, resource accounting) over the design IR, then\n"
      "the rtl.* netlist passes (drive conflicts, width inference,\n"
      "combinational loops, clock discipline, dead logic) over the "
      "emitted\n"
      "RTL.  Prints one merged diagnostics report, byte-stable across "
      "runs.\n\n"
      "  --zoo         benchmark model name (ANN-0, ANN-1, ANN-2, "
      "Hopfield,\n"
      "                CMAC, MNIST, Alexnet, NiN, Cifar)\n"
      "  --model       Caffe-compatible network script instead of --zoo\n"
      "  --constraint  designer resource constraint script (default: "
      "medium\n"
      "                Zynq-7045 budget)\n"
      "  --rtl         run only the rtl.* passes over the elaborated "
      "netlist\n"
      "  --json        print the report as canonical JSON instead of "
      "text\n\n"
      "exit codes: 0 = clean design, 2 = error-severity violations\n");
}

int RunVerify(int argc, char** argv) {
  using namespace db;
  std::string zoo_name;
  std::string model_path;
  std::string constraint_path;
  std::string break_rule;
  std::string break_rtl;
  bool rtl_only = false;
  bool json = false;
  bool help = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--zoo") {
      zoo_name = next();
    } else if (arg == "--model") {
      model_path = next();
    } else if (arg == "--constraint") {
      constraint_path = next();
    } else if (FlagValue(arg, "--self-test-break", next, &break_rule) ||
               FlagValue(arg, "--self-test-break-rtl", next, &break_rtl)) {
      // Undocumented: corrupt the generated design so the CLI test suite
      // can assert the violation exit code and report rendering against
      // each rule id without shipping broken fixture files.
    } else if (arg == "--rtl") {
      rtl_only = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      help = true;
    } else {
      throw Error("unknown verify argument '" + arg + "' (see --help)");
    }
  }
  if (help || (zoo_name.empty() && model_path.empty())) {
    PrintVerifyUsage();
    return help ? 0 : 2;
  }

  const NetworkDef def = ParseNetworkDef(
      zoo_name.empty() ? ReadFile(model_path)
                       : ZooModelPrototxt(ZooModelByName(zoo_name)));
  const Network net = Network::Build(def);
  const DesignConstraint constraint =
      constraint_path.empty() ? ParseConstraint(std::string())
                              : ParseConstraint(ReadFile(constraint_path));

  // The generator's own gate would refuse an illegal design, so reaching
  // the explicit verification below with a violation requires the
  // self-test corruption (or a future generator bug surfacing here).
  AcceleratorDesign design = GenerateAccelerator(net, constraint);
  if (!break_rule.empty()) analysis::BreakRule(design, break_rule);
  if (!break_rtl.empty()) analysis::BreakRtlRule(design.rtl, break_rtl);

  analysis::AnalysisReport report;
  if (!rtl_only) report = analysis::VerifyDesign(net, design);
  report.Merge(analysis::VerifyRtl(design.rtl));
  if (json)
    std::printf("%s\n", report.ToJson().c_str());
  else
    std::printf("%s", report.ToText().c_str());
  return report.ok() ? 0 : 2;
}

int RunServe(int argc, char** argv) {
  using namespace db;
  constexpr std::int64_t kMaxCount = std::numeric_limits<std::int64_t>::max();
  ServeCliOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--zoo") {
      opts.zoo_name = next();
    } else if (arg == "--model") {
      opts.model_path = next();
    } else if (arg == "--constraint") {
      opts.constraint_path = next();
    } else if (arg == "--requests") {
      opts.requests = static_cast<int>(
          ParseInt(next(), 1, std::numeric_limits<int>::max(), arg));
    } else if (arg == "--replicas") {
      opts.replicas = static_cast<int>(
          ParseInt(next(), 1, std::numeric_limits<int>::max(), arg));
    } else if (arg == "--batch") {
      opts.batch = ParseInt(next(), 1, kMaxCount, arg);
    } else if (arg == "--linger") {
      opts.linger = ParseInt(next(), 0, kMaxCount, arg);
    } else if (arg == "--arrival-gap") {
      opts.arrival_gap = ParseInt(next(), 0, kMaxCount, arg);
    } else if (arg == "--queue-capacity") {
      opts.queue_capacity =
          static_cast<std::size_t>(ParseInt(next(), 1, kMaxCount, arg));
    } else if (arg == "--deadline-cycles") {
      opts.deadline_cycles = ParseInt(next(), 0, kMaxCount, arg);
    } else if (arg == "--hedge-after-cycles") {
      opts.hedge_after_cycles = ParseInt(next(), 0, kMaxCount, arg);
    } else if (FlagValue(arg, "--faults", next, &opts.faults) ||
               FlagValue(arg, "--admission", next, &opts.admission) ||
               FlagValue(arg, "--router", next, &opts.router) ||
               FlagValue(arg, "--breaker", next, &opts.breaker) ||
               FlagValue(arg, "--design-cache", next,
                         &opts.design_cache) ||
               FlagValue(arg, "--trace-out", next, &opts.trace_out) ||
               FlagValue(arg, "--metrics-out", next, &opts.metrics_out) ||
               FlagValue(arg, "--profile-out", next, &opts.profile_out) ||
               FlagValue(arg, "--timeseries-out", next,
                         &opts.timeseries_out)) {
    } else if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else {
      throw Error("unknown serve argument '" + arg + "' (see --help)");
    }
  }
  if (opts.help || (opts.zoo_name.empty() && opts.model_path.empty())) {
    PrintServeUsage();
    return opts.help ? 0 : 2;
  }
  // Validate the robustness flags before the (expensive) generation so
  // a typo fails fast.
  const serve::AdmissionPolicy admission =
      opts.admission.empty() ? serve::AdmissionPolicy::kBlock
                             : ParseAdmissionPolicy(opts.admission);
  const cluster::RouterPolicy router =
      opts.router.empty() ? cluster::RouterPolicy::kLeastLoaded
                          : cluster::ParseRouterPolicy(opts.router);
  cluster::BreakerOptions breaker;
  if (!opts.breaker.empty())
    breaker = cluster::ParseBreakerSpec(opts.breaker);
  fault::FaultCampaignSpec campaign;
  if (!opts.faults.empty())
    campaign = fault::ParseFaultCampaign(opts.faults);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;

  const NetworkDef def = ParseNetworkDef(
      opts.zoo_name.empty()
          ? ReadFile(opts.model_path)
          : ZooModelPrototxt(ZooModelByName(opts.zoo_name)));
  const Network net = Network::Build(def);
  const DesignConstraint constraint =
      opts.constraint_path.empty()
          ? ParseConstraint(std::string())
          : ParseConstraint(ReadFile(opts.constraint_path));

  // Content-addressed memoization of NN-Gen: a warm --design-cache
  // entry (same canonical network + constraint) skips generation — no
  // toolchain spans in the trace, a cluster.cache hit in the metrics.
  cluster::DesignCache::Options cache_opts;
  cache_opts.directory = opts.design_cache;
  cache_opts.tracer = &tracer;
  cache_opts.metrics = &metrics;
  cluster::DesignCache cache(cache_opts);
  const cluster::DesignKey key = cluster::MakeDesignKey(def, constraint);
  const std::shared_ptr<const AcceleratorDesign> design_ptr =
      cache.GetOrGenerate(key, net, constraint, &tracer);
  const AcceleratorDesign& design = *design_ptr;

  Rng rng(2016);
  WeightStore weights = WeightStore::CreateRandom(net, rng);

  obs::TimeSeriesRecorder timeseries;
  serve::ServeOptions server_opts;
  if (!opts.timeseries_out.empty()) server_opts.timeseries = &timeseries;
  server_opts.replicas = opts.replicas;
  server_opts.router = router;
  server_opts.affinity_hash = key.hash;
  server_opts.max_batch_size = opts.batch;
  server_opts.linger_cycles = opts.linger;
  server_opts.queue_capacity = opts.queue_capacity;
  server_opts.deadline_cycles = opts.deadline_cycles;
  server_opts.hedge_after_cycles = opts.hedge_after_cycles;
  server_opts.breaker = breaker;
  server_opts.device_name = constraint.device;
  server_opts.tracer = &tracer;
  server_opts.metrics = &metrics;
  server_opts.perf.metrics = &metrics;
  server_opts.admission = admission;
  if (!opts.faults.empty()) {
    fault::FaultCampaignSpec sized = campaign;
    sized.workers = opts.replicas;
    server_opts.faults =
        fault::FaultPlan::Generate(sized, design.memory_map);
  }
  serve::InferenceServer server(net, design, weights, server_opts);

  std::printf(
      "serving '%s': %d requests, %d replicas (%s router), batch <= %lld, "
      "linger %lld cycles, arrivals every %lld cycles\n",
      net.name().c_str(), opts.requests, opts.replicas,
      cluster::RouterPolicyName(router).c_str(),
      static_cast<long long>(opts.batch),
      static_cast<long long>(opts.linger),
      static_cast<long long>(opts.arrival_gap));
  if (cache.stats().hits + cache.stats().disk_hits > 0)
    std::printf("design cache: reused %s (no generation)\n",
                cluster::DesignKeyHex(key).c_str());
  if (!server_opts.faults.empty())
    std::printf("fault campaign: %s\n",
                server_opts.faults.ToString().c_str());

  const BlobShape& in_shape =
      net.layer(net.input_ids().front()).output_shape;
  for (int i = 0; i < opts.requests; ++i) {
    Tensor input(
        Shape{in_shape.channels, in_shape.height, in_shape.width});
    Rng input_rng(1000 + static_cast<std::uint64_t>(i));
    input.FillUniform(input_rng, 0.0f, 1.0f);
    server.Submit(std::move(input), static_cast<std::int64_t>(i) *
                                        opts.arrival_gap);
  }
  server.Drain();
  std::printf("%s", server.Stats().ToString().c_str());
  if (!opts.trace_out.empty())
    WriteFile(opts.trace_out,
              obs::WriteChromeTrace(tracer, design.config.frequency_mhz));
  if (!opts.metrics_out.empty())
    WriteFile(opts.metrics_out, metrics.ToJson());
  if (!opts.profile_out.empty()) {
    // The steady-state invocation is what every warm request pays, so
    // its attribution is the serving-relevant bottleneck picture.
    PerfOptions steady = server_opts.perf;
    steady.trace = nullptr;
    steady.metrics = nullptr;
    steady.weights_resident = true;
    const PerfResult perf = SimulatePerformance(net, design, steady);
    WriteFile(opts.profile_out,
              BuildProfileReport(net, design, perf).ToJson());
  }
  if (!opts.timeseries_out.empty())
    WriteFile(opts.timeseries_out, timeseries.ToJson());
  return 0;
}

void PrintProfileUsage() {
  std::printf(
      "usage: deepburning profile (<zoo-name> | --zoo <name> | "
      "--model <model.prototxt>)\n"
      "                           [--constraint <constraint.prototxt>] "
      "[--json]\n"
      "                           [--out <file>]\n\n"
      "Generates the accelerator, simulates one forward propagation and\n"
      "prints the per-layer bottleneck-attribution report: each layer's\n"
      "total cycles split exactly into DRAM-transfer (exposed memory\n"
      "time), datapath-MAC and control/stall buckets, plus PE and data-\n"
      "buffer utilisation, sorted hottest-first.  Byte-stable across\n"
      "runs.\n\n"
      "  --zoo         benchmark model name (ANN-0, ANN-1, ANN-2, "
      "Hopfield,\n"
      "                CMAC, MNIST, Alexnet, NiN, Cifar); a bare first\n"
      "                argument is shorthand for --zoo\n"
      "  --model       Caffe-compatible network script instead of --zoo\n"
      "  --constraint  designer resource constraint script (default: "
      "medium\n"
      "                Zynq-7045 budget)\n"
      "  --json        print the report as canonical JSON instead of "
      "text\n"
      "  --out         also write the report to a file\n");
}

int RunProfile(int argc, char** argv) {
  using namespace db;
  std::string zoo_name;
  std::string model_path;
  std::string constraint_path;
  std::string out_path;
  bool json = false;
  bool help = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--zoo") {
      zoo_name = next();
    } else if (arg == "--model") {
      model_path = next();
    } else if (arg == "--constraint") {
      constraint_path = next();
    } else if (FlagValue(arg, "--out", next, &out_path)) {
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      help = true;
    } else if (!arg.empty() && arg[0] != '-' && zoo_name.empty() &&
               model_path.empty()) {
      zoo_name = arg;  // `deepburning profile Alexnet`
    } else {
      throw Error("unknown profile argument '" + arg + "' (see --help)");
    }
  }
  if (help || (zoo_name.empty() && model_path.empty())) {
    PrintProfileUsage();
    return help ? 0 : 2;
  }

  const NetworkDef def = ParseNetworkDef(
      zoo_name.empty() ? ReadFile(model_path)
                       : ZooModelPrototxt(ZooModelByName(zoo_name)));
  const Network net = Network::Build(def);
  const DesignConstraint constraint =
      constraint_path.empty() ? ParseConstraint(std::string())
                              : ParseConstraint(ReadFile(constraint_path));
  const AcceleratorDesign design = GenerateAccelerator(net, constraint);
  const PerfResult perf = SimulatePerformance(net, design);
  const obs::ProfileReport report = BuildProfileReport(net, design, perf);
  std::printf("%s", (json ? report.ToJson() : report.ToText()).c_str());
  if (!out_path.empty())
    WriteFile(out_path, json ? report.ToJson() : report.ToText());
  return 0;
}

void PrintTuneUsage() {
  std::printf(
      "usage: deepburning tune (<zoo-name> | --zoo <name> | "
      "--model <model.prototxt>)\n"
      "                        [--constraint <constraint.prototxt>] "
      "[--budget <level>]\n"
      "                        [--objective <goal>] [--sweep <spec>] "
      "[--jobs <n>]\n"
      "                        [--json] [--out <file>] "
      "[--design-cache <dir>]\n"
      "                        [--trace-out <file>] "
      "[--metrics-out <file>]\n\n"
      "Design-space exploration: enumerates candidate configurations\n"
      "(MAC lane scaling, memory port width, BRAM buffer split, DSP vs\n"
      "fabric multipliers), prunes each one in a fixed order\n"
      "(construction infeasible -> over budget -> static verifier\n"
      "rejected), scores survivors with the analytic performance /\n"
      "energy / resource models, and prints the Pareto frontier over\n"
      "(latency, energy, BRAM) plus the winner for the requested\n"
      "objective.  The report is byte-identical for any --jobs value\n"
      "and across reruns.\n\n"
      "  --zoo         benchmark model name (ANN-0, ANN-1, ANN-2, "
      "Hopfield,\n"
      "                CMAC, MNIST, Alexnet, NiN, Cifar); a bare first\n"
      "                argument is shorthand for --zoo\n"
      "  --model       Caffe-compatible network script instead of --zoo\n"
      "  --constraint  designer resource constraint script (default: "
      "medium\n"
      "                Zynq-7045 budget)\n"
      "  --budget      override the constraint's budget level: low, "
      "medium\n"
      "                or high\n"
      "  --objective   winner selection goal: latency (default), energy "
      "or\n"
      "                balanced (latency x energy product)\n"
      "  --sweep       sweep grid as semicolon-separated axis=v1,v2,... "
      "clauses;\n"
      "                axes: lanes (%% of sized MAC lanes), port "
      "(elements,\n"
      "                power of two), split (%% of BRAM for the data "
      "buffer),\n"
      "                dsp (on/off), e.g. "
      "'lanes=50,100;port=16,32;dsp=on'\n"
      "  --jobs        worker threads for candidate evaluation "
      "(default 1;\n"
      "                changes wall-clock time only, never the report)\n"
      "  --json        print the report as canonical JSON instead of "
      "text\n"
      "  --out         also write the report to a file\n"
      "  --design-cache  cache directory; stores the winning design "
      "under the\n"
      "                (network, constraint, sweep, objective) digest "
      "plus a\n"
      "                report sidecar, so a warm run skips exploration\n"
      "  --trace-out   write the \"dse\" phase spans as Chrome-trace "
      "JSON\n"
      "  --metrics-out write the dse.* metrics registry as JSON\n");
}

int RunTune(int argc, char** argv) {
  using namespace db;
  std::string zoo_name;
  std::string model_path;
  std::string constraint_path;
  std::string budget_name;
  std::string objective_name = "latency";
  std::string sweep_text;
  std::string jobs_text = "1";
  std::string out_path;
  std::string design_cache;
  std::string trace_out;
  std::string metrics_out;
  bool json = false;
  bool help = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--zoo") {
      zoo_name = next();
    } else if (arg == "--model") {
      model_path = next();
    } else if (arg == "--constraint") {
      constraint_path = next();
    } else if (FlagValue(arg, "--budget", next, &budget_name) ||
               FlagValue(arg, "--objective", next, &objective_name) ||
               FlagValue(arg, "--sweep", next, &sweep_text) ||
               FlagValue(arg, "--jobs", next, &jobs_text) ||
               FlagValue(arg, "--out", next, &out_path) ||
               FlagValue(arg, "--design-cache", next, &design_cache) ||
               FlagValue(arg, "--trace-out", next, &trace_out) ||
               FlagValue(arg, "--metrics-out", next, &metrics_out)) {
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      help = true;
    } else if (!arg.empty() && arg[0] != '-' && zoo_name.empty() &&
               model_path.empty()) {
      zoo_name = arg;  // `deepburning tune MNIST`
    } else {
      throw Error("unknown tune argument '" + arg + "' (see --help)");
    }
  }
  if (help || (zoo_name.empty() && model_path.empty())) {
    PrintTuneUsage();
    return help ? 0 : 2;
  }

  // Validate every tuning flag before any generator work, so a typo
  // fails fast with exit code 2 and a stable one-line diagnostic.
  dse::TuneOptions tune;
  tune.objective = dse::ParseObjective(objective_name);
  tune.sweep = dse::ParseSweepSpec(sweep_text);
  tune.jobs = static_cast<int>(ParseInt(jobs_text, 1, 64, "--jobs"));

  const NetworkDef def = ParseNetworkDef(
      zoo_name.empty() ? ReadFile(model_path)
                       : ZooModelPrototxt(ZooModelByName(zoo_name)));
  const Network net = Network::Build(def);
  DesignConstraint constraint =
      constraint_path.empty() ? ParseConstraint(std::string())
                              : ParseConstraint(ReadFile(constraint_path));
  if (!budget_name.empty()) {
    if (budget_name == "low")
      constraint.budget = BudgetLevel::kLow;
    else if (budget_name == "medium")
      constraint.budget = BudgetLevel::kMedium;
    else if (budget_name == "high")
      constraint.budget = BudgetLevel::kHigh;
    else
      throw Error("unknown budget '" + budget_name +
                  "' (expected low, medium or high)");
  }

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  tune.tracer = &tracer;
  tune.metrics = &metrics;

  auto emit = [&](const std::string& report) {
    std::printf("%s", report.c_str());
    if (!out_path.empty()) WriteFile(out_path, report);
    if (!trace_out.empty())
      WriteFile(trace_out,
                obs::WriteChromeTrace(tracer, constraint.frequency_mhz));
    if (!metrics_out.empty()) WriteFile(metrics_out, metrics.ToJson());
  };

  // Winners flow through the design cache keyed on the (network,
  // constraint, sweep, objective) digest; the rendered report rides
  // along as a sidecar so a warm run replays byte-identically without
  // evaluating a single candidate.
  cluster::DesignCache::Options cache_opts;
  cache_opts.directory = design_cache;
  cache_opts.tracer = &tracer;
  cache_opts.metrics = &metrics;
  cluster::DesignCache cache(cache_opts);
  const cluster::DesignKey key =
      dse::MakeTuneKey(def, constraint, tune.sweep, tune.objective);
  if (!design_cache.empty()) {
    const std::string sidecar =
        cache.SidecarPath(key, json ? "tune.json" : "tune.txt");
    std::ifstream in(sidecar);
    if (in && cache.Lookup(key)) {
      std::ostringstream os;
      os << in.rdbuf();
      dse::RecordTuneCacheHit(metrics);
      std::printf("tune cache: reused %s (no exploration)\n",
                  cluster::DesignKeyHex(key).c_str());
      emit(os.str());
      return 0;
    }
  }

  const dse::TuneResult result = dse::Explore(net, constraint, tune);
  if (!design_cache.empty()) {
    // Compile the winner into a deployable design (RTL + lint + the
    // verifier gate) and persist it with both report renderings.
    const AcceleratorConfig base = SizeDatapath(net, constraint);
    cache.Insert(key,
                 dse::CompileWinner(net, constraint, base,
                                    result.candidates[result.winner].spec));
    std::ofstream(cache.SidecarPath(key, "tune.txt")) << result.ToText();
    std::ofstream(cache.SidecarPath(key, "tune.json")) << result.ToJson();
  }
  emit(json ? result.ToJson() : result.ToText());
  return 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw db::Error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteFile(const std::filesystem::path& path,
               const std::string& text) {
  std::ofstream out(path);
  if (!out) throw db::Error("cannot write " + path.string());
  out << text;
  std::printf("  %s (%zu bytes)\n", path.string().c_str(), text.size());
}

}  // namespace

// Exit codes: 0 success, 1 unexpected failure (any other std::exception),
// 2 user-facing error (db::Error: bad flags, unreadable files, invalid
// specs), 3 internal invariant violation (a DB_CHECK fired —
// std::logic_error; always a bug worth reporting).
int main(int argc, char** argv) {
  using namespace db;
  try {
    // Undocumented: trip a DB_CHECK on demand so the CLI test suite can
    // assert the internal-error exit code without a real bug.
    for (int i = 1; i < argc; ++i)
      if (std::string(argv[i]) == "--self-test-internal-error")
        DB_CHECK_MSG(false, "self-test internal error");
    if (argc > 1 && std::string(argv[1]) == "serve")
      return RunServe(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "verify")
      return RunVerify(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "profile")
      return RunProfile(argc, argv);
    if (argc > 1 && std::string(argv[1]) == "tune")
      return RunTune(argc, argv);
    const CliOptions opts = ParseArgs(argc, argv);
    if (opts.help || opts.model_path.empty()) {
      PrintUsage();
      return opts.help ? 0 : 2;
    }

    const std::string model_text = ReadFile(opts.model_path);
    const std::string constraint_text =
        opts.constraint_path.empty() ? std::string()
                                     : ReadFile(opts.constraint_path);

    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    obs::TickClock clock;
    NetworkDef def;
    {
      obs::ScopedSpan span(&tracer, clock, "toolchain", "parse model",
                           "toolchain");
      def = ParseNetworkDef(model_text);
      clock.Advance(1);
    }
    const Network net = Network::Build(def);
    DesignConstraint constraint;
    {
      obs::ScopedSpan span(&tracer, clock, "toolchain",
                           "parse constraint", "toolchain");
      constraint = ParseConstraint(constraint_text);
      clock.Advance(1);
    }
    // With --design-cache, generation is memoized on the canonical
    // (network, constraint) content hash; a warm entry skips NN-Gen.
    cluster::DesignCache::Options cache_opts;
    cache_opts.directory = opts.design_cache;
    cache_opts.tracer = &tracer;
    cache_opts.metrics = &metrics;
    cluster::DesignCache cache(cache_opts);
    const cluster::DesignKey key =
        cluster::MakeDesignKey(def, constraint);
    const std::shared_ptr<const AcceleratorDesign> design_ptr =
        cache.GetOrGenerate(key, net, constraint, &tracer);
    const AcceleratorDesign& design = *design_ptr;
    if (cache.stats().disk_hits > 0)
      std::printf("design cache: reused %s (no generation)\n",
                  cluster::DesignKeyHex(key).c_str());

    std::printf("generated accelerator for '%s': %d MAC lanes, %lld fold "
                "steps, %lld LUTs / %lld DSPs\n",
                net.name().c_str(), design.config.TotalLanes(),
                static_cast<long long>(design.fold_plan.TotalSegments()),
                static_cast<long long>(design.resources.total.lut),
                static_cast<long long>(design.resources.total.dsp));

    std::filesystem::create_directories(opts.out_dir);
    const std::filesystem::path out = opts.out_dir;
    std::printf("writing bundle:\n");
    WriteFile(out / "accelerator.v", EmitVerilog(design.rtl));
    WriteFile(out / "tb_accelerator.v", EmitTestbench(design.rtl));
    WriteFile(out / "design_report.txt", design.Report());
    WriteFile(out / "schedule.txt", design.schedule.ToString());
    WriteFile(out / "memory_map.txt", design.memory_map.ToString());
    WriteFile(out / "agu_program.txt", design.agu_program.ToString());
    WriteFile(out / "design.json", DesignToJson(design));

    if (opts.report) std::printf("\n%s\n", design.Report().c_str());

    if (opts.simulate) {
      PerfTrace trace;
      PerfOptions perf_opts;
      perf_opts.trace = &trace;
      perf_opts.metrics = &metrics;
      const PerfResult perf = SimulatePerformance(net, design, perf_opts);
      WriteFile(out / "trace.vcd", WriteVcd(trace));
      ExportPerfTrace(trace, tracer);
      const EnergyResult energy =
          EstimateEnergy(design.resources.total, perf,
                         DeviceCatalog(constraint.device));
      std::printf("\nsimulated forward propagation: %.4f ms, %.4f J\n",
                  perf.TotalMs(), energy.total_joules);
      std::printf("%s\n", perf.ToString().c_str());
    }
    if (!opts.profile_out.empty()) {
      const PerfResult perf = SimulatePerformance(net, design);
      WriteFile(opts.profile_out,
                BuildProfileReport(net, design, perf).ToJson());
    }
    if (!opts.trace_out.empty())
      WriteFile(opts.trace_out,
                obs::WriteChromeTrace(tracer,
                                      design.config.frequency_mhz));
    if (!opts.metrics_out.empty())
      WriteFile(opts.metrics_out, metrics.ToJson());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "deepburning: %s\n", e.what());
    return 2;
  } catch (const std::logic_error& e) {
    std::fprintf(stderr, "deepburning: internal error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepburning: %s\n", e.what());
    return 1;
  }
}
