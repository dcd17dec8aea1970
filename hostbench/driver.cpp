// Host wall-clock benchmark driver: what a user of the toolchain waits
// for — cold start, warm serving and `tune` — measured from outside the
// library through its public entry points (frontend, core, analysis,
// sim, cluster, serve, dse).  BENCHMARK.json describes the workloads and
// metrics; run.py builds this program and invokes it.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--trace-out <file>]
//
// Each run repeats one *session* of its workload for --seconds of wall
// time (with a per-workload minimum), then reports the median set-up
// time and peak RSS over the sessions, and ops per second over their
// summed serve or tune windows.  Weights, inputs and the reference
// outputs are derived from --seed before any timer starts.
//
// --trace 0 times the end-to-end metrics with span recording off.
// --trace 1 alternates untraced and traced sessions (their wall-time
// ratio is trace.overhead), then runs standalone probes of the layers
// InferenceServer's constructor hides, and derives the per-layer
// metrics from the spans; the spans are written as Chrome-trace JSON to
// --trace-out.
//
// Correctness gate: every kOk output must equal the FunctionalSimulator
// reference bit for bit, every Explore report must equal a jobs=1 run
// byte for byte, and every simulated count must repeat exactly across
// the sessions of a run.  A mismatch is a failed op, prints
// "correct": false and exits 1.  The last stdout line is the result
// JSON: {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/rtl_verifier.h"
#include "analysis/verifier.h"
#include "cluster/accelerator_pool.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/generator.h"
#include "dse/explorer.h"
#include "fault/fault_plan.h"
#include "frontend/constraint.h"
#include "frontend/network_def.h"
#include "graph/network.h"
#include "models/zoo.h"
#include "nn/weights.h"
#include "serve/inference_server.h"
#include "sim/functional_sim.h"
#include "sim/host_runtime.h"
#include "sim/kernels.h"
#include "sim/perf_model.h"
#include "sim/system_sim.h"
#include "spans.h"

// Instrumented builds distort host time; their runtimes define these.
extern "C" {
void __gcov_dump_one(void*) __attribute__((weak));
void __asan_init() __attribute__((weak));
void __tsan_init() __attribute__((weak));
void __ubsan_handle_builtin_unreachable(void*) __attribute__((weak));
}

namespace hostbench {
namespace {

using Clock = std::chrono::steady_clock;
using db::ZooModel;

// Every workload serves on two replicas and tunes with two jobs, so a
// run stays within the four CPUs of the reference host.
constexpr int kReplicas = 2;
constexpr int kTuneJobs = 2;
// Reference simulators run in parallel, before any timer starts.
constexpr int kRefThreads = 4;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

bool InstrumentedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return __gcov_dump_one || __asan_init || __tsan_init ||
         __ubsan_handle_builtin_unreachable;
#endif
}

/// A field of /proc/self/status given in kB ("VmHWM:", "VmRSS:"), in MB.
double StatusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(field, 0) == 0)
      return std::stod(line.substr(field.size())) * 1024.0 / 1e6;
  throw db::Error("no " + field + " in /proc/self/status");
}

/// Start a fresh peak-RSS window: return freed heap to the OS and reset
/// the kernel's high-water mark (VmHWM) to the current resident set, so
/// each session's peak is its own rather than the process's history.
/// Throws if the mark did not drop to the resident set, since VmHWM
/// would then include the reference simulators and earlier sessions.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  const double hwm = StatusMb("VmHWM:");
  const double rss = StatusMb("VmRSS:");
  if (hwm > rss + 4.0)
    throw db::Error("cannot reset the peak-RSS mark: VmHWM " +
                    std::to_string(hwm) + " MB stays above VmRSS " +
                    std::to_string(rss) + " MB");
}

/// Peak resident set since the last ResetPeakRss (VmHWM), in MB.
double PeakRssMb() { return StatusMb("VmHWM:"); }

bool SameBits(const db::Tensor& a, const db::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) ==
             0;
}

// ---------------------------------------------------------------------
// Result accounting
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  // the first few, for stderr
  std::vector<Metric> metrics;

  void Fail(std::int64_t ops, const std::string& why) {
    failed += ops;
    correct = false;
    if (problems.size() < 8) problems.push_back(why);
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Per-layer numbers from one run's spans.  A layer is read from the
/// traced sessions when any recorded it, otherwise from the probes
/// (session -1), so a probe never dilutes a session measurement.
class SpanStats {
 public:
  explicit SpanStats(const SpanRecorder& rec) : rec_(rec) {}

  /// Median over sessions of the summed self time of the spans called
  /// `name` (or, with `prefix`, named `name.<anything>`).
  double PerSessionMs(const std::string& name, bool prefix = false) const {
    std::map<int, double> per_session;
    for (const int i : Select(name, prefix))
      per_session[rec_.spans()[static_cast<std::size_t>(i)].session] +=
          rec_.SelfMs(i);
    std::vector<double> v;
    for (const auto& [session, ms] : per_session) v.push_back(ms);
    return Median(v);
  }

  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> v;
    for (const int i : Select(name, false)) {
      const Span& s = rec_.spans()[static_cast<std::size_t>(i)];
      v.push_back((s.end_us - s.start_us) / 1000.0);
    }
    return v;
  }

 private:
  std::vector<int> Select(const std::string& name, bool prefix) const {
    std::vector<int> in_sessions, in_probes;
    for (std::size_t i = 0; i < rec_.spans().size(); ++i) {
      const Span& s = rec_.spans()[i];
      const bool match =
          prefix ? s.name.rfind(name + ".", 0) == 0 : s.name == name;
      if (match)
        (s.session >= 0 ? in_sessions : in_probes)
            .push_back(static_cast<int>(i));
    }
    return in_sessions.empty() ? in_probes : in_sessions;
  }

  const SpanRecorder& rec_;
};

// ---------------------------------------------------------------------
// Serving: nin_serve, fft_stream
// ---------------------------------------------------------------------

struct ServeConfig {
  ZooModel model = ZooModel::kMnist;
  int requests = 8;
  std::int64_t batch = 4;
  /// Open-loop request stream (fft_stream): arrivals at a fixed
  /// simulated gap with linger, shed-oldest admission, a relative
  /// deadline and a seeded fault/chaos campaign with hedging and the
  /// breaker on.  Otherwise every request arrives at cycle 0.
  bool stream = false;
  int probe_runs = 3;   // timed sim.run / sim.system_run probe calls
};

/// The simulated counts every session of a run must reproduce exactly.
struct ServeCounts {
  std::int64_t batches = 0, ok = 0, shed = 0, rejected = 0, deadline = 0,
               faulted = 0, makespan = 0, injected = 0, retries = 0,
               crashes = 0, hedges = 0;
  bool operator==(const ServeCounts&) const = default;
};

struct ServeSession {
  double setup_s = 0.0;
  double serve_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  ServeCounts counts;
};

class ServingBench {
 public:
  /// Untimed preparation: weights, inputs and reference outputs derived
  /// from `seed`, and the serving options (fault plan included).
  ServingBench(const ServeConfig& config, std::uint64_t seed,
               SpanRecorder& spans)
      : config_(config),
        prototxt_(db::ZooModelPrototxt(config.model)),
        spans_(spans),
        net_(db::Network::Build(db::ParseNetworkDef(prototxt_))),
        constraint_(db::ParseConstraint(std::string())),
        design_(db::GenerateAccelerator(net_, constraint_)) {
    db::Rng weight_rng(seed * 0x9E3779B97F4A7C15ull + 1);
    weights_ = db::WeightStore::CreateRandom(net_, weight_rng);
    const db::BlobShape& s =
        net_.layer(net_.input_ids().front()).output_shape;
    db::Rng input_rng(seed * 0x9E3779B97F4A7C15ull + 2);
    for (int i = 0; i < config.requests; ++i) {
      db::Tensor t(db::Shape{s.channels, s.height, s.width});
      t.FillUniform(input_rng, 0.0f, 1.0f);
      inputs_.push_back(std::move(t));
    }
    ComputeReferences();

    options_.replicas = kReplicas;
    options_.max_batch_size = config.batch;
    options_.device_name = constraint_.device;
    if (config.stream) {
      db::PerfOptions steady;
      steady.weights_resident = true;
      // One arrival per steady invocation is half the 2-replica pool's
      // capacity, so the simulated backlog drains between chaos events.
      gap_ = db::SimulatePerformance(net_, design_, steady).total_cycles;
      options_.linger_cycles = 4 * gap_;
      options_.admission = db::serve::AdmissionPolicy::kShedOldest;
      options_.queue_capacity = 64;
      // The campaign is part of the workload, not of its inputs: its
      // events decide how the router splits the stream between the
      // replicas (from 10/90 to 45/55 on the seeds tried), and the split
      // moves host throughput by up to 40%.  A fixed campaign keeps the
      // split, and every simulated count, the same for every --seed.
      db::fault::FaultCampaignSpec spec;
      spec.seed = 1;
      spec.weight_flips = 16;
      spec.transients = 4;
      spec.stalls = 4;
      spec.crashes = 2;
      spec.hangs = 2;
      spec.slow_replicas = 1;
      spec.route_fails = 3;
      spec.workers = kReplicas;
      spec.invocation_span = config.requests / kReplicas;
      options_.faults =
          db::fault::FaultPlan::Generate(spec, design_.memory_map);
      // Service must start within a crash window plus a hang plus 64
      // arrivals of queueing: generous enough that nothing expires.
      options_.deadline_cycles =
          64 * gap_ + spec.crash_down_cycles + spec.hang_cycles;
      options_.hedge_after_cycles = 16 * gap_;
      options_.breaker.enabled = true;
    }
  }

  /// One cold start from the prototxt text to a server accepting
  /// Submit, then the request stream until Drain returns.  Ops: the
  /// setup and every request.
  ServeSession RunSession(Outcome& out) {
    ServeSession result;
    std::vector<db::Tensor> inputs = inputs_;  // Submit consumes them
    out.attempted += 1 + config_.requests;
    const Clock::time_point start = Clock::now();

    std::unique_ptr<db::Network> net;
    std::unique_ptr<db::AcceleratorDesign> design;
    std::unique_ptr<db::serve::InferenceServer> server;
    {
      ScopedSpan setup(spans_, "setup");
      db::DesignConstraint constraint;
      {
        ScopedSpan span(spans_, "frontend.parse");
        net = std::make_unique<db::Network>(
            db::Network::Build(db::ParseNetworkDef(prototxt_)));
        constraint = db::ParseConstraint(std::string());
      }
      {
        ScopedSpan span(spans_, "core.generate");
        design = std::make_unique<db::AcceleratorDesign>(
            db::GenerateAccelerator(*net, constraint));
      }
      {
        ScopedSpan span(spans_, "analysis.verify");
        if (!db::analysis::VerifyDesign(*net, *design).ok())
          out.Fail(1, "VerifyDesign reported errors");
      }
      {
        ScopedSpan span(spans_, "analysis.verify_rtl");
        if (!db::analysis::VerifyRtl(design->rtl).ok())
          out.Fail(1, "VerifyRtl reported errors");
      }
      {
        ScopedSpan span(spans_, "serve.server_ctor");
        server = std::make_unique<db::serve::InferenceServer>(
            *net, *design, weights_, options_);
      }
    }
    result.setup_s = SecondsSince(start);

    const Clock::time_point serve_start = Clock::now();
    const std::vector<db::serve::ServedRequest>* records = nullptr;
    {
      ScopedSpan span(spans_, "serve");
      for (int i = 0; i < config_.requests; ++i) {
        ScopedSpan submit(spans_, "serve.submit");
        server->Submit(std::move(inputs[static_cast<std::size_t>(i)]),
                       static_cast<std::int64_t>(i) * gap_);
      }
      ScopedSpan drain(spans_, "serve.drain");
      records = &server->Drain();
    }
    result.serve_s = SecondsSince(serve_start);

    if (records->size() != static_cast<std::size_t>(config_.requests))
      out.Fail(config_.requests, "records missing after Drain");
    for (const db::serve::ServedRequest& r : *records) {
      if (r.status != db::StatusCode::kOk)
        out.Fail(1, std::string("request status ") +
                        db::StatusCodeName(r.status));
      else if (!SameBits(r.output, refs_[static_cast<std::size_t>(r.id)]))
        out.Fail(1, "served output differs from the reference");
    }
    const db::serve::ServerStats stats = server->Stats();
    ServeCounts& c = result.counts;
    c.batches = stats.batches;
    c.ok = stats.completed;
    c.shed = stats.shed;
    c.rejected = stats.rejected;
    c.deadline = stats.deadline_exceeded;
    c.faulted = stats.faulted;
    c.makespan = stats.makespan_cycles;
    c.injected = stats.faults_injected;
    c.retries = stats.retries;
    c.crashes = stats.crashes;
    c.hedges = stats.hedges;
    server.reset();  // joins the lanes
    result.wall_s = SecondsSince(start);
    return result;
  }

  /// Standalone timings of what InferenceServer's constructor does
  /// inside (image build, weight decode, context, replication, pool)
  /// and of warm FunctionalSimulator::Run / SystemContext::Run calls on
  /// one thread.  Traced runs only; counted as one op.
  double Probe(Outcome& out) {
    ScopedSpan probe(spans_, "probe.provision");
    out.attempted += 1;
    db::MemoryImage image = [&] {
      ScopedSpan span(spans_, "sim.build_host_image");
      return db::BuildHostImage(net_, design_, weights_);
    }();
    {
      ScopedSpan span(spans_, "sim.decode_weights");
      const db::WeightStore decoded = db::DecodeWeights(image, net_, design_);
    }
    {
      std::unique_ptr<db::SystemContext> context;
      {
        ScopedSpan span(spans_, "sim.system_context");
        context = std::make_unique<db::SystemContext>(net_, design_, image);
      }
      db::MemoryImage scratch = image;
      context->Run(scratch, inputs_[0]);  // warm the arena
      for (int i = 0; i < config_.probe_runs; ++i) {
        const std::size_t k = static_cast<std::size_t>(i) % inputs_.size();
        db::SystemRunResult run;
        {
          ScopedSpan span(spans_, "sim.system_run");
          run = context->Run(scratch, inputs_[k]);
        }
        if (!SameBits(run.output, refs_[k]))
          out.Fail(1, "SystemContext output differs from the reference");
      }
    }
    {
      ScopedSpan span(spans_, "sim.replicate");
      const std::vector<db::SystemReplica> replicas =
          db::ReplicateSystem(net_, design_, image, kReplicas);
    }
    {
      std::unique_ptr<db::cluster::AcceleratorPool> pool;
      ScopedSpan span(spans_, "cluster.pool");
      pool = std::make_unique<db::cluster::AcceleratorPool>(
          net_, design_, image, kReplicas);
    }
    {
      const db::FunctionalSimulator sim(net_, design_, weights_);
      sim.Run(inputs_[0]);  // warm the arena
      for (int i = 0; i < config_.probe_runs; ++i) {
        const std::size_t k = static_cast<std::size_t>(i) % inputs_.size();
        db::Tensor output;
        {
          ScopedSpan span(spans_, "sim.run");
          output = sim.Run(inputs_[k]);
        }
        if (!SameBits(output, refs_[k]))
          out.Fail(1, "FunctionalSimulator output is not deterministic");
      }
    }
    return static_cast<double>(image.size()) / 1e6;
  }

 private:
  /// Reference outputs: a FunctionalSimulator on the same WeightStore,
  /// one per thread (a simulator's scratch arena is single-threaded).
  void ComputeReferences() {
    refs_.resize(inputs_.size());
    const int threads = std::min(kRefThreads,
                                 static_cast<int>(inputs_.size()));
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
      workers.emplace_back([&, t] {
        try {
          const db::FunctionalSimulator sim(net_, design_, weights_);
          for (std::size_t i = static_cast<std::size_t>(t);
               i < inputs_.size(); i += static_cast<std::size_t>(threads))
            refs_[i] = sim.Run(inputs_[i]);
        } catch (...) {
          errors[static_cast<std::size_t>(t)] = std::current_exception();
        }
      });
    for (std::thread& w : workers) w.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
  }

  ServeConfig config_;
  std::string prototxt_;
  SpanRecorder& spans_;
  // Untimed twins of what each session builds: the shapes weights and
  // inputs are drawn for, the reference simulator's design, the fault
  // plan's memory map.  Generation is deterministic, so each session's
  // own design is identical.
  db::Network net_;
  db::DesignConstraint constraint_;
  db::AcceleratorDesign design_;
  db::WeightStore weights_;
  std::vector<db::Tensor> inputs_;
  std::vector<db::Tensor> refs_;
  std::int64_t gap_ = 0;
  db::serve::ServeOptions options_;
};

// ---------------------------------------------------------------------
// Tuning: zoo_tune
// ---------------------------------------------------------------------

/// The DSE counts every session of a run must reproduce exactly.
struct TuneCounts {
  std::int64_t scored = 0, candidates = 0;
  bool operator==(const TuneCounts&) const = default;
};

struct TuneSession {
  double setup_s = 0.0;
  double tune_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  TuneCounts counts;
};

/// Explore (kTuneJobs) plus CompileWinner for one model, under the spans
/// dse.explore.<model> and dse.compile_winner.
db::dse::TuneResult TuneModel(const db::Network& net,
                              const db::DesignConstraint& constraint,
                              const std::string& model, SpanRecorder& spans) {
  db::dse::TuneOptions options;
  options.jobs = kTuneJobs;
  db::dse::TuneResult result = [&] {
    ScopedSpan span(spans, "dse.explore." + model);
    return db::dse::Explore(net, constraint, options);
  }();
  ScopedSpan span(spans, "dse.compile_winner");
  db::dse::CompileWinner(net, constraint,
                         db::SizeDatapath(net, constraint),
                         result.candidates[result.winner].spec);
  return result;
}

/// EvaluateCandidate over every default-grid point (dse.evaluate), and
/// one cold plus one steady SimulatePerformance of the stock design
/// (sim.perf_model — what the server constructor presimulates), per
/// network.  Traced runs only; counted as one op.
void ProbeDse(const std::vector<const db::Network*>& nets,
              const db::DesignConstraint& constraint, SpanRecorder& spans,
              Outcome& out) {
  ScopedSpan probe(spans, "probe.dse");
  out.attempted += 1;
  const std::vector<db::dse::CandidateSpec> grid =
      db::dse::SweepSpec().Enumerate();
  for (const db::Network* net : nets) {
    const db::AcceleratorConfig base = db::SizeDatapath(*net, constraint);
    for (const db::dse::CandidateSpec& spec : grid) {
      ScopedSpan span(spans, "dse.evaluate");
      db::dse::EvaluateCandidate(*net, constraint, base, spec);
    }
    const db::AcceleratorDesign design =
        db::GenerateAccelerator(*net, constraint);
    ScopedSpan span(spans, "sim.perf_model");
    db::PerfOptions perf;
    perf.weights_resident = false;
    db::SimulatePerformance(*net, design, perf);
    perf.weights_resident = true;
    db::SimulatePerformance(*net, design, perf);
  }
}

class TuneBench {
 public:
  /// Untimed preparation: the networks and each model's jobs=1 Explore
  /// report, the byte-for-byte reference for every timed run.
  TuneBench(std::vector<ZooModel> models, SpanRecorder& spans)
      : models_(std::move(models)),
        spans_(spans),
        constraint_(db::ParseConstraint(std::string())) {
    db::dse::TuneOptions serial;
    serial.jobs = 1;
    for (const ZooModel m : models_) {
      nets_.push_back(std::make_unique<db::Network>(
          db::Network::Build(db::ParseNetworkDef(db::ZooModelPrototxt(m)))));
      reports_.push_back(
          db::dse::Explore(*nets_.back(), constraint_, serial).ToJson());
    }
  }

  std::vector<const db::Network*> nets() const {
    std::vector<const db::Network*> v;
    for (const auto& n : nets_) v.push_back(n.get());
    return v;
  }
  const db::DesignConstraint& constraint() const { return constraint_; }

  /// The stock flow for every model (setup: parse, generate, verify,
  /// verify --rtl), then Explore + CompileWinner per model (tune).
  /// Ops: the setup and each model's tune.
  TuneSession RunSession(Outcome& out) {
    TuneSession result;
    out.attempted += 1 + static_cast<std::int64_t>(models_.size());
    const Clock::time_point start = Clock::now();
    std::vector<std::unique_ptr<db::Network>> nets;
    {
      ScopedSpan setup(spans_, "setup");
      for (const ZooModel m : models_) {
        db::DesignConstraint constraint;
        {
          ScopedSpan span(spans_, "frontend.parse");
          nets.push_back(std::make_unique<db::Network>(db::Network::Build(
              db::ParseNetworkDef(db::ZooModelPrototxt(m)))));
          constraint = db::ParseConstraint(std::string());
        }
        const db::AcceleratorDesign design = [&] {
          ScopedSpan span(spans_, "core.generate");
          return db::GenerateAccelerator(*nets.back(), constraint);
        }();
        {
          ScopedSpan span(spans_, "analysis.verify");
          if (!db::analysis::VerifyDesign(*nets.back(), design).ok())
            out.Fail(1, "VerifyDesign reported errors");
        }
        {
          ScopedSpan span(spans_, "analysis.verify_rtl");
          if (!db::analysis::VerifyRtl(design.rtl).ok())
            out.Fail(1, "VerifyRtl reported errors");
        }
      }
    }
    result.setup_s = SecondsSince(start);

    const Clock::time_point tune_start = Clock::now();
    std::vector<db::dse::TuneResult> results;
    {
      ScopedSpan tune(spans_, "tune");
      for (std::size_t i = 0; i < models_.size(); ++i)
        results.push_back(TuneModel(*nets[i], constraint_,
                                    db::ZooModelName(models_[i]), spans_));
    }
    result.tune_s = SecondsSince(tune_start);

    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].ToJson() != reports_[i])
        out.Fail(1, "Explore report for " + db::ZooModelName(models_[i]) +
                        " differs from the jobs=1 run");
      result.counts.scored +=
          static_cast<std::int64_t>(results[i].CountWithStatus(
              db::dse::CandidateResult::Status::kScored));
      result.counts.candidates +=
          static_cast<std::int64_t>(results[i].candidates.size());
    }
    result.wall_s = SecondsSince(start);
    return result;
  }

 private:
  std::vector<ZooModel> models_;
  SpanRecorder& spans_;
  db::DesignConstraint constraint_;
  std::vector<std::unique_ptr<db::Network>> nets_;
  std::vector<std::string> reports_;  // jobs=1 Explore JSON per model
};

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw db::Error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload")
      args.workload = value;
    else if (flag == "--seed")
      args.seed = std::stoull(value);
    else if (flag == "--seconds")
      args.seconds = std::stod(value);
    else if (flag == "--trace")
      args.trace = value == "1";
    else if (flag == "--trace-out")
      args.trace_out = value;
    else
      throw db::Error("unknown argument " + flag);
  }
  return args;
}

/// Repeat `session` while another one of the last one's length still
/// fits in `args.seconds` of wall time, and at least `min_sessions`
/// times.  A traced run alternates untraced (even) and traced (odd)
/// sessions, so trace.overhead compares like with like, and stops after
/// two of each to bound the trace's size.  An exception ends the loop
/// as one failed op.
template <typename Session>
void RunSessions(const Args& args, int min_sessions, SpanRecorder& spans,
                 Outcome& out, const std::function<Session()>& session,
                 std::vector<Session>& untraced,
                 std::vector<Session>& traced) {
  const int min_total = args.trace ? 2 : min_sessions;
  const int max_total = args.trace ? 4 : 10000;
  const Clock::time_point start = Clock::now();
  double last_wall_s = 0.0;
  for (int n = 0;
       n < max_total && (n < min_total || SecondsSince(start) + last_wall_s <
                                              args.seconds);
       ++n) {
    const bool record = args.trace && n % 2 == 1;
    spans.Record(record, n);
    try {
      ResetPeakRss();
      Session s = session();
      s.peak_rss_mb = PeakRssMb();
      last_wall_s = s.wall_s;
      (record ? traced : untraced).push_back(s);
    } catch (const std::exception& e) {
      out.Fail(1, e.what());
      break;
    }
    spans.Record(false, -1);
  }
  spans.Record(false, -1);
}

template <typename Session>
void CheckRepeats(const std::vector<Session>& a,
                  const std::vector<Session>& b, Outcome& out) {
  std::vector<const Session*> all;
  for (const Session& s : a) all.push_back(&s);
  for (const Session& s : b) all.push_back(&s);
  for (const Session* s : all)
    if (!(s->counts == all.front()->counts)) {
      out.Fail(1, "simulated counts differ between sessions of one seed");
      return;
    }
}

/// Ops per second over the summed timed windows of `sessions`.
template <typename Session>
double Throughput(const std::vector<Session>& sessions,
                  const std::function<double(const Session&)>& ops,
                  const std::function<double(const Session&)>& seconds) {
  double total_ops = 0.0, total_s = 0.0;
  for (const Session& s : sessions) {
    total_ops += ops(s);
    total_s += seconds(s);
  }
  return total_s > 0 ? total_ops / total_s : 0.0;
}

template <typename Session>
double MedianOf(const std::vector<Session>& sessions,
                const std::function<double(const Session&)>& f) {
  std::vector<double> v;
  for (const Session& s : sessions) v.push_back(f(s));
  return Median(v);
}

/// Per-layer metrics shared by every workload.  `serving` tells whether
/// setup ends in a server constructor, whose probed parts then stand in
/// for it in trace.setup_coverage.
void AddLayerMetrics(const SpanStats& st, bool serving, double image_mb,
                     const ServeCounts& serve, std::int64_t scored,
                     std::int64_t candidates, double overhead, Outcome& out) {
  auto ms = [&](const char* name) { return st.PerSessionMs(name); };
  out.Add("frontend.parse_ms", ms("frontend.parse"), "ms");
  out.Add("core.generate_ms", ms("core.generate"), "ms");
  out.Add("analysis.verify_ms", ms("analysis.verify"), "ms");
  out.Add("analysis.verify_rtl_ms", ms("analysis.verify_rtl"), "ms");
  out.Add("sim.build_host_image_ms", ms("sim.build_host_image"), "ms");
  out.Add("sim.decode_weights_ms", ms("sim.decode_weights"), "ms");
  out.Add("sim.system_context_ms", ms("sim.system_context"), "ms");
  out.Add("sim.replicate_ms_per_replica", ms("sim.replicate") / kReplicas,
          "ms");
  out.Add("cluster.pool_ms", ms("cluster.pool"), "ms");
  out.Add("serve.server_ctor_ms", ms("serve.server_ctor"), "ms");
  out.Add("sim.image_mb", image_mb, "MB");
  out.Add("sim.run_ms_p50", Percentile(st.DurationsMs("sim.run"), 0.5),
          "ms");
  out.Add("sim.system_run_ms_p50",
          Percentile(st.DurationsMs("sim.system_run"), 0.5), "ms");
  const std::vector<double> submit = st.DurationsMs("serve.submit");
  out.Add("serve.submit_us_p50", 1000.0 * Percentile(submit, 0.5), "us");
  out.Add("serve.submit_us_p99", 1000.0 * Percentile(submit, 0.99), "us");
  out.Add("serve.drain_ms", ms("serve.drain"), "ms");
  out.Add("serve.mean_batch_size",
          serve.batches ? static_cast<double>(serve.ok) /
                              static_cast<double>(serve.batches)
                        : 0.0,
          "requests");
  out.Add("dse.explore_ms", st.PerSessionMs("dse.explore", true), "ms");
  out.Add("dse.evaluate_ms_p50",
          Percentile(st.DurationsMs("dse.evaluate"), 0.5), "ms");
  out.Add("dse.compile_winner_ms", ms("dse.compile_winner"), "ms");
  out.Add("sim.perf_model_ms", ms("sim.perf_model"), "ms");
  out.Add("dse.scored_ratio",
          candidates ? static_cast<double>(scored) /
                           static_cast<double>(candidates)
                     : 0.0,
          "ratio");
  const std::pair<const char*, std::int64_t> counts[] = {
      {"serve.batches", serve.batches},
      {"serve.ok", serve.ok},
      {"serve.shed", serve.shed},
      {"serve.deadline", serve.deadline},
      {"serve.faulted", serve.faulted},
      {"serve.makespan_cycles", serve.makespan},
      {"fault.injected", serve.injected},
      {"fault.retries", serve.retries},
      {"cluster.crashes", serve.crashes},
      {"cluster.hedges", serve.hedges},
      {"dse.scored", scored},
      {"dse.pruned", candidates - scored},
  };
  for (const auto& [name, value] : counts)
    out.Add(name, static_cast<double>(value),
            std::string(name).find("cycles") != std::string::npos
                ? "cycles"
                : "count");
  // Named share of set-up: the stages timed inside the sessions, with
  // the opaque server constructor replaced by its probed parts (image
  // build, pool, perf-model presimulation).
  double named = ms("frontend.parse") + ms("core.generate") +
                 ms("analysis.verify") + ms("analysis.verify_rtl");
  if (serving)
    named += ms("sim.build_host_image") + ms("cluster.pool") +
             ms("sim.perf_model");
  const double setup_ms = Median(st.DurationsMs("setup"));
  out.Add("trace.setup_coverage", setup_ms > 0 ? named / setup_ms : 0.0,
          "ratio");
  out.Add("trace.overhead", overhead, "ratio");
}

struct Workload {
  bool serving = true;
  ServeConfig serve;
  std::vector<ZooModel> tune_models;
  int min_sessions = 3;
};

Workload MakeWorkload(const std::string& name, bool smoke) {
  Workload w;
  if (name == "nin_serve") {
    w.serve.model = smoke ? ZooModel::kMnist : ZooModel::kNin;
    w.serve.requests = 24;
    w.min_sessions = 4;
  } else if (name == "fft_stream") {
    w.serve.model = ZooModel::kAnn0Fft;
    w.serve.requests = smoke ? 2000 : 100000;
    w.serve.batch = 8;
    w.serve.stream = true;
    w.serve.probe_runs = 1000;
  } else if (name == "zoo_tune") {
    w.serving = false;
    w.tune_models = smoke ? std::vector<ZooModel>{ZooModel::kCifar,
                                                  ZooModel::kMnist}
                          : std::vector<ZooModel>{ZooModel::kNin,
                                                  ZooModel::kAlexnet,
                                                  ZooModel::kCifar,
                                                  ZooModel::kMnist};
    // The small MNIST server that the traced run probes the serving
    // layers on (tuning itself serves nothing).
    w.serve.model = ZooModel::kMnist;
  } else {
    throw db::Error("unknown workload '" + name +
                    "' (nin_serve, fft_stream, zoo_tune)");
  }
  if (smoke) w.min_sessions = 1;
  return w;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload w = MakeWorkload(args.workload, args.smoke);
  if (InstrumentedBuild()) {
    std::fprintf(stderr,
                 "hostbench: refusing to time a sanitizer or coverage "
                 "build\n");
    return 2;
  }
  const std::vector<std::pair<std::string, std::string>> context = {
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"build_type", HOSTBENCH_BUILD_TYPE},
      {"kernel_backend",
       db::sim::KernelBackendName(db::sim::ActiveKernelBackend())},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"trace", args.trace ? "1" : "0"},
      {"smoke", args.smoke ? "1" : "0"},
  };
  // The result line's keys are fixed, so the run context rides on the
  // line before it (and in the trace's otherData).
  std::printf("context:");
  for (const auto& [key, value] : context)
    std::printf(" %s=%s", key.c_str(), value.c_str());
  std::printf("\n");

  SpanRecorder spans;
  Outcome out;
  if (w.serving) {
    ServingBench bench(w.serve, args.seed, spans);
    std::vector<ServeSession> plain, traced;
    RunSessions<ServeSession>(
        args, w.min_sessions, spans, out,
        [&] { return bench.RunSession(out); }, plain, traced);
    CheckRepeats(plain, traced, out);
    const ServeCounts counts =
        !plain.empty() ? plain.front().counts : ServeCounts{};
    if (!args.trace) {
      const double setup_s = MedianOf<ServeSession>(
          plain, [](const ServeSession& s) { return s.setup_s; });
      const double serve_rps = Throughput<ServeSession>(
          plain,
          [](const ServeSession& s) {
            return static_cast<double>(s.counts.ok);
          },
          [](const ServeSession& s) { return s.serve_s; });
      out.Add("setup_s", setup_s, "s");
      out.Add("ops_per_s", serve_rps, "1/s");
      out.Add("peak_rss_mb",
              MedianOf<ServeSession>(
                  plain, [](const ServeSession& s) { return s.peak_rss_mb; }),
              "MB");
      std::printf(
          "%s: %zu sessions, setup_s %.4f s, serve_rps %.2f 1/s, "
          "peak_rss_mb %.1f MB, ops %lld, ops_failed %lld\n",
          args.workload.c_str(), plain.size(), setup_s, serve_rps,
          out.metrics.back().value, static_cast<long long>(out.attempted),
          static_cast<long long>(out.failed));
    } else {
      // Every per-layer metric is printed on every workload, so the
      // traced run also tunes the served model, its Explore report
      // checked against a jobs=1 run like zoo_tune's.
      TuneBench tuner({w.serve.model}, spans);
      double image_mb = 0.0;
      TuneSession tuned;
      spans.Record(true, -1);
      try {
        image_mb = bench.Probe(out);
        tuned = tuner.RunSession(out);
        ProbeDse(tuner.nets(), tuner.constraint(), spans, out);
      } catch (const std::exception& e) {
        out.Fail(1, std::string("probe: ") + e.what());
      }
      spans.Record(false, -1);
      const double overhead =
          MedianOf<ServeSession>(
              traced, [](const ServeSession& s) { return s.wall_s; }) /
          MedianOf<ServeSession>(
              plain, [](const ServeSession& s) { return s.wall_s; });
      AddLayerMetrics(SpanStats(spans), true, image_mb, counts,
                      tuned.counts.scored, tuned.counts.candidates, overhead,
                      out);
    }
  } else {
    TuneBench bench(w.tune_models, spans);
    std::vector<TuneSession> plain, traced;
    RunSessions<TuneSession>(
        args, w.min_sessions, spans, out,
        [&] { return bench.RunSession(out); }, plain, traced);
    CheckRepeats(plain, traced, out);
    const std::int64_t models =
        static_cast<std::int64_t>(w.tune_models.size());
    if (!args.trace) {
      const double setup_s = MedianOf<TuneSession>(
          plain, [](const TuneSession& s) { return s.setup_s; });
      const double tuned_per_s = Throughput<TuneSession>(
          plain,
          [&](const TuneSession&) { return static_cast<double>(models); },
          [](const TuneSession& s) { return s.tune_s; });
      out.Add("setup_s", setup_s, "s");
      out.Add("ops_per_s", tuned_per_s, "1/s");
      out.Add("peak_rss_mb",
              MedianOf<TuneSession>(
                  plain, [](const TuneSession& s) { return s.peak_rss_mb; }),
              "MB");
      std::printf(
          "%s: %zu sessions, setup_s %.4f s, tune_s %.4f s, "
          "peak_rss_mb %.1f MB, ops %lld, ops_failed %lld\n",
          args.workload.c_str(), plain.size(), setup_s,
          static_cast<double>(models) / tuned_per_s,
          out.metrics.back().value, static_cast<long long>(out.attempted),
          static_cast<long long>(out.failed));
    } else {
      // Likewise the serving layers, on a small MNIST server.
      ServingBench server_probe(w.serve, args.seed, spans);
      ServeSession served;
      double image_mb = 0.0;
      spans.Record(true, -1);
      try {
        ProbeDse(bench.nets(), bench.constraint(), spans, out);
        served = server_probe.RunSession(out);
        image_mb = server_probe.Probe(out);
      } catch (const std::exception& e) {
        out.Fail(1, std::string("probe: ") + e.what());
      }
      spans.Record(false, -1);
      const double overhead =
          MedianOf<TuneSession>(
              traced, [](const TuneSession& s) { return s.wall_s; }) /
          MedianOf<TuneSession>(
              plain, [](const TuneSession& s) { return s.wall_s; });
      const TuneCounts counts =
          !plain.empty() ? plain.front().counts : TuneCounts{};
      AddLayerMetrics(SpanStats(spans), false, image_mb, served.counts,
                      counts.scored, counts.candidates, overhead, out);
    }
  }

  if (args.trace && !args.trace_out.empty()) {
    std::ofstream file(args.trace_out);
    file << spans.ToChromeTrace(context);
    if (!file) out.Fail(0, "cannot write " + args.trace_out);
    std::printf("trace: %zu spans written to %s\n", spans.spans().size(),
                args.trace_out.c_str());
  }
  for (const std::string& p : out.problems)
    std::fprintf(stderr, "hostbench: FAILED: %s\n", p.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", out.metrics[i].name.c_str(),
                out.metrics[i].value, out.metrics[i].unit.c_str());
  std::printf("}}\n");
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  try {
    return hostbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 2;
  }
}
