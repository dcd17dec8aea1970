// Tests for src/analysis: the diagnostics engine's canonical rendering,
// the whole-design static verifier (clean designs verify clean, each
// BreakRule corruption trips exactly its rule), the seeded mutation
// sweep against the functional simulator (the verifier must catch what
// dynamic execution would catch), and the design cache's verify-on-load
// rejection of corrupted-but-decodable entries.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/testing_mutations.h"
#include "analysis/verifier.h"
#include "cluster/design_cache.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/design_serde.h"
#include "core/generator.h"
#include "core/range_profiler.h"
#include "frontend/network_def.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "obs/metrics.h"
#include "sim/functional_sim.h"

namespace db {
namespace {

using analysis::AnalysisReport;
using analysis::Diagnostic;
using analysis::Severity;

// --------------------------------------------------------- diagnostics

TEST(Diagnostics, RendersCanonicalOrderRegardlessOfInsertion) {
  AnalysisReport a;
  a.Add(Severity::kNote, "mem.layout", "mem/region:1", "n");
  a.Add(Severity::kWarning, "lut.domain", "lut/sigmoid", "w");
  a.Add(Severity::kError, "sched.hazard", "schedule/step:4", "e2");
  a.Add(Severity::kError, "agu.bounds", "agu/pattern:0", "e1");

  AnalysisReport b;  // same findings, reversed insertion order
  b.Add(Severity::kError, "agu.bounds", "agu/pattern:0", "e1");
  b.Add(Severity::kError, "sched.hazard", "schedule/step:4", "e2");
  b.Add(Severity::kWarning, "lut.domain", "lut/sigmoid", "w");
  b.Add(Severity::kNote, "mem.layout", "mem/region:1", "n");

  EXPECT_EQ(a.ToText(), b.ToText());
  EXPECT_EQ(a.ToJson(), b.ToJson());
  const std::string text = a.ToText();
  // Errors first (rule-sorted), then the warning, then the note.
  EXPECT_LT(text.find("error[agu.bounds]"), text.find("error[sched.hazard]"));
  EXPECT_LT(text.find("error[sched.hazard]"), text.find("warning[lut.domain]"));
  EXPECT_LT(text.find("warning[lut.domain]"), text.find("note[mem.layout]"));
  EXPECT_NE(text.find("verdict: ILLEGAL (2 error(s), 1 warning(s))"),
            std::string::npos);
}

TEST(Diagnostics, CountsAndVerdict) {
  AnalysisReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_NE(report.ToText().find("verdict: clean"), std::string::npos);
  report.Add(Severity::kWarning, "res.budget", "resources", "tight");
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.WarningCount(), 1);
  report.Add(Severity::kError, "res.budget", "resources", "over");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.ErrorCount(), 1);
  EXPECT_TRUE(report.HasRule("res.budget"));
  EXPECT_FALSE(report.HasRule("agu.bounds"));
}

TEST(Diagnostics, JsonEscapesControlAndQuoteCharacters) {
  AnalysisReport report;
  report.Add(Severity::kError, "mem.layout", "mem/region:0",
             "name \"a\\b\"\nwraps");
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\\\"a\\\\b\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
}

// ------------------------------------------------------------ fixture

// One generated design shared by the verifier tests.  Cifar exercises
// every artifact the rules inspect: conv/pool/softmax layers, all three
// AGU roles, a multi-step schedule and Approx LUT specs (exp + recip).
struct VerifierFixture {
  VerifierFixture()
      : net(BuildZooModel(ZooModel::kCifar)),
        design(GenerateAccelerator(net, DbConstraint())) {}

  Network net;
  AcceleratorDesign design;
};

VerifierFixture& Fixture() {
  static VerifierFixture* fixture = new VerifierFixture;
  return *fixture;
}

// ------------------------------------------------------------ verifier

TEST(Verifier, CleanDesignHasNoFindings) {
  VerifierFixture& fx = Fixture();
  const AnalysisReport report = analysis::VerifyDesign(fx.net, fx.design);
  EXPECT_TRUE(report.ok()) << report.ToText();
  EXPECT_EQ(report.WarningCount(), 0) << report.ToText();
}

TEST(Verifier, EveryZooModelGeneratesClean) {
  // GenerateAccelerator itself gates on error diagnostics, so reaching
  // VerifyDesign at all proves the gate passed; the explicit re-check
  // pins the zero-error contract for every shipped model.
  for (ZooModel model : AllZooModels()) {
    const Network net = BuildZooModel(model);
    const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
    const AnalysisReport report = analysis::VerifyDesign(net, design);
    EXPECT_EQ(report.ErrorCount(), 0)
        << ZooModelName(model) << "\n" << report.ToText();
  }
}

TEST(Verifier, ReportIsByteStableAcrossRuns) {
  VerifierFixture& fx = Fixture();
  AcceleratorDesign broken = fx.design;
  analysis::BreakRule(broken, analysis::kRuleMemLayout);
  const AnalysisReport first = analysis::VerifyDesign(fx.net, broken);
  const AnalysisReport second = analysis::VerifyDesign(fx.net, broken);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.ToText(), second.ToText());
  EXPECT_EQ(first.ToJson(), second.ToJson());
}

TEST(Verifier, OversizedWeightRegionTripsMemLayout) {
  // A weight region holding more than its layer's parameters (plus port
  // padding) would decode trailing garbage — the static mem.layout rule
  // must flag the map DecodeWeights would reject at load time.
  VerifierFixture& fx = Fixture();
  AcceleratorDesign broken = fx.design;
  const std::int64_t align =
      broken.config.memory_port_elems *
      static_cast<std::int64_t>(broken.config.ElementBytes());
  std::vector<MemoryRegion> regions = broken.memory_map.regions();
  bool grown = false;
  for (MemoryRegion& r : regions) {
    if (grown) r.base += align;
    if (!grown && r.name.rfind("weights:", 0) == 0) {
      r.bytes += align;
      grown = true;
    }
  }
  ASSERT_TRUE(grown);
  broken.memory_map = MemoryMap::FromRegions(std::move(regions));
  const AnalysisReport report = analysis::VerifyDesign(fx.net, broken);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule(analysis::kRuleMemLayout))
      << report.ToText();
}

TEST(Verifier, UndersizedWeightRegionTripsMemLayout) {
  VerifierFixture& fx = Fixture();
  AcceleratorDesign broken = fx.design;
  const std::int64_t align =
      broken.config.memory_port_elems *
      static_cast<std::int64_t>(broken.config.ElementBytes());
  std::vector<MemoryRegion> regions = broken.memory_map.regions();
  bool shrunk = false;
  for (MemoryRegion& r : regions) {
    if (shrunk) r.base -= align;
    if (!shrunk && r.name.rfind("weights:", 0) == 0) {
      r.bytes -= align;
      shrunk = true;
    }
  }
  ASSERT_TRUE(shrunk);
  broken.memory_map = MemoryMap::FromRegions(std::move(regions));
  const AnalysisReport report = analysis::VerifyDesign(fx.net, broken);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule(analysis::kRuleMemLayout))
      << report.ToText();
}

class BrokenRuleSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(BrokenRuleSweep, TripsExactlyItsOwnRule) {
  VerifierFixture& fx = Fixture();
  AcceleratorDesign broken = fx.design;
  analysis::BreakRule(broken, GetParam());
  const AnalysisReport report = analysis::VerifyDesign(fx.net, broken);
  ASSERT_FALSE(report.ok()) << report.ToText();
  EXPECT_TRUE(report.HasRule(GetParam())) << report.ToText();
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.severity != Severity::kError) continue;
    EXPECT_EQ(d.rule, GetParam()) << report.ToText();
  }
}

TEST_P(BrokenRuleSweep, CorruptionSurvivesSerdeRoundTrip) {
  // The cache's verify-on-load depends on BreakRule staying inside the
  // serde value domain: the corrupted field must decode unchanged.
  VerifierFixture& fx = Fixture();
  AcceleratorDesign broken = fx.design;
  analysis::BreakRule(broken, GetParam());
  const AcceleratorDesign decoded =
      DeserializeDesign(SerializeDesign(broken));
  const AnalysisReport report = analysis::VerifyDesign(fx.net, decoded);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule(GetParam())) << report.ToText();
}

INSTANTIATE_TEST_SUITE_P(AllRules, BrokenRuleSweep,
                         ::testing::ValuesIn(analysis::BreakableRules()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '.') c = '_';
                           return name;
                         });

TEST(Verifier, NeverThrowsOnStructurallyEmptyDesign) {
  // A design with none of its artifacts populated must produce error
  // diagnostics, not exceptions (VerifyDesign's no-throw contract).
  VerifierFixture& fx = Fixture();
  AcceleratorDesign empty;
  const AnalysisReport report = analysis::VerifyDesign(fx.net, empty);
  EXPECT_FALSE(report.ok());
}

// ----------------------------------------------- seeded mutation sweep

// One single-field corruption site; `corrupt` draws the wild value from
// the sweep's seeded Rng so reruns are deterministic.
struct MutationSite {
  std::string name;
  std::function<void(AcceleratorDesign&, Rng&)> corrupt;
  /// Only the control path reads the field: the simulator cannot notice
  /// the corruption, so the verifier must catch every draw.
  bool structural = false;
};

FixedFormat RandomFormat(Rng& rng, const FixedFormat& avoid) {
  for (;;) {
    const int total = 8 + static_cast<int>(rng.UniformInt(25));  // [8,32]
    const int frac = static_cast<int>(
        rng.UniformInt(static_cast<std::uint64_t>(total)));
    const FixedFormat format(total, frac);
    if (!(format == avoid)) return format;
  }
}

std::vector<MutationSite> BuildMutationSites(const AcceleratorDesign& design) {
  std::vector<MutationSite> sites;
  // -- fields the functional simulator executes through ---------------
  sites.push_back({"config.format", [](AcceleratorDesign& d, Rng& rng) {
                     d.config.format = RandomFormat(rng, d.config.format);
                   }});
  for (std::size_t i = 0; i < design.lut_specs.size(); ++i) {
    const std::string fn = LutFunctionName(design.lut_specs[i].function);
    sites.push_back({"lut[" + fn + "].format",
                     [i](AcceleratorDesign& d, Rng& rng) {
                       d.lut_specs[i].format =
                           RandomFormat(rng, d.lut_specs[i].format);
                     }});
    sites.push_back({"lut[" + fn + "].in_min",
                     [i](AcceleratorDesign& d, Rng& rng) {
                       d.lut_specs[i].in_min = rng.Uniform(-24.0, 24.0);
                     }});
    sites.push_back({"lut[" + fn + "].in_max",
                     [i](AcceleratorDesign& d, Rng& rng) {
                       d.lut_specs[i].in_max = rng.Uniform(-24.0, 24.0);
                     }});
    sites.push_back({"lut[" + fn + "].entries",
                     [i](AcceleratorDesign& d, Rng& rng) {
                       d.lut_specs[i].entries =
                           1 + static_cast<std::int64_t>(
                                   rng.UniformInt(1023));
                     }});
  }
  // -- structural fields only the control path reads ------------------
  const std::size_t first_structural = sites.size();
  sites.push_back({"agu.y_length", [](AcceleratorDesign& d, Rng& rng) {
                     d.agu_program.patterns.front().y_length +=
                         1 + static_cast<std::int64_t>(rng.UniformInt(4));
                   }});
  sites.push_back({"mem.region.bytes", [](AcceleratorDesign& d, Rng& rng) {
                     std::vector<MemoryRegion> regions =
                         d.memory_map.regions();
                     regions.front().bytes +=
                         1 + static_cast<std::int64_t>(rng.UniformInt(64));
                     d.memory_map = MemoryMap::FromRegions(std::move(regions));
                   }});
  sites.push_back({"run.segments", [](AcceleratorDesign& d, Rng& rng) {
                     auto& runs = d.schedule.runs;
                     runs[rng.UniformInt(runs.size())].segments +=
                         1 + static_cast<std::int64_t>(rng.UniformInt(4));
                   }});
  sites.push_back({"fold.parallel_units", [](AcceleratorDesign& d, Rng& rng) {
                     LayerFold& fold = d.fold_plan.folds.front();
                     fold.parallel_units +=
                         1 + static_cast<std::int64_t>(rng.UniformInt(8));
                   }});
  sites.push_back({"buffer.ping.bytes", [](AcceleratorDesign& d, Rng& rng) {
                     d.buffer_plan.entries.front().ping.bytes +=
                         d.buffer_plan.data_buffer_bytes +
                         static_cast<std::int64_t>(rng.UniformInt(64));
                   }});
  sites.push_back({"resources.total.lut", [](AcceleratorDesign& d, Rng& rng) {
                     d.resources.total.lut +=
                         1 + static_cast<std::int64_t>(rng.UniformInt(100));
                   }});
  for (std::size_t i = first_structural; i < sites.size(); ++i)
    sites[i].structural = true;
  return sites;
}

TEST(MutationSweep, VerifierCatchesWhatTheSimulatorCatches) {
  const Network net = BuildZooModel(ZooModel::kCifar);
  Rng weight_rng(21);
  const WeightStore weights = WeightStore::CreateRandom(net, weight_rng);
  const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());

  // Calibration inputs feed both the range profiler (the verifier's
  // saturation checks) and the execution comparison.
  const BlobShape in_shape = net.layer(net.input_ids().front()).output_shape;
  std::vector<Tensor> calib;
  for (int i = 0; i < 2; ++i) {
    Tensor t(Shape{in_shape.channels, in_shape.height, in_shape.width});
    Rng in_rng(static_cast<std::uint64_t>(i) + 900);
    t.FillUniform(in_rng, 0.0f, 1.0f);
    for (std::int64_t j = 0; j < t.size(); ++j)
      t[j] = static_cast<float>(design.config.format.RoundTrip(t[j]));
    calib.push_back(t);
  }
  const RangeProfile profile = ProfileRanges(net, weights, calib);
  analysis::VerifyOptions options;
  options.ranges = &profile;

  // "Mis-executes" uses the repo's own correctness criterion: the
  // fixed-point output must track the float reference within the Cifar
  // tolerance from functional_sim_test.  The unmutated design does.
  const Tensor& input = calib.front();
  const Tensor reference = Executor(net, weights).ForwardOutput(input);
  const double tolerance = 0.10;
  {
    FunctionalSimulator sim(net, design, weights);
    ASSERT_LT(MaxAbsDiff(sim.Run(input), reference), tolerance);
  }

  const std::vector<MutationSite> sites = BuildMutationSites(design);
  int detected_by_sim = 0;
  int caught_of_detected = 0;
  int caught_total = 0;
  int trials = 0;
  std::string misses;
  constexpr int kDrawsPerSite = 3;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    for (int draw = 0; draw < kDrawsPerSite; ++draw) {
      Rng rng(7000 + 17 * static_cast<std::uint64_t>(s) +
              static_cast<std::uint64_t>(draw));
      AcceleratorDesign mutated = design;
      sites[s].corrupt(mutated, rng);
      ++trials;

      bool sim_detects = false;
      try {
        const FunctionalSimulator sim(net, mutated, weights);
        sim_detects = MaxAbsDiff(sim.Run(input), reference) > tolerance;
      } catch (const std::exception&) {
        sim_detects = true;  // the simulator rejected the design outright
      }

      const AnalysisReport report =
          analysis::VerifyDesign(net, mutated, options);
      const bool caught = report.ErrorCount() + report.WarningCount() > 0;
      if (caught) ++caught_total;
      if (sites[s].structural) {
        EXPECT_TRUE(caught) << sites[s].name << " draw " << draw;
      }
      if (sim_detects) {
        ++detected_by_sim;
        if (caught)
          ++caught_of_detected;
        else
          misses += sites[s].name + " draw " + std::to_string(draw) + "\n";
      }
    }
  }

  std::cout << "mutation sweep: " << trials << " corruptions, "
            << detected_by_sim << " disturbed execution, verifier caught "
            << caught_of_detected << " of those (" << caught_total
            << " overall)\n";
  // The denominator must be meaningful: a sweep where the simulator
  // never noticed anything would vacuously pass.
  ASSERT_GE(detected_by_sim, 10)
      << "only " << detected_by_sim << " of " << trials
      << " corruptions disturbed execution";
  // The acceptance bar: >= 90% of the corruptions dynamic execution
  // would catch are already caught statically.
  EXPECT_GE(10 * caught_of_detected, 9 * detected_by_sim)
      << "caught " << caught_of_detected << "/" << detected_by_sim
      << "; missed:\n" << misses;
  // Structural corruptions are invisible to the functional simulator by
  // construction; the verifier is the only line of defence there.
  EXPECT_GT(caught_total, caught_of_detected);
}

// ------------------------------------------------ cache verify-on-load

TEST(DesignCacheVerify, RejectsCorruptedButDecodableEntry) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "db_verify_cache";
  std::filesystem::remove_all(dir);

  const NetworkDef def = ParseNetworkDef(ZooModelPrototxt(ZooModel::kCifar));
  const Network net = Network::Build(def);
  const DesignConstraint constraint = DbConstraint();
  const cluster::DesignKey key = cluster::MakeDesignKey(def, constraint);

  obs::MetricsRegistry metrics;
  cluster::DesignCache::Options options;
  options.directory = dir.string();
  options.metrics = &metrics;

  AcceleratorDesign design = GenerateAccelerator(net, constraint);
  {
    cluster::DesignCache cache(options);
    cache.Insert(key, design);
  }

  // Corrupt the persisted entry *past* the serde framing: re-encode a
  // single-field corruption under the same canonical key, so length
  // checks, the canonical comparison and DeserializeDesign all pass.
  analysis::BreakRule(design, analysis::kRuleAguBounds);
  std::string bytes;
  for (int i = 0; i < 8; ++i)
    bytes.push_back(static_cast<char>((key.canonical.size() >> (8 * i)) &
                                      0xff));
  bytes += key.canonical;
  bytes += SerializeDesign(design);
  const std::filesystem::path entry =
      dir / (cluster::DesignKeyHex(key) + ".design");
  ASSERT_TRUE(std::filesystem::exists(entry));
  std::ofstream(entry, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  // A fresh process (new cache, same directory) must treat the entry as
  // a miss — never serve the illegal design into an accelerator pool.
  cluster::DesignCache cold(options);
  EXPECT_EQ(cold.Lookup(key), nullptr);
  EXPECT_EQ(metrics.CounterValue("cluster.cache.verify_reject"), 1);
  EXPECT_EQ(cold.stats().misses, 1);
  EXPECT_EQ(cold.stats().disk_hits, 0);

  // GetOrGenerate regenerates, and the replacement verifies clean.
  const auto regenerated = cold.GetOrGenerate(key, net, constraint);
  ASSERT_NE(regenerated, nullptr);
  EXPECT_TRUE(analysis::VerifyDesign(net, *regenerated).ok());

  // The rebuilt entry overwrote the corrupted file: another cold cache
  // now disk-hits without a rejection.
  obs::MetricsRegistry metrics2;
  options.metrics = &metrics2;
  cluster::DesignCache warm(options);
  EXPECT_NE(warm.Lookup(key), nullptr);
  EXPECT_EQ(metrics2.CounterValue("cluster.cache.verify_reject"), 0);
  EXPECT_EQ(warm.stats().disk_hits, 1);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace db
