// Byte-level oracle for the static design verifier and the DSE explorer
// (`ctest -L differential`).
//
// The analysis suite checks which rules fire; this file pins the full
// report text.  It records FNV-1a digests of VerifyDesign(...).ToText()
// for every zoo model's stock design, for every zoo model under every
// BreakRule corruption, and under hand-made corruptions of the
// coordinator program, fold plan, AGU program and crossbar settings
// (second runs of one layer, unknown or doubly armed patterns, wrong
// segment counts, swapped runs, broken producer chains, out-of-range
// ports, unknown layer ids), plus a table of the rule ids each of those
// corruptions fires per model.  It also pins the jobs=1 Explore report
// of every zoo model over the default sweep.  A mismatch means a
// diagnostic, a pruning decision or a report byte changed; the digests
// are not to be re-recorded to make a rewrite pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/testing_mutations.h"
#include "analysis/verifier.h"
#include "common/hash.h"
#include "core/generator.h"
#include "dse/explorer.h"
#include "frontend/constraint.h"
#include "models/zoo.h"

namespace db {
namespace {

std::string Hex(std::uint64_t digest) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << digest;
  return os.str();
}

/// Every zoo model with its stock design, built once.
struct ZooDesign {
  ZooModel model;
  Network net;
  AcceleratorDesign design;
};

const std::vector<ZooDesign>& StockDesigns() {
  static const std::vector<ZooDesign>* designs = [] {
    auto* out = new std::vector<ZooDesign>;
    for (const ZooModel model : AllZooModels()) {
      Network net = BuildZooModel(model);
      AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
      out->push_back({model, std::move(net), std::move(design)});
    }
    return out;
  }();
  return *designs;
}

std::string ReportText(const Network& net, const AcceleratorDesign& design) {
  return analysis::VerifyDesign(net, design).ToText();
}

/// Apply `corrupt` to a copy of every zoo model's stock design and chain
/// the digests of the verifier reports, in zoo order.  A corruption that
/// does not apply to a model (it returns false) folds a fixed marker in
/// instead, so the set of models it applies to is pinned as well.
std::uint64_t ChainedDigest(
    const std::function<bool(AcceleratorDesign&)>& corrupt) {
  std::uint64_t digest = kFnvOffsetBasis;
  for (const ZooDesign& zd : StockDesigns()) {
    AcceleratorDesign broken = zd.design;
    digest = corrupt(broken) ? Fnv1a64(ReportText(zd.net, broken), digest)
                             : Fnv1a64("n/a", digest);
  }
  return digest;
}

/// A hand-made corruption.  The names date from the per-segment schedule
/// (one step and one crossbar setting per segment) and are kept, so each
/// row of the rule-id table names the same corruption, translated to the
/// per-layer runs.
struct Corruption {
  const char* name;
  std::function<bool(AcceleratorDesign&)> apply;
};

std::vector<Corruption> HandMadeCorruptions() {
  return {
      {"duplicate_event_from_earlier_layer",
       [](AcceleratorDesign& d) {
         // A second run of the first layer replays it at the end.
         auto& runs = d.schedule.runs;
         if (runs.size() < 2) return false;
         runs.push_back(runs.front());
         return true;
       }},
      {"duplicate_event_from_later_layer",
       [](AcceleratorDesign& d) {
         // A second run of the last layer comes first; the layer's own
         // run follows and must still be reported.
         auto& runs = d.schedule.runs;
         if (runs.size() < 2) return false;
         runs.insert(runs.begin(), runs.back());
         return true;
       }},
      {"unknown_pattern_id",
       [](AcceleratorDesign& d) {
         d.schedule.runs.front().pattern_ids.push_back(999999);
         return true;
       }},
      {"pattern_armed_twice",
       [](AcceleratorDesign& d) {
         std::vector<int>& ids = d.schedule.runs.front().pattern_ids;
         if (ids.empty()) return false;
         ids.push_back(ids.front());
         return true;
       }},
      {"pattern_armed_by_other_layer",
       [](AcceleratorDesign& d) {
         auto& runs = d.schedule.runs;
         if (runs.size() < 2) return false;
         std::vector<int>& ids = runs.front().pattern_ids;
         if (ids.empty()) return false;
         runs.back().pattern_ids.push_back(ids.back());
         ids.pop_back();
         return true;
       }},
      {"duplicate_pattern_id",
       [](AcceleratorDesign& d) {
         auto& patterns = d.agu_program.patterns;
         if (patterns.size() < 2) return false;
         patterns.back().id = patterns.front().id;
         return true;
       }},
      {"repeated_segment",
       [](AcceleratorDesign& d) {
         // A multi-segment layer computes one segment twice.
         for (ScheduleRun& run : d.schedule.runs) {
           if (run.segments < 2) continue;
           run.segments += 1;
           return true;
         }
         return false;
       }},
      {"segment_out_of_range",
       [](AcceleratorDesign& d) {
         d.schedule.runs.back().segments += 5;
         return true;
       }},
      {"negative_segment",
       [](AcceleratorDesign& d) {
         d.schedule.runs.front().segments = -1;
         return true;
       }},
      {"missing_step",
       [](AcceleratorDesign& d) {
         auto& runs = d.schedule.runs;
         runs[runs.size() / 2].segments -= 1;
         return true;
       }},
      {"steps_swapped_across_layers",
       [](AcceleratorDesign& d) {
         auto& runs = d.schedule.runs;
         if (runs.size() < 2) return false;
         std::swap(runs[0], runs[1]);
         return true;
       }},
      {"broken_producer_chain",
       [](AcceleratorDesign& d) {
         auto& runs = d.schedule.runs;
         runs[runs.size() / 2].producer = DatapathPort::kAccumulator;
         return true;
       }},
      {"unknown_block_name",
       [](AcceleratorDesign& d) {
         // One past the last datapath port.
         d.schedule.runs.back().consumer = static_cast<DatapathPort>(
             static_cast<int>(DatapathPort::kConnectionBox) + 1);
         return true;
       }},
      {"unknown_layer_id",
       [](AcceleratorDesign& d) {
         d.schedule.runs.back().layer_id = 4242;
         return true;
       }},
      {"negative_layer_id",
       [](AcceleratorDesign& d) {
         d.schedule.runs.front().layer_id = -3;
         return true;
       }},
      {"layer_folded_twice",
       [](AcceleratorDesign& d) {
         LayerFold extra = d.fold_plan.folds.back();
         extra.segments += 1;
         d.fold_plan.folds.push_back(extra);
         return true;
       }},
      {"fold_with_huge_segment_count",
       [](AcceleratorDesign& d) {
         d.fold_plan.folds.front().segments = std::int64_t{1} << 40;
         return true;
       }},
  };
}

TEST(VerifierOracle, StockDesignReportDigests) {
  const std::uint64_t kGolden[] = {
      0x9e49340fa8a598dcull,  // ANN-0
      0x9e49340fa8a598dcull,  // ANN-1
      0x9e49340fa8a598dcull,  // ANN-2
      0x37f06253172e0a5dull,  // Hopfield
      0x9e49340fa8a598dcull,  // CMAC
      0x1720f7d50e3326deull,  // MNIST
      0x1e081b82d303e681ull,  // Alexnet
      0xe54155d8ccf2be06ull,  // NiN
      0xf0a0170a5d2d441dull,  // Cifar
  };
  const std::vector<ZooDesign>& zoo = StockDesigns();
  ASSERT_EQ(std::size(kGolden), zoo.size());
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    SCOPED_TRACE(ZooModelName(zoo[i].model));
    const std::uint64_t digest =
        Fnv1a64(ReportText(zoo[i].net, zoo[i].design));
    EXPECT_EQ(Hex(digest), Hex(kGolden[i]));
  }
}

TEST(VerifierOracle, BrokenRuleReportDigests) {
  struct Golden {
    const char* rule;
    std::uint64_t digest;
  };
  const Golden kGolden[] = {
      {"agu.bounds", 0xcba230856a55c01dull},
      {"mem.layout", 0xbf94491b520d8e32ull},
      {"sched.hazard", 0x3b4af1ddaf54cf28ull},
      {"fold.coverage", 0x9ae0af843e6cb301ull},
      {"buffer.capacity", 0x0f81b8527a53f8a5ull},
      {"conn.ports", 0xd79c08c92418faf9ull},
      {"lut.domain", 0x5d10719881ef364cull},
      {"res.budget", 0x98982bf6019467d0ull},
  };
  const std::vector<std::string> rules = analysis::BreakableRules();
  ASSERT_EQ(std::size(kGolden), rules.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    SCOPED_TRACE(rules[i]);
    ASSERT_EQ(rules[i], kGolden[i].rule);
    const std::uint64_t digest =
        ChainedDigest([&](AcceleratorDesign& d) {
          try {
            analysis::BreakRule(d, rules[i]);
          } catch (const std::exception&) {
            return false;  // the design lacks the artifact to corrupt
          }
          return true;
        });
    EXPECT_EQ(Hex(digest), Hex(kGolden[i].digest));
  }
}

TEST(VerifierOracle, HandMadeCorruptionDigests) {
  struct Golden {
    const char* name;
    std::uint64_t digest;
  };
  const Golden kGolden[] = {
      {"duplicate_event_from_earlier_layer", 0xb050b39348e47ac4ull},
      {"duplicate_event_from_later_layer", 0x03351b7820be47b1ull},
      {"unknown_pattern_id", 0x2b9c1cda1f811c32ull},
      {"pattern_armed_twice", 0x7bcf30b712035fbbull},
      {"pattern_armed_by_other_layer", 0x5bed346e40db36e4ull},
      {"duplicate_pattern_id", 0xb1adfe4e390f923full},
      {"repeated_segment", 0x38a68350d15f565full},
      {"segment_out_of_range", 0x41ec5ab8b63a5bdeull},
      {"negative_segment", 0x2c4daa857af67389ull},
      {"missing_step", 0xaa41f63c96e2c849ull},
      {"steps_swapped_across_layers", 0x213a0ab03d27caf0ull},
      {"broken_producer_chain", 0xb3bd8cd4304af360ull},
      {"unknown_block_name", 0x1ce89b375215e8ebull},
      {"unknown_layer_id", 0x2dfe4384b10ba892ull},
      {"negative_layer_id", 0xde0054c6e1b01624ull},
      {"layer_folded_twice", 0x43ca9f188ecfef1full},
      {"fold_with_huge_segment_count", 0x210938ea754ba682ull},
  };
  const std::vector<Corruption> corruptions = HandMadeCorruptions();
  ASSERT_EQ(std::size(kGolden), corruptions.size());
  for (std::size_t i = 0; i < corruptions.size(); ++i) {
    SCOPED_TRACE(corruptions[i].name);
    ASSERT_STREQ(corruptions[i].name, kGolden[i].name);
    EXPECT_EQ(Hex(ChainedDigest(corruptions[i].apply)),
              Hex(kGolden[i].digest));
  }
}

/// The error-severity rules a corruption fires on each zoo model, in zoo
/// order and separated by spaces.  A model's rules are spelled as one
/// letter each, in catalogue order (a = agu.bounds, m = mem.layout,
/// s = sched.hazard, f = fold.coverage, b = buffer.capacity,
/// c = conn.ports, l = lut.domain, r = res.budget); "-" marks a model
/// the corruption does not apply to.
std::string ErrorRuleTable(
    const std::function<bool(AcceleratorDesign&)>& corrupt) {
  const std::vector<std::string> rules = analysis::BreakableRules();
  const char kLetters[] = "amsfbclr";
  std::string table;
  for (const ZooDesign& zd : StockDesigns()) {
    if (!table.empty()) table += ' ';
    AcceleratorDesign broken = zd.design;
    if (!corrupt(broken)) {
      table += '-';
      continue;
    }
    const analysis::AnalysisReport report =
        analysis::VerifyDesign(zd.net, broken);
    for (std::size_t r = 0; r < rules.size(); ++r)
      for (const analysis::Diagnostic& d : report.diagnostics())
        if (d.severity == analysis::Severity::kError && d.rule == rules[r]) {
          table += kLetters[r];
          break;
        }
  }
  return table;
}

/// True when `fired` applies to the same models as `recorded` and fires
/// at least the recorded rules on each of them.
bool FiresRecordedRules(const std::string& fired,
                        const std::string& recorded) {
  std::istringstream fired_models(fired);
  std::istringstream recorded_models(recorded);
  std::string f;
  std::string r;
  while (recorded_models >> r) {
    if (!(fired_models >> f) || (f == "-") != (r == "-")) return false;
    for (char rule : r)
      if (rule != '-' && f.find(rule) == std::string::npos) return false;
  }
  return !(fired_models >> f);
}

// Which rules catch each corruption.  The digests above pin the exact
// report text; this table survives a change of message text, location
// or representation of the artifact a corruption edits, and requires
// that every rule recorded here still fires (extra rules may join).
TEST(VerifierOracle, ErrorRuleIdTable) {
  struct Row {
    const char* corruption;
    const char* rules;
  };
  const Row kTable[] = {
      {"BreakRule(agu.bounds)", "a a a a a a a a a"},
      {"BreakRule(mem.layout)", "m m m m m m m m m"},
      {"BreakRule(sched.hazard)", "s s s s s s s s s"},
      {"BreakRule(fold.coverage)", "f f f f f f f f f"},
      {"BreakRule(buffer.capacity)", "b b b b b b b b b"},
      {"BreakRule(conn.ports)", "c c c c c c c c c"},
      {"BreakRule(lut.domain)", "l l l l - l l l l"},
      {"BreakRule(res.budget)", "r r r r r r r r r"},
      {"duplicate_event_from_earlier_layer", "s s s - s s s s s"},
      {"duplicate_event_from_later_layer", "s s s - s s s s s"},
      {"unknown_pattern_id", "s s s s s s s s s"},
      {"pattern_armed_twice", "s s s s s s s s s"},
      {"pattern_armed_by_other_layer", "s s s - s s s s s"},
      {"duplicate_pattern_id", "s s s s s s s s s"},
      {"repeated_segment", "sf sf sf sf sf sf sf sf sf"},
      {"segment_out_of_range", "f f f f f f f f f"},
      {"negative_segment", "f f f f f f f f f"},
      {"missing_step", "sf sf sf sf sf sf sf sf sf"},
      {"steps_swapped_across_layers", "sc sc sc - sc sc sc sc sc"},
      {"broken_producer_chain", "sc sc sc sc sc sc sc sc sc"},
      {"unknown_block_name", "c c c c c c c c c"},
      {"unknown_layer_id", "sf sf sf sf f sf sf sf sf"},
      {"negative_layer_id", "sf sf sf sf sf sf sf sf sf"},
      {"layer_folded_twice", "fr fr fr fr fr fr fr fr fr"},
      {"fold_with_huge_segment_count", "f f f f f f f f f"},
  };
  struct Named {
    std::string name;
    std::function<bool(AcceleratorDesign&)> apply;
  };
  std::vector<Named> corruptions;
  for (const std::string& rule : analysis::BreakableRules())
    corruptions.push_back({"BreakRule(" + rule + ")",
                           [rule](AcceleratorDesign& d) {
                             try {
                               analysis::BreakRule(d, rule);
                             } catch (const std::exception&) {
                               return false;
                             }
                             return true;
                           }});
  for (const Corruption& c : HandMadeCorruptions())
    corruptions.push_back({c.name, c.apply});
  ASSERT_EQ(std::size(kTable), corruptions.size());
  for (std::size_t i = 0; i < corruptions.size(); ++i) {
    SCOPED_TRACE(corruptions[i].name);
    ASSERT_EQ(corruptions[i].name, kTable[i].corruption);
    const std::string fired = ErrorRuleTable(corruptions[i].apply);
    EXPECT_TRUE(FiresRecordedRules(fired, kTable[i].rules))
        << "fired \"" << fired << "\", recorded \"" << kTable[i].rules
        << "\"";
  }
}

TEST(VerifierOracle, ExploreReportDigests) {
  const std::uint64_t kGolden[] = {
      0xe529e35e32c2fd96ull,  // ANN-0
      0x0b9823e706fd08a2ull,  // ANN-1
      0xca56b4db1af6b07bull,  // ANN-2
      0x46fbee4ffd13f56cull,  // Hopfield
      0xe0b13ae4c5368926ull,  // CMAC
      0x1e8934b629ebfd74ull,  // MNIST
      0x508cdba697567c98ull,  // Alexnet
      0x2fe9703fdd470ab3ull,  // NiN
      0x78dfcd7056a3c996ull,  // Cifar
  };
  const std::vector<ZooModel> models = AllZooModels();
  ASSERT_EQ(std::size(kGolden), models.size());
  const DesignConstraint constraint = ParseConstraint(std::string());
  for (std::size_t i = 0; i < models.size(); ++i) {
    SCOPED_TRACE(ZooModelName(models[i]));
    const Network net = BuildZooModel(models[i]);
    dse::TuneOptions options;
    options.jobs = 1;
    const std::uint64_t digest =
        Fnv1a64(dse::Explore(net, constraint, options).ToJson());
    EXPECT_EQ(Hex(digest), Hex(kGolden[i]));
  }
}

}  // namespace
}  // namespace db
