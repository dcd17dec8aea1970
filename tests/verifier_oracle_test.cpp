// Byte-level oracle for the static design verifier and the DSE explorer
// (`ctest -L differential`).
//
// The analysis suite checks which rules fire; this file pins the full
// report text.  It records FNV-1a digests of VerifyDesign(...).ToText()
// for every zoo model's stock design, for every zoo model under every
// BreakRule corruption, and under hand-made corruptions of the schedule,
// fold-plan, AGU-program and crossbar paths (duplicate and mismatching
// events, unknown or doubly armed patterns, repeated or out-of-range
// segments, missing or reordered steps, broken producer chains, unknown
// blocks and layer ids).  It also pins the jobs=1 Explore report of
// every zoo model over the default sweep.  A mismatch means a
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

/// Canonical fold event of (layer, segment).
std::string EventFor(int layer_id, std::int64_t segment) {
  return "layer" + std::to_string(layer_id) + "_fold" +
         std::to_string(segment);
}

/// Rewrite step `i`'s event (and the crossbar setting mirroring it), so
/// only the schedule's own consistency is in question.
void SetEvent(AcceleratorDesign& d, std::size_t i, const std::string& event) {
  d.schedule.steps[i].event = event;
  if (i < d.connection_plan.settings.size())
    d.connection_plan.settings[i].event = event;
}

/// Index of the first step of the first layer with at least two steps,
/// or -1.
int FirstMultiSegmentStep(const AcceleratorDesign& d) {
  const auto& steps = d.schedule.steps;
  for (std::size_t i = 0; i + 1 < steps.size(); ++i)
    if (steps[i].layer_id == steps[i + 1].layer_id)
      return static_cast<int>(i);
  return -1;
}

/// Index of the first step whose layer differs from the last step's, or
/// -1 for a single-layer schedule.
int FirstStepOfOtherLayer(const AcceleratorDesign& d) {
  const auto& steps = d.schedule.steps;
  for (std::size_t i = 0; i < steps.size(); ++i)
    if (steps[i].layer_id != steps.back().layer_id)
      return static_cast<int>(i);
  return -1;
}

struct Corruption {
  const char* name;
  std::function<bool(AcceleratorDesign&)> apply;
};

std::vector<Corruption> HandMadeCorruptions() {
  return {
      {"duplicate_event_from_earlier_layer",
       [](AcceleratorDesign& d) {
         // The last step replays a matching event of another layer.
         const int j = FirstStepOfOtherLayer(d);
         if (j < 0) return false;
         SetEvent(d, d.schedule.steps.size() - 1,
                  d.schedule.steps[static_cast<std::size_t>(j)].event);
         return true;
       }},
      {"duplicate_event_from_later_layer",
       [](AcceleratorDesign& d) {
         // A mismatching event comes first; the matching step that owns
         // the string follows and must still be reported as a duplicate.
         if (FirstStepOfOtherLayer(d) < 0) return false;
         SetEvent(d, 0, d.schedule.steps.back().event);
         return true;
       }},
      {"event_segment_mismatch",
       [](AcceleratorDesign& d) {
         ScheduleStep& s = d.schedule.steps[d.schedule.steps.size() / 2];
         SetEvent(d, d.schedule.steps.size() / 2,
                  EventFor(s.layer_id, s.segment + 1000000));
         return true;
       }},
      {"event_not_a_fold_event",
       [](AcceleratorDesign& d) {
         SetEvent(d, d.schedule.steps.size() - 1, "layer7_fold");
         return true;
       }},
      {"unknown_pattern_id",
       [](AcceleratorDesign& d) {
         d.schedule.steps.front().pattern_ids.push_back(999999);
         return true;
       }},
      {"pattern_armed_twice",
       [](AcceleratorDesign& d) {
         std::vector<int>& ids = d.schedule.steps.front().pattern_ids;
         if (ids.empty()) return false;
         ids.push_back(ids.front());
         return true;
       }},
      {"pattern_armed_by_other_layer",
       [](AcceleratorDesign& d) {
         const int j = FirstStepOfOtherLayer(d);
         if (j < 0) return false;
         std::vector<int>& ids =
             d.schedule.steps[static_cast<std::size_t>(j)].pattern_ids;
         if (ids.empty()) return false;
         d.schedule.steps.back().pattern_ids.push_back(ids.back());
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
         const int k = FirstMultiSegmentStep(d);
         if (k < 0) return false;
         const std::size_t i = static_cast<std::size_t>(k) + 1;
         ScheduleStep& s = d.schedule.steps[i];
         s.segment = d.schedule.steps[i - 1].segment;
         SetEvent(d, i, EventFor(s.layer_id, s.segment));
         return true;
       }},
      {"segment_out_of_range",
       [](AcceleratorDesign& d) {
         ScheduleStep& s = d.schedule.steps.back();
         s.segment += 5;
         SetEvent(d, d.schedule.steps.size() - 1,
                  EventFor(s.layer_id, s.segment));
         return true;
       }},
      {"negative_segment",
       [](AcceleratorDesign& d) {
         ScheduleStep& s = d.schedule.steps.front();
         s.segment = -1;
         SetEvent(d, 0, EventFor(s.layer_id, s.segment));
         return true;
       }},
      {"missing_step",
       [](AcceleratorDesign& d) {
         auto& steps = d.schedule.steps;
         if (steps.size() < 2) return false;
         const std::size_t i = steps.size() / 2;
         steps.erase(steps.begin() + static_cast<std::ptrdiff_t>(i));
         auto& settings = d.connection_plan.settings;
         if (i < settings.size())
           settings.erase(settings.begin() + static_cast<std::ptrdiff_t>(i));
         return true;
       }},
      {"steps_swapped_across_layers",
       [](AcceleratorDesign& d) {
         auto& steps = d.schedule.steps;
         for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
           if (steps[i].layer_id == steps[i + 1].layer_id) continue;
           std::swap(steps[i], steps[i + 1]);
           std::swap(steps[i].index, steps[i + 1].index);
           return true;
         }
         return false;
       }},
      {"broken_producer_chain",
       [](AcceleratorDesign& d) {
         d.schedule.steps[d.schedule.steps.size() / 2].producer_block =
             "accumulator0";
         return true;
       }},
      {"settings_steps_count_mismatch",
       [](AcceleratorDesign& d) {
         d.connection_plan.settings.pop_back();
         return true;
       }},
      {"unknown_block_name",
       [](AcceleratorDesign& d) {
         d.schedule.steps.front().consumer_block = "mystery_unit0";
         return true;
       }},
      {"unknown_layer_id",
       [](AcceleratorDesign& d) {
         ScheduleStep& s = d.schedule.steps.back();
         s.layer_id = 4242;
         SetEvent(d, d.schedule.steps.size() - 1,
                  EventFor(s.layer_id, s.segment));
         return true;
       }},
      {"negative_layer_id",
       [](AcceleratorDesign& d) {
         ScheduleStep& s = d.schedule.steps.front();
         s.layer_id = -3;
         SetEvent(d, 0, EventFor(s.layer_id, s.segment));
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
      {"sched.hazard", 0xa159d8a937bb47f8ull},
      {"fold.coverage", 0x9ae0af843e6cb301ull},
      {"buffer.capacity", 0x0f81b8527a53f8a5ull},
      {"conn.ports", 0xd86d733e0a465671ull},
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
      {"duplicate_event_from_earlier_layer", 0x5efccc08ee59c7a6ull},
      {"duplicate_event_from_later_layer", 0x624b8e478b4a2480ull},
      {"event_segment_mismatch", 0x016679b910507d20ull},
      {"event_not_a_fold_event", 0x4b8343fdfda5c889ull},
      {"unknown_pattern_id", 0x90edaed136244339ull},
      {"pattern_armed_twice", 0x7bcf30b712035fbbull},
      {"pattern_armed_by_other_layer", 0xa90d3b794afac8b9ull},
      {"duplicate_pattern_id", 0x5acb45c3686db7f0ull},
      {"repeated_segment", 0xcf8631ef63c2659bull},
      {"segment_out_of_range", 0x1022c27961d15205ull},
      {"negative_segment", 0x67dfb0969a7f7c29ull},
      {"missing_step", 0x14aa62a128e58890ull},
      {"steps_swapped_across_layers", 0x86991b3a22ac4064ull},
      {"broken_producer_chain", 0x579953626b34c59eull},
      {"settings_steps_count_mismatch", 0x34bf08bcd17ee66bull},
      {"unknown_block_name", 0xa2fe7158660630aaull},
      {"unknown_layer_id", 0x811ffeaf4f86e1d3ull},
      {"negative_layer_id", 0xa6f8fd70ac7d8afbull},
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
