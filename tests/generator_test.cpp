// Tests for NN-Gen: datapath sizing, end-to-end generation, budget
// enforcement, RTL integrity.
#include <gtest/gtest.h>

#include "common/error.h"
#include "core/generator.h"
#include "models/zoo.h"
#include "rtl/lint.h"

namespace db {
namespace {

struct GenCase {
  ZooModel model;
  const char* scheme;
};

class GeneratorSweep : public ::testing::TestWithParam<GenCase> {
 protected:
  DesignConstraint Constraint() const {
    const std::string s = GetParam().scheme;
    if (s == "DB") return DbConstraint();
    if (s == "DB-L") return DbLConstraint();
    return DbSConstraint();
  }
};

TEST_P(GeneratorSweep, GeneratesWithinBudgetAndLintClean) {
  const Network net = BuildZooModel(GetParam().model);
  const AcceleratorDesign design =
      GenerateAccelerator(net, Constraint());
  EXPECT_TRUE(design.config.budget.Fits(design.resources.total))
      << "uses " << design.resources.total.ToString() << " of "
      << design.config.budget.ToString();
  EXPECT_TRUE(LintDesign(design.rtl).empty());
  EXPECT_GT(design.config.TotalLanes() + design.config.pooling_lanes +
                design.config.activation_lanes,
            0);
  EXPECT_EQ(design.fold_plan.TemporalFolds(),
            static_cast<std::int64_t>(net.ComputeLayers().size()));
  EXPECT_FALSE(design.schedule.runs.empty());
  EXPECT_FALSE(design.blocks.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllSchemes, GeneratorSweep,
    ::testing::Values(
        GenCase{ZooModel::kAnn0Fft, "DB"},
        GenCase{ZooModel::kAnn0Fft, "DB-S"},
        GenCase{ZooModel::kAnn1Jpeg, "DB"},
        GenCase{ZooModel::kAnn2Kmeans, "DB-L"},
        GenCase{ZooModel::kHopfield, "DB"},
        GenCase{ZooModel::kHopfield, "DB-S"},
        GenCase{ZooModel::kCmac, "DB"},
        GenCase{ZooModel::kMnist, "DB"},
        GenCase{ZooModel::kMnist, "DB-L"},
        GenCase{ZooModel::kMnist, "DB-S"},
        GenCase{ZooModel::kAlexnet, "DB"},
        GenCase{ZooModel::kAlexnet, "DB-L"},
        GenCase{ZooModel::kAlexnet, "DB-S"},
        GenCase{ZooModel::kNin, "DB"},
        GenCase{ZooModel::kCifar, "DB"},
        GenCase{ZooModel::kCifar, "DB-S"}),
    [](const auto& info) {
      std::string name = ZooModelName(info.param.model) + "_" +
                         info.param.scheme;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(SizeDatapath, TinyModelGetsFewLanes) {
  const AcceleratorConfig config =
      SizeDatapath(BuildZooModel(ZooModel::kAnn0Fft), DbConstraint());
  EXPECT_LE(config.TotalLanes(), 4);
}

TEST(SizeDatapath, HighBudgetGetsMoreLanesOnBigModel) {
  const Network net = BuildZooModel(ZooModel::kAlexnet);
  const AcceleratorConfig medium = SizeDatapath(net, DbConstraint());
  const AcceleratorConfig high = SizeDatapath(net, DbLConstraint());
  EXPECT_GT(high.TotalLanes(), medium.TotalLanes());
  EXPECT_GE(high.memory_port_elems, medium.memory_port_elems);
}

TEST(SizeDatapath, OptionalUnitsOnlyWhenNeeded) {
  const AcceleratorConfig ann =
      SizeDatapath(BuildZooModel(ZooModel::kAnn0Fft), DbConstraint());
  EXPECT_FALSE(ann.has_lrn);
  EXPECT_FALSE(ann.has_dropout);
  EXPECT_FALSE(ann.has_connection_box);
  EXPECT_EQ(ann.pooling_lanes, 0);

  const AcceleratorConfig alexnet =
      SizeDatapath(BuildZooModel(ZooModel::kAlexnet), DbConstraint());
  EXPECT_TRUE(alexnet.has_lrn);
  EXPECT_TRUE(alexnet.has_dropout);
  EXPECT_GT(alexnet.pooling_lanes, 0);

  const AcceleratorConfig hopfield =
      SizeDatapath(BuildZooModel(ZooModel::kHopfield), DbConstraint());
  EXPECT_TRUE(hopfield.has_connection_box);
}

TEST(SizeDatapath, FormatFollowsConstraint) {
  DesignConstraint c = DbConstraint();
  c.bit_width = 12;
  c.frac_bits = 6;
  const AcceleratorConfig config =
      SizeDatapath(BuildZooModel(ZooModel::kMnist), c);
  EXPECT_EQ(config.format.total_bits(), 12);
  EXPECT_EQ(config.format.frac_bits(), 6);
}

TEST(Generator, TightExplicitBudgetForcesFolding) {
  DesignConstraint tight = DbConstraint();
  tight.explicit_budget.dsp = 4;
  tight.explicit_budget.lut = 4000;
  tight.explicit_budget.ff = 8000;
  tight.explicit_budget.bram_bytes = 96 * 1024;
  const Network net = BuildZooModel(ZooModel::kCifar);
  const AcceleratorDesign design = GenerateAccelerator(net, tight);
  EXPECT_TRUE(design.config.budget.Fits(design.resources.total));
  const AcceleratorDesign roomy = GenerateAccelerator(net, DbConstraint());
  EXPECT_GE(design.fold_plan.TotalSegments(),
            roomy.fold_plan.TotalSegments());
}

TEST(Generator, ImpossibleBudgetThrows) {
  DesignConstraint impossible = DbConstraint();
  impossible.explicit_budget.dsp = 1;
  impossible.explicit_budget.lut = 50;
  impossible.explicit_budget.ff = 50;
  impossible.explicit_budget.bram_bytes = 1024;
  EXPECT_THROW(
      GenerateAccelerator(BuildZooModel(ZooModel::kAlexnet), impossible),
      Error);
}

TEST(Generator, RequiredLutFunctionsPerModel) {
  const auto ann0 =
      RequiredLutFunctions(BuildZooModel(ZooModel::kAnn0Fft));
  EXPECT_EQ(ann0.size(), 1u);  // tanh only
  EXPECT_EQ(ann0.front(), LutFunction::kTanh);

  const auto alexnet =
      RequiredLutFunctions(BuildZooModel(ZooModel::kAlexnet));
  // softmax -> exp + recip, lrn -> lrn_pow.
  EXPECT_EQ(alexnet.size(), 3u);

  const auto hopfield =
      RequiredLutFunctions(BuildZooModel(ZooModel::kHopfield));
  EXPECT_EQ(hopfield.size(), 1u);  // sigmoid recurrent activation
  EXPECT_EQ(hopfield.front(), LutFunction::kSigmoid);
}

TEST(Generator, LutSpecsMatchRequiredFunctions) {
  const Network net = BuildZooModel(ZooModel::kAlexnet);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  EXPECT_EQ(design.lut_specs.size(), RequiredLutFunctions(net).size());
}

TEST(Generator, RtlContainsTopAndBlocks) {
  const AcceleratorDesign design =
      GenerateAccelerator(BuildZooModel(ZooModel::kMnist), DbConstraint());
  EXPECT_FALSE(design.rtl.top.empty());
  EXPECT_NE(design.rtl.FindModule(design.rtl.top), nullptr);
  // Text emission sanity.
  const std::string verilog = EmitVerilog(design.rtl);
  EXPECT_NE(verilog.find("db_synergy_neuron"), std::string::npos);
  EXPECT_NE(verilog.find("agu_main"), std::string::npos);
  EXPECT_NE(verilog.find("db_coordinator"), std::string::npos);
}

TEST(Generator, FromScriptsConvenience) {
  const AcceleratorDesign design = GenerateFromScripts(
      ZooModelPrototxt(ZooModel::kAnn0Fft),
      "device: \"zynq-7020\"\nbudget: LOW\n");
  EXPECT_EQ(design.config.network_name, "ann0_fft");
}

TEST(Generator, ReportHasAllSections) {
  const AcceleratorDesign design = GenerateAccelerator(
      BuildZooModel(ZooModel::kMnist), DbConstraint());
  const std::string report = design.Report();
  for (const char* section : {"fold plan", "data layout", "memory map",
                              "agu program", "resources"})
    EXPECT_NE(report.find(section), std::string::npos) << section;
}

TEST(Generator, Deterministic) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign a = GenerateAccelerator(net, DbConstraint());
  const AcceleratorDesign b = GenerateAccelerator(net, DbConstraint());
  EXPECT_EQ(a.config.TotalLanes(), b.config.TotalLanes());
  EXPECT_EQ(a.resources.total.lut, b.resources.total.lut);
  EXPECT_EQ(EmitVerilog(a.rtl), EmitVerilog(b.rtl));
}

}  // namespace
}  // namespace db
