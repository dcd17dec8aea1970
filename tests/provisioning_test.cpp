// Provisioning oracle (`ctest -L differential`): what the host writes
// into DRAM at start-up and what every serving replica computes from it.
//
// For the whole zoo at DbConstraint(), plus one small conv/FC design at
// 24 and at 32 bits, three facts are checked and pinned as FNV digests:
//   1. The raw words read back from BuildHostImage's weight regions are
//      exactly QuantizeVector(fmt, weights), layer by layer.
//   2. An InferenceServer on 1, 2 and 4 replicas serves outputs that are
//      bit-identical to a FunctionalSimulator built on the WeightStore.
//   3. RunSystem on an image with flipped weight bits (a sign, a low and
//      a high magnitude bit in the first and the last weight region)
//      gives a pinned output: the datapath reads the corrupted words
//      straight from DRAM.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/generator.h"
#include "frontend/network_def.h"
#include "models/zoo.h"
#include "serve/inference_server.h"
#include "sim/host_runtime.h"

namespace db {
namespace {

constexpr int kRequests = 4;

/// Seeded weights with non-zero biases (CreateRandom leaves biases at
/// zero).
WeightStore OracleWeights(const Network& net) {
  Rng rng(2016);
  WeightStore weights = WeightStore::CreateRandom(net, rng);
  for (const IrLayer* layer : net.ComputeLayers())
    if (weights.Has(layer->name()))
      weights.at(layer->name()).bias.FillUniform(rng, -0.5f, 0.5f);
  return weights;
}

std::vector<Tensor> OracleInputs(const Network& net) {
  const BlobShape& s = net.layer(net.input_ids().front()).output_shape;
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i) {
    Tensor t(Shape{s.channels, s.height, s.width});
    Rng rng(4242 + static_cast<std::uint64_t>(i));
    t.FillUniform(rng, -1.0f, 1.0f);
    inputs.push_back(std::move(t));
  }
  return inputs;
}

std::uint64_t HashWord(std::uint64_t hash, std::uint32_t word) {
  for (int b = 0; b < 32; b += 8)
    hash = Fnv1aByte(hash, static_cast<std::uint8_t>(word >> b));
  return hash;
}

std::uint64_t HashTensors(const std::vector<Tensor>& tensors) {
  std::uint64_t hash = kFnvOffsetBasis;
  for (const Tensor& t : tensors)
    for (const float v : t.storage())
      hash = HashWord(hash, std::bit_cast<std::uint32_t>(v));
  return hash;
}

/// Fact 1: every weight region holds QuantizeVector of its tensors, in
/// natural order (weights, bias, recurrent).  Returns the digest of the
/// raw words.
std::uint64_t CheckImageWords(const Network& net,
                              const AcceleratorDesign& design,
                              const WeightStore& weights,
                              const MemoryImage& image) {
  const FixedFormat& fmt = design.config.format;
  const int elem_bytes = static_cast<int>(design.config.ElementBytes());
  std::uint64_t hash = kFnvOffsetBasis;
  int layers = 0;
  for (const IrLayer* layer : net.ComputeLayers()) {
    if (!weights.Has(layer->name())) continue;
    SCOPED_TRACE(layer->name());
    ++layers;
    const LayerParams& params = weights.at(layer->name());
    std::int64_t addr = design.memory_map.Weights(layer->name()).base;
    for (const Tensor* t :
         {&params.weights, &params.bias, &params.recurrent}) {
      const std::vector<std::int64_t> expected =
          QuantizeVector(fmt, t->storage());
      std::int64_t mismatches = 0;
      for (const std::int64_t want : expected) {
        const std::int64_t got = image.ReadElem(addr, elem_bytes);
        mismatches += got != want;
        hash = HashWord(hash, static_cast<std::uint32_t>(got));
        addr += elem_bytes;
      }
      EXPECT_EQ(mismatches, 0);
    }
  }
  EXPECT_GT(layers, 0);
  return hash;
}

/// Fact 2: served outputs on 1, 2 and 4 replicas equal the standalone
/// FunctionalSimulator bit for bit.  Returns the digest of the outputs.
std::uint64_t CheckServedOutputs(const Network& net,
                                 const AcceleratorDesign& design,
                                 const WeightStore& weights,
                                 const std::vector<Tensor>& inputs) {
  std::vector<Tensor> reference;
  {
    const FunctionalSimulator sim(net, design, weights);
    for (const Tensor& input : inputs) reference.push_back(sim.Run(input));
  }
  const std::uint64_t digest = HashTensors(reference);
  for (const int replicas : {1, 2, 4}) {
    SCOPED_TRACE("replicas=" + std::to_string(replicas));
    serve::ServeOptions options;
    options.replicas = replicas;
    options.max_batch_size = 1;
    serve::InferenceServer server(net, design, weights, options);
    for (const Tensor& input : inputs) server.Submit(input, 0);
    const std::vector<serve::ServedRequest> served = server.Drain();
    EXPECT_EQ(served.size(), inputs.size());
    std::vector<Tensor> outputs;
    for (const serve::ServedRequest& r : served) {
      EXPECT_EQ(r.status, StatusCode::kOk);
      outputs.push_back(r.output);
    }
    EXPECT_EQ(HashTensors(outputs), digest);
  }
  return digest;
}

/// Fact 3: flip a sign bit, a low bit and a high magnitude bit in the
/// first and the last weight region, then run through the image.
std::uint64_t CorruptedRunDigest(const Network& net,
                                 const AcceleratorDesign& design,
                                 const WeightStore& weights,
                                 const Tensor& input) {
  MemoryImage image = BuildHostImage(net, design, weights);
  const int total_bits = design.config.format.total_bits();
  const std::int64_t elem_bytes = design.config.ElementBytes();
  std::vector<const IrLayer*> parameterised;
  for (const IrLayer* layer : net.ComputeLayers())
    if (weights.Has(layer->name())) parameterised.push_back(layer);
  for (const IrLayer* layer : {parameterised.front(), parameterised.back()}) {
    const std::int64_t base = design.memory_map.Weights(layer->name()).base;
    const auto flip = [&](std::int64_t elem, int bit) {
      image.FlipBit(base + elem * elem_bytes + bit / 8, bit % 8);
    };
    flip(0, total_bits - 1);  // sign
    flip(1, 0);               // LSB
    flip(2, total_bits - 3);  // high magnitude bit
  }
  return HashTensors({RunSystem(net, design, image, input).output});
}

struct Golden {
  std::uint64_t words;
  std::uint64_t served;
  std::uint64_t corrupted;
};

void CheckCase(const Network& net, const AcceleratorDesign& design,
               const Golden& golden) {
  const WeightStore weights = OracleWeights(net);
  const std::vector<Tensor> inputs = OracleInputs(net);
  const std::uint64_t words = CheckImageWords(
      net, design, weights, BuildHostImage(net, design, weights));
  const std::uint64_t served =
      CheckServedOutputs(net, design, weights, inputs);
  const std::uint64_t corrupted =
      CorruptedRunDigest(net, design, weights, inputs.front());
  EXPECT_EQ(words, golden.words) << std::hex << "words 0x" << words;
  EXPECT_EQ(served, golden.served) << std::hex << "served 0x" << served;
  EXPECT_EQ(corrupted, golden.corrupted)
      << std::hex << "corrupted 0x" << corrupted;
}

TEST(Provisioning, ZooImagesServeTheQuantisedWeights) {
  struct ZooGolden {
    ZooModel model;
    Golden golden;
  };
  const ZooGolden kGolden[] = {
      {ZooModel::kAnn0Fft,
       {0xc5d236520fb72724ull, 0xa18996224b71ffdull,
        0x9b4cd3508273fed4ull}},
      {ZooModel::kAnn1Jpeg,
       {0xeb6b0b016008f387ull, 0xb1032885f30cf14aull,
        0x6d48bf77be6081b9ull}},
      {ZooModel::kAnn2Kmeans,
       {0x2a2cf4ac9765d6adull, 0x301ec8f776f2c2ffull,
        0x7e9295dd03c79599ull}},
      {ZooModel::kHopfield,
       {0xa016a8ff848fbcc6ull, 0x26a4196810ddd2f3ull,
        0x60161e37d9949c05ull}},
      {ZooModel::kCmac,
       {0x96838bd1aef92888ull, 0xa2096166de6e0547ull,
        0xddcf51a9a7f3efbcull}},
      {ZooModel::kMnist,
       {0x7170920fa7f5df6eull, 0x2fc1cb33820697e8ull,
        0x26c2fe60054a36c3ull}},
      {ZooModel::kAlexnet,
       {0x7c69346fe12a720dull, 0xc185b80fb637ebd5ull,
        0x412e116b7e6ef2c0ull}},
      {ZooModel::kNin,
       {0x5237cc50cb3bdbd2ull, 0xdcddefd94eb9ca5ull,
        0x5be8cfa29fa47730ull}},
      {ZooModel::kCifar,
       {0x79363252d62a133eull, 0xbf2f78baabf58c1bull,
        0x5482d7bec0670c63ull}},
  };
  ASSERT_EQ(std::size(kGolden), AllZooModels().size());
  for (const ZooGolden& g : kGolden) {
    SCOPED_TRACE(ZooModelName(g.model));
    const Network net = BuildZooModel(g.model);
    CheckCase(net, GenerateAccelerator(net, DbConstraint()), g.golden);
  }
}

/// Wide formats: Q7.16 in three-byte words and Q15.16 in four-byte
/// words (the __int128 accumulation path).
TEST(Provisioning, WideFormatImagesServeTheQuantisedWeights) {
  const std::string script =
      "name: \"golden\"\ninput: \"data\"\ninput_dim: 1\n"
      "input_dim: 4\ninput_dim: 15\ninput_dim: 15\n"
      "layers { name: \"conv1\" type: CONVOLUTION bottom: \"data\" "
      "top: \"conv1\" convolution_param { num_output: 10 kernel_size: 5 "
      "stride: 2 pad: 2 group: 2 } }\n"
      "layers { name: \"relu1\" type: RELU bottom: \"conv1\" "
      "top: \"relu1\" }\n"
      "layers { name: \"cccp1\" type: CONVOLUTION bottom: \"relu1\" "
      "top: \"cccp1\" convolution_param { num_output: 7 kernel_size: 1 "
      "stride: 1 } }\n"
      "layers { name: \"conv2\" type: CONVOLUTION bottom: \"cccp1\" "
      "top: \"conv2\" convolution_param { num_output: 6 kernel_size: 3 "
      "stride: 1 pad: 1 } }\n"
      "layers { name: \"fc\" type: INNER_PRODUCT bottom: \"conv2\" "
      "top: \"fc\" inner_product_param { num_output: 5 } }\n";
  struct WideGolden {
    int bit_width;
    Golden golden;
  };
  const WideGolden kGolden[] = {
      {24,
       {0x5da215e9c1ab71d1ull, 0xec4ba958ff1e1239ull,
        0x6b30cf5e28527454ull}},
      // Unlike at 24 bits, the flipped sign bits leave four-byte words
      // with more significant bits than a float holds; the datapath
      // reads them exactly, so this corrupted digest differs.
      {32,
       {0x5da215e9c1ab71d1ull, 0xec4ba958ff1e1239ull,
        0x373d57a049dfee8eull}},
  };
  for (const WideGolden& g : kGolden) {
    SCOPED_TRACE("bit_width=" + std::to_string(g.bit_width));
    const Network net = Network::Build(ParseNetworkDef(script));
    DesignConstraint constraint = DbConstraint();
    constraint.bit_width = g.bit_width;
    constraint.frac_bits = 16;
    CheckCase(net, GenerateAccelerator(net, constraint), g.golden);
  }
}

}  // namespace
}  // namespace db
