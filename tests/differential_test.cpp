// Differential test harness (`ctest -L differential`): seeded random
// small networks are pushed through every execution path the repo
// offers and the paths are compared against each other.
//
//   * nn::Executor          float reference ("golden")
//   * FunctionalSimulator   bit-accurate fixed-point datapath
//   * RunSystem             full DRAM-image round trip
//   * design_serde          the cache's serialized design, re-decoded
//   * DesignCache           the memoized generator handle
//   * InferenceServer       1-replica and 4-replica pools
//
// The contracts, in decreasing strictness:
//   1. All fixed-point paths that share the image pipeline (RunSystem
//      with the original / serde-round-tripped / cache-returned design,
//      and every server replica configuration) are BIT-exact.
//   2. FunctionalSimulator vs RunSystem differ by at most the output
//      blob's one extra quantise (2 LSBs, the system_sim contract).
//   3. The fixed-point result tracks the float golden within a
//      quantization envelope that scales with the accumulation depth.
//
// The networks are generated from a seed, so a failure names the seed
// and is replayed exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/design_cache.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/design_serde.h"
#include "core/generator.h"
#include "dse/explorer.h"
#include "fault/fault_plan.h"
#include "frontend/network_def.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "serve/inference_server.h"
#include "sim/host_runtime.h"
#include "sim/kernels.h"

namespace db {
namespace {

// ----------------------------------------------------- script generator

/// A random small network: optional 3x3 conv, optional 2x2 max pool,
/// optional mid activation, an FC reduction, and a bounded output
/// activation — the conv/pool/FC/activation mixes the datapath serves.
std::string RandomScript(std::uint64_t seed) {
  Rng rng(seed);
  const int channels = 1 + static_cast<int>(rng.UniformInt(2));
  const int side = 6 + 2 * static_cast<int>(rng.UniformInt(2));

  std::string s = "name: \"diff_" + std::to_string(seed) + "\"\n";
  s += "input: \"data\"\ninput_dim: 1\ninput_dim: " +
       std::to_string(channels) + "\ninput_dim: " + std::to_string(side) +
       "\ninput_dim: " + std::to_string(side) + "\n";

  std::string bottom = "data";
  int spatial = side;
  if (rng.Bernoulli(0.7)) {
    const int num_output = 2 + static_cast<int>(rng.UniformInt(3));
    s += "layers { name: \"conv\" type: CONVOLUTION bottom: \"" + bottom +
         "\" top: \"conv\" convolution_param { num_output: " +
         std::to_string(num_output) +
         " kernel_size: 3 stride: 1 } }\n";
    bottom = "conv";
    spatial -= 2;
  }
  if (spatial >= 4 && rng.Bernoulli(0.5)) {
    s += "layers { name: \"pool\" type: POOLING bottom: \"" + bottom +
         "\" top: \"pool\" pooling_param { pool: MAX kernel_size: 2 "
         "stride: 2 } }\n";
    bottom = "pool";
  }
  if (rng.Bernoulli(0.5)) {
    s += "layers { name: \"act0\" type: RELU bottom: \"" + bottom +
         "\" top: \"act0\" }\n";
    bottom = "act0";
  }
  const int fc_out = 2 + static_cast<int>(rng.UniformInt(5));
  s += "layers { name: \"fc\" type: INNER_PRODUCT bottom: \"" + bottom +
       "\" top: \"fc\" inner_product_param { num_output: " +
       std::to_string(fc_out) + " } }\n";
  const char* kActs[] = {"RELU", "SIGMOID", "TANH"};
  s += std::string("layers { name: \"out\" type: ") +
       kActs[rng.UniformInt(3)] + " bottom: \"fc\" top: \"out\" }\n";
  return s;
}

Tensor RandomInput(const Network& net, std::uint64_t seed) {
  const BlobShape& s = net.layer(net.input_ids().front()).output_shape;
  Tensor t(Shape{s.channels, s.height, s.width});
  Rng rng(seed);
  t.FillUniform(rng, 0.0f, 1.0f);
  return t;
}

// ------------------------------------------------------- the harness

constexpr std::uint64_t kSeeds[] = {11, 23, 37, 41, 59};

TEST(Differential, RandomNetworksAgreeAcrossAllPaths) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const NetworkDef def = ParseNetworkDef(RandomScript(seed));
    const Network net = Network::Build(def);
    const DesignConstraint constraint = DbConstraint();

    // The cache path IS the generator path: the first call generates.
    cluster::DesignCache cache;
    const cluster::DesignKey key = cluster::MakeDesignKey(def, constraint);
    const std::shared_ptr<const AcceleratorDesign> design =
        cache.GetOrGenerate(key, net, constraint);
    ASSERT_NE(design, nullptr);
    const AcceleratorDesign decoded =
        DeserializeDesign(SerializeDesign(*design));

    Rng rng(seed * 1000 + 1);
    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    const Tensor input = RandomInput(net, seed * 1000 + 2);

    // Path 1: float golden.
    Executor exec(net, weights);
    const Tensor golden = exec.ForwardOutput(input);

    // Path 2: bit-accurate functional simulation — original design and
    // the serde-round-tripped design must agree BIT for bit.
    FunctionalSimulator sim(net, *design, weights);
    const Tensor functional = sim.Run(input);
    FunctionalSimulator sim_decoded(net, decoded, weights);
    EXPECT_EQ(functional.storage(), sim_decoded.Run(input).storage());

    // Path 3: the full DRAM-image round trip, again for both designs.
    MemoryImage image_a = BuildHostImage(net, *design, weights);
    MemoryImage image_b = BuildHostImage(net, decoded, weights);
    const Tensor system = RunSystem(net, *design, image_a, input).output;
    const Tensor system_decoded =
        RunSystem(net, decoded, image_b, input).output;
    EXPECT_EQ(system.storage(), system_decoded.storage());

    // Contract 2: image round trip within one extra output quantise.
    const float resolution = design->config.format.resolution();
    EXPECT_LE(MaxAbsDiff(system, functional), 2 * resolution);

    // Contract 3: fixed point tracks the golden within a quantization
    // envelope proportional to the deepest accumulation fan-in.
    std::int64_t max_fan_in = 1;
    for (const IrLayer& layer : net.layers())
      for (const BlobShape& in : layer.input_shapes)
        max_fan_in = std::max(max_fan_in, in.NumElements());
    const float envelope =
        resolution * static_cast<float>(max_fan_in) + 16 * resolution;
    EXPECT_LE(MaxAbsDiff(functional, golden), envelope);
  }
}

TEST(Differential, ServerReplicasMatchTheStandaloneSystemPath) {
  const std::uint64_t seed = kSeeds[0];
  const NetworkDef def = ParseNetworkDef(RandomScript(seed));
  const Network net = Network::Build(def);
  const DesignConstraint constraint = DbConstraint();
  const AcceleratorDesign design = GenerateAccelerator(net, constraint);
  Rng rng(77);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);

  constexpr int kRequests = 8;
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i)
    inputs.push_back(RandomInput(net, 300 + static_cast<std::uint64_t>(i)));

  // Standalone reference: one RunSystem per request, fresh image each
  // time (a request must not observe a sibling's blob writes).
  std::vector<Tensor> reference;
  for (const Tensor& input : inputs) {
    MemoryImage image = BuildHostImage(net, design, weights);
    reference.push_back(RunSystem(net, design, image, input).output);
  }

  auto serve = [&](int replicas) {
    serve::ServeOptions options;
    options.replicas = replicas;
    options.max_batch_size = 2;
    options.linger_cycles = 0;
    serve::InferenceServer server(net, design, weights, options);
    std::int64_t arrival = 0;
    for (const Tensor& input : inputs) {
      server.Submit(input, arrival);
      arrival += 25;
    }
    return server.Drain();
  };

  const std::vector<serve::ServedRequest> one = serve(1);
  const std::vector<serve::ServedRequest> four = serve(4);
  ASSERT_EQ(one.size(), static_cast<std::size_t>(kRequests));
  ASSERT_EQ(four.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const auto idx = static_cast<std::size_t>(i);
    ASSERT_EQ(one[idx].status, StatusCode::kOk);
    ASSERT_EQ(four[idx].status, StatusCode::kOk);
    // Replica count is a wall-clock knob, never a numerics knob.
    EXPECT_EQ(one[idx].output.storage(), four[idx].output.storage());
    EXPECT_EQ(one[idx].output.storage(), reference[idx].storage());
  }
}

// --------------------------------------------- tuned vs default designs

/// The tuner's semantics-preservation guarantee: `deepburning tune`
/// only moves implementation knobs (lane count, port width, buffer
/// split, multiplier substrate) while the fixed-point format stays
/// pinned by the constraint — so the tuned winner's functional-sim
/// outputs are BIT-identical to the default design's, for every
/// objective.  A tuner that bought latency by changing numerics would
/// fail here, not in a tolerance band.
TEST(Differential, TuneWinnerMatchesDefaultDesignBitExact) {
  for (const ZooModel model :
       {ZooModel::kAnn1Jpeg, ZooModel::kHopfield, ZooModel::kMnist}) {
    SCOPED_TRACE(ZooModelName(model));
    const Network net = BuildZooModel(model);
    const DesignConstraint constraint = DbConstraint();
    const AcceleratorDesign standard =
        GenerateAccelerator(net, constraint);
    const AcceleratorConfig base = SizeDatapath(net, constraint);

    Rng rng(909);
    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    const Tensor input = RandomInput(net, 910);
    const Tensor reference =
        FunctionalSimulator(net, standard, weights).Run(input);

    for (const dse::Objective objective :
         {dse::Objective::kLatency, dse::Objective::kEnergy,
          dse::Objective::kBalanced}) {
      SCOPED_TRACE(dse::ObjectiveName(objective));
      dse::TuneOptions options;
      options.objective = objective;
      options.jobs = 4;
      const dse::TuneResult result =
          dse::Explore(net, constraint, options);
      const AcceleratorDesign tuned = dse::CompileWinner(
          net, constraint, base,
          result.candidates[result.winner].spec);
      const Tensor tuned_out =
          FunctionalSimulator(net, tuned, weights).Run(input);
      EXPECT_EQ(reference.storage(), tuned_out.storage());
    }
  }
}

// --------------------------------------------- golden activation digests

/// Seeded weights with non-zero biases (CreateRandom leaves biases at
/// zero, which would hide a mis-seeded accumulator).
WeightStore GoldenWeights(const Network& net) {
  Rng rng(2016);
  WeightStore weights = WeightStore::CreateRandom(net, rng);
  for (const IrLayer* layer : net.ComputeLayers())
    if (weights.Has(layer->name()))
      weights.at(layer->name()).bias.FillUniform(rng, -0.5f, 0.5f);
  return weights;
}

/// FNV-1a over every layer's raw activations, in layer order.
std::uint64_t ActivationDigest(const Network& net,
                               const FunctionalSimulator& sim,
                               const FixedFormat& fmt, const Tensor& input) {
  const std::map<std::string, Tensor> acts = sim.RunAll(input);
  std::uint64_t hash = kFnvOffsetBasis;
  for (const IrLayer& layer : net.layers()) {
    for (const float v : acts.at(layer.name()).storage()) {
      const auto raw = static_cast<std::uint32_t>(
          fmt.Quantize(static_cast<double>(v)));
      for (int b = 0; b < 32; b += 8)
        hash = Fnv1aByte(hash, static_cast<std::uint8_t>(raw >> b));
    }
  }
  return hash;
}

std::uint64_t ActivationDigest(const Network& net,
                               const AcceleratorDesign& design,
                               const WeightStore& weights,
                               const Tensor& input) {
  return ActivationDigest(net, FunctionalSimulator(net, design, weights),
                          design.config.format, input);
}

/// The golden conv/FC script: padded, strided, grouped and 1x1
/// convolutions feeding an FC layer.
std::string GoldenScript() {
  return
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
}

/// A kernel-independent oracle: every layer's raw activations, pinned
/// as digests for the whole zoo at DbConstraint() plus one small design
/// over padded, strided, grouped and 1x1 convolutions at 24 bits
/// (narrow-path accumulation with operands wider than 16 bits) and at
/// 32 bits (the __int128 path).  The digests were recorded with an
/// earlier, independent convolution implementation, so a mistake that
/// both kernel backends share still fails here.
TEST(Differential, GoldenActivationDigestsAcrossZoo) {
  struct Golden {
    ZooModel model;
    std::uint64_t digest;
  };
  const Golden kGolden[] = {
      {ZooModel::kAnn0Fft, 0x2e2f08a0feec77c6ull},
      {ZooModel::kAnn1Jpeg, 0x11908d5b2c91b4c9ull},
      {ZooModel::kAnn2Kmeans, 0x17bd080f7c0abcc0ull},
      {ZooModel::kHopfield, 0xd3ba65afaac9a31bull},
      {ZooModel::kCmac, 0xccd76f75aca7da3dull},
      {ZooModel::kMnist, 0x34d13542092e9ae3ull},
      {ZooModel::kAlexnet, 0xd2d97fc28d92c944ull},
      {ZooModel::kNin, 0xf911a8daacf04b8bull},
      {ZooModel::kCifar, 0xd3e6150da6cfd256ull},
  };
  ASSERT_EQ(std::size(kGolden), AllZooModels().size());
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(ZooModelName(g.model));
    const Network net = BuildZooModel(g.model);
    const std::uint64_t digest =
        ActivationDigest(net, GenerateAccelerator(net, DbConstraint()),
                         GoldenWeights(net), RandomInput(net, 4242));
    EXPECT_EQ(digest, g.digest) << std::hex << "0x" << digest;
  }

  // Q8.16 runs on the int64 kernels; Q16.16 fails the narrow-path proof
  // and runs the __int128 reference tile.  No value of this input
  // saturates at 24 bits, so both must give the same digest.
  const Network net = Network::Build(ParseNetworkDef(GoldenScript()));
  const WeightStore weights = GoldenWeights(net);
  Tensor input(Shape{4, 15, 15});
  Rng rng(24);
  input.FillUniform(rng, -4.0f, 4.0f);
  for (const int bit_width : {24, 32}) {
    SCOPED_TRACE("bit_width=" + std::to_string(bit_width));
    DesignConstraint constraint = DbConstraint();
    constraint.bit_width = bit_width;
    constraint.frac_bits = 16;
    const AcceleratorDesign design = GenerateAccelerator(net, constraint);
    EXPECT_EQ(
        FunctionalSimulator(net, design, weights).uses_kernel_backend(),
        bit_width == 24);
    const std::uint64_t digest =
        ActivationDigest(net, design, weights, input);
    EXPECT_EQ(digest, 0x7e350ed407638bc5ull) << std::hex << "0x" << digest;
  }
}

/// Formats of 16 bits or fewer other than Q7.8, on the golden script:
/// Q3.4 stores 1-byte words and Q5.6 stores 2-byte words.  Each format
/// is pinned twice: from the quantised WeightStore, and from an image
/// whose every 7th weight word has its top stored bit flipped.  At 12
/// bits that bit lies above the format's range, so the decode must
/// saturate the word; at 8 bits it is the sign bit.
TEST(Differential, GoldenActivationDigestsAtNarrowFormats) {
  struct Golden {
    int bit_width;
    int frac_bits;
    std::uint64_t quantised;
    std::uint64_t flipped;
  };
  const Golden kGolden[] = {
      {8, 4, 0xd95f06791102841eull, 0x2c8a4ecbb4e2da5full},
      {12, 6, 0xa2847baa4df67adbull, 0x5395eea18a8eaceaull},
  };
  const Network net = Network::Build(ParseNetworkDef(GoldenScript()));
  const WeightStore weights = GoldenWeights(net);
  Tensor input(Shape{4, 15, 15});
  Rng rng(24);
  input.FillUniform(rng, -4.0f, 4.0f);
  for (const Golden& g : kGolden) {
    SCOPED_TRACE("bit_width=" + std::to_string(g.bit_width));
    DesignConstraint constraint = DbConstraint();
    constraint.bit_width = g.bit_width;
    constraint.frac_bits = g.frac_bits;
    const AcceleratorDesign design = GenerateAccelerator(net, constraint);
    const FixedFormat& fmt = design.config.format;
    const std::uint64_t quantised =
        ActivationDigest(net, design, weights, input);
    EXPECT_EQ(quantised, g.quantised) << std::hex << "0x" << quantised;

    MemoryImage image =
        BuildMemoryImage(net, design, weights, {{"data", input}});
    const int elem_bytes = static_cast<int>(design.config.ElementBytes());
    const int bit = 8 * elem_bytes - 1;
    for (const IrLayer* layer : net.ComputeLayers()) {
      if (!weights.Has(layer->name())) continue;
      const std::int64_t base = design.memory_map.Weights(layer->name()).base;
      for (std::int64_t i = 0; i < ParamCountsFor(*layer).weights; i += 7)
        image.FlipBit(base + i * elem_bytes + bit / 8, bit % 8);
    }
    const FunctionalSimulator sim(
        net, design,
        std::make_shared<const RawWeights>(
            RawWeights::Decode(image, net, design)));
    const std::uint64_t flipped = ActivationDigest(net, sim, fmt, input);
    EXPECT_EQ(flipped, g.flipped) << std::hex << "0x" << flipped;
  }
}

/// The int16 multiply-add wrap edge: at Q7.8 a pair of raw_min weights
/// against a pair of raw_min inputs sums to (-32768)^2 * 2 = 2^31, one
/// past int32.  conv1's weights on input channel 0 and every other FC
/// weight sit at raw_min, and input channel 0 does too, so an int32
/// pair sum would wrap where the datapath's exact sum saturates.
TEST(Differential, GoldenActivationDigestAtTheMaddWrapEdge) {
  const Network net = Network::Build(ParseNetworkDef(GoldenScript()));
  WeightStore weights = GoldenWeights(net);
  // conv1: [10][2][5][5] (group 2); input channel 0 is ic 0 of group 0.
  Tensor& conv1 = weights.at("conv1").weights;
  for (std::int64_t oc = 0; oc < 5; ++oc)
    for (std::int64_t t = 0; t < 25; ++t) conv1[oc * 50 + t] = -1000.0f;
  Tensor& fc = weights.at("fc").weights;
  for (std::int64_t i = 0; i < fc.size(); i += 2) fc[i] = -1000.0f;
  Tensor input(Shape{4, 15, 15});
  Rng rng(24);
  input.FillUniform(rng, -4.0f, 4.0f);
  for (std::int64_t i = 0; i < 15 * 15; ++i) input[i] = -1000.0f;
  const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
  ASSERT_EQ(design.config.format.total_bits(), 16);
  ASSERT_EQ(design.config.format.frac_bits(), 8);
  const std::uint64_t digest =
      ActivationDigest(net, design, weights, input);
  EXPECT_EQ(digest, 0x8dc5dd9f302ea850ull) << std::hex << "0x" << digest;
}

// ------------------------------------------- SIMD vs scalar bit-identity

/// Restores the process-wide kernel backend on scope exit.
struct BackendGuard {
  ~BackendGuard() { sim::SetKernelBackend(sim::KernelBackend::kAuto); }
};

/// Every layer's activations under the scalar and then the AVX2
/// backend, compared layer by layer: a final softmax, classifier or
/// average pool can hide a mismatch in an earlier convolution.
void ExpectBackendsAgreeOnEveryLayer(const Network& net,
                                     const AcceleratorDesign& design,
                                     const WeightStore& weights,
                                     const Tensor& input) {
  sim::SetKernelBackend(sim::KernelBackend::kScalar);
  const std::map<std::string, Tensor> scalar_acts =
      FunctionalSimulator(net, design, weights).RunAll(input);
  sim::SetKernelBackend(sim::KernelBackend::kAvx2);
  const std::map<std::string, Tensor> simd_acts =
      FunctionalSimulator(net, design, weights).RunAll(input);
  for (const IrLayer& layer : net.layers())
    EXPECT_EQ(scalar_acts.at(layer.name()).storage(),
              simd_acts.at(layer.name()).storage())
        << "layer " << layer.name();
}

/// The kernel layer's headline contract: the AVX2 backend is bit-exact
/// against the scalar reference over the entire model zoo (every layer
/// kind the datapath serves: padded, strided and grouped conv, pooling,
/// FC, LRN, recurrent/LSTM, every activation), and over the seeded
/// random networks above.
TEST(Differential, SimdAndScalarKernelsBitIdenticalAcrossZoo) {
  if (!sim::Avx2Available())
    GTEST_SKIP() << "AVX2 kernels not available on this host";
  BackendGuard guard;
  for (const ZooModel model : AllZooModels()) {
    SCOPED_TRACE(ZooModelName(model));
    const Network net = BuildZooModel(model);
    ExpectBackendsAgreeOnEveryLayer(
        net, GenerateAccelerator(net, DbConstraint()), GoldenWeights(net),
        RandomInput(net, 4242));
  }
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Network net =
        Network::Build(ParseNetworkDef(RandomScript(seed)));
    Rng rng(seed * 1000 + 1);
    ExpectBackendsAgreeOnEveryLayer(
        net, GenerateAccelerator(net, DbConstraint()),
        WeightStore::CreateRandom(net, rng),
        RandomInput(net, seed * 1000 + 2));
  }
}

/// Bit-identity must also hold under the fault campaign: flipped weight
/// bits, transient failures and stalls perturb the data and the
/// scheduling, and every completed request must still agree between
/// backends (fault handling is orthogonal to the kernel layer).
TEST(Differential, SimdAndScalarAgreeUnderFaultCampaign) {
  if (!sim::Avx2Available())
    GTEST_SKIP() << "AVX2 kernels not available on this host";
  BackendGuard guard;
  constexpr int kRequests = 24;
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i)
    inputs.push_back(RandomInput(net, 700 + static_cast<std::uint64_t>(i)));

  fault::FaultCampaignSpec spec;
  spec.seed = 7;
  spec.weight_flips = 60;
  spec.transients = 4;
  spec.stalls = 2;
  spec.invocation_span = kRequests / 2;
  spec.workers = 2;
  const fault::FaultPlan plan =
      fault::FaultPlan::Generate(spec, design.memory_map);

  auto serve = [&]() {
    serve::ServeOptions options;
    options.replicas = 2;
    options.max_batch_size = 4;
    options.faults = plan;
    serve::InferenceServer server(net, design, weights, options);
    for (const Tensor& input : inputs) server.Submit(input, 0);
    return server.Drain();
  };

  sim::SetKernelBackend(sim::KernelBackend::kScalar);
  const std::vector<serve::ServedRequest> scalar_run = serve();
  sim::SetKernelBackend(sim::KernelBackend::kAvx2);
  const std::vector<serve::ServedRequest> simd_run = serve();

  ASSERT_EQ(scalar_run.size(), simd_run.size());
  for (std::size_t i = 0; i < scalar_run.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(scalar_run[i].status, simd_run[i].status);
    if (scalar_run[i].status != StatusCode::kOk) continue;
    EXPECT_EQ(scalar_run[i].output.storage(),
              simd_run[i].output.storage());
  }
}

}  // namespace
}  // namespace db
