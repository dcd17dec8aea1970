// Tests for the graph IR: construction, shape inference, validation.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "graph/network.h"
#include "models/zoo.h"

namespace db {
namespace {

std::string Header(std::int64_t c, std::int64_t h, std::int64_t w) {
  return "input: \"data\"\ninput_dim: 1\ninput_dim: " + std::to_string(c) +
         "\ninput_dim: " + std::to_string(h) +
         "\ninput_dim: " + std::to_string(w) + "\n";
}

TEST(Network, BuildSimpleChain) {
  const Network net = Network::Build(ParseNetworkDef(
      Header(1, 8, 8) +
      "layers { name: \"c\" type: CONVOLUTION bottom: \"data\" top: \"c\" "
      "param { num_output: 4 kernel_size: 3 } }\n"
      "layers { name: \"r\" type: RELU bottom: \"c\" top: \"r\" }\n"));
  EXPECT_EQ(net.layers().size(), 3u);  // input + 2
  EXPECT_EQ(net.ComputeLayers().size(), 2u);
  EXPECT_EQ(net.OutputLayer().name(), "r");
  EXPECT_FALSE(net.HasRecurrence());
}

TEST(Network, DanglingBottomRejected) {
  EXPECT_THROW(
      Network::Build(ParseNetworkDef(
          Header(1, 4, 4) +
          "layers { name: \"r\" type: RELU bottom: \"nope\" top: \"r\" "
          "}\n")),
      Error);
}

TEST(Network, DuplicateLayerNameRejected) {
  EXPECT_THROW(
      Network::Build(ParseNetworkDef(
          Header(1, 4, 4) +
          "layers { name: \"r\" type: RELU bottom: \"data\" top: \"r\" }\n"
          "layers { name: \"r\" type: RELU bottom: \"r\" top: \"r2\" }\n")),
      Error);
}

TEST(Network, ForwardReferenceRejected) {
  // Layers must be listed in propagation order.
  EXPECT_THROW(
      Network::Build(ParseNetworkDef(
          Header(1, 4, 4) +
          "layers { name: \"a\" type: RELU bottom: \"b\" top: \"a\" }\n"
          "layers { name: \"b\" type: RELU bottom: \"data\" top: \"b\" "
          "}\n")),
      Error);
}

/// The db::Error message of building `script`.
std::string BuildError(const std::string& script) {
  try {
    Network::Build(ParseNetworkDef(script));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Network, OversizedCountsRejectedNamingTheLayer) {
  // 1 x 4e9 x 4e9 overflows int64; the blob must be named, not reported
  // as an empty FC input.
  EXPECT_NE(BuildError(Header(1, 4000000000, 4000000000) +
                       "layers { name: \"fc\" type: INNER_PRODUCT "
                       "bottom: \"data\" top: \"fc\" "
                       "inner_product_param { num_output: 4 } }\n")
                .find("layer 'data': input blob"),
            std::string::npos);
  // A 3e12-wide FC layer is refused before its weights are allocated.
  EXPECT_NE(BuildError(Header(1, 4, 4) +
                       "layers { name: \"fc\" type: INNER_PRODUCT "
                       "bottom: \"data\" top: \"fc\" "
                       "inner_product_param { num_output: 3000000000000 } }\n")
                .find("layer 'fc': output blob"),
            std::string::npos);
  // Blobs within the cap, but 2^14 x 2^15 = 2^29 weights over it.
  EXPECT_NE(BuildError(Header(1, 128, 128) +
                       "layers { name: \"fc\" type: INNER_PRODUCT "
                       "bottom: \"data\" top: \"fc\" "
                       "inner_product_param { num_output: 32768 } }\n")
                .find("layer 'fc': parameter count"),
            std::string::npos);
  // A pad near 2^62 saturates the window arithmetic instead of wrapping,
  // and the resulting blob is refused (pooling and convolution).
  for (const char* kind : {"POOLING", "CONVOLUTION"}) {
    SCOPED_TRACE(kind);
    EXPECT_NE(BuildError(Header(1, 4, 4) + "layers { name: \"w\" type: " +
                         kind +
                         " bottom: \"data\" top: \"w\" param { "
                         "num_output: 1 kernel_size: 2 stride: 1 "
                         "pad: 4611686018427387904 } }\n")
                  .find("layer 'w': output blob"),
              std::string::npos);
  }
  // Exactly at the cap is accepted: 2^14 x 2^14 weights, no bias.
  EXPECT_EQ(BuildError(Header(1, 128, 128) +
                       "layers { name: \"fc\" type: INNER_PRODUCT "
                       "bottom: \"data\" top: \"fc\" "
                       "inner_product_param { num_output: 16384 "
                       "bias_term: false } }\n"),
            "");
}

TEST(ShapeInference, Convolution) {
  LayerDef def;
  def.name = "c";
  def.kind = LayerKind::kConvolution;
  def.conv = ConvolutionParams{.num_output = 96, .kernel_size = 11,
                               .stride = 4, .pad = 0, .bias = true};
  const BlobShape out = InferOutputShape(def, {{3, 227, 227}});
  EXPECT_EQ(out.channels, 96);
  EXPECT_EQ(out.height, 55);
  EXPECT_EQ(out.width, 55);
}

TEST(ShapeInference, ConvolutionWithPadding) {
  LayerDef def;
  def.kind = LayerKind::kConvolution;
  def.conv = ConvolutionParams{.num_output = 8, .kernel_size = 3,
                               .stride = 1, .pad = 1, .bias = true};
  const BlobShape out = InferOutputShape(def, {{4, 16, 16}});
  EXPECT_EQ(out.height, 16);  // "same" padding
  EXPECT_EQ(out.width, 16);
}

TEST(ShapeInference, ConvolutionTooLargeKernelRejected) {
  LayerDef def;
  def.name = "c";
  def.kind = LayerKind::kConvolution;
  def.conv = ConvolutionParams{.num_output = 4, .kernel_size = 9,
                               .stride = 1, .pad = 0, .bias = true};
  EXPECT_THROW(InferOutputShape(def, {{1, 5, 5}}), Error);
}

TEST(ShapeInference, PoolingKernelLargerThanInputRejected) {
  LayerDef def;
  def.name = "p";
  def.kind = LayerKind::kPooling;
  def.pool = PoolingParams{};
  def.pool->kernel_size = 5;
  def.pool->stride = 1;
  EXPECT_THROW(InferOutputShape(def, {{1, 4, 4}}), Error);
  def.pool->pad = 1;
  EXPECT_EQ(InferOutputShape(def, {{1, 4, 4}}).height, 2);
}

TEST(ShapeInference, PoolingCeilSemantics) {
  LayerDef def;
  def.kind = LayerKind::kPooling;
  def.pool = PoolingParams{.method = PoolMethod::kMax, .kernel_size = 3,
                           .stride = 2, .pad = 0};
  // Caffe ceil: (55 - 3)/2 + 1 = 27; (13-3)/2+1 = 6.
  EXPECT_EQ(InferOutputShape(def, {{96, 55, 55}}).height, 27);
  EXPECT_EQ(InferOutputShape(def, {{256, 13, 13}}).height, 6);
  // Partially covered edge window still produces a pixel: (7-3+1)/2 ceil.
  EXPECT_EQ(InferOutputShape(def, {{1, 7, 7}}).height, 3);
}

TEST(ShapeInference, InnerProductFlattens) {
  LayerDef def;
  def.kind = LayerKind::kInnerProduct;
  def.fc = InnerProductParams{.num_output = 10, .bias = true};
  const BlobShape out = InferOutputShape(def, {{16, 3, 3}});
  EXPECT_EQ(out.channels, 10);
  EXPECT_EQ(out.height, 1);
  EXPECT_EQ(out.width, 1);
}

TEST(ShapeInference, ElementwisePreservesShape) {
  for (LayerKind kind : {LayerKind::kRelu, LayerKind::kSigmoid,
                         LayerKind::kTanh, LayerKind::kSoftmax}) {
    LayerDef def;
    def.kind = kind;
    if (kind == LayerKind::kDropout) def.dropout = DropoutParams{};
    const BlobShape out = InferOutputShape(def, {{5, 7, 9}});
    EXPECT_EQ(out, (BlobShape{5, 7, 9}));
  }
}

TEST(ShapeInference, LrnValidatesLocalSize) {
  LayerDef def;
  def.name = "n";
  def.kind = LayerKind::kLrn;
  def.lrn = LrnParams{.local_size = 5, .alpha = 1e-4, .beta = 0.75};
  EXPECT_EQ(InferOutputShape(def, {{96, 4, 4}}), (BlobShape{96, 4, 4}));
  EXPECT_THROW(InferOutputShape(def, {{3, 4, 4}}), Error);
}

TEST(ShapeInference, ConcatSumsChannels) {
  LayerDef def;
  def.name = "cat";
  def.kind = LayerKind::kConcat;
  const BlobShape out =
      InferOutputShape(def, {{3, 8, 8}, {5, 8, 8}, {2, 8, 8}});
  EXPECT_EQ(out.channels, 10);
  EXPECT_THROW(InferOutputShape(def, {{3, 8, 8}, {5, 4, 4}}), Error);
}

TEST(ShapeInference, RecurrentAndAssociative) {
  LayerDef rec;
  rec.kind = LayerKind::kRecurrent;
  rec.recurrent = RecurrentParams{.num_output = 25, .time_steps = 60,
                                  .activation = RecurrentActivation::kTanh};
  EXPECT_EQ(InferOutputShape(rec, {{25, 1, 1}}).channels, 25);

  LayerDef assoc;
  assoc.kind = LayerKind::kAssociative;
  assoc.associative = AssociativeParams{.num_cells = 512,
                                        .generalization = 8,
                                        .num_output = 2};
  EXPECT_EQ(InferOutputShape(assoc, {{2, 1, 1}}).channels, 2);
}

TEST(ShapeInference, ClassifierOutputsTopK) {
  LayerDef def;
  def.kind = LayerKind::kClassifier;
  def.classifier = ClassifierParams{.top_k = 5};
  EXPECT_EQ(InferOutputShape(def, {{1000, 1, 1}}).channels, 5);
}

TEST(ShapeInference, WrongArityRejected) {
  LayerDef def;
  def.name = "r";
  def.kind = LayerKind::kRelu;
  EXPECT_THROW(InferOutputShape(def, {}), Error);
  EXPECT_THROW(InferOutputShape(def, {{1, 2, 2}, {1, 2, 2}}), Error);
}

TEST(Network, RecurrenceDetected) {
  const Network hopfield = BuildZooModel(ZooModel::kHopfield);
  EXPECT_TRUE(hopfield.HasRecurrence());
  const Network mnist = BuildZooModel(ZooModel::kMnist);
  EXPECT_FALSE(mnist.HasRecurrence());
}

TEST(Network, RecurrentConnectOnStatelessKindRejected) {
  EXPECT_THROW(
      Network::Build(ParseNetworkDef(
          Header(1, 4, 4) +
          "layers { name: \"r\" type: RELU bottom: \"data\" top: \"r\" "
          "connect { name: \"x\" direction: recurrent type: full } }\n")),
      Error);
}

// Table 1 decomposition: layer-kind presence per model.
TEST(Network, KindHistogramMatchesTable1) {
  const auto mnist = BuildZooModel(ZooModel::kMnist).KindHistogram();
  EXPECT_GT(mnist.at(LayerKind::kConvolution), 0);
  EXPECT_GT(mnist.at(LayerKind::kPooling), 0);
  EXPECT_GT(mnist.at(LayerKind::kInnerProduct), 0);
  EXPECT_EQ(mnist.count(LayerKind::kDropout), 0u);

  const auto alexnet = BuildZooModel(ZooModel::kAlexnet).KindHistogram();
  EXPECT_GT(alexnet.at(LayerKind::kDropout), 0);
  EXPECT_GT(alexnet.at(LayerKind::kLrn), 0);

  const auto cmac = BuildZooModel(ZooModel::kCmac).KindHistogram();
  EXPECT_GT(cmac.at(LayerKind::kAssociative), 0);
  EXPECT_EQ(cmac.count(LayerKind::kConvolution), 0u);
}

TEST(Network, SummaryMentionsEveryLayer) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const std::string summary = net.Summary();
  for (const IrLayer& layer : net.layers())
    EXPECT_NE(summary.find(layer.name()), std::string::npos)
        << layer.name();
}

TEST(Network, LayerAccessorBoundsChecked) {
  const Network net = BuildZooModel(ZooModel::kAnn0Fft);
  EXPECT_THROW(net.layer(-1), std::logic_error);
  EXPECT_THROW(net.layer(1000), std::logic_error);
}

}  // namespace
}  // namespace db
