#include "sim/system_sim.h"

#include "common/error.h"

namespace db {

WeightStore DecodeWeights(const MemoryImage& image, const Network& net,
                          const AcceleratorDesign& design) {
  const FixedFormat& fmt = design.config.format;
  const RawWeights raw = RawWeights::Decode(image, net, design);
  WeightStore store = WeightStore::CreateFor(net);
  for (const IrLayer* layer : net.ComputeLayers()) {
    if (!store.Has(layer->name())) continue;
    LayerParams& params = store.at(layer->name());
    raw.Visit(*layer, [&](const auto& words) {
      auto dequantize = [&](Tensor& t, const auto& w) {
        for (std::int64_t i = 0; i < t.size(); ++i)
          t[i] = static_cast<float>(
              fmt.Dequantize(w[static_cast<std::size_t>(i)]));
      };
      dequantize(params.weights, words.weights);
      dequantize(params.bias, words.bias);
      dequantize(params.recurrent, words.recurrent);
    });
  }
  return store;
}

SystemContext::SystemContext(const Network& net,
                             const AcceleratorDesign& design,
                             const MemoryImage& image)
    : SystemContext(net, design,
                    std::make_shared<const RawWeights>(
                        RawWeights::Decode(image, net, design))) {}

SystemContext::SystemContext(const Network& net,
                             const AcceleratorDesign& design,
                             std::shared_ptr<const RawWeights> weights)
    : net_(net), design_(design), sim_(net, design, std::move(weights)) {
  // Precompute the input/output blob regions and tile permutations:
  // they depend only on (net, design), and rebuilding them per request
  // dominated the serve hot path for small models.
  const IrLayer& in_layer = net.layer(net.input_ids().front());
  const IrLayer& out_layer = net.OutputLayer();
  in_region_ = &design.memory_map.Blob(in_layer.name());
  out_region_ = &design.memory_map.Blob(out_layer.name());
  in_order_ = BlobTileOrder(net, design, in_layer.id);
  out_order_ = BlobTileOrder(net, design, out_layer.id);
}

SystemRunResult SystemContext::Run(MemoryImage& image, const Tensor& input,
                                   const PerfOptions& perf_options) const {
  // Host writes the input blob into DRAM in the compiler's tile order.
  StoreBlob(image, design_, *in_region_, in_order_, input);

  SystemRunResult result;
  const Tensor raw_out = sim_.Run(input);

  // Accelerator writes the output blob; host reads it back.
  StoreBlob(image, design_, *out_region_, out_order_, raw_out);
  result.output = ExtractBlob(image, design_, *out_region_, out_order_,
                              net_.OutputLayer().output_shape);
  result.perf = SimulatePerformance(net_, design_, perf_options);
  result.status = StatusCode::kOk;
  return result;
}

std::vector<SystemReplica> ReplicateSystem(const Network& net,
                                           const AcceleratorDesign& design,
                                           const MemoryImage& provisioned,
                                           int count) {
  DB_CHECK_MSG(count >= 1, "a system needs at least one replica");
  const auto weights = std::make_shared<const RawWeights>(
      RawWeights::Decode(provisioned, net, design));
  std::vector<SystemReplica> replicas;
  replicas.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    replicas.push_back(
        {provisioned, std::make_unique<SystemContext>(net, design, weights)});
  return replicas;
}

SystemRunResult RunSystem(const Network& net,
                          const AcceleratorDesign& design,
                          MemoryImage& image, const Tensor& input,
                          const PerfOptions& perf_options) {
  // The accelerator's view of the weights comes from the image bytes;
  // re-decoding here keeps corruption of weight regions visible.
  const SystemContext context(net, design, image);
  return context.Run(image, input, perf_options);
}

}  // namespace db
