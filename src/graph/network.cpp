#include "graph/network.h"

#include <set>
#include <sstream>

#include "common/error.h"
#include "common/math_util.h"

namespace db {

std::string BlobShape::ToString() const {
  std::ostringstream os;
  os << channels << "x" << height << "x" << width;
  return os.str();
}

namespace {

/// n + 2 * pad - k, the extent a window of k sweeps over a padded input
/// of n (negative when it does not fit), saturating so a pad near 2^62
/// cannot wrap; the blob cap in Network::Build rejects what it yields.
std::int64_t WindowSpan(std::int64_t n, std::int64_t k, std::int64_t pad) {
  return SatAdd(n, SatMul(2, pad)) - k;
}

}  // namespace

BlobShape InferOutputShape(const LayerDef& def,
                           const std::vector<BlobShape>& inputs) {
  auto require_one_input = [&]() -> const BlobShape& {
    if (inputs.size() != 1)
      DB_THROW("layer '" << def.name << "' ("
               << LayerKindName(def.kind) << ") expects exactly one bottom, "
               "got " << inputs.size());
    return inputs.front();
  };

  switch (def.kind) {
    case LayerKind::kInput:
      DB_THROW("input layers have no inferred shape");
    case LayerKind::kConvolution: {
      const BlobShape& in = require_one_input();
      const ConvolutionParams& p = *def.conv;
      if (in.channels % p.group != 0)
        DB_THROW("convolution '" << def.name << "': input channels "
                 << in.channels << " not divisible by group " << p.group);
      const std::int64_t oh =
          WindowSpan(in.height, p.kernel_size, p.pad) / p.stride + 1;
      const std::int64_t ow =
          WindowSpan(in.width, p.kernel_size, p.pad) / p.stride + 1;
      if (oh <= 0 || ow <= 0)
        DB_THROW("convolution '" << def.name << "': kernel "
                 << p.kernel_size << " does not fit input "
                 << in.ToString());
      return {p.num_output, oh, ow};
    }
    case LayerKind::kPooling: {
      const BlobShape& in = require_one_input();
      const PoolingParams& p = *def.pool;
      // Caffe-style ceil semantics: a partially-covered window at the edge
      // still yields an output pixel.
      const std::int64_t span_h = WindowSpan(in.height, p.kernel_size, p.pad);
      const std::int64_t span_w = WindowSpan(in.width, p.kernel_size, p.pad);
      if (span_h < 0 || span_w < 0)
        DB_THROW("pooling '" << def.name << "': kernel does not fit input "
                 << in.ToString());
      return {in.channels, CeilDiv(span_h, p.stride) + 1,
              CeilDiv(span_w, p.stride) + 1};
    }
    case LayerKind::kInnerProduct: {
      const BlobShape& in = require_one_input();
      if (in.NumElements() <= 0)
        DB_THROW("inner_product '" << def.name << "' has empty input");
      return {def.fc->num_output, 1, 1};
    }
    case LayerKind::kRelu:
    case LayerKind::kSigmoid:
    case LayerKind::kTanh:
    case LayerKind::kDropout:
    case LayerKind::kSoftmax:
      return require_one_input();
    case LayerKind::kLrn: {
      const BlobShape& in = require_one_input();
      if (def.lrn->local_size > in.channels)
        DB_THROW("lrn '" << def.name << "': local_size "
                 << def.lrn->local_size << " exceeds channel count "
                 << in.channels);
      return in;
    }
    case LayerKind::kRecurrent: {
      const BlobShape& in = require_one_input();
      (void)in;
      return {def.recurrent->num_output, 1, 1};
    }
    case LayerKind::kLstm: {
      require_one_input();
      return {def.lstm->num_output, 1, 1};
    }
    case LayerKind::kAssociative: {
      require_one_input();
      return {def.associative->num_output, 1, 1};
    }
    case LayerKind::kConcat: {
      if (inputs.empty())
        DB_THROW("concat '" << def.name << "' needs at least one bottom");
      BlobShape out = inputs.front();
      out.channels = 0;
      for (const BlobShape& in : inputs) {
        if (in.height != out.height || in.width != out.width)
          DB_THROW("concat '" << def.name
                   << "': spatial dimensions differ across bottoms");
        out.channels += in.channels;
      }
      return out;
    }
    case LayerKind::kClassifier: {
      const BlobShape& in = require_one_input();
      (void)in;
      return {def.classifier->top_k, 1, 1};
    }
  }
  DB_THROW("unhandled layer kind in shape inference");
}

namespace {

/// channels x height x width, saturating at INT64_MAX.
std::int64_t CheckedElements(const BlobShape& s) {
  return SatMul(SatMul(s.channels, s.height), s.width);
}

/// All of a layer's parameter words, saturating: the tensors
/// ParamCountsFor (nn/weights.h) allocates, summed.
std::int64_t CheckedParamCount(const IrLayer& layer) {
  if (layer.input_shapes.empty()) return 0;
  const std::int64_t in_n = CheckedElements(layer.input_shapes.front());
  // out x fan_in weights, out x state recurrent words, and out bias
  // words if `bias`.
  auto words = [](std::int64_t out, std::int64_t fan_in, std::int64_t state,
                  bool bias) {
    return SatAdd(SatAdd(SatMul(out, fan_in), SatMul(out, state)),
                  bias ? out : 0);
  };
  switch (layer.kind()) {
    case LayerKind::kConvolution: {
      const ConvolutionParams& p = *layer.def.conv;
      const std::int64_t fan_in =
          SatMul(layer.input_shapes.front().channels / p.group,
                 SatMul(p.kernel_size, p.kernel_size));
      return words(p.num_output, fan_in, 0, p.bias);
    }
    case LayerKind::kInnerProduct:
      return words(layer.def.fc->num_output, in_n, 0, layer.def.fc->bias);
    case LayerKind::kRecurrent: {
      const std::int64_t n = layer.def.recurrent->num_output;
      return words(n, in_n, n, true);
    }
    case LayerKind::kLstm: {
      const std::int64_t n = layer.def.lstm->num_output;
      return words(SatMul(4, n), in_n, n, true);
    }
    case LayerKind::kAssociative:
      return words(layer.def.associative->num_output,
                   layer.def.associative->num_cells, 0, false);
    default:
      return 0;
  }
}

/// Rejects a blob or parameter count over kMaxTensorElements.
void RequireWithinCap(const std::string& layer, const char* what,
                      std::int64_t elements) {
  if (elements > kMaxTensorElements)
    DB_THROW("layer '" << layer << "': " << what << " of "
             << (elements == INT64_MAX ? std::string("at least 2^63-1")
                                       : std::to_string(elements))
             << " elements exceeds the cap of " << kMaxTensorElements);
}

bool IsInPlaceKind(LayerKind kind) {
  switch (kind) {
    case LayerKind::kRelu:
    case LayerKind::kSigmoid:
    case LayerKind::kTanh:
    case LayerKind::kDropout:
      return true;
    default:
      return false;
  }
}

}  // namespace

Network Network::Build(const NetworkDef& def) {
  Network net;
  net.name_ = def.name;
  if (def.inputs.empty())
    DB_THROW("network '" << def.name
             << "' declares no inputs (need input/input_dim)");

  // blob name -> producing layer id
  std::map<std::string, int> blob_producer;
  std::set<std::string> layer_names;

  for (const InputDef& in : def.inputs) {
    IrLayer layer;
    layer.id = static_cast<int>(net.layers_.size());
    layer.def.name = in.name;
    layer.def.kind = LayerKind::kInput;
    layer.def.tops = {in.name};
    layer.output_shape = {in.channels, in.height, in.width};
    RequireWithinCap(in.name, "input blob",
                     CheckedElements(layer.output_shape));
    if (!blob_producer.emplace(in.name, layer.id).second)
      DB_THROW("duplicate input blob '" << in.name << "'");
    layer_names.insert(in.name);
    net.input_ids_.push_back(layer.id);
    net.layers_.push_back(std::move(layer));
  }

  for (const LayerDef& ldef : def.layers) {
    if (!layer_names.insert(ldef.name).second)
      DB_THROW("duplicate layer name '" << ldef.name << "'");
    IrLayer layer;
    layer.id = static_cast<int>(net.layers_.size());
    layer.def = ldef;
    if (ldef.bottoms.empty())
      DB_THROW("layer '" << ldef.name << "' has no bottom blob");
    for (const std::string& bottom : ldef.bottoms) {
      const auto it = blob_producer.find(bottom);
      if (it == blob_producer.end())
        DB_THROW("layer '" << ldef.name << "' consumes undefined blob '"
                 << bottom << "' (layers must be listed in propagation "
                 "order)");
      layer.input_ids.push_back(it->second);
      layer.input_shapes.push_back(
          net.layers_[static_cast<std::size_t>(it->second)].output_shape);
    }
    layer.output_shape = InferOutputShape(ldef, layer.input_shapes);
    RequireWithinCap(ldef.name, "output blob",
                     CheckedElements(layer.output_shape));
    RequireWithinCap(ldef.name, "parameter count", CheckedParamCount(layer));
    layer.in_place = IsInPlaceKind(ldef.kind) && ldef.tops == ldef.bottoms;

    if (ldef.tops.empty())
      DB_THROW("layer '" << ldef.name << "' has no top blob");
    if (ldef.tops.size() != 1)
      DB_THROW("layer '" << ldef.name
               << "': multiple tops are not supported");
    blob_producer[ldef.tops.front()] = layer.id;
    net.layers_.push_back(std::move(layer));
  }

  // Recurrent connects are declared edges back in time, not graph cycles;
  // everything else must be a DAG, which the "bottoms must already exist"
  // rule above guarantees.  Sanity-check that a recurrent connect only
  // appears on kinds that can carry state.
  for (const IrLayer& layer : net.layers_) {
    for (const ConnectDef& c : layer.def.connects) {
      if (c.direction == ConnectDef::Direction::kRecurrent &&
          layer.kind() != LayerKind::kRecurrent &&
          layer.kind() != LayerKind::kLstm &&
          layer.kind() != LayerKind::kInnerProduct &&
          layer.kind() != LayerKind::kAssociative)
        DB_THROW("layer '" << layer.name() << "' declares a recurrent "
                 "connect but kind " << LayerKindName(layer.kind())
                 << " cannot carry state");
    }
  }
  return net;
}

const IrLayer& Network::layer(int id) const {
  DB_CHECK_MSG(id >= 0 && id < static_cast<int>(layers_.size()),
               "layer id out of range");
  return layers_[static_cast<std::size_t>(id)];
}

std::vector<const IrLayer*> Network::ComputeLayers() const {
  std::vector<const IrLayer*> out;
  for (const IrLayer& layer : layers_)
    if (layer.kind() != LayerKind::kInput) out.push_back(&layer);
  return out;
}

const IrLayer& Network::OutputLayer() const {
  // The sink is the last layer whose top no other layer consumes.
  std::set<int> consumed;
  for (const IrLayer& layer : layers_)
    for (int in : layer.input_ids) consumed.insert(in);
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    if (consumed.find(it->id) == consumed.end() &&
        it->kind() != LayerKind::kInput)
      return *it;
  DB_THROW("network '" << name_ << "' has no output layer");
}

bool Network::HasRecurrence() const {
  for (const IrLayer& layer : layers_) {
    if (layer.kind() == LayerKind::kRecurrent ||
        layer.kind() == LayerKind::kLstm)
      return true;
    for (const ConnectDef& c : layer.def.connects)
      if (c.direction == ConnectDef::Direction::kRecurrent) return true;
  }
  return false;
}

std::map<LayerKind, int> Network::KindHistogram() const {
  std::map<LayerKind, int> hist;
  for (const IrLayer& layer : layers_)
    if (layer.kind() != LayerKind::kInput) ++hist[layer.kind()];
  return hist;
}

std::string Network::Summary() const {
  std::ostringstream os;
  os << "network '" << name_ << "' (" << ComputeLayers().size()
     << " compute layers)\n";
  for (const IrLayer& layer : layers_) {
    os << "  [" << layer.id << "] " << layer.name() << " "
       << LayerKindName(layer.kind());
    if (layer.kind() != LayerKind::kInput) {
      os << "  in=";
      for (std::size_t i = 0; i < layer.input_shapes.size(); ++i) {
        if (i > 0) os << "+";
        os << layer.input_shapes[i].ToString();
      }
    }
    os << "  out=" << layer.output_shape.ToString() << "\n";
  }
  return os.str();
}

}  // namespace db
