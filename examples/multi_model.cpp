// One accelerator, several models: the versatility argument of the
// paper's introduction.  An ASIP's fixed ISA struggles with new layer
// types; a generated fabric is re-targeted per model — and a single
// generated datapath can time-share several models when it is sized for
// the union of their needs.
//
// Generates a shared accelerator for {MNIST, ANN-0 (fft), Cifar}, then
// runs each model's compiled bundle on it.
#include <cstdio>

#include "core/generator.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "sim/functional_sim.h"
#include "sim/perf_model.h"

int main() {
  using namespace db;

  const Network mnist = BuildZooModel(ZooModel::kMnist);
  const Network ann = BuildZooModel(ZooModel::kAnn0Fft);
  const Network cifar = BuildZooModel(ZooModel::kCifar);

  const SharedAccelerator shared =
      GenerateSharedAccelerator({&mnist, &ann, &cifar}, DbConstraint());

  std::printf("shared datapath: %d MAC lanes, %d pooling, %d activation "
              "lanes; %lld LUTs / %lld DSPs; %zu Approx LUT functions\n\n",
              shared.config.TotalLanes(), shared.config.pooling_lanes,
              shared.config.activation_lanes,
              static_cast<long long>(
                  shared.designs[0].resources.total.lut),
              static_cast<long long>(
                  shared.designs[0].resources.total.dsp),
              shared.designs[0].lut_specs.size());

  const Network* nets[] = {&mnist, &ann, &cifar};
  std::printf("%-8s %10s %12s %14s\n", "model", "segments", "us",
              "fidelity");
  Rng rng(3);
  for (std::size_t i = 0; i < shared.designs.size(); ++i) {
    const Network& net = *nets[i];
    const AcceleratorDesign& design = shared.designs[i];
    const PerfResult perf = SimulatePerformance(net, design);

    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    Executor exec(net, weights);
    FunctionalSimulator sim(net, design, weights);
    const BlobShape& s = net.layer(net.input_ids().front()).output_shape;
    Tensor input(Shape{s.channels, s.height, s.width});
    input.FillUniform(rng, 0.0f, 1.0f);
    const double diff =
        MaxAbsDiff(exec.ForwardOutput(input), sim.Run(input));

    std::printf("%-8s %10lld %12.2f %13.4f\n", net.name().c_str(),
                static_cast<long long>(design.fold_plan.TotalSegments()),
                perf.TotalSeconds() * 1e6, diff);
  }
  std::printf("\n(The 'fidelity' column is the max |float - fixed| output "
              "deviation of each model on the shared datapath.)\n");
  return 0;
}
