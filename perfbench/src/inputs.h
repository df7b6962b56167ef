// Seeded workload inputs. Every input is a pure function of the seed: the
// codec workloads' layer gradients are drawn from real sampled training
// gradients (nn::sample_training_gradient); the trainers' per-rank batch
// order comes from the seed (model, task and initial weights are fixed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct LayerSpec {
  std::string name;
  std::size_t size = 0;  ///< gradient elements
  bool dense = false;    ///< fully connected: drawn from the dense-layer gradient
};

/// The sampled training gradients layer inputs are drawn from: a conv net's
/// for convolution layers, an MLP's for fully connected ones. They do not
/// depend on the seed.
struct GradientSamples {
  std::vector<float> conv;
  std::vector<float> dense;
};
GradientSamples sample_gradients();

/// AlexNet conv1-conv5, fc7 and fc8 (fc6 is left out: one call takes tens of
/// seconds and a multi-GB plan).
std::vector<LayerSpec> alexnet_layers(bool smoke);
/// ResNet32 (CIFAR-10) as in bench_fig02: stem, 3 stages x 10 3x3 convs, fc.
std::vector<LayerSpec> resnet32_layers(bool smoke);

/// One gradient per layer, stitched from seeded windows (256-4096 elements
/// at seeded offsets) of the sampled gradient of the layer's kind. The seed
/// picks the windows; `variant` selects one of several independent draws
/// for the same seed.
std::vector<std::vector<float>> make_layer_inputs(const std::vector<LayerSpec>& layers,
                                                  const GradientSamples& samples,
                                                  std::uint64_t seed, std::uint64_t variant);

/// Hex CRC-32 over the bytes of `inputs`, for input-determinism checks.
std::string digest(const std::vector<std::vector<float>>& inputs);

}  // namespace perfbench
