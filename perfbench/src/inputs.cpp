#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <span>

#include "fftgrad/nn/gradient_sampler.h"
#include "fftgrad/util/crc32.h"
#include "fftgrad/util/rng.h"

namespace perfbench {
namespace {

std::size_t shrink(std::size_t size, bool smoke) { return smoke ? size / 512 + 64 : size; }

// Layer gradients are stitched from windows of the sampled gradient, so
// large layers keep its local structure without repeating it periodically
// (a periodic signal would have an unrealistically sparse spectrum).
constexpr std::size_t kMinSegment = 256;
constexpr std::size_t kMaxSegment = 4096;

}  // namespace

std::vector<LayerSpec> alexnet_layers(bool smoke) {
  std::vector<LayerSpec> layers = {
      {"conv1", 34848},  {"conv2", 614400},       {"conv3", 884736},     {"conv4", 1327104},
      {"conv5", 884736}, {"fc7", 16777216, true}, {"fc8", 4096000, true}};
  for (LayerSpec& layer : layers) layer.size = shrink(layer.size, smoke);
  return layers;
}

std::vector<LayerSpec> resnet32_layers(bool smoke) {
  std::vector<LayerSpec> layers;
  layers.push_back({"stem", 432});
  const std::size_t channels[3] = {16, 32, 64};
  for (int s = 0; s < 3; ++s) {
    for (int c = 0; c < 10; ++c) {
      std::string name = "s";
      name += std::to_string(s + 1);
      name += "c";
      name += std::to_string(c + 1);
      layers.push_back({name, 9 * channels[s] * channels[s]});
    }
  }
  layers.push_back({"fc", 640, true});
  for (LayerSpec& layer : layers) layer.size = shrink(layer.size, smoke);
  return layers;
}

GradientSamples sample_gradients() {
  fftgrad::nn::GradientSampleOptions options;
  options.warm_iters = 10;
  GradientSamples samples;
  samples.conv = fftgrad::nn::sample_training_gradient(options);
  options.source = fftgrad::nn::GradientSource::kMlp;
  samples.dense = fftgrad::nn::sample_training_gradient(options);
  return samples;
}

std::vector<std::vector<float>> make_layer_inputs(const std::vector<LayerSpec>& layers,
                                                  const GradientSamples& samples,
                                                  std::uint64_t seed, std::uint64_t variant) {
  fftgrad::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + variant * 0xbf58476d1ce4e5b9ull + 17);
  std::vector<std::vector<float>> inputs;
  inputs.reserve(layers.size());
  for (const LayerSpec& layer : layers) {
    const std::vector<float>& base = layer.dense ? samples.dense : samples.conv;
    std::vector<float> x(layer.size);
    std::size_t filled = 0;
    while (filled < x.size()) {
      const std::size_t length = std::min<std::size_t>(
          x.size() - filled, kMinSegment + rng.uniform_index(kMaxSegment - kMinSegment + 1));
      std::size_t at = static_cast<std::size_t>(rng.uniform_index(base.size()));
      for (std::size_t i = 0; i < length; ++i) {
        x[filled + i] = base[at];
        if (++at == base.size()) at = 0;
      }
      filled += length;
    }
    inputs.push_back(std::move(x));
  }
  return inputs;
}

std::string digest(const std::vector<std::vector<float>>& inputs) {
  std::uint32_t crc = 0;
  for (const std::vector<float>& x : inputs) {
    crc = fftgrad::util::crc32(
        std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(x.data()),
                                      x.size() * sizeof(float)),
        crc);
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

}  // namespace perfbench
