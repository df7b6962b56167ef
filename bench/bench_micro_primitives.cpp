// Microbenchmarks of the four compression primitives of the Sec 3.3 cost
// model (Tm: precision conversion, Tf: FFT, Ts: top-k selection, Tp: see
// bench_packing) plus the end-to-end codecs. The measured bytes/second here
// are this substrate's inputs to the Fig 10 analytic model. Every benchmark
// uses real time: the fp16, quantizer, top-k and codec kernels split their
// work over the thread pool, so main-thread CPU time would undercount them and
// overstate bytes/second. `--benchmark_out=<file>` writes the results as
// JSON.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/fft/fft.h"
#include "fftgrad/quant/half.h"
#include "fftgrad/quant/range_float.h"
#include "fftgrad/sparse/topk.h"
#include "fftgrad/util/rng.h"

namespace {

using namespace fftgrad;

std::vector<float> gradient_like(std::size_t n) {
  util::Rng rng(7);
  std::vector<float> g(n);
  for (float& v : g) v = static_cast<float>(rng.normal(0.0, 0.02));
  return g;
}

void BM_HalfRoundTrip(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  std::vector<float> out(g.size());
  for (auto _ : state) {
    quant::half_round_trip(g, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_HalfRoundTrip)->Arg(1 << 18)->Arg(1 << 21)->UseRealTime();

void BM_RangeQuantEncode(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  const quant::RangeFloat codec = quant::RangeFloat::tune(10, -1.0f, 1.0f, g);
  std::vector<std::uint32_t> codes(g.size());
  for (auto _ : state) {
    codec.encode(g, codes);
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_RangeQuantEncode)->Arg(1 << 18)->Arg(1 << 21)->UseRealTime();

void BM_FftForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto g = gradient_like(n);
  fft::FftPlan plan(n);
  std::vector<fft::cfloat> bins(plan.real_bins());
  for (auto _ : state) {
    plan.rfft(g, bins);
    benchmark::DoNotOptimize(bins.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_FftForward)
    ->Arg(1 << 16)
    ->Arg(1 << 20)
    ->Arg((1 << 20) + 1)  // last: Bluestein
    ->UseRealTime();

void BM_TopKSelect(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  std::vector<float> mags(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) mags[i] = std::fabs(g[i]);
  const auto method = static_cast<sparse::TopKMethod>(state.range(1));
  const std::size_t k = g.size() / 10;
  for (auto _ : state) {
    auto result = sparse::topk_threshold(mags, k, method);
    benchmark::DoNotOptimize(result.threshold);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_TopKSelect)
    ->Args({1 << 20, static_cast<long>(sparse::TopKMethod::kSort)})
    ->Args({1 << 20, static_cast<long>(sparse::TopKMethod::kNthElement)})
    ->Args({1 << 20, static_cast<long>(sparse::TopKMethod::kBucket)})
    ->UseRealTime();

void BM_FftCompressorEndToEnd(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  core::FftCompressor codec({.theta = 0.85, .quantizer_bits = 10});
  std::vector<float> recon(g.size());
  for (auto _ : state) {
    const core::Packet p = codec.compress(g);
    codec.decompress(p, recon);
    benchmark::DoNotOptimize(recon.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_FftCompressorEndToEnd)->Arg(1 << 18)->UseRealTime();

void BM_TopKCompressorEndToEnd(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  core::TopKCompressor codec(0.85);
  std::vector<float> recon(g.size());
  for (auto _ : state) {
    const core::Packet p = codec.compress(g);
    codec.decompress(p, recon);
    benchmark::DoNotOptimize(recon.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_TopKCompressorEndToEnd)->Arg(1 << 18)->UseRealTime();

void BM_QsgdCompressorEndToEnd(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  core::QsgdCompressor codec(3);
  std::vector<float> recon(g.size());
  for (auto _ : state) {
    const core::Packet p = codec.compress(g);
    codec.decompress(p, recon);
    benchmark::DoNotOptimize(recon.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_QsgdCompressorEndToEnd)->Arg(1 << 18)->UseRealTime();

void BM_TernGradCompressorEndToEnd(benchmark::State& state) {
  const auto g = gradient_like(static_cast<std::size_t>(state.range(0)));
  core::TernGradCompressor codec;
  std::vector<float> recon(g.size());
  for (auto _ : state) {
    const core::Packet p = codec.compress(g);
    codec.decompress(p, recon);
    benchmark::DoNotOptimize(recon.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size() * sizeof(float)));
}
BENCHMARK(BM_TernGradCompressorEndToEnd)->Arg(1 << 18)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
