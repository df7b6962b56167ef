#include "replay.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fftgrad/parallel/thread_pool.h"
#include "fftgrad/quant/half.h"
#include "fftgrad/sparse/mask_coding.h"
#include "fftgrad/sparse/pack.h"
#include "fftgrad/sparse/topk.h"

namespace perfbench {
namespace {

using fftgrad::fft::cfloat;
namespace sparse = fftgrad::sparse;
namespace quant = fftgrad::quant;

/// Exact-k keep mask with ties broken by index, as FftCompressor builds it.
sparse::Bitmap keep_mask(std::span<const float> magnitudes, std::size_t k,
                         sparse::TopKMethod method) {
  sparse::Bitmap mask(magnitudes.size());
  if (k >= magnitudes.size()) {
    for (std::size_t i = 0; i < magnitudes.size(); ++i) mask.set(i);
    return mask;
  }
  if (k == 0) return mask;
  const sparse::TopKResult sel = sparse::topk_threshold(magnitudes, k, method);
  std::size_t ties = k - sel.above;
  for (std::size_t i = 0; i < magnitudes.size(); ++i) {
    if (magnitudes[i] > sel.threshold) {
      mask.set(i);
    } else if (magnitudes[i] == sel.threshold && ties > 0) {
      mask.set(i);
      --ties;
    }
  }
  return mask;
}

std::size_t kept_target(double theta, std::size_t n) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround((1.0 - theta) * static_cast<double>(n))));
}

sparse::Bitmap decode_mask(std::span<const std::uint8_t> bytes, std::size_t n,
                           std::size_t kept) {
  return std::move(sparse::decode_mask(bytes, n))
      .release([&](const sparse::Bitmap& m) { return m.count() == kept; }, "replay keep-mask");
}

}  // namespace

double replay_stage_metrics(LayerValues& values, std::uint64_t since_ns,
                            std::size_t iterations) {
  static const std::pair<const char*, const char*> stages[] = {
      {"fft.rfft", "fft.rfft_ms"},         {"fft.irfft", "fft.irfft_ms"},
      {"quant.fp16", "quant.fp16_ms"},     {"quant.encode", "quant.encode_ms"},
      {"quant.decode", "quant.decode_ms"}, {"sparse.select", "sparse.select_ms"},
      {"sparse.pack", "sparse.pack_ms"},   {"sparse.unpack", "sparse.unpack_ms"},
      {"sparse.mask", "sparse.mask_ms"}};
  double total = 0.0;
  for (const auto& [span_name, metric] : stages) {
    const double seconds =
        span_total_s(span_name, since_ns) / static_cast<double>(iterations);
    total += seconds;
    values[metric] = seconds * 1e3;
  }
  return total;
}

FftReplayState::FftReplayState(std::size_t n)
    : plan([n] {
        ScopedSpan span("fft.plan_build");
        return fftgrad::fft::FftPlan(n);
      }()) {}

ReplayOutput replay_fft(std::span<const float> gradient, FftReplayState& state,
                        const fftgrad::core::FftCompressorOptions& options,
                        int decompress_reps) {
  auto& pool = fftgrad::parallel::ThreadPool::global();
  const std::size_t n = gradient.size();
  const std::size_t bins = state.plan.real_bins();
  ReplayOutput result;
  result.offered = bins;

  std::vector<std::uint8_t> mask_bytes;
  std::vector<std::uint8_t> packed;
  std::size_t kept_count = 0;
  float peak = 0.0f;
  {
    ScopedSpan call("replay.compress");
    std::vector<float> signal(n);
    {
      ScopedSpan span("quant.fp16");
      if (options.use_fp16_stage) {
        quant::half_round_trip(gradient, signal);
      } else {
        std::copy(gradient.begin(), gradient.end(), signal.begin());
      }
    }
    std::vector<cfloat> spectrum(bins);
    {
      ScopedSpan span("fft.rfft");
      state.plan.rfft(signal, spectrum);
    }
    sparse::Bitmap mask;
    {
      ScopedSpan span("sparse.select");
      std::vector<float> magnitudes(bins);
      for (std::size_t i = 0; i < bins; ++i) magnitudes[i] = std::abs(spectrum[i]);
      mask = keep_mask(magnitudes, kept_target(options.theta, bins), options.topk_method);
    }
    std::vector<cfloat> kept;
    {
      ScopedSpan span("sparse.pack");
      kept = sparse::pack_bitmap<cfloat>(pool, spectrum, mask);
    }
    kept_count = kept.size();
    const std::span<const float> parts(reinterpret_cast<const float*>(kept.data()),
                                       kept.size() * 2);
    if (options.quantizer_bits == 0) throw std::invalid_argument("replay: needs quantizer bits");
    std::vector<float> normalized(parts.size());
    for (float v : parts) peak = std::max(peak, std::fabs(v));
    const float inv_peak = peak > 0.0f ? 1.0f / peak : 0.0f;
    for (std::size_t i = 0; i < parts.size(); ++i) normalized[i] = parts[i] * inv_peak;
    if (!state.quantizer) {
      ScopedSpan span("quant.calibrate");
      state.quantizer = quant::RangeFloat::tune(options.quantizer_bits, -1.0f, 1.0f, normalized);
    }
    {
      ScopedSpan span("quant.encode");
      std::vector<std::uint32_t> codes(normalized.size());
      state.quantizer->encode(normalized, codes);
      packed = quant::pack_codes(codes, state.quantizer->params().bits);
    }
    {
      ScopedSpan span("sparse.mask");
      mask_bytes = sparse::encode_mask(mask);
    }
  }

  result.kept = kept_count;
  result.reconstruction.resize(n);
  for (int rep = 0; rep < decompress_reps; ++rep) {
    ScopedSpan call("replay.decompress");
    sparse::Bitmap mask;
    {
      ScopedSpan span("sparse.mask");
      mask = decode_mask(mask_bytes, bins, kept_count);
    }
    std::vector<cfloat> kept(kept_count);
    const std::span<float> parts(reinterpret_cast<float*>(kept.data()), kept_count * 2);
    {
      ScopedSpan span("quant.decode");
      const std::vector<std::uint32_t> codes =
          std::move(quant::unpack_codes(packed, state.quantizer->params().bits, parts.size()))
              .release(
                  [&](const std::vector<std::uint32_t>& c) { return c.size() == parts.size(); },
                  "replay coefficient codes");
      state.quantizer->decode(codes, parts);
      for (float& v : parts) v *= peak;
    }
    std::vector<cfloat> spectrum(bins);
    {
      ScopedSpan span("sparse.unpack");
      sparse::unpack_bitmap<cfloat>(pool, kept, mask, spectrum);
    }
    {
      ScopedSpan span("fft.irfft");
      state.plan.irfft(spectrum, result.reconstruction);
    }
  }
  return result;
}

}  // namespace perfbench
