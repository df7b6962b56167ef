// Stage-by-stage replay of FftCompressor through the public functions of
// the fft, quant and sparse modules, each call wrapped in a span named after
// the per-layer metric it feeds. The replay mirrors the codec stage for stage
// but skips its wire assembly, so 1 - (replay time / decorator-measured codec time) shows how
// far the replay has drifted from the real codec (core.replay_gap_share).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/fft/fft.h"
#include "fftgrad/quant/range_float.h"
#include "report.h"

namespace perfbench {

/// Per-layer stage metrics (ms per iteration) from the replay spans recorded
/// since `since_ns` (trace_now_ns) over `iterations` replayed iterations; returns the replay
/// time of one iteration in seconds.
double replay_stage_metrics(LayerValues& values, std::uint64_t since_ns,
                            std::size_t iterations);

/// Per-layer replay state: the layer's plan and calibrated quantizer, built
/// once the way a per-layer FftCompressor builds them on its first call.
struct FftReplayState {
  explicit FftReplayState(std::size_t n);  ///< builds the plan (span fft.plan_build)
  fftgrad::fft::FftPlan plan;
  std::optional<fftgrad::quant::RangeFloat> quantizer;  ///< calibrated on first use
};

struct ReplayOutput {
  std::vector<float> reconstruction;
  std::size_t kept = 0;     ///< coefficients kept by the selection
  std::size_t offered = 0;  ///< coefficients the selection chose from
};

/// FftCompressor's compress() then `decompress_reps` decompress() calls.
ReplayOutput replay_fft(std::span<const float> gradient, FftReplayState& state,
                        const fftgrad::core::FftCompressorOptions& options,
                        int decompress_reps);

}  // namespace perfbench
