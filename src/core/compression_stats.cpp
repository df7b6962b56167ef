#include "fftgrad/core/compression_stats.h"

#include <algorithm>
#include <cmath>

#include "fftgrad/util/stats.h"

namespace fftgrad::core {

RoundTripStats measure_round_trip(GradientCompressor& compressor,
                                  std::span<const float> gradient,
                                  std::vector<float>& reconstructed) {
  reconstructed.assign(gradient.size(), 0.0f);
  const Packet packet = compressor.compress(gradient);
  compressor.decompress(packet, reconstructed);

  RoundTripStats stats;
  stats.alpha = util::relative_error_alpha(gradient, reconstructed);
  stats.rms_error = util::rms_error(gradient, reconstructed);
  for (std::size_t i = 0; i < gradient.size(); ++i) {
    stats.max_error =
        std::max(stats.max_error, std::fabs(static_cast<double>(gradient[i]) - reconstructed[i]));
  }
  stats.wire_bytes = packet.wire_bytes();
  stats.ratio = packet.ratio();
  return stats;
}

void record_round_trip(telemetry::LedgerIteration& row, std::span<const float> truth,
                       std::span<const float> recon,
                       std::span<const nn::ParamSegment> layout) {
  const auto stats = [&](const std::string& name, std::size_t offset, std::size_t count) {
    const auto t = truth.subspan(offset, count);
    const auto r = recon.subspan(offset, count);
    telemetry::LedgerLayerStats out{name, util::relative_error_alpha(t, r), util::rms_error(t, r),
                                    0.0};
    for (std::size_t i = 0; i < count; ++i) {
      out.max_error = std::max(out.max_error, static_cast<double>(std::fabs(t[i] - r[i])));
    }
    return out;
  };
  const telemetry::LedgerLayerStats whole = stats("", 0, truth.size());
  row.alpha = whole.alpha;
  row.rms_error = whole.rms_error;
  row.max_error = whole.max_error;
  for (const nn::ParamSegment& seg : layout) {
    row.layers.push_back(stats(seg.name, seg.offset, seg.count));
  }
}

}  // namespace fftgrad::core
