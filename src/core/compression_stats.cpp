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

}  // namespace fftgrad::core
