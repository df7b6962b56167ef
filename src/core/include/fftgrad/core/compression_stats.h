// Round-trip quality metrics for a compressor on a given gradient:
// reconstruction error norms, the Assumption-3.2 alpha, and the achieved
// wire ratio. Used by the theorem-validation and Fig 5/15 benches.
#pragma once

#include <span>
#include <vector>

#include "fftgrad/core/compressor.h"

namespace fftgrad::core {

struct RoundTripStats {
  double alpha = 0.0;       ///< ||g - g_hat|| / ||g||   (Assumption 3.2)
  double rms_error = 0.0;   ///< sqrt(mean((g - g_hat)^2))
  double max_error = 0.0;   ///< max_i |g_i - g_hat_i|
  double ratio = 0.0;       ///< 4n bytes / wire bytes
  std::size_t wire_bytes = 0;
};

/// Compress+decompress `gradient` through `compressor`; fills `reconstructed`
/// (resized to match) and returns the stats.
RoundTripStats measure_round_trip(GradientCompressor& compressor,
                                  std::span<const float> gradient,
                                  std::vector<float>& reconstructed);

}  // namespace fftgrad::core
