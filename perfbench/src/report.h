// The benchmark's metric catalogue. Every workload reports every metric:
// the untraced run the end-to-end set, the traced run the per-layer set.
// A layer a workload does not exercise reports 0 for its busy time.
#pragma once

#include <map>
#include <string>

#include "common.h"

namespace perfbench {

struct EndToEnd {
  double setup_s = 0.0;        ///< median of the run's set-ups
  double peak_rss_mb = 0.0;
  double wire_ratio = 0.0;     ///< raw fp32 bytes / wire bytes
  double recon_rel_err = 0.0;  ///< ||g-g^|| / ||g|| over the codec's own round trips
  double codec_mbps = 0.0;     ///< fp32 MB round-tripped per second of codec time, whole run
  double iter_ms_p50 = 0.0;
  double iter_ms_p90 = 0.0;
  double samples_per_s = 0.0;  ///< samples over the summed time of the run's iterations
};

void emit_end_to_end(RunResult& result, const EndToEnd& e2e);

/// Per-layer values by metric name; names not given report 0.
using LayerValues = std::map<std::string, double>;
void emit_per_layer(RunResult& result, const LayerValues& values);

}  // namespace perfbench
