#include "report.h"

#include <utility>
#include <vector>

namespace perfbench {
namespace {

const std::vector<std::pair<const char*, const char*>>& per_layer_catalogue() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"fft.rfft_ms", "ms"},
      {"fft.irfft_ms", "ms"},
      {"fft.plan_build_ms", "ms"},
      {"fft.plan_rss_mb", "MB"},
      {"quant.fp16_ms", "ms"},
      {"quant.encode_ms", "ms"},
      {"quant.decode_ms", "ms"},
      {"quant.calibrate_ms", "ms"},
      {"sparse.select_ms", "ms"},
      {"sparse.pack_ms", "ms"},
      {"sparse.unpack_ms", "ms"},
      {"sparse.mask_ms", "ms"},
      {"sparse.kept_fraction", "ratio"},
      {"core.compress_ms_p50", "ms"},
      {"core.decompress_ms_p50", "ms"},
      {"core.codec_calls", "count"},
      {"core.codec_share", "ratio"},
      {"core.trainer_other_ms", "ms"},
      {"core.replay_gap_share", "ratio"},
      {"nn.forward_ms", "ms"},
      {"nn.backward_ms", "ms"},
      {"comm.allgather_ms_p50", "ms"},
      {"comm.exchange_wait_ms_p50", "ms"},
      {"comm.rank_skew_ms", "ms"},
      {"comm.skipped_contributions", "count"},
      {"comm.degraded_iterations", "count"},
      {"wire.frame_ms", "ms"},
      {"wire.unframe_ms", "ms"},
      {"parallel.dispatch_us", "us"},
      {"parallel.scaling_eff", "ratio"},
      {"bench.trace_overhead", "ratio"},
  };
  return names;
}

}  // namespace

void emit_end_to_end(RunResult& result, const EndToEnd& e2e) {
  result.metric("setup_s", e2e.setup_s, "s");
  result.metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
  result.metric("wire_ratio", e2e.wire_ratio, "x");
  result.metric("recon_rel_err", e2e.recon_rel_err, "ratio");
  result.metric("codec_mbps", e2e.codec_mbps, "MB/s");
  result.metric("iter_ms_p50", e2e.iter_ms_p50, "ms");
  result.metric("iter_ms_p90", e2e.iter_ms_p90, "ms");
  result.metric("samples_per_s", e2e.samples_per_s, "1/s");
}

void emit_per_layer(RunResult& result, const LayerValues& values) {
  std::size_t known = 0;
  for (const auto& [name, unit] : per_layer_catalogue()) {
    const auto it = values.find(name);
    if (it != values.end()) ++known;
    result.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  if (known != values.size()) result.wrong("per-layer value outside the metric catalogue");
}

}  // namespace perfbench
