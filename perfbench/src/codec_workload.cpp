// codec_alexnet and codec_resnet32. One iteration is a layer-wise pass: one
// compress and one decompress of every layer, each layer through its own
// codec. AlexNet's layers overflow a 2 MiB L2 while ResNet32's fit in it, so
// large-transform costs and per-call overheads show on separate workloads.
#include <cmath>
#include <memory>
#include <span>

#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/util/crc32.h"
#include "inputs.h"
#include "probes.h"
#include "replay.h"
#include "report.h"
#include "timing_codec.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = fftgrad::core;

// Per-GPU batch of the paper's layer-wise runs (bench_fig02): samples_per_s
// is the training rate a layer-wise trainer at this batch could sustain if
// the host codec were its only cost.
constexpr double kAlexNetBatch = 64.0;
constexpr double kResNet32Batch = 128.0;
// Set-ups per run. One AlexNet set-up (plans for all seven layers plus their
// first calls) takes 16-25 s on a 4-core Xeon VM, and a pass 9-14 s, so an
// AlexNet run sets up once and makes as few as one pass to stay within the
// benchmark's time budget.
constexpr std::size_t kAlexNetSetups = 1;
constexpr std::size_t kResNet32Setups = 3;
// Independent input draws per seed, used by successive passes in turn. The
// small ResNet32 layers hold only a few windows each, so one draw's error
// depends much on the seed; AlexNet's large layers average many windows
// (and four draws would cost 400 MB).
constexpr std::size_t kAlexNetVariants = 1;
constexpr std::size_t kResNet32Variants = 4;

struct PassStats {
  std::size_t variant = 0;
  double wall_s = 0.0;
  double codec_s = 0.0;
  double raw_bytes = 0.0;
  double wire_bytes = 0.0;
  ErrorSums error;
  std::vector<double> compress_s;
  std::vector<double> decompress_s;
};

class CodecBench {
 public:
  CodecBench(const Options& options, bool alexnet, RunResult& result)
      : options_(options),
        result_(result),
        layers_(alexnet ? alexnet_layers(options.smoke) : resnet32_layers(options.smoke)),
        batch_(alexnet ? kAlexNetBatch : kResNet32Batch),
        variants_(alexnet ? kAlexNetVariants : kResNet32Variants),
        setups_(alexnet ? kAlexNetSetups : kResNet32Setups) {
    log_.capture = false;  // the inputs are ours; no copies needed
  }

  void make_inputs() {
    std::vector<std::vector<float>> all;
    const GradientSamples samples = sample_gradients();
    for (std::size_t v = 0; v < variants_; ++v) {
      inputs_.push_back(make_layer_inputs(layers_, samples, options_.seed, v));
      all.insert(all.end(), inputs_.back().begin(), inputs_.back().end());
    }
    std::size_t largest = 0;
    for (const LayerSpec& layer : layers_) largest = std::max(largest, layer.size);
    out_.assign(largest, 0.0f);
    errors_.assign(layers_.size(), -1.0);
    result_.detail("input_digest", digest(all));
  }

  /// Codec construction plus the first (plan-building, calibrating) round
  /// trip of every layer.
  double setup() {
    codecs_.clear();
    log_.clear_calls();
    const double start = now_s();
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      codecs_.push_back(std::make_unique<TimingCompressor>(
          std::make_unique<core::FftCompressor>(codec_options_), log_));
    }
    for (std::size_t i = 0; i < layers_.size(); ++i) round_trip(0, i, nullptr, nullptr);
    return now_s() - start;
  }

  /// One layer-wise pass. With `packets` and `crcs`, it also keeps every
  /// layer's packet and the CRC-32 of its reconstruction. The CRCs fall
  /// inside `wall_s`, so such a pass is a check, not a timed pass.
  PassStats pass(std::size_t variant, std::vector<core::Packet>* packets,
                 std::vector<std::uint32_t>* crcs) {
    ScopedSpan span("iteration");
    log_.clear_calls();
    if (packets != nullptr) packets->assign(layers_.size(), {});
    if (crcs != nullptr) crcs->assign(layers_.size(), 0);
    PassStats stats;
    stats.variant = variant;
    const double start = now_s();
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      round_trip(variant, i, packets != nullptr ? &(*packets)[i] : nullptr,
                 crcs != nullptr ? &(*crcs)[i] : nullptr);
    }
    stats.wall_s = now_s() - start;
    for (const CodecCall& call : log_.calls) {
      (call.compress ? stats.compress_s : stats.decompress_s).push_back(call.duration_s());
    }
    stats.codec_s = log_.codec_s();
    stats.raw_bytes = log_.raw_bytes;
    stats.wire_bytes = log_.wire_bytes;
    stats.error = log_.error;
    return stats;
  }

  RunResult& result() { return result_; }
  const Options& options() const { return options_; }
  double batch() const { return batch_; }
  const std::vector<LayerSpec>& layers() const { return layers_; }
  std::size_t variants() const { return variants_; }
  std::size_t setups() const { return setups_; }
  const std::vector<std::vector<float>>& inputs(std::size_t variant) const {
    return inputs_[variant];
  }
  const core::FftCompressorOptions& codec_options() const { return codec_options_; }
  void release_codecs() { codecs_.clear(); }
  /// Each layer's largest round-trip error so far, as a JSON object.
  std::string errors_json() const {
    std::string json = "{";
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (i != 0) json += ",";
      json += json_string(layers_[i].name);
      json += ":";
      json += json_number(errors_[i]);
    }
    return json + "}";
  }

 private:
  void round_trip(std::size_t variant, std::size_t i, core::Packet* keep, std::uint32_t* crc) {
    ++result_.attempted;
    const LayerSpec& layer = layers_[i];
    const std::span<float> out(out_.data(), layer.size);
    try {
      core::Packet packet = codecs_[i]->compress(inputs_[variant][i]);
      codecs_[i]->decompress(packet, out);
      if (keep != nullptr) *keep = std::move(packet);
    } catch (const std::exception& error) {
      result_.failed_op(layer.name + ": round trip threw: " + error.what());
      return;
    }
    const double error = log_.calls.back().rel_error;
    errors_[i] = std::max(errors_[i], error);
    const double ceiling = round_trip_ceiling(codec_options_.theta);
    if (!(error >= 0.0 && error <= ceiling)) {
      result_.failed_op(layer.name + ": reconstruction error " + json_number(error) +
                        " over ceiling " + json_number(ceiling));
    }
    if (crc != nullptr) {
      *crc = fftgrad::util::crc32(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(out.data()), out.size_bytes()));
    }
  }

  const Options& options_;
  RunResult& result_;
  std::vector<LayerSpec> layers_;
  double batch_;
  std::size_t variants_;
  std::size_t setups_;
  core::FftCompressorOptions codec_options_;  // paper defaults: theta 0.85, 10 bits, fp16
  std::vector<std::vector<std::vector<float>>> inputs_;  // [variant][layer]
  std::vector<float> out_;
  std::vector<double> errors_;
  CodecLog log_;
  std::vector<std::unique_ptr<TimingCompressor>> codecs_;
};

/// Passes until `seconds` have elapsed, at least `min_passes`; pass p uses
/// input variant p % variants.
std::vector<PassStats> run_passes(CodecBench& bench, double seconds, std::size_t min_passes) {
  std::vector<PassStats> passes;
  const double start = now_s();
  while (passes.size() < min_passes || now_s() - start < seconds) {
    passes.push_back(bench.pass(passes.size() % bench.variants(), nullptr, nullptr));
  }
  return passes;
}

void measure(CodecBench& bench) {
  RunResult& result = bench.result();
  std::vector<double> setups;
  for (std::size_t i = 0; i < bench.setups(); ++i) setups.push_back(bench.setup());
  const std::size_t variants = bench.variants();
  const std::vector<PassStats> passes =
      run_passes(bench, bench.options().seconds, variants);

  EndToEnd e2e;
  e2e.setup_s = median(setups);
  e2e.peak_rss_mb = peak_rss_mb();
  // One pass per input variant: the model gradient's error, RMS over passes.
  double raw = 0.0;
  double wire = 0.0;
  double error2 = 0.0;
  for (std::size_t v = 0; v < variants; ++v) {
    raw += passes[v].raw_bytes;
    wire += passes[v].wire_bytes;
    error2 += passes[v].error.relative() * passes[v].error.relative();
  }
  e2e.wire_ratio = raw / wire;
  e2e.recon_rel_err = std::sqrt(error2 / static_cast<double>(variants));
  std::vector<double> iter_ms;
  double run_bytes = 0.0;
  double run_codec_s = 0.0;
  for (const PassStats& p : passes) {
    iter_ms.push_back(p.codec_s * 1e3);
    run_bytes += p.raw_bytes;
    run_codec_s += p.codec_s;
    const PassStats& same_input = passes[p.variant];
    if (p.wire_bytes != same_input.wire_bytes || p.error.error2 != same_input.error.error2) {
      result.wrong("codec output changed between passes over identical inputs");
    }
  }
  // Throughputs are totals over the run, not medians of per-pass rates: the
  // host alternates between fast and slow phases lasting seconds, and a
  // median jumps between the two as their mix changes, while a total moves
  // only in proportion to it.
  e2e.codec_mbps = run_bytes / run_codec_s / 1e6;
  e2e.iter_ms_p50 = quantile(iter_ms, 0.5);
  e2e.iter_ms_p90 = quantile(iter_ms, 0.9);
  e2e.samples_per_s = bench.batch() * static_cast<double>(passes.size()) / run_codec_s;
  emit_end_to_end(result, e2e);
  result.detail("iterations", static_cast<double>(passes.size()));
  result.detail("setups", static_cast<double>(setups.size()));
  result.detail_json("layer_rel_err_max", bench.errors_json());
}

void measure_layers(CodecBench& bench) {
  RunResult& result = bench.result();
  const Options& options = bench.options();
  LayerValues values;

  // Plain and traced cycles through every input variant alternate, so host
  // drift over the run falls on both alike and each pass follows a pass on
  // the same input as its counterpart does (so finds the same cache state).
  // The check pass after them keeps the packets and reconstruction CRCs the
  // probes and the replay check use.
  bench.setup();
  std::vector<PassStats> plain;
  std::vector<PassStats> traced;
  const double start = now_s();
  while (traced.empty() || now_s() - start < options.seconds) {
    for (std::vector<PassStats>* kind : {&plain, &traced}) {
      set_tracing(kind == &traced);
      for (std::size_t v = 0; v < bench.variants(); ++v) {
        kind->push_back(bench.pass(v, nullptr, nullptr));
      }
    }
  }
  std::vector<core::Packet> packets;
  std::vector<std::uint32_t> codec_crcs;
  bench.pass(0, &packets, &codec_crcs);
  bench.release_codecs();

  std::vector<double> plain_wall;
  for (const PassStats& p : plain) plain_wall.push_back(p.wall_s);
  std::vector<double> traced_wall;
  std::vector<double> traced_codec;
  std::vector<double> compress_s;
  std::vector<double> decompress_s;
  for (const PassStats& p : traced) {
    traced_wall.push_back(p.wall_s);
    traced_codec.push_back(p.codec_s);
    compress_s.insert(compress_s.end(), p.compress_s.begin(), p.compress_s.end());
    decompress_s.insert(decompress_s.end(), p.decompress_s.begin(), p.decompress_s.end());
  }
  values["bench.trace_overhead"] = median(traced_wall) / median(plain_wall) - 1.0;
  values["core.compress_ms_p50"] = median(compress_s) * 1e3;
  values["core.decompress_ms_p50"] = median(decompress_s) * 1e3;
  values["core.codec_calls"] = static_cast<double>(2 * bench.layers().size());
  // core.codec_share and core.trainer_other_ms describe a trainer's
  // iteration; with no trainer here they report 0.

  // Stage-by-stage replay on the same inputs: plans and calibration first
  // (set-up costs), then timed passes.
  const double rss_before = current_rss_mb();
  std::vector<std::unique_ptr<FftReplayState>> states;
  for (const LayerSpec& layer : bench.layers()) {
    states.push_back(std::make_unique<FftReplayState>(layer.size));
  }
  values["fft.plan_rss_mb"] = current_rss_mb() - rss_before;
  values["fft.plan_build_ms"] = span_total_s("fft.plan_build") * 1e3;
  // Calibrate on the inputs the codecs calibrated on (their first call).
  for (std::size_t i = 0; i < states.size(); ++i) {
    replay_fft(bench.inputs(0)[i], *states[i], bench.codec_options(), 1);
  }
  values["quant.calibrate_ms"] = span_total_s("quant.calibrate") * 1e3;

  const std::vector<std::vector<float>>& inputs = bench.inputs(0);
  const double replay_start = now_s();
  const std::uint64_t replay_start_ns = trace_now_ns();
  std::size_t replays = 0;
  std::size_t kept = 0;
  std::size_t offered = 0;
  while (replays == 0 || now_s() - replay_start < options.seconds / 2) {
    for (std::size_t i = 0; i < states.size(); ++i) {
      const ReplayOutput out = replay_fft(inputs[i], *states[i], bench.codec_options(), 1);
      kept += out.kept;
      offered += out.offered;
      const std::uint32_t crc = fftgrad::util::crc32(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(out.reconstruction.data()),
          out.reconstruction.size() * sizeof(float)));
      if (crc != codec_crcs[i]) {
        result.wrong("stage replay of " + bench.layers()[i].name + " differs from FftCompressor");
      }
    }
    ++replays;
  }
  states.clear();
  const double replay_total = replay_stage_metrics(values, replay_start_ns, replays);
  values["sparse.kept_fraction"] = static_cast<double>(kept) / static_cast<double>(offered);
  values["core.replay_gap_share"] = 1.0 - replay_total / median(traced_codec);

  probe_exchange(packets, 4, 3, values, result);
  set_tracing(false);
  emit_per_layer(result, values);
}

}  // namespace

RunResult run_codec_workload(const Options& options, bool alexnet) {
  RunResult result;
  CodecBench bench(options, alexnet, result);
  bench.make_inputs();
  if (options.trace) {
    measure_layers(bench);
    write_trace(options, result);
  } else {
    measure(bench);
  }
  return result;
}

}  // namespace perfbench
