#include "bsp_step.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "fftgrad/core/error_feedback.h"
#include "fftgrad/nn/loss.h"
#include "fftgrad/telemetry/trace.h"
#include "fftgrad/util/stats.h"
#include "fftgrad/util/timer.h"

namespace fftgrad::core::bsp {

std::vector<nn::ParamSegment> begin_ledger_run(const char* trainer, nn::Network& model,
                                               const GradientCompressor& codec,
                                               std::size_t ranks, std::size_t iterations,
                                               std::uint64_t seed,
                                               const comm::NetworkModel& network,
                                               double fault_rate) {
  telemetry::RunLedger& ledger = telemetry::RunLedger::global();
  telemetry::LedgerManifest manifest;
  manifest.trainer = trainer;
  manifest.compressor = codec.name();
  manifest.ranks = ranks;
  manifest.iterations = iterations;
  manifest.seed = seed;
  manifest.network = {network.name, network.latency_s, network.bandwidth_bytes_s,
                      network.loss_rate};
  manifest.fault_rate = fault_rate;
  ledger.begin_run(manifest);
  return model.param_layout();
}

double forward_backward(nn::Network& model, const nn::SyntheticDataset& dataset,
                        std::size_t batch_size, util::Rng& rng, std::span<float> gradient,
                        telemetry::LedgerIteration& row) {
  nn::SoftmaxCrossEntropy criterion;
  const nn::Batch batch = dataset.sample(batch_size, rng);
  model.zero_grad();
  double loss = 0.0;
  {
    telemetry::TraceSpan span("forward", "trainer");
    util::WallTimer timer;
    loss = criterion.forward(model.forward(batch.inputs), batch.labels);
    row.forward_s = timer.elapsed();
  }
  {
    telemetry::TraceSpan span("backward", "trainer");
    util::WallTimer timer;
    model.backward(criterion.backward());
    model.copy_gradients(gradient);
    row.backward_s = timer.elapsed();
  }
  return loss;
}

Packet compress(GradientCompressor& codec, std::span<const float> gradient,
                telemetry::LedgerIteration& row) {
  telemetry::TraceSpan span("compress", "trainer");
  util::WallTimer timer;
  Packet packet = codec.compress(gradient);
  row.compress_s = timer.elapsed();
  return packet;
}

void accumulate(GradientCompressor& codec, const Packet& packet, float weight,
                std::span<float> decoded, std::span<float> sum,
                telemetry::LedgerIteration& row) {
  telemetry::TraceSpan span("decompress", "trainer");
  util::WallTimer timer;
  codec.decompress(packet, decoded);
  add_scaled(sum, decoded, weight);
  row.decompress_s += timer.elapsed();
}

void add_scaled(std::span<float> sum, std::span<const float> values, float weight) {
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += values[i] * weight;
}

void apply(nn::Network& model, nn::SgdOptimizer& optimizer, std::span<const float> averaged,
           float learning_rate) {
  telemetry::TraceSpan span("apply", "trainer");
  model.set_gradients(averaged);
  optimizer.step(model, learning_rate);
}

void fill_row(telemetry::LedgerIteration& row, double loss, std::span<const float> truth,
              std::span<const float> recon, std::span<const nn::ParamSegment> layout,
              double ratio, util::Bytes wire, const GradientCompressor& codec) {
  row.loss = loss;
  row.grad_norm = util::l2_norm(truth);
  if (!recon.empty()) {
    const auto stats = [&](const std::string& name, std::size_t offset, std::size_t count) {
      const auto t = truth.subspan(offset, count);
      const auto r = recon.subspan(offset, count);
      telemetry::LedgerLayerStats out{name, util::relative_error_alpha(t, r),
                                      util::rms_error(t, r), 0.0};
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
  row.ratio = ratio;
  row.wire_bytes = wire;
  if (const auto* ef = dynamic_cast<const ErrorFeedbackCompressor*>(&codec)) {
    row.ef_residual_norm = util::l2_norm(ef->residual());
  }
}

PhaseCosts paper_phase_costs(const PaperScale& scale, const GradientCompressor& codec) {
  const double compute = scale.compute_seconds;
  const double codec_s =
      2.0 * scale.raw_gradient_bytes * codec.modeled_seconds_per_byte(scale.throughputs);
  return {.forward_s = util::SimSeconds(compute / 3.0),
          .backward_s = util::SimSeconds(compute * 2.0 / 3.0),
          .fft_s = util::SimSeconds(codec_s / 2.0),
          .inverse_fft_s = util::SimSeconds(codec_s / 2.0)};
}

void charge(util::SimSeconds& clock, std::size_t rank, const char* phase, const char* category,
            util::SimSeconds seconds) {
  if (seconds <= util::SimSeconds(0.0)) return;
  const util::SimSeconds start = clock;
  clock += seconds;
  telemetry::Tracer::global().record_sim_span(static_cast<std::int32_t>(rank), phase, category,
                                              start.to_double(), clock.to_double());
}

}  // namespace fftgrad::core::bsp
