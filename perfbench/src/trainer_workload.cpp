// train_alexnet_fft. Each run repeats a fixed-length training session (same
// seed, same data, same initial weights) until the run's seconds are used
// up, so every session must end at a bit-identical loss. One iteration is
// the interval between successive rank-0 compress calls, as the timing
// decorator logs them. A session's set-up is its construction plus its
// first (plan-building) iteration.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "fftgrad/comm/sim_cluster.h"
#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/cluster_trainer.h"
#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/trainer.h"
#include "fftgrad/nn/models.h"
#include "inputs.h"
#include "probes.h"
#include "replay.h"
#include "report.h"
#include "timing_codec.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = fftgrad::core;
namespace nn = fftgrad::nn;

constexpr std::size_t kRanks = 4;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kSide = 16;
constexpr std::size_t kClasses = 10;
constexpr double kFftTheta = 0.85;
constexpr double kTopKTheta = 0.9;
constexpr std::size_t kMinSessions = 2;
constexpr std::size_t kReplays = 3;  ///< replayed iterations in a traced run
// The task and the initial weights are fixed; --seed picks every rank's
// batch order (the trainers' config.seed).
constexpr std::uint64_t kModelSeed = 11;
constexpr std::uint64_t kDataSeed = 12;

struct TrainerSpec {
  /// cluster_train on SimCluster with resnet_mini and EF(TopK), vs the folded
  /// DistributedTrainer with alexnet_mini and EF(FFT).
  bool cluster = false;
  std::size_t ranks = kRanks;
  std::size_t iterations = 0;  ///< per session
  float learning_rate = 0.0f;
  double theta() const { return cluster ? kTopKTheta : kFftTheta; }
};

TrainerSpec train_alexnet_fft_spec(bool smoke) {
  return {false, kRanks, smoke ? 4u : 10u, 0.02f};
}
/// The cluster_train session train_alexnet_fft's traced run measures the
/// exchange with (the benchmark's only real one). It is not an end-to-end
/// workload: rank threads in lockstep with pool workers on four cores
/// amplify host noise (iteration times moved 2.5x within minutes on the
/// baseline host), far beyond any bound.
TrainerSpec cluster_spec(bool smoke) {
  return {true, kRanks, smoke ? 4u : 30u, 0.05f};
}

nn::Network make_model(const TrainerSpec& spec) {
  fftgrad::util::Rng rng(kModelSeed);
  return spec.cluster ? nn::models::make_resnet_mini(kSide, 2, kClasses, rng)
                          : nn::models::make_alexnet_mini(kSide, kClasses, rng);
}

nn::SyntheticDataset make_dataset() {
  return nn::SyntheticDataset({3, kSide, kSide}, kClasses, kDataSeed);
}

/// What one training session did, from the decorators' call logs.
struct Session {
  double setup_s = 0.0;
  double final_loss = 0.0;
  std::size_t iterations = 0;
  std::vector<CodecLog> logs;  ///< one per rank

  // Steady iterations (all but the first and last).
  std::vector<double> intervals_s;      ///< rank-0 compress to compress
  std::vector<double> codec_s;          ///< codec busy time, summed over ranks
  std::vector<double> codec_bytes;      ///< fp32 bytes round-tripped (half per call)
  std::vector<double> exchange_wait_s;  ///< own compress end to first peer decompress
  std::vector<double> skew_s;           ///< spread of ranks' compress ends
  std::vector<double> compress_call_s;
  std::vector<double> decompress_call_s;
  std::size_t calls_per_iteration = 0;
  std::size_t skipped = 0;
  std::size_t degraded = 0;
  std::vector<double> round_trip_errors;  ///< every own round trip's error

  double raw_bytes() const {
    double total = 0.0;
    for (const CodecLog& log : logs) total += log.raw_bytes;
    return total;
  }
  double wire_bytes() const {
    double total = 0.0;
    for (const CodecLog& log : logs) total += log.wire_bytes;
    return total;
  }
};

std::unique_ptr<core::GradientCompressor> make_codec(const TrainerSpec& spec, CodecLog& log) {
  std::unique_ptr<core::GradientCompressor> leaf;
  if (spec.cluster) {
    leaf = std::make_unique<core::TopKCompressor>(kTopKTheta);
  } else {
    leaf = std::make_unique<core::FftCompressor>();
  }
  return std::make_unique<core::ErrorFeedbackCompressor>(
      std::make_unique<TimingCompressor>(std::move(leaf), log));
}

/// Split one rank's call log into iterations: each starts at a compress.
std::vector<std::vector<CodecCall>> by_iteration(const CodecLog& log) {
  std::vector<std::vector<CodecCall>> iterations;
  for (const CodecCall& call : log.calls) {
    if (call.compress) iterations.emplace_back();
    if (!iterations.empty()) iterations.back().push_back(call);
  }
  return iterations;
}

void analyse(const TrainerSpec& spec, double start_s, Session& s, RunResult& result) {
  std::vector<std::vector<std::vector<CodecCall>>> ranks;
  for (const CodecLog& log : s.logs) {
    ranks.push_back(by_iteration(log));
    if (ranks.back().size() != s.iterations) {
      result.wrong("a rank logged " + std::to_string(ranks.back().size()) +
                   " compress calls for " + std::to_string(s.iterations) + " iterations");
      return;
    }
    for (const auto& iteration : ranks.back()) {
      // Own round trip: error feedback decompresses its own packet first.
      const double error = iteration.size() > 1 ? iteration[1].rel_error : -1.0;
      s.round_trip_errors.push_back(error);
      ++result.attempted;
      if (!(error >= 0.0 && error <= round_trip_ceiling(spec.theta()))) {
        result.failed_op("round trip error " + json_number(error) + " over ceiling " +
                         json_number(round_trip_ceiling(spec.theta())));
      }
    }
  }
  const auto& rank0 = ranks[0];
  s.setup_s = rank0[1][0].start_s - start_s;
  s.calls_per_iteration = 0;
  for (const auto& rank : ranks) s.calls_per_iteration += rank[1].size();
  for (std::size_t k = 1; k + 1 < s.iterations; ++k) {
    s.intervals_s.push_back(rank0[k + 1][0].start_s - rank0[k][0].start_s);
    double codec = 0.0;
    double bytes = 0.0;
    double first_arrival = 0.0;
    double last_arrival = 0.0;
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      const std::vector<CodecCall>& calls = ranks[r][k];
      const double gradient_bytes = s.logs[r].raw_bytes / static_cast<double>(s.iterations);
      for (const CodecCall& call : calls) {
        codec += call.duration_s();
        bytes += 0.5 * gradient_bytes;
        (call.compress ? s.compress_call_s : s.decompress_call_s).push_back(call.duration_s());
      }
      if (calls.size() > 2) s.exchange_wait_s.push_back(calls[2].start_s - calls[1].end_s);
      const double arrival = calls.size() > 1 ? calls[1].end_s : calls[0].end_s;
      first_arrival = r == 0 ? arrival : std::min(first_arrival, arrival);
      last_arrival = r == 0 ? arrival : std::max(last_arrival, arrival);
    }
    s.codec_s.push_back(codec);
    s.codec_bytes.push_back(bytes);
    if (spec.cluster) s.skew_s.push_back(last_arrival - first_arrival);
  }
}

Session run_session(const TrainerSpec& spec, std::uint64_t seed, RunResult& result) {
  Session s;
  s.iterations = spec.iterations;
  s.logs.resize(spec.ranks);
  for (CodecLog& log : s.logs) log.capture = true;
  const auto factory = [&](std::size_t rank) { return make_codec(spec, s.logs.at(rank)); };
  ScopedSpan span("session");
  const double start = now_s();
  if (!spec.cluster) {
    core::TrainerConfig config;
    config.ranks = spec.ranks;
    config.batch_per_rank = kBatch;
    config.epochs = 1;
    config.iters_per_epoch = spec.iterations;
    config.test_size = 64;
    config.eval_batch = 64;
    config.seed = seed;
    core::DistributedTrainer trainer(make_model(spec), make_dataset(), config);
    const core::TrainResult trained =
        trainer.train(factory, core::FixedTheta(kFftTheta),
                      nn::StepLrSchedule({{0, spec.learning_rate}}));
    s.final_loss = trained.epochs.back().train_loss;
    if (!std::isfinite(s.final_loss)) {
      for (std::size_t i = 0; i < spec.iterations; ++i) result.failed_op("non-finite loss");
    }
  } else {
    fftgrad::comm::SimCluster cluster(fftgrad::comm::NetworkModel::ethernet_10g());
    core::ClusterTrainConfig config;
    config.ranks = spec.ranks;
    config.batch_per_rank = kBatch;
    config.iterations = spec.iterations;
    config.learning_rate = spec.learning_rate;
    config.seed = seed;
    const nn::SyntheticDataset data = make_dataset();
    const core::ClusterTrainResult trained = core::cluster_train(
        cluster, config, [&] { return make_model(spec); }, factory, data);
    s.final_loss = trained.mean_loss_last_iteration;
    for (double loss : trained.mean_loss_trace) {
      if (!std::isfinite(loss)) result.failed_op("non-finite loss");
    }
    s.skipped = trained.skipped_contributions;
    s.degraded = trained.degraded_iterations;
    for (std::size_t i = 0; i < s.skipped; ++i) result.failed_op("skipped contribution");
    for (std::size_t i = 0; i < s.degraded; ++i) result.failed_op("degraded iteration");
    if (!trained.replicas_identical) result.failed_op("replicas diverged on a fault-free cluster");
  }
  analyse(spec, start, s, result);
  return s;
}

double rms(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v * v;
  return std::sqrt(total / static_cast<double>(values.size()));
}

std::vector<double> concat(const std::vector<Session>& sessions,
                           std::vector<double> Session::*field) {
  std::vector<double> all;
  for (const Session& s : sessions) all.insert(all.end(), (s.*field).begin(), (s.*field).end());
  return all;
}

void measure(const TrainerSpec& spec, const Options& options, RunResult& result) {
  std::vector<Session> sessions;
  const double start = now_s();
  while (sessions.size() < kMinSessions || now_s() - start < options.seconds) {
    sessions.push_back(run_session(spec, options.seed, result));
    if (!result.correct) return;
  }
  const Session& first = sessions.front();
  for (const Session& s : sessions) {
    if (s.final_loss != first.final_loss || s.wire_bytes() != first.wire_bytes() ||
        s.round_trip_errors != first.round_trip_errors) {
      result.wrong("sessions with one seed did not repeat bit-identically");
    }
  }
  std::vector<double> setups;
  for (const Session& s : sessions) setups.push_back(s.setup_s);
  const std::vector<double> intervals = concat(sessions, &Session::intervals_s);
  const std::vector<double> codec_s = concat(sessions, &Session::codec_s);
  const std::vector<double> codec_bytes = concat(sessions, &Session::codec_bytes);

  EndToEnd e2e;
  e2e.setup_s = median(setups);
  e2e.peak_rss_mb = peak_rss_mb();
  e2e.wire_ratio = first.raw_bytes() / first.wire_bytes();
  e2e.recon_rel_err = rms(first.round_trip_errors);
  // Throughputs are totals over the run (see the codec workloads).
  e2e.codec_mbps = sum(codec_bytes) / sum(codec_s) / 1e6;
  e2e.iter_ms_p50 = quantile(intervals, 0.5) * 1e3;
  e2e.iter_ms_p90 = quantile(intervals, 0.9) * 1e3;
  e2e.samples_per_s =
      static_cast<double>(spec.ranks * kBatch * intervals.size()) / sum(intervals);
  emit_end_to_end(result, e2e);
  result.detail("final_loss", first.final_loss);
  result.detail("sessions", static_cast<double>(sessions.size()));
  result.detail("iterations", static_cast<double>(intervals.size()));
  result.detail("max_round_trip_rel_err", *std::max_element(first.round_trip_errors.begin(),
                                                             first.round_trip_errors.end()));
  std::string per_session = "[";
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (i != 0) per_session += ",";
    per_session += json_number(median(sessions[i].intervals_s) * 1e3);
  }
  result.detail_json("session_iter_ms_p50", per_session + "]");
}

void measure_layers(const TrainerSpec& spec, const Options& options, RunResult& result) {
  LayerValues values;
  // Plain and traced sessions alternate, so host drift over the run falls
  // on both alike. The last traced session feeds the metrics below.
  std::vector<double> plain_intervals;
  std::vector<double> traced_intervals;
  Session traced;
  for (std::size_t k = 0; k < kMinSessions; ++k) {
    set_tracing(false);
    const Session plain = run_session(spec, options.seed, result);
    set_tracing(true);
    traced = run_session(spec, options.seed, result);
    if (!result.correct) return;
    if (traced.final_loss != plain.final_loss) result.wrong("traced session changed the loss");
    plain_intervals.insert(plain_intervals.end(), plain.intervals_s.begin(),
                           plain.intervals_s.end());
    traced_intervals.insert(traced_intervals.end(), traced.intervals_s.begin(),
                            traced.intervals_s.end());
  }

  const double iter_s = median(traced.intervals_s);
  values["bench.trace_overhead"] = median(traced_intervals) / median(plain_intervals) - 1.0;
  values["core.compress_ms_p50"] = median(traced.compress_call_s) * 1e3;
  values["core.decompress_ms_p50"] = median(traced.decompress_call_s) * 1e3;
  values["core.codec_calls"] = static_cast<double>(traced.calls_per_iteration);
  values["core.codec_share"] = sum(traced.codec_s) / sum(traced.intervals_s);
  nn::Network net = make_model(spec);
  const NnTimes nn_times = probe_nn(net, make_dataset(), kBatch, options.seed, 10);
  values["nn.forward_ms"] = nn_times.forward_ms;
  values["nn.backward_ms"] = nn_times.backward_ms;
  // The folded trainer runs every rank's batch in turn.
  const double nn_per_iteration_ms =
      (nn_times.forward_ms + nn_times.backward_ms) * static_cast<double>(spec.ranks);
  values["core.trainer_other_ms"] =
      iter_s * 1e3 - nn_per_iteration_ms - median(traced.codec_s) * 1e3;

  // Stage-by-stage replay of the last iteration's codec calls on every
  // rank's captured (error-corrected) gradient.
  const int decompress_reps = static_cast<int>(traced.calls_per_iteration / spec.ranks) - 1;
  std::size_t kept = 0;
  std::size_t offered = 0;
  const double rss_before = current_rss_mb();
  const std::uint64_t build_start = trace_now_ns();
  std::vector<std::unique_ptr<FftReplayState>> states;
  for (const CodecLog& log : traced.logs) {
    states.push_back(std::make_unique<FftReplayState>(log.last_input.size()));
  }
  values["fft.plan_rss_mb"] = current_rss_mb() - rss_before;
  values["fft.plan_build_ms"] = span_total_s("fft.plan_build", build_start) * 1e3;
  const core::FftCompressorOptions codec_options;
  for (std::size_t r = 0; r < states.size(); ++r) {
    replay_fft(traced.logs[r].last_input, *states[r], codec_options, 1);
  }
  values["quant.calibrate_ms"] = span_total_s("quant.calibrate", build_start) * 1e3;
  const std::uint64_t replay_start = trace_now_ns();
  for (std::size_t rep = 0; rep < kReplays; ++rep) {
    for (std::size_t r = 0; r < states.size(); ++r) {
      const ReplayOutput out =
          replay_fft(traced.logs[r].last_input, *states[r], codec_options, decompress_reps);
      kept += out.kept;
      offered += out.offered;
    }
  }
  const double replay_total = replay_stage_metrics(values, replay_start, kReplays);
  values["sparse.kept_fraction"] = static_cast<double>(kept) / static_cast<double>(offered);
  values["core.replay_gap_share"] = 1.0 - replay_total / median(traced.codec_s);

  const std::vector<core::Packet> packets = {traced.logs[0].last_packet};
  probe_exchange(packets, spec.ranks, 50, values, result);
  set_tracing(false);

  // The exchange: cluster_train on a fault-free SimCluster, then the same
  // session on one rank for the scaling efficiency (samples/s with all
  // ranks over ranks x samples/s with one). Its rank threads need the
  // cores the rest of the run is kept off.
  unpin_all_threads();
  const TrainerSpec cluster = cluster_spec(options.smoke);
  const Session all = run_session(cluster, options.seed, result);
  values["comm.exchange_wait_ms_p50"] = median(all.exchange_wait_s) * 1e3;
  values["comm.rank_skew_ms"] = median(all.skew_s) * 1e3;
  values["comm.skipped_contributions"] = static_cast<double>(all.skipped);
  values["comm.degraded_iterations"] = static_cast<double>(all.degraded);
  TrainerSpec single = cluster;
  single.ranks = 1;
  const Session one = run_session(single, options.seed, result);
  const double rate_all = static_cast<double>(cluster.ranks) / median(all.intervals_s);
  const double rate_one = 1.0 / median(one.intervals_s);
  values["parallel.scaling_eff"] = rate_all / (static_cast<double>(cluster.ranks) * rate_one);
  emit_per_layer(result, values);
}

/// The trainer's inputs: the initial weights and every rank's first batch
/// (both trainers seed rank r's batch stream with seed * 7919 + r).
std::string input_digest(const TrainerSpec& spec, std::uint64_t seed) {
  nn::Network net = make_model(spec);
  std::vector<std::vector<float>> inputs(1, std::vector<float>(net.param_count()));
  net.copy_params(inputs[0]);
  const nn::SyntheticDataset data = make_dataset();
  for (std::size_t r = 0; r < spec.ranks; ++r) {
    fftgrad::util::Rng rng(seed * 7919 + r);
    const nn::Batch batch = data.sample(kBatch, rng);
    inputs.emplace_back(batch.inputs.data(), batch.inputs.data() + batch.inputs.size());
  }
  return digest(inputs);
}

RunResult run_trainer(const TrainerSpec& spec, const Options& options) {
  RunResult result;
  result.detail("input_digest", input_digest(spec, options.seed));
  if (options.trace) {
    measure_layers(spec, options, result);
    write_trace(options, result);
  } else {
    measure(spec, options, result);
  }
  return result;
}

}  // namespace

RunResult run_train_alexnet_fft(const Options& options) {
  return run_trainer(train_alexnet_fft_spec(options.smoke), options);
}

}  // namespace perfbench
