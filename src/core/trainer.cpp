#include "fftgrad/core/trainer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bsp_step.h"
#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/replica_state.h"
#include "fftgrad/nn/loss.h"
#include "fftgrad/perfmodel/cost_model.h"
#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/telemetry/metrics.h"
#include "fftgrad/telemetry/trace.h"
#include "fftgrad/util/logging.h"
#include "fftgrad/util/stats.h"
#include "fftgrad/util/timer.h"

namespace fftgrad::core {

DistributedTrainer::DistributedTrainer(nn::Network model, nn::SyntheticDataset dataset,
                                       TrainerConfig config)
    : model_(std::move(model)), dataset_(std::move(dataset)), config_(config) {
  if (config_.ranks == 0) throw std::invalid_argument("DistributedTrainer: ranks must be >= 1");
  initial_params_.resize(model_.param_count());
  model_.copy_params(initial_params_);
}

double DistributedTrainer::evaluate() {
  const nn::Batch test = dataset_.test_set(config_.test_size);
  std::size_t hits = 0;
  const std::size_t total = test.labels.size();
  const std::size_t input_size = dataset_.input_size();
  for (std::size_t at = 0; at < total; at += config_.eval_batch) {
    const std::size_t count = std::min(config_.eval_batch, total - at);
    std::vector<std::size_t> shape;
    shape.push_back(count);
    for (std::size_t d : dataset_.input_shape()) shape.push_back(d);
    tensor::Tensor chunk(std::move(shape));
    std::copy(test.inputs.data() + at * input_size,
              test.inputs.data() + (at + count) * input_size, chunk.data());
    const tensor::Tensor logits = model_.forward(chunk);
    const std::span<const std::size_t> labels(test.labels.data() + at, count);
    hits += static_cast<std::size_t>(
        std::llround(nn::accuracy(logits, labels) * static_cast<double>(count)));
  }
  return static_cast<double>(hits) / static_cast<double>(total);
}

TrainResult DistributedTrainer::train(const CompressorFactory& factory,
                                      const ThetaSchedule& theta_schedule,
                                      const nn::StepLrSchedule& lr_schedule) {
  return train(factory, theta_schedule, lr_schedule, CheckpointOptions{});
}

TrainResult DistributedTrainer::train(const CompressorFactory& factory,
                                      const ThetaSchedule& theta_schedule,
                                      const nn::StepLrSchedule& lr_schedule,
                                      const CheckpointOptions& checkpoint) {
  // Reset to the shared initialization so algorithm comparisons are fair.
  // Each train() is its own simulation (sim_time restarts at zero), so it
  // gets its own trace process.
  if (telemetry::Tracer::global().enabled()) telemetry::Tracer::global().begin_sim_session();
  model_.set_params(initial_params_);
  nn::SgdOptimizer optimizer(config_.momentum);

  const std::size_t grad_size = model_.param_count();
  const double raw_bytes = static_cast<double>(grad_size) * sizeof(float);
  // Wire-size rescale factor for paper-scale mode (1.0 in measured mode).
  const double wire_scale =
      config_.paper_scale ? config_.paper_scale->raw_gradient_bytes / raw_bytes : 1.0;

  const char* exchange_kind =
      config_.scheme == CommScheme::kBspAllgather ? "allgather" : "ps_exchange";
  std::vector<std::unique_ptr<GradientCompressor>> compressors;
  std::vector<util::Rng> rank_rngs;
  for (std::size_t r = 0; r < config_.ranks; ++r) {
    compressors.push_back(factory(r));
    rank_rngs.emplace_back(config_.seed * 7919 + r);
  }

  std::vector<float> rank_grad(grad_size);
  std::vector<float> rank_recon(grad_size);
  std::vector<float> mean_true(grad_size);
  std::vector<float> mean_recon(grad_size);
  std::vector<util::Bytes> block_bytes(config_.ranks);

  TrainResult result;
  double sim_time = 0.0;
  double total_wire = 0.0;
  std::size_t total_iters = 0;
  std::size_t start_epoch = 0;

  // The sequential trainer folds all ranks onto one replica, so the ledger
  // records the folded view: phase times averaged over the rank loop, one
  // collective pairing per exchange (the analytic charge *is* the predicted
  // cost here — there is no sampling — plus the paper's Eq. 2 figure for
  // the same exchange so reports can compare the two models).
  telemetry::RunLedger& ledger = telemetry::RunLedger::global();
  const bool ledger_on = ledger.enabled();
  std::uint64_t ledger_iter = 0;  ///< row index within this run (resume-safe)
  std::vector<nn::ParamSegment> ledger_layout;
  if (ledger_on) {
    // The sequential trainer has no fault plan.
    ledger_layout = bsp::begin_ledger_run("distributed_trainer", model_, *compressors[0],
                                          config_.ranks,
                                          config_.epochs * config_.iters_per_epoch,
                                          config_.seed, config_.network, 0.0);
  }

  telemetry::MetricsRegistry& metrics = telemetry::MetricsRegistry::global();
  telemetry::Counter& trainer_iterations = metrics.counter("trainer.iterations");
  telemetry::Counter& trainer_wire_bytes = metrics.counter("trainer.wire_bytes");
  telemetry::Counter& checkpoints_saved = metrics.counter("trainer.checkpoints_saved");
  telemetry::Counter& checkpoints_restored = metrics.counter("trainer.checkpoints_restored");
  telemetry::Histogram& trainer_alpha = metrics.histogram("trainer.alpha");

  if (checkpoint.resume != nullptr) {
    const TrainerCheckpoint& resume = *checkpoint.resume;
    if (resume.params.size() != grad_size) {
      throw std::invalid_argument("train: checkpoint parameter count does not match the model");
    }
    if (resume.rng_states.size() != config_.ranks ||
        (!resume.residuals.empty() && resume.residuals.size() != config_.ranks)) {
      throw std::invalid_argument("train: checkpoint rank count does not match the config");
    }
    model_.set_params(resume.params);
    optimizer.set_velocity(resume.velocity);
    for (std::size_t r = 0; r < config_.ranks; ++r) {
      rank_rngs[r].load_state(resume.rng_states[r]);
      if (!resume.residuals.empty() && !resume.residuals[r].empty()) {
        auto* ef = dynamic_cast<ErrorFeedbackCompressor*>(compressors[r].get());
        if (ef == nullptr) {
          throw std::invalid_argument(
              "train: checkpoint carries a residual but the codec has no error feedback");
        }
        ef->set_residual(resume.residuals[r]);
      }
    }
    sim_time = resume.sim_time_s;
    total_wire = resume.total_wire_bytes;
    total_iters = static_cast<std::size_t>(resume.total_iters);
    start_epoch = static_cast<std::size_t>(resume.next_epoch);
    result.epochs = resume.epochs;
    checkpoints_restored.add(1.0);
  }

  // Snapshot everything a resumed run needs to replay the next epoch
  // exactly as this run would have.
  const auto capture_checkpoint = [&](std::size_t next_epoch) {
    TrainerCheckpoint ckpt;
    ckpt.next_epoch = next_epoch;
    ckpt.sim_time_s = sim_time;
    ckpt.total_wire_bytes = total_wire;
    ckpt.total_iters = total_iters;
    ckpt.params.resize(grad_size);
    model_.copy_params(ckpt.params);
    ckpt.velocity = optimizer.velocity();
    for (const auto& compressor : compressors) ckpt.residuals.push_back(residual_of(*compressor));
    for (const util::Rng& rng : rank_rngs) ckpt.rng_states.push_back(rng.save_state());
    ckpt.epochs = result.epochs;
    checkpoints_saved.add(1.0);
    checkpoint.sink(ckpt);
  };

  for (std::size_t epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    const double lr = lr_schedule.at(epoch);
    const double theta = theta_schedule.at(epoch, lr);
    for (auto& compressor : compressors) compressor->set_theta(theta);

    double loss_sum = 0.0;
    double alpha_sum = 0.0;
    double ratio_sum = 0.0;
    std::size_t ratio_count = 0;

    for (std::size_t iter = 0; iter < config_.iters_per_epoch; ++iter) {
      // Tag every span recorded during the step (wall phases and the
      // simulated per-rank layout below) with the global iteration index.
      telemetry::ScopedIteration iteration_scope(
          static_cast<std::int64_t>(epoch * config_.iters_per_epoch + iter));
      std::fill(mean_true.begin(), mean_true.end(), 0.0f);
      std::fill(mean_recon.begin(), mean_recon.end(), 0.0f);
      double slowest_rank = 0.0;
      // The folded ledger row: phase times summed over the rank loop
      // (reported as the across-rank mean) and the iteration's mean ratio.
      telemetry::LedgerIteration row;
      double ledger_ratio_sum = 0.0;
      const double loss_before_iter = loss_sum;

      // Only lay the per-rank phases onto the simulated tracks when a trace
      // is being collected; the sim-time accounting is unchanged either way.
      const bool tracing = telemetry::Tracer::global().enabled();
      const double iter_start_sim = sim_time;
      const float weight = 1.0f / static_cast<float>(config_.ranks);

      for (std::size_t r = 0; r < config_.ranks; ++r) {
        telemetry::LedgerIteration walls;
        util::WallTimer compute_timer;
        loss_sum += bsp::forward_backward(model_, dataset_, config_.batch_per_rank, rank_rngs[r],
                                          rank_grad, walls) /
                    static_cast<double>(config_.ranks);
        const double compute_s = compute_timer.seconds();
        const Packet packet = bsp::compress(*compressors[r], rank_grad, walls);
        bsp::accumulate(*compressors[r], packet, weight, rank_recon, mean_recon, walls);
        bsp::add_scaled(mean_true, rank_grad, weight);

        const util::Bytes wire{static_cast<double>(packet.wire_bytes()) * wire_scale};
        block_bytes[r] = wire;
        total_wire += wire.to_double();
        ratio_sum += packet.ratio();
        ++ratio_count;

        // The phases charged to the simulated timeline: the measured wall
        // times, or at paper scale the modelled costs. The rank's time sums
        // compute then codec; at paper scale compute is the configured
        // total, not the sum of its forward/backward split.
        const std::optional<PaperScale>& paper = config_.paper_scale;
        const PhaseCosts phase =
            paper ? bsp::paper_phase_costs(*paper, *compressors[r])
                  : PhaseCosts{.forward_s = util::sim_from_wall(walls.forward_s),
                               .backward_s = util::sim_from_wall(walls.backward_s),
                               .fft_s = util::sim_from_wall(walls.compress_s),
                               .inverse_fft_s = util::sim_from_wall(walls.decompress_s)};
        const double rank_time = (paper ? paper->compute_seconds : compute_s) +
                                 (phase.compress_s() + phase.decompress_s()).to_double();
        slowest_rank = std::max(slowest_rank, rank_time);
        if (tracing) {
          util::SimSeconds t(iter_start_sim);
          bsp::charge(t, r, "forward", "trainer", phase.forward_s);
          bsp::charge(t, r, "backward", "trainer", phase.backward_s);
          bsp::charge(t, r, "compress", "trainer", phase.compress_s());
          bsp::charge(t, r, "decompress", "trainer", phase.decompress_s());
        }
        if (ledger_on) {
          row.forward_s += util::WallSeconds(phase.forward_s.to_double());
          row.backward_s += util::WallSeconds(phase.backward_s.to_double());
          row.compress_s += util::WallSeconds(phase.compress_s().to_double());
          row.decompress_s += util::WallSeconds(phase.decompress_s().to_double());
          ledger_ratio_sum += packet.ratio();
        }
      }

      if (config_.record_alpha) {
        const double alpha = util::relative_error_alpha(mean_true, mean_recon);
        alpha_sum += alpha;
        trainer_alpha.observe(alpha);
      }

      // Every replica applies the same averaged reconstructed gradient.
      bsp::apply(model_, optimizer, mean_recon, static_cast<float>(lr));

      const util::Bytes params_wire{raw_bytes * wire_scale};
      util::SimSeconds comm_s{};
      util::SimSeconds sync_s{};
      if (config_.scheme == CommScheme::kBspAllgather) {
        comm_s = config_.network.allgatherv_time(block_bytes);
        if (config_.param_sync_every != 0 &&
            (total_iters + 1) % config_.param_sync_every == 0) {
          sync_s = config_.network.broadcast_time(params_wire, config_.ranks);
        }
      } else {
        // Parameter server: workers push compressed gradients through the
        // server's inbound link (serialized) and pull fresh parameters
        // every iteration through its outbound link.
        comm_s = config_.network.ps_push_time(block_bytes) +
                 config_.network.ps_pull_time(params_wire, config_.ranks);
      }
      sim_time += slowest_rank + (comm_s + sync_s).to_double();
      ++total_iters;
      trainer_iterations.add(1.0);
      for (util::Bytes bytes : block_bytes) trainer_wire_bytes.add(bytes.to_double());

      if (ledger_on) {
        util::Bytes wire_total{};
        for (util::Bytes bytes : block_bytes) wire_total += bytes;
        const double inv_ranks = 1.0 / static_cast<double>(config_.ranks);
        const double mean_ratio = ledger_ratio_sum * inv_ranks;
        // Eq. 2 for the same exchange: the paper charges the compressed
        // message (raw / ratio) against the raw network throughput.
        const util::SimSeconds paper_s =
            mean_ratio > 0.0
                ? perfmodel::communication_cost(params_wire, config_.network.bandwidth_bytes_s,
                                                perfmodel::Ratio(mean_ratio))
                : util::SimSeconds(0.0);
        // No sampling on this path: the analytic charge is the prediction.
        ledger.record_collective(
            {exchange_kind, ledger_iter, wire_total, comm_s, comm_s, paper_s, 0, 0});
        if (sync_s > util::SimSeconds(0.0)) {
          ledger.record_collective({"broadcast", ledger_iter, params_wire, sync_s, sync_s,
                                    util::SimSeconds(0.0), 0, 0});
        }

        row.iteration = ledger_iter++;
        row.sim_time_s = util::SimSeconds(sim_time);
        row.forward_s *= inv_ranks;
        row.backward_s *= inv_ranks;
        row.compress_s *= inv_ranks;
        row.decompress_s *= inv_ranks;
        bsp::fill_row(row, loss_sum - loss_before_iter, mean_true, mean_recon, ledger_layout,
                      mean_ratio, wire_total, *compressors[0]);
        ledger.end_iteration(row);
      }

      if (tracing) {
        // The rank loop laid each rank's compute and codec phases back to
        // back; the bulk-synchronous exchange starts once the slowest rank
        // is done, exactly as the accounting charged it.
        const double comm_start = iter_start_sim + slowest_rank;
        const double comm_sd = comm_s.to_double();
        const double sync_sd = sync_s.to_double();
        telemetry::Tracer& tracer = telemetry::Tracer::global();
        for (std::size_t r = 0; r < config_.ranks; ++r) {
          const std::int32_t rank = static_cast<std::int32_t>(r);
          tracer.record_sim_span(rank, exchange_kind, "comm", comm_start,
                                 comm_start + comm_sd);
          if (sync_sd > 0.0) {
            tracer.record_sim_span(rank, "param_broadcast", "comm", comm_start + comm_sd,
                                   comm_start + comm_sd + sync_sd);
          }
        }
      }
    }

    EpochRecord record;
    record.epoch = epoch;
    record.train_loss = loss_sum / static_cast<double>(config_.iters_per_epoch);
    record.test_accuracy = evaluate();
    record.theta = theta;
    record.lr = lr;
    record.sim_time_s = sim_time;
    record.mean_alpha =
        config_.record_alpha ? alpha_sum / static_cast<double>(config_.iters_per_epoch) : 0.0;
    record.mean_ratio = ratio_count == 0 ? 0.0 : ratio_sum / static_cast<double>(ratio_count);
    result.epochs.push_back(record);
    if (checkpoint.every_epochs != 0 && checkpoint.sink &&
        (epoch + 1) % checkpoint.every_epochs == 0) {
      capture_checkpoint(epoch + 1);
    }
    util::log_debug() << "epoch " << epoch << " loss=" << record.train_loss
                      << " acc=" << record.test_accuracy << " theta=" << theta
                      << " sim_t=" << sim_time;
  }

  if (ledger_on) ledger.end_run();
  result.final_accuracy = result.epochs.empty() ? 0.0 : result.epochs.back().test_accuracy;
  result.total_sim_time_s = sim_time;
  result.total_wire_bytes = total_wire;
  result.mean_iteration_time_s =
      total_iters == 0 ? 0.0 : sim_time / static_cast<double>(total_iters);
  return result;
}

}  // namespace fftgrad::core
