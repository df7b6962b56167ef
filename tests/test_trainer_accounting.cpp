// Exactness tests for the trainer's simulated-time accounting: the
// paper-scale charges must equal the closed-form alpha-beta + Sec 3.3
// expressions, iteration for iteration.
#include <gtest/gtest.h>

#include <memory>

#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/cluster_trainer.h"
#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/trainer.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/perfmodel/cost_model.h"

namespace fftgrad::core {
namespace {

DistributedTrainer make_trainer(TrainerConfig cfg) {
  util::Rng rng(17);
  return DistributedTrainer(nn::models::make_mlp(8, 8, 2, 2, rng),
                            nn::SyntheticDataset({8}, 2, 18), cfg);
}

TrainerConfig base_config() {
  TrainerConfig cfg;
  cfg.ranks = 4;
  cfg.batch_per_rank = 8;
  cfg.epochs = 1;
  cfg.iters_per_epoch = 2;
  cfg.test_size = 16;
  cfg.param_sync_every = 10;  // never fires within 2 iterations
  cfg.record_alpha = false;
  cfg.paper_scale = PaperScale{.raw_gradient_bytes = 8e6, .compute_seconds = 0.05};
  return cfg;
}

TEST(Accounting, LosslessBspMatchesClosedForm) {
  TrainerConfig cfg = base_config();
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.01f}});
  const TrainResult result = trainer.train(
      [](std::size_t) { return std::make_unique<NoopCompressor>(); }, FixedTheta(0.0), lr);

  // Noop: zero codec cost, every rank's block is the full 8MB gradient.
  const comm::NetworkModel& net = cfg.network;
  const double per_iter = cfg.paper_scale->compute_seconds +
                          3.0 * net.p2p_time(util::Bytes(8e6)).to_double();  // (p-1) ring steps
  EXPECT_NEAR(result.total_sim_time_s, 2.0 * per_iter, 1e-9);
  EXPECT_NEAR(result.mean_iteration_time_s, per_iter, 1e-9);
}

TEST(Accounting, FftCodecChargedThroughEquationOne) {
  TrainerConfig cfg = base_config();
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.01f}});
  const TrainResult result = trainer.train(
      [](std::size_t) {
        return std::make_unique<FftCompressor>(
            FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10});
      },
      FixedTheta(0.5), lr);

  // Codec: compression + decompression at Eq. 1's per-byte cost on the
  // paper-scale message. Communication: the measured wire ratio rescales
  // the per-rank block.
  const double spb = perfmodel::seconds_per_byte(cfg.paper_scale->throughputs);
  const double codec = 2.0 * 8e6 * spb;
  const double ratio = result.epochs[0].mean_ratio;
  const double block = 8e6 / ratio;
  const double per_iter = cfg.paper_scale->compute_seconds + codec +
                          3.0 * cfg.network.p2p_time(util::Bytes(block)).to_double();
  EXPECT_NEAR(result.mean_iteration_time_s, per_iter, per_iter * 0.02);
}

TEST(Accounting, ParameterBroadcastFiresOnSchedule) {
  TrainerConfig cfg = base_config();
  cfg.iters_per_epoch = 10;
  cfg.param_sync_every = 5;  // fires at iterations 5 and 10
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.01f}});
  const TrainResult result = trainer.train(
      [](std::size_t) { return std::make_unique<NoopCompressor>(); }, FixedTheta(0.0), lr);

  const double per_iter = cfg.paper_scale->compute_seconds +
                          3.0 * cfg.network.p2p_time(util::Bytes(8e6)).to_double();
  const double bcast = cfg.network.broadcast_time(util::Bytes(8e6), cfg.ranks).to_double();
  EXPECT_NEAR(result.total_sim_time_s, 10.0 * per_iter + 2.0 * bcast, 1e-9);
}

TEST(Accounting, ParameterServerChargesPushAndPull) {
  TrainerConfig cfg = base_config();
  cfg.scheme = CommScheme::kParameterServer;
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.01f}});
  const TrainResult result = trainer.train(
      [](std::size_t) { return std::make_unique<NoopCompressor>(); }, FixedTheta(0.0), lr);

  std::vector<util::Bytes> blocks(cfg.ranks, util::Bytes(8e6));
  const double per_iter = cfg.paper_scale->compute_seconds +
                          cfg.network.ps_push_time(blocks).to_double() +
                          cfg.network.ps_pull_time(util::Bytes(8e6), cfg.ranks).to_double();
  EXPECT_NEAR(result.total_sim_time_s, 2.0 * per_iter, 1e-9);
}

TEST(Accounting, MeasuredModeUsesWallClockNotModel) {
  TrainerConfig cfg = base_config();
  cfg.paper_scale.reset();  // measured mode
  DistributedTrainer trainer = make_trainer(cfg);
  nn::StepLrSchedule lr({{0, 0.01f}});
  const TrainResult result = trainer.train(
      [](std::size_t) { return std::make_unique<NoopCompressor>(); }, FixedTheta(0.0), lr);
  // Wall-clock compute on a tiny MLP is far below the 50ms paper charge;
  // comm on actual bytes (~1.3KB gradient) is micro-scale.
  EXPECT_LT(result.mean_iteration_time_s, 0.05);
  EXPECT_GT(result.mean_iteration_time_s, 0.0);
}

TEST(Accounting, WireScaleKeepsCompressionRatioInvariant) {
  // The paper-scale rescale multiplies raw and compressed bytes alike, so
  // the reported ratio equals the genuine codec ratio regardless of scale.
  nn::StepLrSchedule lr({{0, 0.01f}});
  auto run = [&](double bytes) {
    TrainerConfig cfg = base_config();
    cfg.paper_scale->raw_gradient_bytes = bytes;
    DistributedTrainer trainer = make_trainer(cfg);
    return trainer
        .train(
            [](std::size_t) {
              return std::make_unique<FftCompressor>(
                  FftCompressorOptions{.theta = 0.85, .quantizer_bits = 10});
            },
            FixedTheta(0.85), lr)
        .epochs[0]
        .mean_ratio;
  };
  EXPECT_NEAR(run(8e6), run(250e6), 1e-9);
}

// The modelled outputs pinned to the last bit. A change to the step or the
// cost model that moves any of them — a reordered sum, a re-derived phase
// split — fails here even where the closed-form checks above, which hold
// to 1e-9 or 2%, cannot see it. compute_seconds = 0.23 is a value for
// which c/3 + 2c/3 != c in double precision, so a rank time summed from
// the forward/backward split instead of the configured total shows up.
std::unique_ptr<GradientCompressor> ef_fft(std::size_t) {
  return std::make_unique<ErrorFeedbackCompressor>(
      std::make_unique<FftCompressor>(FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10}));
}

double pinned_paper_run(CommScheme scheme) {
  TrainerConfig cfg = base_config();
  cfg.iters_per_epoch = 3;
  cfg.param_sync_every = 2;
  cfg.scheme = scheme;
  cfg.paper_scale->compute_seconds = 0.23;
  DistributedTrainer trainer = make_trainer(cfg);
  return trainer.train(ef_fft, FixedTheta(0.5), nn::StepLrSchedule({{0, 0.01f}}))
      .total_sim_time_s;
}

TEST(Accounting, PinnedPaperScaleBspSimTime) {
  EXPECT_EQ(pinned_paper_run(CommScheme::kBspAllgather), 0x1.65eccd916d55ep-1);
}

TEST(Accounting, PinnedPaperScaleParameterServerSimTime) {
  EXPECT_EQ(pinned_paper_run(CommScheme::kParameterServer), 0x1.6c5946a8213e2p-1);
}

TEST(Accounting, PinnedClusterModelledComputeRankTimes) {
  ClusterTrainConfig cfg;
  cfg.ranks = 3;
  cfg.iterations = 4;
  cfg.seed = 21;
  cfg.sim_compute = PhaseCosts{.forward_s = util::SimSeconds(0.023),
                               .backward_s = util::SimSeconds(0.046),
                               .fft_s = util::SimSeconds(7e-3),
                               .quant_pack_s = util::SimSeconds(3e-3),
                               .wire_crc_s = util::SimSeconds(1.1e-3),
                               .inverse_fft_s = util::SimSeconds(6e-3),
                               .dequant_s = util::SimSeconds(2.3e-3),
                               .apply_s = util::SimSeconds(1.7e-3)};
  comm::SimCluster cluster(comm::NetworkModel::ethernet_10g());
  const ClusterTrainResult result = cluster_train(
      cluster, cfg,
      [] {
        util::Rng rng(17);
        return nn::models::make_mlp(8, 8, 2, 2, rng);
      },
      ef_fft, nn::SyntheticDataset({8}, 2, 18));
  // Analysis builds frame a causality trailer into every packet, so the
  // allgather moves more bytes and the clocks end later.
#if FFTGRAD_ANALYSIS
  constexpr double kRankTime = 0x1.7136f6779b36p-2;
#else
  constexpr double kRankTime = 0x1.7136de6a57578p-2;
#endif
  ASSERT_EQ(result.rank_sim_times.size(), 3u);
  for (util::SimSeconds t : result.rank_sim_times) EXPECT_EQ(t.to_double(), kRankTime);
}

}  // namespace
}  // namespace fftgrad::core
