// Recovery suite (ctest label `recovery`): the elastic-recovery subsystem
// end to end.
//
// Layers under test:
//   * RecoveryController — the per-monitor action mapping (rollback on
//     non-finite signals, lossless-codec fallback after a ratio-collapse
//     streak, theta relaxation on residual growth), the
//     iterations-to-recover bookkeeping, and the decision-state blob a
//     rejoiner loads so it takes identical remedies from then on;
//   * ReplicaState — capture/apply against a live replica and the shared
//     length-prefixed encoding (fuzzed in tests/fuzz/fuzz_state.cpp);
//   * CheckpointStore — atomic temp+rename writes, bounded retention, the
//     kill-mid-write regression (a torn newest file must never shadow the
//     previous valid checkpoint), and a retired-format (FGCK) blob being
//     skipped rather than misread;
//   * ErrorFeedbackCompressor::recredit_undelivered — the degraded-mode
//     residual fix: an excluded own contribution is re-credited, not aged
//     out;
//   * the ledger `remediation` row (writer -> reader -> validator) and the
//     acceptance-criterion reconciliation of `state_transfer` rows against
//     the network model (exact to 1e-6 on a lossless plan);
//   * whole-cluster integration — a poisoned gradient heals via rollback, a
//     collapsed ratio falls back to the lossless codec on every rank at the
//     same iteration, the ledger alert and the remedy share one threshold
//     set (LedgerTolerances), a zero snapshot interval is rejected, and an
//     armed-but-idle controller leaves the trained weights bit-identical to
//     a run without it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fftgrad/comm/fault_injection.h"
#include "fftgrad/comm/sim_cluster.h"
#include "fftgrad/core/baseline_compressors.h"
#include "fftgrad/core/checkpoint_store.h"
#include "fftgrad/core/cluster_trainer.h"
#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/fft_compressor.h"
#include "fftgrad/core/recovery.h"
#include "fftgrad/core/replica_state.h"
#include "fftgrad/nn/models.h"
#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/util/crc32.h"

namespace fftgrad::core {
namespace {

using telemetry::HealthCondition;
using telemetry::HealthFlags;
using telemetry::RunLedger;

HealthFlags flags_of(std::initializer_list<HealthCondition> conditions) {
  HealthFlags flags;
  for (HealthCondition condition : conditions) flags.set(condition);
  return flags;
}

RecoveryPolicy enabled_policy() {
  RecoveryPolicy policy;
  policy.enabled = true;
  return policy;
}

// ---------------------------------------------------------------------------
// RecoveryController: per-monitor action mapping

TEST(RecoveryController_, DisabledPolicyIgnoresEverySignal) {
  RecoveryController controller{RecoveryPolicy{}};
  const HealthFlags everything =
      flags_of({HealthCondition::kNanGradient, HealthCondition::kNonfiniteLoss,
                HealthCondition::kRatioCollapse, HealthCondition::kResidualGrowth});
  for (std::uint64_t iter = 0; iter < 5; ++iter) {
    EXPECT_TRUE(controller.step(iter, everything).empty()) << iter;
  }
  EXPECT_EQ(controller.remediations_total(), 0u);
  EXPECT_FALSE(controller.fallback_active());
  EXPECT_TRUE(controller.finish(5).empty());
}

TEST(RecoveryController_, NonfiniteSignalOpensOneRollbackUntilItClears) {
  RecoveryController controller{enabled_policy()};
  const HealthFlags nan_grad = flags_of({HealthCondition::kNanGradient});

  const auto first = controller.step(3, nan_grad);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], RemedyAction::kRollback);
  // Still failing: the pending rollback suppresses a duplicate.
  EXPECT_TRUE(controller.step(4, nan_grad).empty());
  EXPECT_TRUE(controller.drain_closed().empty());
  // Cleared: the episode closes with the iterations it took to recover.
  EXPECT_TRUE(controller.step(5, HealthFlags{}).empty());
  const auto closed = controller.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].iteration, 3u);
  EXPECT_EQ(closed[0].cause, "nan_gradient");
  EXPECT_EQ(closed[0].action, "rollback");
  EXPECT_EQ(closed[0].iterations_to_recover, 2u);
  EXPECT_TRUE(closed[0].recovered);
  EXPECT_EQ(controller.remediations_total(), 1u);
  // A later relapse opens a fresh episode.
  const HealthFlags bad_loss = flags_of({HealthCondition::kNonfiniteLoss});
  const auto again = controller.step(8, bad_loss);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], RemedyAction::kRollback);
  EXPECT_EQ(controller.remediations_total(), 2u);
}

TEST(RecoveryController_, RatioCollapseNeedsTheConfiguredStreak) {
  RecoveryPolicy policy = enabled_policy();
  policy.ratio_collapse_streak = 3;
  RecoveryController controller{policy};
  const HealthFlags collapse = flags_of({HealthCondition::kRatioCollapse});

  EXPECT_TRUE(controller.step(0, collapse).empty());
  // An intervening healthy iteration resets the streak.
  EXPECT_TRUE(controller.step(1, HealthFlags{}).empty());
  EXPECT_TRUE(controller.step(2, collapse).empty());
  EXPECT_TRUE(controller.step(3, collapse).empty());
  const auto actions = controller.step(4, collapse);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0], RemedyAction::kCodecFallback);
  EXPECT_TRUE(controller.fallback_active());
  // The fallback ends the collapse by construction, so the episode closes
  // on the next step even though the (stale) flag is still raised, and no
  // second fallback ever fires.
  EXPECT_TRUE(controller.step(5, collapse).empty());
  const auto closed = controller.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].cause, "ratio_collapse");
  EXPECT_EQ(closed[0].action, "codec_fallback");
  EXPECT_EQ(closed[0].iterations_to_recover, 1u);
  EXPECT_TRUE(closed[0].recovered);
}

TEST(RecoveryController_, ResidualGrowthRelaxesTheta) {
  RecoveryController controller{enabled_policy()};
  const HealthFlags growth = flags_of({HealthCondition::kResidualGrowth});
  const auto actions = controller.step(7, growth);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0], RemedyAction::kThetaRelax);
  EXPECT_TRUE(controller.step(8, growth).empty());  // pending: no duplicate
  EXPECT_TRUE(controller.step(9, HealthFlags{}).empty());
  const auto closed = controller.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].cause, "residual_growth");
  EXPECT_EQ(closed[0].action, "theta_relax");
}

TEST(RecoveryController_, FinishReportsUnrecoveredPendings) {
  RecoveryController controller{enabled_policy()};
  const HealthFlags nan_grad = flags_of({HealthCondition::kNanGradient});
  ASSERT_EQ(controller.step(5, nan_grad).size(), 1u);
  const auto rows = controller.finish(12);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].iteration, 5u);
  EXPECT_FALSE(rows[0].recovered);
  EXPECT_EQ(rows[0].iterations_to_recover, 7u);
  // finish() closed everything: a second call reports nothing.
  EXPECT_TRUE(controller.finish(12).empty());
}

TEST(RecoveryController_, DecisionStateMakesACloneActIdentically) {
  RecoveryPolicy policy = enabled_policy();
  policy.ratio_collapse_streak = 3;
  RecoveryController donor{policy};
  // A half-built streak and an open theta-relax episode: exactly the state
  // a mid-run rejoiner must inherit to stay in lockstep.
  const HealthFlags mixed =
      flags_of({HealthCondition::kRatioCollapse, HealthCondition::kResidualGrowth});
  ASSERT_EQ(donor.step(0, mixed).size(), 1u);  // theta relax opens
  ASSERT_TRUE(donor.step(1, mixed).empty());   // streak at 2, nothing new

  RecoveryController rejoiner{policy};
  rejoiner.load_decision_state(donor.save_decision_state());
  for (std::uint64_t iter = 2; iter < 6; ++iter) {
    const HealthFlags signals = iter < 3 ? mixed : HealthFlags{};
    EXPECT_EQ(donor.step(iter, signals), rejoiner.step(iter, signals)) << iter;
    EXPECT_EQ(donor.fallback_active(), rejoiner.fallback_active()) << iter;
  }
  // Both close the same episodes with the same recovery spans.
  const auto a = donor.drain_closed();
  const auto b = rejoiner.drain_closed();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].iteration, b[i].iteration);
    EXPECT_EQ(a[i].cause, b[i].cause);
    EXPECT_EQ(a[i].action, b[i].action);
    EXPECT_EQ(a[i].iterations_to_recover, b[i].iterations_to_recover);
  }
}

TEST(RecoveryController_, RejectsMalformedDecisionState) {
  RecoveryController donor{enabled_policy()};
  const HealthFlags growth = flags_of({HealthCondition::kResidualGrowth});
  ASSERT_EQ(donor.step(2, growth).size(), 1u);
  const std::vector<std::uint8_t> blob = donor.save_decision_state();

  RecoveryController sink{enabled_policy()};
  const std::vector<std::uint8_t> truncated(blob.begin(), blob.end() - 1);
  EXPECT_THROW(sink.load_decision_state(truncated), std::runtime_error);
  std::vector<std::uint8_t> bad_cause = blob;
  // The cause byte of the first pending entry sits right after the u64
  // streak, the u8 fallback flag, the u64 count, and the entry's u64 iter.
  bad_cause[8 + 1 + 8 + 8] = 0xEE;
  EXPECT_THROW(sink.load_decision_state(bad_cause), std::runtime_error);
  // The valid blob still loads after the failures above.
  EXPECT_NO_THROW(sink.load_decision_state(blob));
}

// ---------------------------------------------------------------------------
// ReplicaState: capture/apply and the shared encoding

std::unique_ptr<ErrorFeedbackCompressor> ef_fft_codec() {
  return std::make_unique<ErrorFeedbackCompressor>(std::make_unique<FftCompressor>(
      FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10}));
}

TEST(ReplicaState_, CaptureEncodeDecodeApplyRoundTrips) {
  util::Rng rng(5);
  nn::Network model = nn::models::make_mlp(8, 16, 2, 3, rng);
  nn::SgdOptimizer optimizer;
  auto codec = ef_fft_codec();
  // One step so the momentum and the EF residual are both non-trivial.
  std::vector<float> gradient(model.param_count());
  for (std::size_t i = 0; i < gradient.size(); ++i) {
    gradient[i] = std::sin(static_cast<float>(i) * 0.37f) * 0.1f;
  }
  (void)codec->compress(gradient);
  model.set_gradients(gradient);
  optimizer.step(model, 0.05f);

  const ReplicaState state = ReplicaState::capture(9, model, optimizer, *codec);
  ASSERT_EQ(state.residual.size(), model.param_count());
  ASSERT_FALSE(state.velocity.empty());
  std::vector<std::uint8_t> bytes;
  state.encode(bytes);
  wire::Reader reader(bytes);
  const ReplicaState back = ReplicaState::decode(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(back.iteration, 9u);
  EXPECT_EQ(back.params, state.params);
  EXPECT_EQ(back.velocity, state.velocity);
  EXPECT_EQ(back.residual, state.residual);

  // Applied to a fresh replica, the decoded state captures back unchanged.
  util::Rng other(6);
  nn::Network fresh = nn::models::make_mlp(8, 16, 2, 3, other);
  nn::SgdOptimizer fresh_optimizer;
  auto fresh_codec = ef_fft_codec();
  back.apply(fresh, fresh_optimizer, *fresh_codec);
  const ReplicaState again = ReplicaState::capture(9, fresh, fresh_optimizer, *fresh_codec);
  EXPECT_EQ(again.params, state.params);
  EXPECT_EQ(again.velocity, state.velocity);
  EXPECT_EQ(again.residual, state.residual);

  // A lossless codec has no residual to restore; a model of another size
  // is rejected.
  NoopCompressor lossless;
  EXPECT_NO_THROW(back.apply(fresh, fresh_optimizer, lossless));
  EXPECT_TRUE(ReplicaState::capture(0, fresh, fresh_optimizer, lossless).residual.empty());
  nn::Network smaller = nn::models::make_mlp(4, 8, 2, 3, other);
  EXPECT_THROW(back.apply(smaller, fresh_optimizer, lossless), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CheckpointStore: atomic writes and retention

namespace fs = std::filesystem;

std::string fresh_store_dir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "fftgrad_ckpt_" + tag;
  fs::remove_all(dir);
  return dir;
}

TrainerCheckpoint checkpoint_at(std::uint64_t epoch) {
  TrainerCheckpoint ckpt;
  ckpt.next_epoch = epoch;
  ckpt.params = {static_cast<float>(epoch), 2.0f, 3.0f};
  ckpt.rng_states.push_back({epoch, 2, 3, 4, 5, 6});
  return ckpt;
}

TEST(CheckpointStore_, RetainsTheNewestKAndLatestWins) {
  CheckpointStore store(fresh_store_dir("retain"), 3);
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) store.save(checkpoint_at(epoch));
  const std::vector<std::string> names = store.files();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "ckpt-00000005.fgck");
  EXPECT_EQ(names[2], "ckpt-00000003.fgck");
  const auto latest = store.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_epoch, 5u);
  EXPECT_EQ(latest->params[0], 5.0f);
}

TEST(CheckpointStore_, ZeroKeepRetainsEverything) {
  CheckpointStore store(fresh_store_dir("unbounded"), 0);
  for (std::uint64_t epoch = 1; epoch <= 6; ++epoch) store.save(checkpoint_at(epoch));
  EXPECT_EQ(store.files().size(), 6u);
}

TEST(CheckpointStore_, KillMidWriteNeverShadowsThePreviousCheckpoint) {
  const std::string dir = fresh_store_dir("torn");
  CheckpointStore store(dir, 3);
  store.save(checkpoint_at(1));
  store.save(checkpoint_at(2));

  // A process killed *before* the rename leaves only a stray .tmp, which
  // the store neither lists nor resumes from.
  { std::ofstream(dir + "/ckpt-00000003.fgck.tmp") << "half-written"; }
  EXPECT_EQ(store.files().size(), 2u);
  ASSERT_TRUE(store.latest().has_value());
  EXPECT_EQ(store.latest()->next_epoch, 2u);

  // The worst case a non-atomic writer could produce — a torn blob under
  // the final name — must be skipped in favor of the previous valid file.
  const std::vector<std::uint8_t> good = checkpoint_at(3).serialize();
  {
    std::ofstream torn(dir + "/ckpt-00000003.fgck", std::ios::binary);
    torn.write(reinterpret_cast<const char*>(good.data()),
               static_cast<std::streamsize>(good.size() / 2));
  }
  ASSERT_EQ(store.files().size(), 3u);
  const auto latest = store.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_epoch, 2u);

  // Once a complete epoch-3 checkpoint lands (atomic save), it wins.
  store.save(checkpoint_at(3));
  EXPECT_EQ(store.latest()->next_epoch, 3u);
}

/// A checkpoint in the retired standalone format: "FGCK" magic, a CRC-32
/// over the rest, then the same fields the framed format carries.
std::vector<std::uint8_t> legacy_fgck_blob(std::uint64_t epoch) {
  std::vector<std::uint8_t> blob;
  wire::put<std::uint32_t>(blob, 0x4647434bu);
  wire::put<std::uint32_t>(blob, 0);  // CRC patched below
  wire::put<std::uint64_t>(blob, epoch);
  wire::put<double>(blob, 0.0);
  wire::put<double>(blob, 0.0);
  wire::put<std::uint64_t>(blob, 0);
  wire::put_vector<float>(blob, std::vector<float>{1.0f, 2.0f, 3.0f});
  wire::put<std::uint64_t>(blob, 0);  // velocity lists
  wire::put<std::uint64_t>(blob, 0);  // residual lists
  wire::put<std::uint64_t>(blob, 1);  // one rng state
  for (std::uint64_t word = 1; word <= 6; ++word) wire::put<std::uint64_t>(blob, word);
  wire::put<std::uint64_t>(blob, 0);  // epoch records
  const std::uint32_t crc = util::crc32(std::span<const std::uint8_t>(blob).subspan(8));
  std::memcpy(blob.data() + 4, &crc, sizeof(crc));
  return blob;
}

TEST(CheckpointStore_, LegacyFgckBlobIsRejectedAndSkipped) {
  // Checkpoints are wire frames now; a blob in the old format must fail
  // loudly, never be misread as a frame body.
  const std::vector<std::uint8_t> legacy = legacy_fgck_blob(2);
  EXPECT_THROW((void)TrainerCheckpoint::deserialize(legacy), std::runtime_error);

  const std::string dir = fresh_store_dir("legacy");
  CheckpointStore store(dir, 3);
  store.save(checkpoint_at(1));
  {
    std::ofstream old(dir + "/ckpt-00000002.fgck", std::ios::binary);
    old.write(reinterpret_cast<const char*>(legacy.data()),
              static_cast<std::streamsize>(legacy.size()));
  }
  ASSERT_EQ(store.files().size(), 2u);
  const auto latest = store.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_epoch, 1u);
}

// ---------------------------------------------------------------------------
// Error-feedback re-credit (degraded-mode residual fix)

TEST(ErrorFeedbackRecredit, ExcludedOwnContributionReturnsToTheResidual) {
  ErrorFeedbackCompressor codec(std::make_unique<FftCompressor>(
      FftCompressorOptions{.theta = 0.5, .quantizer_bits = 10}));
  std::vector<float> gradient(64);
  for (std::size_t i = 0; i < gradient.size(); ++i) {
    gradient[i] = std::sin(static_cast<float>(i) * 0.37f) * 0.1f;
  }
  // Round 1 establishes a non-trivial residual; round 2's corrected
  // gradient is what the peers would have seen had the packet arrived.
  (void)codec.compress(gradient);
  std::vector<float> corrected(gradient.size());
  const std::span<const float> residual = codec.residual();
  for (std::size_t i = 0; i < gradient.size(); ++i) {
    corrected[i] = gradient[i] + residual[i];
  }
  const Packet packet = codec.compress(gradient);
  // The cluster excluded this rank's own block: re-crediting the delivered
  // part must leave the residual carrying the full corrected gradient, so
  // nothing the peers have not seen is ever aged out.
  codec.recredit_undelivered(packet);
  for (std::size_t i = 0; i < gradient.size(); ++i) {
    EXPECT_NEAR(codec.residual()[i], corrected[i], 1e-5f) << i;
  }
}

TEST(ErrorFeedbackRecredit, RejectsAMismatchedPacket) {
  ErrorFeedbackCompressor codec(std::make_unique<NoopCompressor>());
  std::vector<float> gradient(16, 0.5f);
  (void)codec.compress(gradient);
  Packet wrong;
  wrong.elements = 8;
  wrong.bytes.assign(32, 0);
  EXPECT_THROW(codec.recredit_undelivered(wrong), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Ledger remediation rows and state-transfer reconciliation

std::string temp_ledger_path(const char* tag) {
  return ::testing::TempDir() + "fftgrad_recovery_" + tag + ".jsonl";
}

/// Open the global ledger to a fresh temp file with aborts disabled, and
/// close + restore on scope exit (mirrors test_ledger.cpp's session).
class LedgerSession {
 public:
  explicit LedgerSession(const char* tag) : path_(temp_ledger_path(tag)) {
    std::remove(path_.c_str());
    RunLedger& ledger = RunLedger::global();
    ledger.set_abort_on_alert(false);
    EXPECT_TRUE(ledger.open(path_));
  }
  ~LedgerSession() { RunLedger::global().close(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(RecoveryLedger, RemediationRowRoundTripsThroughTheReader) {
  LedgerSession session("remrow");
  RunLedger& ledger = RunLedger::global();
  ledger.begin_run({"test", "noop", 1, 1, 0, {}, 0.0});
  ledger.end_iteration({});
  ledger.record_remediation({4, "ratio_collapse", "codec_fallback", 2, true});
  ledger.record_remediation({9, "nan_gradient", "rollback", 5, false});
  ledger.end_run();
  RunLedger::global().close();

  const auto runs = telemetry::read_ledger_file(session.path());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(telemetry::validate_ledger(runs).empty());
  ASSERT_EQ(runs[0].remediations.size(), 2u);
  const telemetry::JsonValue& row = runs[0].remediations[0];
  EXPECT_EQ(row.number_or("iter", -1.0), 4.0);
  EXPECT_EQ(row.string_or("cause", ""), "ratio_collapse");
  EXPECT_EQ(row.string_or("action", ""), "codec_fallback");
  EXPECT_EQ(row.find("cost_s"), nullptr);  // nothing charges a remedy's cost
  EXPECT_EQ(row.number_or("iterations_to_recover", -1.0), 2.0);
  ASSERT_NE(row.find("recovered"), nullptr);
  EXPECT_TRUE(row.find("recovered")->boolean);
  EXPECT_FALSE(runs[0].remediations[1].find("recovered")->boolean);
  // The summary aggregates the per-action counts.
  const telemetry::JsonValue* counts = runs[0].summary.find("remediations");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->number_or("codec_fallback", 0.0), 1.0);
  EXPECT_EQ(counts->number_or("rollback", 0.0), 1.0);
}

std::function<nn::Network()> mlp_factory() {
  return [] {
    util::Rng rng(999);
    return nn::models::make_mlp(8, 16, 2, 3, rng);
  };
}

ClusterTrainConfig small_config(std::size_t ranks, std::size_t iterations) {
  ClusterTrainConfig cfg;
  cfg.ranks = ranks;
  cfg.iterations = iterations;
  cfg.seed = 21;
  return cfg;
}

std::function<std::unique_ptr<GradientCompressor>(std::size_t)> noop_codec() {
  return [](std::size_t) { return std::make_unique<NoopCompressor>(); };
}

TEST(RecoveryLedger, LosslessStateTransferReconcilesExactly) {
  // ISSUE acceptance (c): on a lossless plan the `state_transfer` row's
  // charged cost must equal the NetworkModel prediction to 1e-6.
  LedgerSession session("transfer");
  comm::FaultPlan plan;
  plan.crashes.push_back({.rank = 2, .at_op = 4, .rejoin_at_op = 8});
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56(), plan);
  nn::SyntheticDataset data({8}, 3, 31);
  const ClusterTrainResult result =
      cluster_train(cluster, small_config(4, 12), mlp_factory(), noop_codec(), data);
  RunLedger::global().close();
  EXPECT_EQ(result.rejoined_ranks, 1u);
  EXPECT_EQ(result.crashed_ranks, 0u);
  EXPECT_TRUE(result.replicas_identical);

  const auto runs = telemetry::read_ledger_file(session.path());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(telemetry::validate_ledger(runs).empty());
  std::size_t transfers = 0;
  for (const telemetry::JsonValue& iteration : runs[0].iterations) {
    const telemetry::JsonValue* collectives = iteration.find("collectives");
    if (collectives == nullptr) continue;
    for (const telemetry::JsonValue& op : collectives->array) {
      if (op.string_or("kind", "") != "state_transfer") continue;
      ++transfers;
      const double predicted = op.number_or("predicted_s", -1.0);
      const double charged = op.number_or("charged_s", -2.0);
      EXPECT_GT(predicted, 0.0);
      EXPECT_NEAR(charged, predicted, 1e-6);
      EXPECT_EQ(op.number_or("failed", -1.0), 0.0);
    }
  }
  EXPECT_EQ(transfers, 1u);  // one rejoiner, delivered first try
}

// ---------------------------------------------------------------------------
// Whole-cluster remediation integration

/// Noop codec that emits one NaN-filled packet at a chosen compress call —
/// every rank decodes it, so the whole cluster's parameters are poisoned at
/// the same iteration and the rollback remedy has something real to heal.
class PoisonOnceCompressor : public NoopCompressor {
 public:
  explicit PoisonOnceCompressor(std::size_t poison_call) : poison_call_(poison_call) {}
  Packet compress(std::span<const float> gradient) override {
    Packet packet = NoopCompressor::compress(gradient);
    if (calls_++ == poison_call_) {
      const float nan = std::numeric_limits<float>::quiet_NaN();
      for (std::size_t i = 0; i + sizeof(float) <= packet.bytes.size(); i += sizeof(float)) {
        std::memcpy(packet.bytes.data() + i, &nan, sizeof(float));
      }
    }
    return packet;
  }

 private:
  std::size_t poison_call_;
  std::size_t calls_ = 0;
};

/// Noop codec whose wire ratio reads as collapsed (bytes padded 4x), for
/// driving the codec-fallback path; decompress ignores the padding.
class PaddedCompressor : public NoopCompressor {
 public:
  std::string name() const override { return "padded"; }
  Packet compress(std::span<const float> gradient) override {
    Packet packet = NoopCompressor::compress(gradient);
    packet.bytes.resize(packet.bytes.size() * 4, 0);
    return packet;
  }
  void decompress(const Packet& packet, std::span<float> out) override {
    Packet trimmed;
    trimmed.elements = packet.elements;
    trimmed.bytes.assign(packet.bytes.begin(),
                         packet.bytes.begin() + static_cast<std::ptrdiff_t>(
                                                    packet.elements * sizeof(float)));
    NoopCompressor::decompress(trimmed, out);
  }
};

TEST(RecoveryCluster, PoisonedGradientRollsBackAndRecovers) {
  LedgerSession session("rollback");  // non-finite monitors fire: aborts off
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  ClusterTrainConfig cfg = small_config(4, 12);
  cfg.recovery = enabled_policy();
  cfg.recovery.snapshot_every = 4;
  nn::SyntheticDataset data({8}, 3, 35);
  const auto codec = [](std::size_t rank) -> std::unique_ptr<GradientCompressor> {
    if (rank == 1) return std::make_unique<PoisonOnceCompressor>(5);
    return std::make_unique<NoopCompressor>();
  };
  const ClusterTrainResult result =
      cluster_train(cluster, cfg, mlp_factory(), codec, data);
  RunLedger::global().close();

  EXPECT_EQ(result.remediations, 1u);
  EXPECT_TRUE(result.replicas_identical);
  EXPECT_TRUE(std::isfinite(result.mean_loss_last_iteration));
  for (float p : result.final_params) ASSERT_TRUE(std::isfinite(p));

  const auto runs = telemetry::read_ledger_file(session.path());
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].remediations.size(), 1u);
  const telemetry::JsonValue& row = runs[0].remediations[0];
  EXPECT_EQ(row.string_or("cause", ""), "nan_gradient");
  EXPECT_EQ(row.string_or("action", ""), "rollback");
  ASSERT_NE(row.find("recovered"), nullptr);
  EXPECT_TRUE(row.find("recovered")->boolean);
}

TEST(RecoveryCluster, RatioCollapseFallsBackToTheLosslessCodec) {
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  ClusterTrainConfig cfg = small_config(4, 10);
  cfg.recovery = enabled_policy();
  cfg.recovery.ratio_collapse_streak = 2;
  nn::SyntheticDataset data({8}, 3, 36);
  const ClusterTrainResult result = cluster_train(
      cluster, cfg, mlp_factory(),
      [](std::size_t) { return std::make_unique<PaddedCompressor>(); }, data);
  // Every rank swapped to the lossless codec at the same iteration, so the
  // run completes with bit-identical replicas and exactly one remediation.
  EXPECT_EQ(result.remediations, 1u);
  EXPECT_TRUE(result.replicas_identical);
  EXPECT_TRUE(std::isfinite(result.mean_loss_last_iteration));
}

TEST(RecoveryCluster, RejectsAZeroSnapshotInterval) {
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  ClusterTrainConfig cfg = small_config(2, 4);
  cfg.recovery = enabled_policy();
  cfg.recovery.snapshot_every = 0;
  nn::SyntheticDataset data({8}, 3, 38);
  EXPECT_THROW(cluster_train(cluster, cfg, mlp_factory(), noop_codec(), data),
               std::invalid_argument);
}

/// Run a recovery-armed cluster under `tolerances` with the ledger on and
/// return the one recorded run.
telemetry::LedgerRun run_under_tolerances(
    const char* tag, const telemetry::LedgerTolerances& tolerances,
    const std::function<std::unique_ptr<GradientCompressor>(std::size_t)>& codec) {
  LedgerSession session(tag);
  RunLedger::global().set_tolerances(tolerances);
  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  ClusterTrainConfig cfg = small_config(4, 6);
  cfg.recovery = enabled_policy();
  cfg.recovery.ratio_collapse_streak = 2;
  nn::SyntheticDataset data({8}, 3, 39);
  (void)cluster_train(cluster, cfg, mlp_factory(), codec, data);
  RunLedger::global().close();
  RunLedger::global().set_tolerances({});
  auto runs = telemetry::read_ledger_file(session.path());
  EXPECT_EQ(runs.size(), 1u);
  return runs.empty() ? telemetry::LedgerRun{} : std::move(runs[0]);
}

TEST(RecoveryCluster, RatioCollapseAlertAndFallbackShareOneThreshold) {
  // A lossless codec has wire ratio exactly 1. Under a non-default
  // min_ratio of 1.5 both the ledger's ratio_collapse alert and the
  // controller's collapse flag fire from the same evaluation: alerts at
  // iterations 0 and 1, and the codec fallback when the 2-iteration streak
  // completes at iteration 1.
  telemetry::LedgerTolerances strict;
  strict.min_ratio = 1.5;
  const telemetry::LedgerRun collapsed = run_under_tolerances("strict", strict, noop_codec());
  std::vector<double> alert_iters;
  for (const telemetry::JsonValue& alert : collapsed.alerts) {
    if (alert.string_or("monitor", "") == "ratio_collapse") {
      alert_iters.push_back(alert.number_or("iter", -1.0));
    }
  }
  ASSERT_GE(alert_iters.size(), 2u);
  EXPECT_EQ(alert_iters[0], 0.0);
  EXPECT_EQ(alert_iters[1], 1.0);
  ASSERT_EQ(collapsed.remediations.size(), 1u);
  const telemetry::JsonValue& remedy = collapsed.remediations[0];
  EXPECT_EQ(remedy.string_or("cause", ""), "ratio_collapse");
  EXPECT_EQ(remedy.string_or("action", ""), "codec_fallback");
  EXPECT_EQ(remedy.number_or("iter", -1.0), alert_iters[1]);

  // The other direction: a 4x-padded codec (ratio 0.25) clears a lowered
  // min_ratio of 0.2, so neither an alert nor a fallback fires, although
  // the default threshold of 1 would trigger both.
  telemetry::LedgerTolerances lenient;
  lenient.min_ratio = 0.2;
  const telemetry::LedgerRun healthy = run_under_tolerances(
      "lenient", lenient, [](std::size_t) { return std::make_unique<PaddedCompressor>(); });
  for (const telemetry::JsonValue& alert : healthy.alerts) {
    EXPECT_NE(alert.string_or("monitor", ""), "ratio_collapse");
  }
  EXPECT_TRUE(healthy.remediations.empty());
}

TEST(RecoveryCluster, ArmedButIdleControllerLeavesWeightsBitIdentical) {
  // The recovery layer's only op-stream change is the flag allreduce, which
  // never touches model math: an armed controller that takes no action must
  // land on the exact weights of a run with recovery disabled.
  const auto run_with = [](bool enabled) {
    comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
    ClusterTrainConfig cfg = small_config(4, 10);
    cfg.recovery.enabled = enabled;
    nn::SyntheticDataset data({8}, 3, 37);
    return cluster_train(cluster, cfg, mlp_factory(), noop_codec(), data);
  };
  const ClusterTrainResult armed = run_with(true);
  const ClusterTrainResult plain = run_with(false);
  EXPECT_EQ(armed.remediations, 0u);
  ASSERT_EQ(armed.final_params.size(), plain.final_params.size());
  EXPECT_EQ(0, std::memcmp(armed.final_params.data(), plain.final_params.data(),
                           plain.final_params.size() * sizeof(float)));
}

}  // namespace
}  // namespace fftgrad::core
