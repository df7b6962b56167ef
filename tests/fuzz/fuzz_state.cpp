// Structure-aware fuzzing of the replica-state decoder: ReplicaState bodies
// (the rollback snapshot and both halves of a rejoin transfer) and
// TrainerCheckpoint bodies (the on-disk checkpoint).
//
// Both travel inside a CRC-checked wire frame, so mutating the framed bytes
// only ever exercises the checksum. Here the mutator works on the *body*
// and the result is re-framed under a valid CRC, so the body parser itself
// sees the smashed counts, truncations and splices. Contract: decode, or
// throw std::exception; never crash and never allocate from an unchecked
// count.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "fftgrad/core/compressor.h"
#include "fftgrad/core/replica_state.h"
#include "fftgrad/core/trainer.h"

#include "fuzz_common.h"

namespace {

using fftgrad::core::Packet;
using fftgrad::core::ReplicaState;
using fftgrad::core::TrainerCheckpoint;
namespace wire = fftgrad::core::wire;

std::vector<float> ramp(std::size_t n, float scale) {
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = scale * static_cast<float>(i);
  return values;
}

std::vector<std::uint8_t> frame_body(const std::vector<std::uint8_t>& body,
                                     std::size_t elements) {
  Packet packet;
  packet.bytes = body;
  packet.elements = elements;
  return wire::frame_packet(packet);
}

TEST(FuzzState, ReplicaStateBodyNeverCrashes) {
  // Shapes cluster_train produces: a fresh replica (no momentum yet), an EF
  // replica with momentum buffers, and a lossless-codec replica (no
  // residual).
  const std::vector<ReplicaState> states = {
      {0, ramp(12, 0.5f), {}, {}},
      {7, ramp(24, -0.25f), {ramp(16, 0.1f), ramp(8, 0.2f)}, ramp(24, 0.01f)},
      {31, ramp(5, 2.0f), {ramp(5, 1.0f)}, {}},
  };
  std::vector<std::vector<std::uint8_t>> corpus;
  for (const ReplicaState& state : states) {
    std::vector<std::uint8_t> body;
    state.encode(body);
    corpus.push_back(std::move(body));
  }

  const auto stats =
      fftgrad::fuzz::drive(corpus, 0x57a7e, [](const std::vector<std::uint8_t>& body) {
        // The rejoin path: frame, unframe through a validator, then parse.
        const Packet packet =
            wire::unframe_packet(frame_body(body, 0))
                .release([](const Packet& p) { return p.elements == 0; }, "fuzzed state");
        wire::Reader reader(packet.bytes);
        const ReplicaState state = ReplicaState::decode(reader);
        ASSERT_LE(state.params.size() * sizeof(float), packet.bytes.size());
      });
  EXPECT_GT(stats.decoded, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

TEST(FuzzState, CheckpointBodyNeverCrashes) {
  constexpr std::size_t kParams = 10;
  TrainerCheckpoint rich;
  rich.next_epoch = 4;
  rich.sim_time_s = 1.5;
  rich.total_wire_bytes = 8192.0;
  rich.total_iters = 40;
  rich.params = ramp(kParams, 0.3f);
  rich.velocity = {ramp(6, 0.1f), ramp(4, 0.2f)};
  rich.residuals = {ramp(kParams, 0.01f), {}};
  rich.rng_states = {{1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}};
  rich.epochs.resize(2);
  rich.epochs[1].epoch = 1;
  rich.epochs[1].train_loss = 0.5;
  TrainerCheckpoint bare;
  bare.params = ramp(kParams, 1.0f);

  // Strip the frame header to get the body; every mutated body is re-framed
  // with the honest element count.
  std::vector<std::vector<std::uint8_t>> corpus;
  for (const TrainerCheckpoint& ckpt : {rich, bare}) {
    const std::vector<std::uint8_t> frame = ckpt.serialize();
    corpus.emplace_back(frame.begin() + wire::kFrameHeaderBytes, frame.end());
  }

  const auto stats =
      fftgrad::fuzz::drive(corpus, 0xc4ec4, [&](const std::vector<std::uint8_t>& body) {
        const TrainerCheckpoint back = TrainerCheckpoint::deserialize(frame_body(body, kParams));
        ASSERT_EQ(back.params.size(), kParams);
      });
  EXPECT_GT(stats.decoded, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

}  // namespace
