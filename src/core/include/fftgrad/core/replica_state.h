// ReplicaState: the one encoding of a training replica's mutable state.
//
// BSP allgather keeps every replica bit-identical, so one replica's state
// is the cluster's: model parameters, optimizer momentum and the codec's
// error-feedback residual, tagged with the iteration it enters.
// cluster_train's rollback snapshot and both halves of its rejoin blob are
// ReplicaStates; TrainerCheckpoint's encoder lives beside it
// (replica_state.cpp) and writes its parameter, momentum and residual
// lists through the same helpers. Every copy that leaves memory travels
// in one wire frame (wire::frame_packet), so one CRC protects checkpoints
// and rejoin transfers alike.
#pragma once

#include <cstdint>
#include <vector>

#include "fftgrad/core/compressor.h"
#include "fftgrad/nn/network.h"
#include "fftgrad/nn/optimizer.h"

namespace fftgrad::core {

struct ReplicaState {
  std::uint64_t iteration = 0;  ///< the iteration this state enters
  std::vector<float> params;
  std::vector<std::vector<float>> velocity;  ///< optimizer momentum buffers
  std::vector<float> residual;  ///< codec's EF residual ({} when it carries none)

  static ReplicaState capture(std::uint64_t iteration, nn::Network& model,
                              const nn::SgdOptimizer& optimizer,
                              const GradientCompressor& codec);
  /// The residual is installed only when it is non-empty and the codec
  /// carries error feedback: a codec that fell back to the lossless one has
  /// no residual to restore. Throws std::invalid_argument when the
  /// parameter count does not match the model.
  void apply(nn::Network& model, nn::SgdOptimizer& optimizer,
             GradientCompressor& codec) const;

  void encode(std::vector<std::uint8_t>& bytes) const;
  /// Throws std::runtime_error on truncation or a count that cannot fit.
  static ReplicaState decode(wire::Reader& reader);
};

/// The codec's error-feedback residual ({} when it carries none).
std::vector<float> residual_of(const GradientCompressor& codec);

}  // namespace fftgrad::core
