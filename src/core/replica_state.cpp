#include "fftgrad/core/replica_state.h"

#include <type_traits>

#include "fftgrad/core/error_feedback.h"
#include "fftgrad/core/trainer.h"

namespace fftgrad::core {
namespace {

// Epoch records travel as raw structs: one u64 and seven doubles.
static_assert(std::is_trivially_copyable_v<EpochRecord> &&
              sizeof(EpochRecord) == 8 * sizeof(double));

/// A count of float lists, each a wire::put_vector.
void put_float_lists(std::vector<std::uint8_t>& bytes,
                     const std::vector<std::vector<float>>& lists) {
  wire::put<std::uint64_t>(bytes, lists.size());
  for (const std::vector<float>& list : lists) wire::put_vector<float>(bytes, list);
}

std::vector<std::vector<float>> get_float_lists(wire::Reader& reader) {
  std::vector<std::vector<float>> lists(reader.get_count(sizeof(std::uint64_t)));
  for (std::vector<float>& list : lists) list = reader.get_vector<float>();
  return lists;
}

}  // namespace

ReplicaState ReplicaState::capture(std::uint64_t iteration, nn::Network& model,
                                   const nn::SgdOptimizer& optimizer,
                                   const GradientCompressor& codec) {
  ReplicaState state;
  state.iteration = iteration;
  state.params.resize(model.param_count());
  model.copy_params(state.params);
  state.velocity = optimizer.velocity();
  state.residual = residual_of(codec);
  return state;
}

void ReplicaState::apply(nn::Network& model, nn::SgdOptimizer& optimizer,
                         GradientCompressor& codec) const {
  model.set_params(params);
  optimizer.set_velocity(velocity);
  if (auto* ef = dynamic_cast<ErrorFeedbackCompressor*>(&codec);
      ef != nullptr && !residual.empty()) {
    ef->set_residual(residual);
  }
}

void ReplicaState::encode(std::vector<std::uint8_t>& bytes) const {
  wire::put<std::uint64_t>(bytes, iteration);
  wire::put_vector<float>(bytes, params);
  put_float_lists(bytes, velocity);
  wire::put_vector<float>(bytes, residual);
}

ReplicaState ReplicaState::decode(wire::Reader& reader) {
  ReplicaState state;
  state.iteration = reader.get<std::uint64_t>();
  state.params = reader.get_vector<float>();
  state.velocity = get_float_lists(reader);
  state.residual = reader.get_vector<float>();
  return state;
}

std::vector<float> residual_of(const GradientCompressor& codec) {
  const auto* ef = dynamic_cast<const ErrorFeedbackCompressor*>(&codec);
  if (ef == nullptr) return {};
  return {ef->residual().begin(), ef->residual().end()};
}

std::vector<std::uint8_t> TrainerCheckpoint::serialize() const {
  Packet body;
  body.elements = params.size();
  std::vector<std::uint8_t>& bytes = body.bytes;
  wire::put<std::uint64_t>(bytes, next_epoch);
  wire::put<double>(bytes, sim_time_s);
  wire::put<double>(bytes, total_wire_bytes);
  wire::put<std::uint64_t>(bytes, total_iters);
  wire::put_vector<float>(bytes, params);
  put_float_lists(bytes, velocity);
  put_float_lists(bytes, residuals);
  wire::put_vector<std::array<std::uint64_t, 6>>(bytes, rng_states);
  wire::put_vector<EpochRecord>(bytes, epochs);
  return wire::frame_packet(body);
}

TrainerCheckpoint TrainerCheckpoint::deserialize(std::span<const std::uint8_t> blob) {
  // A checkpoint frame never carries an analysis trailer.
  const Packet body =
      std::move(wire::unframe_frame(blob))
          .release([](const wire::WireFrame& frame) { return frame.trailer.empty(); },
                   "checkpoint frame")
          .packet;
  wire::Reader reader(body.bytes);
  TrainerCheckpoint ckpt;
  ckpt.next_epoch = reader.get<std::uint64_t>();
  ckpt.sim_time_s = reader.get<double>();
  ckpt.total_wire_bytes = reader.get<double>();
  ckpt.total_iters = reader.get<std::uint64_t>();
  ckpt.params = reader.get_vector<float>();
  ckpt.velocity = get_float_lists(reader);
  ckpt.residuals = get_float_lists(reader);
  ckpt.rng_states = reader.get_vector<std::array<std::uint64_t, 6>>();
  ckpt.epochs = reader.get_vector<EpochRecord>();
  if (ckpt.params.size() != body.elements || reader.remaining() != 0) {
    throw std::runtime_error("checkpoint: body does not match its frame");
  }
  return ckpt;
}

}  // namespace fftgrad::core
