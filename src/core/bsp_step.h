// The rank-local half of one BSP step, shared by DistributedTrainer (which
// folds every rank onto one replica) and cluster_train (one replica per
// rank thread): batch, forward and backward, compress, decode-and-average
// in rank order, apply, the ledger row's step fields, and the modelled
// phase charges. Each trainer keeps only the exchange it simulates and the
// bookkeeping that belongs to it alone. Internal to fftgrad_core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fftgrad/comm/network_model.h"
#include "fftgrad/core/compressor.h"
#include "fftgrad/core/trainer.h"
#include "fftgrad/nn/dataset.h"
#include "fftgrad/nn/network.h"
#include "fftgrad/nn/optimizer.h"
#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/util/rng.h"
#include "fftgrad/util/units.h"

namespace fftgrad::core::bsp {

/// Opens a ledger run with the manifest of one training call and returns
/// the model's parameter layout for the rows' per-layer round trips.
std::vector<nn::ParamSegment> begin_ledger_run(const char* trainer, nn::Network& model,
                                               const GradientCompressor& codec,
                                               std::size_t ranks, std::size_t iterations,
                                               std::uint64_t seed,
                                               const comm::NetworkModel& network,
                                               double fault_rate);

/// Draws one batch from `rng`, runs forward and backward on `model`, and
/// copies the gradient into `gradient`. Records each phase's wall time in
/// `row` and returns the batch's mean loss.
double forward_backward(nn::Network& model, const nn::SyntheticDataset& dataset,
                        std::size_t batch_size, util::Rng& rng, std::span<float> gradient,
                        telemetry::LedgerIteration& row);

/// Compresses `gradient` with `codec`, recording the wall time in `row`.
Packet compress(GradientCompressor& codec, std::span<const float> gradient,
                telemetry::LedgerIteration& row);

/// Decodes `packet` with `codec` into `decoded` and adds `weight` times it
/// to `sum`. Called once per packet in rank order with weight 1/n, this is
/// the step's average. The wall time is added to `row`; a packet the codec
/// rejects throws before `sum` is touched.
void accumulate(GradientCompressor& codec, const Packet& packet, float weight,
                std::span<float> decoded, std::span<float> sum,
                telemetry::LedgerIteration& row);

/// `sum += weight * values`, the averaging arithmetic of accumulate().
void add_scaled(std::span<float> sum, std::span<const float> values, float weight);

/// Applies the averaged gradient through the optimizer.
void apply(nn::Network& model, nn::SgdOptimizer& optimizer, std::span<const float> averaged,
           float learning_rate);

/// Fills the step's outcome in `row`: the loss, the true gradient's norm,
/// its round trip against `recon` (whole-gradient alpha, rms and max error,
/// plus one entry per `layout` segment; skipped when `recon` is empty), the
/// achieved ratio and wire bytes, and `codec`'s error-feedback residual.
void fill_row(telemetry::LedgerIteration& row, double loss, std::span<const float> truth,
              std::span<const float> recon, std::span<const nn::ParamSegment> layout,
              double ratio, util::Bytes wire, const GradientCompressor& codec);

/// The paper-scale PhaseCosts of one rank: `compute_seconds` split 1:2
/// between forward and backward, and the codec's Sec 3.3 cost on the
/// paper-scale message for each direction, charged as its transform stage.
PhaseCosts paper_phase_costs(const PaperScale& scale, const GradientCompressor& codec);

/// Charges `seconds` of `phase` to `rank`: advances `clock` and lays the
/// matching `category` span on the rank's simulated track. Zero charges
/// lay nothing.
void charge(util::SimSeconds& clock, std::size_t rank, const char* phase, const char* category,
            util::SimSeconds seconds);

}  // namespace fftgrad::core::bsp
