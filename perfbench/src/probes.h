// Direct probes of single layers for the traced run: each times calls into
// one module's public functions, outside any trainer.
#pragma once

#include <cstdint>
#include <vector>

#include "fftgrad/core/compressor.h"
#include "fftgrad/nn/dataset.h"
#include "fftgrad/nn/network.h"
#include "report.h"

namespace perfbench {

struct NnTimes {
  double forward_ms = 0.0;   ///< median forward pass of one batch
  double backward_ms = 0.0;  ///< median backward pass of one batch
};

/// Forward and backward of `net` on seeded batches of `batch` samples of
/// `data`, medians over `reps` runs.
NnTimes probe_nn(fftgrad::nn::Network& net, const fftgrad::nn::SyntheticDataset& data,
                 std::size_t batch, std::uint64_t seed, int reps);

/// The exchange layers on one iteration's packets, into `values`:
///  - comm.allgather_ms_p50: median wall time of one SimCluster allgather on
///    a fault-free 10GbE model with `ranks` rank threads, each contributing
///    the framed packet;
///  - wire.frame_ms / wire.unframe_ms: wire::frame_packet of every packet
///    once / unframe_packet (CRC-32 check) of every packet once per rank,
///    medians over `reps`;
///  - parallel.dispatch_us: median microseconds of one parallel_for over one
///    element per worker of the global thread pool.
/// A frame that does not parse back to its packet makes `result` wrong.
void probe_exchange(const std::vector<fftgrad::core::Packet>& packets, std::size_t ranks,
                    int reps, LayerValues& values, RunResult& result);

}  // namespace perfbench
