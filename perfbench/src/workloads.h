// The benchmark's workloads. Each runs closed-loop in this process: the
// caller issues the next codec call or training iteration only after the
// previous one returned.
#pragma once

#include "common.h"

namespace perfbench {

/// codec_alexnet / codec_resnet32: one caller thread round-trips every layer
/// of the model through its own FftCompressor, as a layer-wise trainer would.
RunResult run_codec_workload(const Options& options, bool alexnet);

/// train_alexnet_fft: DistributedTrainer, 4 folded ranks, EF(FFT) codec; its
/// traced run also measures cluster_train on a fault-free SimCluster.
RunResult run_train_alexnet_fft(const Options& options);

/// Write every recorded span (the benchmark's and src's own) to `<out_dir>/<workload>-seed<seed>.trace.json`.
void write_trace(const Options& options, RunResult& result);

}  // namespace perfbench
