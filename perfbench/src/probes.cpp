#include "probes.h"

#include <atomic>

#include "common.h"
#include "fftgrad/comm/sim_cluster.h"
#include "fftgrad/nn/loss.h"
#include "fftgrad/parallel/parallel_for.h"

namespace perfbench {

namespace core = fftgrad::core;

NnTimes probe_nn(fftgrad::nn::Network& net, const fftgrad::nn::SyntheticDataset& data,
                 std::size_t batch, std::uint64_t seed, int reps) {
  fftgrad::util::Rng rng(seed);
  fftgrad::nn::SoftmaxCrossEntropy criterion;
  std::vector<double> forward;
  std::vector<double> backward;
  for (int rep = -2; rep < reps; ++rep) {  // two warm-up passes
    const fftgrad::nn::Batch b = data.sample(batch, rng);
    net.zero_grad();
    double t0 = now_s();
    {
      ScopedSpan span("nn.forward");
      criterion.forward(net.forward(b.inputs), b.labels);
    }
    double t1 = now_s();
    {
      ScopedSpan span("nn.backward");
      net.backward(criterion.backward());
    }
    double t2 = now_s();
    if (rep >= 0) {
      forward.push_back(t1 - t0);
      backward.push_back(t2 - t1);
    }
  }
  return {median(forward) * 1e3, median(backward) * 1e3};
}

namespace {

double probe_allgather_ms(const std::vector<core::Packet>& packets, std::size_t ranks,
                          int reps) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (const core::Packet& p : packets) frames.push_back(core::wire::frame_packet(p));
  std::vector<double> times;  // rank 0's calls
  fftgrad::comm::SimCluster cluster(fftgrad::comm::NetworkModel::ethernet_10g());
  cluster.run(ranks, [&](fftgrad::comm::RankContext& ctx) {
    for (int rep = 0; rep < reps; ++rep) {
      for (const auto& frame : frames) {
        const double t0 = now_s();
        std::vector<std::vector<std::uint8_t>> gathered;
        {
          ScopedSpan span("comm.allgather");
          gathered = ctx.allgather(frame);
        }
        if (ctx.rank() == 0) times.push_back(now_s() - t0);
      }
    }
  });
  return median(times) * 1e3;
}

struct WireTimes {
  double frame_ms = 0.0;
  double unframe_ms = 0.0;
  bool ok = true;  ///< every frame parsed back to its packet
};

WireTimes probe_wire(const std::vector<core::Packet>& packets, std::size_t ranks, int reps) {
  WireTimes result;
  std::vector<double> frame_s;
  std::vector<double> unframe_s;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::vector<std::uint8_t>> frames;
    double t0 = now_s();
    for (const core::Packet& p : packets) {
      ScopedSpan span("wire.frame");
      frames.push_back(core::wire::frame_packet(p));
    }
    double t1 = now_s();
    for (std::size_t r = 0; r < ranks; ++r) {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        ScopedSpan span("wire.unframe");
        const std::size_t expected = packets[i].elements;
        const core::Packet back =
            std::move(core::wire::unframe_packet(frames[i], expected))
                .release([&](const core::Packet& p) { return p.elements == expected; },
                         "probe frame");
        if (back.bytes != packets[i].bytes) result.ok = false;
      }
    }
    double t2 = now_s();
    frame_s.push_back(t1 - t0);
    unframe_s.push_back(t2 - t1);
  }
  result.frame_ms = median(frame_s) * 1e3;
  result.unframe_ms = median(unframe_s) * 1e3;
  return result;
}

double probe_dispatch_us(int reps) {
  auto& pool = fftgrad::parallel::ThreadPool::global();
  std::atomic<std::size_t> sink{0};
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    fftgrad::parallel::parallel_for(pool, pool.size(), [&](std::size_t begin, std::size_t end) {
      sink.fetch_add(end - begin, std::memory_order_relaxed);
    });
    times.push_back(now_s() - t0);
  }
  return median(times) * 1e6;
}

}  // namespace

void probe_exchange(const std::vector<core::Packet>& packets, std::size_t ranks, int reps,
                    LayerValues& values, RunResult& result) {
  values["comm.allgather_ms_p50"] = probe_allgather_ms(packets, ranks, reps);
  const WireTimes wire = probe_wire(packets, ranks, reps);
  if (!wire.ok) result.wrong("wire frame did not parse back to its packet");
  values["wire.frame_ms"] = wire.frame_ms;
  values["wire.unframe_ms"] = wire.unframe_ms;
  values["parallel.dispatch_us"] = probe_dispatch_us(2000);
}

}  // namespace perfbench
