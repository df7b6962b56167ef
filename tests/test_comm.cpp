#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "fftgrad/comm/network_model.h"
#include "fftgrad/comm/sim_cluster.h"

namespace fftgrad::comm {
namespace {

// ---------------------------------------------------------------------------
// NetworkModel

TEST(NetworkModel, P2pTimeIsLatencyPlusTransfer) {
  NetworkModel net{"test", util::SimSeconds(1e-3), util::BytesPerSecond(1e6)};
  EXPECT_DOUBLE_EQ(net.p2p_time(util::Bytes(1e6)).to_double(), 1e-3 + 1.0);
}

TEST(NetworkModel, SingleRankCollectivesAreFree) {
  const NetworkModel net = NetworkModel::infiniband_fdr56();
  EXPECT_DOUBLE_EQ(net.allgather_time(util::Bytes(1e6), 1).to_double(), 0.0);
  EXPECT_DOUBLE_EQ(net.allreduce_time(util::Bytes(1e6), 1).to_double(), 0.0);
  EXPECT_DOUBLE_EQ(net.broadcast_time(util::Bytes(1e6), 1).to_double(), 0.0);
}

TEST(NetworkModel, AllgatherGrowsLinearlyWithRanks) {
  // The paper's Fig 11 observation: allgather cost is ~linear in GPU count.
  const NetworkModel net = NetworkModel::infiniband_fdr56();
  const util::Bytes block{250e6 / 8};
  const util::SimSeconds t8 = net.allgather_time(block, 8);
  const util::SimSeconds t16 = net.allgather_time(block, 16);
  const util::SimSeconds t32 = net.allgather_time(block, 32);
  EXPECT_NEAR(t16 / t8, 15.0 / 7.0, 1e-9);
  EXPECT_NEAR(t32 / t16, 31.0 / 15.0, 1e-9);
}

TEST(NetworkModel, Fig11AllgatherTimesArePinned) {
  // bench_fig11_allgather's twelve values (ms, as it prints and emits them),
  // pinned exactly: any change to the FDR56 profile or the allgather cost
  // formula moves a reproduced figure and must be made on purpose.
  struct Row {
    std::size_t gpus;
    double alexnet_ms;  // 250 MB gradient
    double resnet_ms;   // 6 MB gradient
  };
  const Row rows[] = {
      {2, 35.715285714285713, 0.8581428571428571},
      {4, 107.14585714285714, 2.5744285714285713},
      {8, 250.00699999999998, 6.0070000000000006},
      {16, 535.72928571428565, 12.872142857142856},
      {24, 821.45157142857136, 19.737285714285715},
      {32, 1107.1738571428571, 26.602428571428572},
  };
  const NetworkModel net = NetworkModel::infiniband_fdr56();
  for (const Row& row : rows) {
    EXPECT_EQ(net.allgather_time(util::Bytes(250e6), row.gpus).to_double() * 1e3,
              row.alexnet_ms)
        << row.gpus << " GPUs";
    EXPECT_EQ(net.allgather_time(util::Bytes(6e6), row.gpus).to_double() * 1e3, row.resnet_ms)
        << row.gpus << " GPUs";
  }
}

TEST(NetworkModel, AllgathervGatedByLargestBlock) {
  NetworkModel net{"test", util::SimSeconds(0.0), util::BytesPerSecond(1e6)};
  std::vector<util::Bytes> blocks = {util::Bytes(10.0), util::Bytes(1000.0),
                                     util::Bytes(100.0), util::Bytes(500.0)};
  EXPECT_DOUBLE_EQ(net.allgatherv_time(blocks).to_double(), 3.0 * (1000.0 / 1e6));
}

TEST(NetworkModel, AllreduceUsesChunkedRing) {
  NetworkModel net{"test", util::SimSeconds(0.0), util::BytesPerSecond(1e6)};
  // 2(p-1) steps of m/p bytes.
  EXPECT_DOUBLE_EQ(net.allreduce_time(util::Bytes(8e6), 4).to_double(),
                   2.0 * 3.0 * (2e6 / 1e6));
}

TEST(NetworkModel, BroadcastIsLogarithmic) {
  NetworkModel net{"test", util::SimSeconds(0.0), util::BytesPerSecond(1e6)};
  EXPECT_DOUBLE_EQ(net.broadcast_time(util::Bytes(1e6), 8).to_double(), 3.0);
  EXPECT_DOUBLE_EQ(net.broadcast_time(util::Bytes(1e6), 9).to_double(), 4.0);
}

TEST(NetworkModel, ProfilesAreOrderedBySpeed) {
  EXPECT_LT(NetworkModel::ethernet_1g().bandwidth_bytes_s,
            NetworkModel::ethernet_10g().bandwidth_bytes_s);
  EXPECT_LT(NetworkModel::ethernet_10g().bandwidth_bytes_s,
            NetworkModel::infiniband_fdr56().bandwidth_bytes_s);
}

// ---------------------------------------------------------------------------
// SimCluster

TEST(SimCluster, RunsEveryRankExactlyOnce) {
  SimCluster cluster(NetworkModel::infiniband_fdr56());
  std::vector<int> visits(6, 0);
  cluster.run(6, [&](RankContext& ctx) { visits[ctx.rank()] = 1; });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(SimCluster, AllgatherDeliversEveryContribution) {
  SimCluster cluster(NetworkModel::infiniband_fdr56());
  cluster.run(4, [&](RankContext& ctx) {
    std::vector<std::uint8_t> mine(ctx.rank() + 1, static_cast<std::uint8_t>(ctx.rank()));
    const auto gathered = ctx.allgather(mine);
    ASSERT_EQ(gathered.size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
      ASSERT_EQ(gathered[r].size(), r + 1) << "rank " << ctx.rank();
      for (std::uint8_t byte : gathered[r]) EXPECT_EQ(byte, r);
    }
  });
}

TEST(SimCluster, AllgatherChargesModeledTime) {
  NetworkModel net{"test", util::SimSeconds(0.0), util::BytesPerSecond(1e6)};
  SimCluster cluster(net);
  const auto clocks = cluster.run(3, [&](RankContext& ctx) {
    std::vector<std::uint8_t> mine(1000);
    (void)ctx.allgather(mine);
  });
  for (util::SimSeconds t : clocks) EXPECT_NEAR(t.to_double(), 2.0 * (1000.0 / 1e6), 1e-12);
}

TEST(SimCluster, AllreduceSumsAcrossRanks) {
  SimCluster cluster(NetworkModel::ethernet_10g());
  cluster.run(5, [&](RankContext& ctx) {
    std::vector<float> v = {static_cast<float>(ctx.rank()), 1.0f};
    ctx.allreduce_sum(v);
    EXPECT_FLOAT_EQ(v[0], 0.0f + 1 + 2 + 3 + 4);
    EXPECT_FLOAT_EQ(v[1], 5.0f);
  });
}

TEST(SimCluster, AllreduceIsBitIdenticalAcrossRanks) {
  SimCluster cluster(NetworkModel::ethernet_10g());
  std::vector<std::vector<float>> results(4);
  cluster.run(4, [&](RankContext& ctx) {
    std::vector<float> v(257);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 0.1f * static_cast<float>(i) * static_cast<float>(ctx.rank() + 1);
    }
    ctx.allreduce_sum(v);
    results[ctx.rank()] = v;
  });
  for (std::size_t r = 1; r < 4; ++r) EXPECT_EQ(results[r], results[0]);
}

TEST(SimCluster, BroadcastCopiesRootData) {
  SimCluster cluster(NetworkModel::ethernet_1g());
  cluster.run(4, [&](RankContext& ctx) {
    std::vector<float> v(8, ctx.rank() == 2 ? 42.0f : 0.0f);
    ctx.broadcast(v, 2);
    for (float x : v) EXPECT_FLOAT_EQ(x, 42.0f);
  });
}

TEST(SimCluster, BarrierAlignsClocksToSlowest) {
  SimCluster cluster(NetworkModel::infiniband_fdr56());
  const auto clocks = cluster.run(4, [&](RankContext& ctx) {
    // rank r is r seconds behind
    ctx.clock().advance(util::SimSeconds(static_cast<double>(ctx.rank())));
    ctx.barrier();
  });
  for (util::SimSeconds t : clocks) EXPECT_DOUBLE_EQ(t.to_double(), 3.0);
}

TEST(SimCluster, SequentialCollectivesAccumulateTime) {
  NetworkModel net{"test", util::SimSeconds(0.0), util::BytesPerSecond(1e6)};
  SimCluster cluster(net);
  const auto clocks = cluster.run(2, [&](RankContext& ctx) {
    std::vector<std::uint8_t> mine(1000);
    (void)ctx.allgather(mine);
    (void)ctx.allgather(mine);
  });
  for (util::SimSeconds t : clocks) EXPECT_NEAR(t.to_double(), 2.0 * (1000.0 / 1e6), 1e-12);
}

TEST(SimCluster, SingleRankWorks) {
  SimCluster cluster(NetworkModel::infiniband_fdr56());
  const auto clocks = cluster.run(1, [&](RankContext& ctx) {
    std::vector<std::uint8_t> mine = {1, 2, 3};
    const auto gathered = ctx.allgather(mine);
    ASSERT_EQ(gathered.size(), 1u);
    EXPECT_EQ(gathered[0], mine);
  });
  EXPECT_DOUBLE_EQ(clocks[0].to_double(), 0.0);
}

TEST(SimCluster, PropagatesRankExceptions) {
  SimCluster cluster(NetworkModel::infiniband_fdr56());
  EXPECT_THROW(cluster.run(2,
                           [&](RankContext& ctx) {
                             if (ctx.rank() == 1) throw std::runtime_error("rank failure");
                             // rank 0 does no collective so it exits cleanly
                           }),
               std::runtime_error);
}

TEST(SimCluster, ZeroRanksRejected) {
  SimCluster cluster(NetworkModel::infiniband_fdr56());
  EXPECT_THROW(cluster.run(0, [](RankContext&) {}), std::invalid_argument);
}

}  // namespace
}  // namespace fftgrad::comm
