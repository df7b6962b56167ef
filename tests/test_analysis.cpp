// Tests for the correctness-analysis layer (src/analysis): violation
// reporting, CheckedMutex ownership + lock-order tracking, SharedState
// cross-thread access detection, and the deterministic-schedule stress mode
// in ThreadPool and SimCluster.
//
// The checker tests are compiled only when the instrumentation is
// (FFTGRAD_ANALYSIS builds: the asan/tsan presets, or -DFFTGRAD_ANALYSIS=ON).
// The schedule-stress determinism contracts are asserted unconditionally —
// in Release the stress hooks are no-ops and the contracts hold trivially.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "fftgrad/analysis/check.h"
#include "fftgrad/analysis/checked_mutex.h"
#include "fftgrad/analysis/schedule_stress.h"
#include "fftgrad/analysis/shared_state.h"
#include "fftgrad/comm/network_model.h"
#include "fftgrad/comm/sim_cluster.h"
#include "fftgrad/parallel/thread_pool.h"
#include "fftgrad/util/annotated_mutex.h"

namespace {

namespace analysis = fftgrad::analysis;
namespace comm = fftgrad::comm;
namespace parallel = fftgrad::parallel;

TEST(Mix64, IsDeterministicAndNonTrivial) {
  EXPECT_EQ(analysis::mix64(1), analysis::mix64(1));
  EXPECT_NE(analysis::mix64(1), analysis::mix64(2));
  EXPECT_NE(analysis::mix64(0), 0u);  // SplitMix64 of 0 is not 0
}

#if FFTGRAD_ANALYSIS

/// Swaps in a counting (non-aborting) handler for the test's lifetime.
class ViolationCapture {
 public:
  ViolationCapture() {
    analysis::reset_violation_count();
    analysis::set_violation_handler(+[](const char*, const std::string&) {});
  }
  ~ViolationCapture() {
    analysis::set_violation_handler(nullptr);
    analysis::reset_violation_count();
  }

  std::size_t count() const { return analysis::violation_count(); }
};

TEST(Violations, HandlerReceivesReportsAndCountAccumulates) {
  ViolationCapture capture;
  EXPECT_EQ(capture.count(), 0u);
  analysis::report_violation("lock-order", "synthetic");
  analysis::report_violation("shared-state", "synthetic");
  EXPECT_EQ(capture.count(), 2u);
}

TEST(CheckedMutexTest, TracksOwnerAcrossLockUnlock) {
  analysis::CheckedMutex mutex("test.owner");
  EXPECT_FALSE(mutex.held_by_current_thread());
  mutex.lock();
  EXPECT_TRUE(mutex.held_by_current_thread());
  std::thread([&] { EXPECT_FALSE(mutex.held_by_current_thread()); }).join();
  mutex.unlock();
  EXPECT_FALSE(mutex.held_by_current_thread());
}

TEST(CheckedMutexTest, AssertHeldPassesWhenHeldReportsWhenNot) {
  ViolationCapture capture;
  analysis::CheckedMutex mutex("test.assert_held");
  {
    std::lock_guard<analysis::CheckedMutex> lock(mutex);
    FFTGRAD_ASSERT_HELD(mutex);
  }
  EXPECT_EQ(capture.count(), 0u);
  FFTGRAD_ASSERT_HELD(mutex);  // not held: must report
  EXPECT_EQ(capture.count(), 1u);
}

TEST(CheckedMutexTest, TryLockReportsNothingAndTracksOwner) {
  ViolationCapture capture;
  analysis::CheckedMutex mutex("test.try_lock");
  ASSERT_TRUE(mutex.try_lock());
  EXPECT_TRUE(mutex.held_by_current_thread());
  std::thread([&] { EXPECT_FALSE(mutex.try_lock()); }).join();
  mutex.unlock();
  EXPECT_EQ(capture.count(), 0u);
}

TEST(LockOrder, InversionIsReportedBeforeDeadlock) {
  ViolationCapture capture;
  analysis::reset_lock_order_graph();
  analysis::CheckedMutex a("test.order_a");
  analysis::CheckedMutex b("test.order_b");

  // Teach the graph a -> b.
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  EXPECT_EQ(capture.count(), 0u);

  // Acquire in the inverted order: single-threaded, so no actual deadlock,
  // but the AB/BA cycle is a latent one and must be reported.
  b.lock();
  a.lock();
  a.unlock();
  b.unlock();
  EXPECT_EQ(capture.count(), 1u);
  analysis::reset_lock_order_graph();
}

TEST(LockOrder, ConsistentOrderAcrossThreadsIsClean) {
  ViolationCapture capture;
  analysis::reset_lock_order_graph();
  analysis::CheckedMutex a("test.clean_a");
  analysis::CheckedMutex b("test.clean_b");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        std::lock_guard<analysis::CheckedMutex> la(a);
        std::lock_guard<analysis::CheckedMutex> lb(b);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(capture.count(), 0u);
  analysis::reset_lock_order_graph();
}

TEST(SharedStateTest, SingleThreadAndSyncedHandoffAreClean) {
  ViolationCapture capture;
  analysis::SharedState<int> state(0, "test.handoff");
  state.write() = 41;
  EXPECT_EQ(state.read(), 41);
  state.sync();  // handoff point: e.g. the writer joined
  std::thread([&] { state.write() = 42; }).join();
  state.sync();
  EXPECT_EQ(state.read(), 42);
  EXPECT_EQ(capture.count(), 0u);
}

TEST(SharedStateTest, ConcurrentReadersAreClean) {
  ViolationCapture capture;
  analysis::SharedState<int> state(7, "test.readers");
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) EXPECT_EQ(state.read(), 7);
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(capture.count(), 0u);
}

TEST(SharedStateTest, UnsyncedCrossThreadWriteIsReported) {
  ViolationCapture capture;
  analysis::SharedState<int> state(0, "test.racy");
  state.write() = 1;
  // No sync(): as far as the checker can prove, this write races with the
  // one above even though the join sequences them in real time.
  std::thread([&] { state.write() = 2; }).join();
  EXPECT_EQ(capture.count(), 1u);
}

TEST(SharedStateTest, ReadOfAnotherThreadsUnsyncedWriteIsReported) {
  ViolationCapture capture;
  analysis::SharedState<int> state(0, "test.stale_read");
  std::thread([&] { state.write() = 3; }).join();
  (void)state.read();
  EXPECT_EQ(capture.count(), 1u);
}

TEST(ScheduleStress, ScopeSetsAndRestoresSeed) {
  EXPECT_EQ(analysis::schedule_stress_seed(), 0u);
  {
    analysis::ScheduleStressScope scope(1234);
    EXPECT_EQ(analysis::schedule_stress_seed(), 1234u);
    {
      analysis::ScheduleStressScope inner(77);
      EXPECT_EQ(analysis::schedule_stress_seed(), 77u);
    }
    EXPECT_EQ(analysis::schedule_stress_seed(), 1234u);
  }
  EXPECT_EQ(analysis::schedule_stress_seed(), 0u);
}

// The util:: guards are the project's scoped capabilities; these tests pin
// their runtime semantics against CheckedMutex's owner tracking (the static
// side — that dropping a guard annotation breaks the build — is proven by
// the mutant matrix in scripts/thread_safety_check.sh).

TEST(AnnotatedGuards, LockGuardHoldsCheckedMutexForExactlyItsScope) {
  analysis::CheckedMutex mutex("test.guard_scope");
  EXPECT_FALSE(mutex.held_by_current_thread());
  {
    fftgrad::util::LockGuard<analysis::CheckedMutex> lock(mutex);
    EXPECT_TRUE(mutex.held_by_current_thread());
    std::thread([&] { EXPECT_FALSE(mutex.held_by_current_thread()); }).join();
  }
  EXPECT_FALSE(mutex.held_by_current_thread());
}

TEST(AnnotatedGuards, UniqueLockEarlyReleaseAndRelockTrackOwnership) {
  ViolationCapture capture;
  analysis::CheckedMutex mutex("test.unique_lock");
  {
    fftgrad::util::UniqueLock<analysis::CheckedMutex> lock(mutex);
    EXPECT_TRUE(lock.owns_lock());
    EXPECT_TRUE(mutex.held_by_current_thread());

    lock.unlock();
    EXPECT_FALSE(lock.owns_lock());
    EXPECT_FALSE(mutex.held_by_current_thread());
    // Released for real: another thread can take and drop it.
    std::thread([&] {
      EXPECT_TRUE(mutex.try_lock());
      mutex.unlock();
    }).join();

    lock.lock();
    EXPECT_TRUE(lock.owns_lock());
    EXPECT_TRUE(mutex.held_by_current_thread());
  }
  // The destructor released the re-taken lock; no double-unlock report.
  EXPECT_FALSE(mutex.held_by_current_thread());
  EXPECT_EQ(capture.count(), 0u);
}

TEST(AnnotatedGuards, UniqueLockDestructorSkipsReleaseAfterEarlyUnlock) {
  ViolationCapture capture;
  analysis::CheckedMutex mutex("test.unique_lock_early");
  {
    fftgrad::util::UniqueLock<analysis::CheckedMutex> lock(mutex);
    lock.unlock();
  }  // owns_ is false: the destructor must not unlock again
  EXPECT_EQ(capture.count(), 0u);
  // Still lockable — the mutex was left in a consistent state.
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
}

#endif  // FFTGRAD_ANALYSIS

TEST(AnnotatedGuards, SharedLockGuardAdmitsConcurrentReadersExcludesWriter) {
  fftgrad::util::SharedMutex mutex;
  std::atomic<int> readers{0};
  std::atomic<bool> release{false};

  std::thread r1([&] {
    fftgrad::util::SharedLockGuard<fftgrad::util::SharedMutex> lock(mutex);
    readers.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  });
  std::thread r2([&] {
    fftgrad::util::SharedLockGuard<fftgrad::util::SharedMutex> lock(mutex);
    readers.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  });

  // Both readers hold the shared capability at once...
  while (readers.load() < 2) std::this_thread::yield();
  // ...which excludes an exclusive acquisition.
  EXPECT_FALSE(mutex.try_lock());
  release.store(true);
  r1.join();
  r2.join();

  // Readers gone: the writer path opens up.
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(AnnotatedGuards, MutexWrapperExcludesSecondOwner) {
  fftgrad::util::Mutex mutex;
  {
    fftgrad::util::LockGuard<fftgrad::util::Mutex> lock(mutex);
    std::thread([&] { EXPECT_FALSE(mutex.try_lock()); }).join();
  }
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
}

/// Execution order of 8 gated tasks on a single-worker pool under `seed`.
/// The worker is parked on a gate task while the queue fills, so every
/// dequeue decision sees the full queue and the stress permutation is a
/// pure function of the seed. The tasks are submitted only once the gate
/// has started: a worker that starts late (as threads do under TSan)
/// would otherwise make its first seeded pick among the gate and however
/// many tasks were queued by then.
std::vector<int> pool_execution_order(std::uint64_t seed) {
  analysis::ScheduleStressScope scope(seed);
  parallel::ThreadPool pool(1);
  std::promise<void> started;
  std::promise<void> go;
  std::shared_future<void> go_future = go.get_future().share();
  std::future<void> gate = pool.submit([&started, go_future] {
    started.set_value();
    go_future.wait();
  });
  started.get_future().wait();

  std::mutex order_mutex;
  std::vector<int> order;
  std::vector<std::future<void>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(pool.submit([&, i] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(i);
    }));
  }
  go.set_value();
  gate.get();
  for (auto& task : tasks) task.get();
  return order;
}

TEST(ScheduleStress, PoolPermutationIsDeterministicPerSeed) {
  const std::vector<int> fifo = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(pool_execution_order(0), fifo);  // stress off: FIFO contract

  bool any_permuted = false;
  for (std::uint64_t seed : {0xa5a5ull, 0x5eedull, 3ull, 4ull}) {
    const std::vector<int> first = pool_execution_order(seed);
    EXPECT_EQ(first, pool_execution_order(seed)) << "seed " << seed << " not reproducible";
    if (first != fifo) any_permuted = true;
  }
#if FFTGRAD_ANALYSIS
  // With instrumentation on, at least one of the seeds must actually
  // reorder the queue, or stress mode is a no-op and tests prove nothing.
  EXPECT_TRUE(any_permuted);
#else
  (void)any_permuted;
#endif
}

/// One allgather + one allreduce + one reduce_scatter per rank under the
/// given stress seed; returns every byte/float the collectives produced,
/// flattened in rank order.
struct CollectiveResults {
  std::vector<std::uint8_t> gathered;
  std::vector<float> reduced;

  bool operator==(const CollectiveResults&) const = default;
};

CollectiveResults run_collectives(std::uint64_t seed) {
  analysis::ScheduleStressScope scope(seed);
  constexpr std::size_t kRanks = 4;
  constexpr std::size_t kFloats = 96;

  std::mutex result_mutex;
  std::vector<std::vector<std::uint8_t>> per_rank_bytes(kRanks);
  std::vector<std::vector<float>> per_rank_floats(kRanks);

  comm::SimCluster cluster(comm::NetworkModel::infiniband_fdr56());
  cluster.run(kRanks, [&](comm::RankContext& ctx) {
    const std::size_t rank = ctx.rank();
    // Rank-dependent payloads (different sizes for the allgather).
    std::vector<std::uint8_t> mine(16 + 8 * rank);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = static_cast<std::uint8_t>(analysis::mix64(rank * 1000 + i));
    }
    std::vector<float> values(kFloats);
    for (std::size_t i = 0; i < kFloats; ++i) {
      values[i] = static_cast<float>(static_cast<std::int64_t>(
                      analysis::mix64(rank * 7777 + i) % 2001) -
                  1000) /
                  997.0f;
    }

    const auto gathered = ctx.allgather(mine);
    ctx.allreduce_sum(values);
    const std::vector<float> chunk = ctx.reduce_scatter_sum(values);

    std::vector<std::uint8_t> flat_bytes;
    for (const auto& peer : gathered) {
      flat_bytes.insert(flat_bytes.end(), peer.begin(), peer.end());
    }
    std::vector<float> flat_floats = values;
    flat_floats.insert(flat_floats.end(), chunk.begin(), chunk.end());

    std::lock_guard<std::mutex> lock(result_mutex);
    per_rank_bytes[rank] = std::move(flat_bytes);
    per_rank_floats[rank] = std::move(flat_floats);
  });

  CollectiveResults results;
  for (std::size_t r = 0; r < kRanks; ++r) {
    results.gathered.insert(results.gathered.end(), per_rank_bytes[r].begin(),
                            per_rank_bytes[r].end());
    results.reduced.insert(results.reduced.end(), per_rank_floats[r].begin(),
                           per_rank_floats[r].end());
  }
  return results;
}

TEST(ScheduleStress, ClusterCollectivesBitIdenticalAcross16Seeds) {
  const CollectiveResults baseline = run_collectives(0);
  ASSERT_FALSE(baseline.gathered.empty());
  ASSERT_FALSE(baseline.reduced.empty());
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const CollectiveResults stressed = run_collectives(seed);
    // Bit-identical, not approximately equal: arrival order must not leak
    // into reduction order (the float comparison is exact on purpose).
    EXPECT_EQ(std::memcmp(stressed.reduced.data(), baseline.reduced.data(),
                          baseline.reduced.size() * sizeof(float)),
              0)
        << "float results differ under stress seed " << seed;
    EXPECT_TRUE(stressed == baseline) << "collective results differ under stress seed " << seed;
  }
}

}  // namespace
