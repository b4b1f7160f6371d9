// Sharded-dispatch and reorder-buffer coverage for the campaign engine's
// threading layer.
//
// ThreadPool::parallel_for claims contiguous index shards through a shared
// counter; the campaign's ordering guarantee is built on two invariants
// tested here: every index runs exactly once, and each lane observes its
// indices in strictly increasing order (SlotReorderBuffer's deadlock
// freedom depends on the latter). The reorder-buffer tests drive
// adversarial completion orders — including workers parked beyond the
// bounded window — and the cancellation/exception paths the campaign
// runner relies on.
#include "campaign/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/sink.h"

namespace flashflow::campaign {
namespace {

SlotResult make_result(std::size_t slot) {
  SlotResult result;
  result.slot = static_cast<int>(slot);
  return result;
}

TEST(ThreadPoolShard, CoversEveryIndexOnceAcrossShardSizes) {
  for (const int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    for (const std::size_t shard : {std::size_t{1}, std::size_t{3},
                                    std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(257);
      pool.parallel_for(hits.size(), shard,
                        [&](std::size_t, std::size_t i) { hits[i] += 1; });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPoolShard, ShardSizeOneMatchesIndexAtATimeClaiming) {
  // Shard size 1 degenerates to the pre-shard index-at-a-time dispatch:
  // same coverage, same lane bounds, one counter trip per index.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  std::atomic<std::size_t> max_lane{0};
  pool.parallel_for(hits.size(), /*shard_size=*/1,
                    [&](std::size_t lane, std::size_t i) {
                      hits[i] += 1;
                      std::size_t seen = max_lane.load();
                      while (lane > seen &&
                             !max_lane.compare_exchange_weak(seen, lane)) {
                      }
                    });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_LT(max_lane.load(), pool.lanes(hits.size()));
}

TEST(ThreadPoolShard, LanesExceedSlots) {
  // More workers than indices: lanes() collapses to n, every index still
  // runs exactly once and lane ids stay within [0, n).
  ThreadPool pool(8);
  EXPECT_EQ(pool.lanes(3), 3u);
  std::vector<std::atomic<int>> hits(3);
  std::atomic<bool> lane_in_range{true};
  pool.parallel_for(hits.size(), /*shard_size=*/2,
                    [&](std::size_t lane, std::size_t i) {
                      hits[i] += 1;
                      if (lane >= 3) lane_in_range = false;
                    });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_TRUE(lane_in_range.load());
}

TEST(ThreadPoolShard, PerLaneIndexSequenceIsStrictlyIncreasing) {
  // The reorder buffer's deadlock-freedom proof requires each lane to
  // hand over its indices monotonically; pin the invariant for shard
  // sizes on both sides of the auto heuristic.
  for (const std::size_t shard : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{50}}) {
    ThreadPool pool(4);
    const std::size_t n = 200;
    std::mutex mutex;
    std::vector<std::vector<std::size_t>> per_lane(pool.lanes(n));
    pool.parallel_for(n, shard, [&](std::size_t lane, std::size_t i) {
      std::lock_guard<std::mutex> lock(mutex);
      per_lane[lane].push_back(i);
    });
    std::size_t total = 0;
    for (const auto& seq : per_lane) {
      total += seq.size();
      EXPECT_TRUE(std::is_sorted(seq.begin(), seq.end()));
      EXPECT_EQ(std::adjacent_find(seq.begin(), seq.end()), seq.end());
    }
    EXPECT_EQ(total, n);
  }
}

TEST(ThreadPoolShard, ExceptionDuringShardRethrowsFirstError) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(128, /*shard_size=*/8,
                        [](std::size_t, std::size_t i) {
                          if (i % 13 == 5) throw std::runtime_error("boom");
                        }),
      std::runtime_error);

  // The pool survives a failed loop: the next parallel_for runs clean.
  std::atomic<int> count{0};
  pool.parallel_for(32, /*shard_size=*/4,
                    [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolShard, ExceptionStopsFurtherClaims) {
  // After a throw, lanes stop claiming new shards and skip the rest of
  // the current shard; with a single worker the cut-off is deterministic.
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.parallel_for(1000, /*shard_size=*/10,
                                 [&](std::size_t, std::size_t i) {
                                   ++executed;
                                   if (i == 3) throw std::logic_error("stop");
                                 }),
               std::logic_error);
  EXPECT_EQ(executed.load(), 4);  // indices 0..3; 4..9 skipped, no new shard
}

TEST(ThreadPoolShard, DefaultShardBalancesClaimsAndCaps) {
  EXPECT_EQ(ThreadPool::default_shard(0, 4), 1u);
  EXPECT_EQ(ThreadPool::default_shard(100, 0), 1u);
  // Small n: shard collapses to 1 (keep the tail balanced).
  EXPECT_EQ(ThreadPool::default_shard(10, 8), 1u);
  // ~8 claims per lane in the middle range.
  EXPECT_EQ(ThreadPool::default_shard(640, 8), 10u);
  // Capped so reorder windows stay small for huge periods.
  EXPECT_EQ(ThreadPool::default_shard(1 << 20, 1), 64u);
}

TEST(SlotReorderBuffer, DeliversInOrderUnderAdversarialParkOrder) {
  // Park in a worst-case order (all high slots first) with a window big
  // enough not to block: nothing may be delivered until slot 0 lands,
  // then everything flushes in increasing order from one park call.
  const std::size_t n = 16;
  std::vector<int> delivered;
  SlotReorderBuffer buffer(n, /*window=*/n, [&](SlotResult&& slot) {
    delivered.push_back(slot.slot);
    return true;
  });
  for (std::size_t i = n - 1; i > 0; --i) {
    EXPECT_TRUE(buffer.park(i, make_result(i)));
    EXPECT_TRUE(delivered.empty());
  }
  EXPECT_TRUE(buffer.park(0, make_result(0)));
  ASSERT_EQ(delivered.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(delivered[i], static_cast<int>(i));
  EXPECT_EQ(buffer.delivered(), n);
}

TEST(SlotReorderBuffer, ParkBeyondWindowBlocksUntilPrefixDelivered) {
  std::vector<int> delivered;
  SlotReorderBuffer buffer(4, /*window=*/2, [&](SlotResult&& slot) {
    delivered.push_back(slot.slot);
    return true;
  });

  // Index 2 is outside [0, 0 + 2): the parking thread must block.
  std::atomic<bool> parked{false};
  std::thread blocked([&] {
    EXPECT_TRUE(buffer.park(2, make_result(2)));
    parked = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(parked.load());
  EXPECT_TRUE(delivered.empty());

  // Delivering the prefix advances the window and unblocks the parker.
  EXPECT_TRUE(buffer.park(0, make_result(0)));
  EXPECT_TRUE(buffer.park(1, make_result(1)));
  blocked.join();
  EXPECT_TRUE(parked.load());
  EXPECT_TRUE(buffer.park(3, make_result(3)));
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_TRUE(std::is_sorted(delivered.begin(), delivered.end()));
}

TEST(SlotReorderBuffer, AbortUnblocksParkedWorkers) {
  SlotReorderBuffer buffer(8, /*window=*/1,
                           [](SlotResult&&) { return true; });
  auto blocked = std::async(std::launch::async, [&] {
    return buffer.park(5, make_result(5));
  });
  EXPECT_EQ(blocked.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  buffer.abort();
  EXPECT_FALSE(blocked.get());  // woken, result dropped
  EXPECT_FALSE(buffer.park(0, make_result(0)));  // aborted: no-op
  EXPECT_EQ(buffer.delivered(), 0u);
}

TEST(SlotReorderBuffer, DeliverReturningFalseCancelsRemaining) {
  std::vector<int> delivered;
  SlotReorderBuffer buffer(4, /*window=*/4, [&](SlotResult&& slot) {
    delivered.push_back(slot.slot);
    return false;  // cancel after the first delivery
  });
  EXPECT_TRUE(buffer.park(1, make_result(1)));
  EXPECT_TRUE(buffer.park(0, make_result(0)));  // delivers 0, then aborts
  EXPECT_EQ(buffer.delivered(), 1u);
  EXPECT_FALSE(buffer.park(2, make_result(2)));  // aborted: no-op
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], 0);
}

TEST(SlotReorderBuffer, DeliverExceptionPropagatesToFlushingParker) {
  SlotReorderBuffer buffer(4, /*window=*/4, [](SlotResult&&) -> bool {
    throw std::runtime_error("sink failed");
  });
  EXPECT_THROW(buffer.park(0, make_result(0)), std::runtime_error);
  // The failed slot was consumed, not redelivered; later parks are no-ops.
  EXPECT_FALSE(buffer.park(1, make_result(1)));
  EXPECT_EQ(buffer.delivered(), 0u);
}

TEST(SlotReorderBuffer, WorkerThrowBeforeParkMustAbortOrPeersDeadlock) {
  // Mirrors CampaignRunner's worker pattern: the slot computation can
  // throw before park(), in which case the delivery cursor would never
  // reach indices parked behind the dead slot — the worker must abort the
  // buffer on the way out or peers blocked beyond the bounded window wait
  // forever (regression test: the campaign worker wraps compute + park in
  // one try/catch that aborts before rethrowing).
  ThreadPool pool(2);
  const std::size_t n = 64;
  SlotReorderBuffer buffer(n, /*window=*/2,
                           [](SlotResult&&) { return true; });
  EXPECT_THROW(
      pool.parallel_for(n, /*shard_size=*/1,
                        [&](std::size_t, std::size_t i) {
                          try {
                            if (i == 0) {
                              // Let the other lane race ahead and block
                              // on the window before the throw.
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(20));
                              throw std::runtime_error("compute failed");
                            }
                            buffer.park(i, make_result(i));
                          } catch (...) {
                            buffer.abort();
                            throw;
                          }
                        }),
      std::runtime_error);
  // The worker aborted the buffer: any further park is a no-op.
  EXPECT_FALSE(buffer.park(n - 1, make_result(n - 1)));
  EXPECT_EQ(buffer.delivered(), 0u);  // slot 0 died, nothing flushed
}

TEST(SlotReorderBuffer, ManyThreadsRandomOrderStaysOrderedAndBounded) {
  // Threaded smoke over the whole machinery: workers complete slots in
  // scrambled order through a tight window; delivery must still be the
  // identity permutation and in-flight results can never exceed the
  // window (checked indirectly: delivery index gaps would break sorting).
  const std::size_t n = 200;
  std::vector<int> delivered;
  SlotReorderBuffer buffer(n, /*window=*/8, [&](SlotResult&& slot) {
    delivered.push_back(slot.slot);
    return true;
  });
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Deterministic scramble with bounded displacement: a worker lane never
  // runs more than `window` slots ahead, matching parallel_for's monotone
  // per-lane hand-off (unbounded displacement could deadlock a window
  // this tight, by design).
  for (std::size_t i = 0; i + 1 < n; i += 2) std::swap(order[i], order[i + 1]);
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (std::size_t k = cursor++; k < n; k = cursor++)
        EXPECT_TRUE(buffer.park(order[k], make_result(order[k])));
    });
  }
  for (auto& t : workers) t.join();
  ASSERT_EQ(delivered.size(), n);
  EXPECT_TRUE(std::is_sorted(delivered.begin(), delivered.end()));
  EXPECT_EQ(buffer.delivered(), n);
}

}  // namespace
}  // namespace flashflow::campaign
