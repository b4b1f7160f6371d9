// Fixed-size worker pool for the campaign engine.
//
// Campaign slots are embarrassingly parallel: every slot carries its own
// RNG (forked deterministically from the period seed) and writes to a
// disjoint range of the result vector, so the pool needs no result
// plumbing — only bounded workers and completion. parallel_for() hands out
// contiguous index shards through a shared atomic counter, which keeps the
// work/thread assignment irrelevant to the output: determinism comes from
// the per-index seeding, not from the scheduling order. Sharding (instead
// of claiming one index at a time) amortizes the counter contention and
// the per-index cache-line hand-off across real cores; each lane still
// processes its indices in strictly increasing order, which downstream
// consumers (the campaign's bounded reorder buffer) rely on for deadlock
// freedom.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace flashflow::campaign {

class ThreadPool {
 public:
  /// `threads` <= 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(int threads = 0) {
    if (threads <= 0)
      threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_workers_.notify_all();
    for (auto& w : workers_) w.join();
  }

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. Tasks must not throw; wrap exception capture into
  /// the task itself (parallel_for does this for its callers).
  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push(std::move(task));
    }
    wake_workers_.notify_one();
  }

  /// Blocks until every submitted task has finished.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  }

  /// Runs fn(lane, i) for every i in [0, n) and blocks until all indices
  /// complete. `lane` in [0, lanes(n)) identifies the claiming task slot;
  /// each lane runs on one worker for the duration of the loop, so callers
  /// can keep per-lane scratch (e.g. a reusable slot workspace) without
  /// locking. Results must not depend on the lane→index assignment. If
  /// any invocation throws, the first captured exception is rethrown here
  /// after the loop drains.
  ///
  /// Each lane claims `shard_size` contiguous indices per trip to a shared
  /// atomic counter (0 picks default_shard; 1 claims one index at a time).
  /// Two guarantees callers may rely on, independent of the shard size:
  ///   - every index in [0, n) runs exactly once (unless a prior index
  ///     threw, which stops further claims), and
  ///   - each lane observes its indices in strictly increasing order
  ///     (shards are claimed monotonically and walked front to back).
  void parallel_for(std::size_t n, std::size_t shard_size,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
    if (n == 0) return;
    const std::size_t lane_count = lanes(n);
    if (shard_size == 0) shard_size = default_shard(n, lane_count);
    auto next = std::make_shared<std::atomic<std::size_t>>(0);
    auto failed = std::make_shared<std::atomic<bool>>(false);
    auto first_error = std::make_shared<std::once_flag>();
    auto error = std::make_shared<std::exception_ptr>();
    for (std::size_t lane = 0; lane < lane_count; ++lane) {
      submit([n, shard_size, lane, next, failed, first_error, error, &fn] {
        // Stop claiming new shards (and new indices within the current
        // shard) once any invocation has thrown; in-flight indices still
        // finish.
        for (std::size_t begin = next->fetch_add(shard_size);
             begin < n && !failed->load();
             begin = next->fetch_add(shard_size)) {
          const std::size_t end = std::min(begin + shard_size, n);
          for (std::size_t i = begin; i < end && !failed->load(); ++i) {
            try {
              fn(lane, i);
            } catch (...) {
              std::call_once(*first_error,
                             [&] { *error = std::current_exception(); });
              failed->store(true);
            }
          }
        }
      });
    }
    wait_idle();
    if (*error) std::rethrow_exception(*error);
  }

  /// Number of lanes a parallel_for over n indices will use.
  std::size_t lanes(std::size_t n) const {
    return std::min(n, static_cast<std::size_t>(size()));
  }

  /// Shard size parallel_for picks when the caller passes 0: roughly
  /// eight claims per lane, so the counter hand-off is amortized while the
  /// tail stays balanced, capped at 64 so consumers that buffer a small
  /// multiple of lanes × shard (the campaign's slot-reorder window) stay
  /// bounded even for huge n.
  static std::size_t default_shard(std::size_t n, std::size_t lane_count) {
    if (n == 0 || lane_count == 0) return 1;
    return std::clamp<std::size_t>(n / (8 * lane_count), 1, 64);
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_workers_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ with a drained queue
        task = std::move(queue_.front());
        queue_.pop();
        ++active_;
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --active_;
      }
      idle_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_workers_;
  std::condition_variable idle_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int active_ = 0;
  bool stopping_ = false;
};

}  // namespace flashflow::campaign
