// A small work-claiming worker pool shared by the sharded runner and the SEU
// campaign.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace fmossim {

/// The worker count a pool asked for `jobs` workers runs: at least 1 and at
/// most the hardware's concurrency (more threads than cores only add
/// contention when a shared queue already decouples items from workers).
inline unsigned cappedWorkers(unsigned jobs) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp(jobs, 1u, hw);
}

/// Runs `body(item)` once for every item in [0, numItems). Workers claim
/// items in ascending order from one shared counter. There are
/// min(cappedWorkers(jobs), numItems) workers, and the calling thread is one
/// of them, so only the others are spawned (a thread that cannot be started
/// leaves fewer workers, not an error).
///
/// The first exception a body throws stops the pool: no worker claims
/// another item, items already running finish, every spawned thread is
/// joined, and then that first exception is rethrown to the caller.
template <typename Body>
void forEachClaimed(std::size_t numItems, unsigned jobs, const Body& body) {
  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      cappedWorkers(jobs), std::max<std::size_t>(1, numItems)));
  std::atomic<std::size_t> next{0};
  std::mutex errorMutex;
  std::exception_ptr firstError;
  const auto worker = [&] {
    try {
      for (;;) {
        const std::size_t item = next.fetch_add(1, std::memory_order_relaxed);
        if (item >= numItems) return;
        body(item);
      }
    } catch (...) {
      // Pushing the counter past the end turns every later claim into a
      // miss; the first error is the one reported.
      next.store(numItems, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(errorMutex);
      if (!firstError) firstError = std::current_exception();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    try {
      threads.emplace_back(worker);
    } catch (const std::system_error&) {
      break;
    }
  }
  worker();
  for (std::thread& t : threads) t.join();
  if (firstError) std::rethrow_exception(firstError);
}

}  // namespace fmossim
