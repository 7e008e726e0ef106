// util/parallel.hpp: every item runs once, the caller is a worker, the pool
// stops claiming at the first error and rethrows it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace fmossim {
namespace {

TEST(ParallelTest, CappedWorkersStaysWithinOneAndTheHardware) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(cappedWorkers(0), 1u);
  EXPECT_EQ(cappedWorkers(1), 1u);
  EXPECT_EQ(cappedWorkers(1000), hw);
  EXPECT_EQ(cappedWorkers(2), std::min(2u, hw));
}

TEST(ParallelTest, RunsEveryItemOnceWithTheCallerAsAWorker) {
  for (const unsigned jobs : {1u, 2u, 4u, 1000u}) {
    for (const std::size_t numItems : {0u, 1u, 3u, 257u}) {
      std::vector<std::atomic<int>> runs(numItems);
      std::mutex mutex;
      std::set<std::thread::id> threads;
      forEachClaimed(numItems, jobs, [&](std::size_t item) {
        runs[item].fetch_add(1);
        std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
      });
      for (std::size_t i = 0; i < numItems; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "item " << i << " jobs " << jobs;
      }
      EXPECT_LE(threads.size(), cappedWorkers(jobs));
      if (jobs == 1 && numItems > 0) {
        // One worker spawns nothing: every item runs on the caller.
        ASSERT_EQ(threads.size(), 1u);
        EXPECT_EQ(*threads.begin(), std::this_thread::get_id());
      }
    }
  }
}

// On one worker the claims are strictly sequential: item k throws, items
// after k are never claimed, and the error reaches the caller unchanged.
TEST(ParallelTest, OneWorkerStopsAtTheThrowingItem) {
  for (const std::size_t k : {0u, 5u, 99u}) {
    std::vector<std::size_t> claimed;
    try {
      forEachClaimed(100, 1, [&](std::size_t item) {
        claimed.push_back(item);
        if (item == k) throw std::runtime_error("item " + std::to_string(k));
      });
      FAIL() << "expected the item's error";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "item " + std::to_string(k));
    }
    ASSERT_EQ(claimed.size(), k + 1);
    for (std::size_t i = 0; i <= k; ++i) EXPECT_EQ(claimed[i], i);
  }
}

// Many workers: item 0 throws once every other worker holds an item, and
// those in-flight items finish well after the throw. No item may be claimed
// after the throw, so exactly one item per worker ever runs — the pool does
// not drain the remaining 996 items before reporting the error.
TEST(ParallelTest, ManyWorkersClaimNothingAfterTheFirstError) {
  constexpr std::size_t kItems = 1000;
  const unsigned workers = cappedWorkers(4);
  std::atomic<unsigned> started{0};
  std::atomic<bool> thrown{false};
  std::atomic<std::size_t> claimed{0};
  const auto waitFor = [](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  EXPECT_THROW(
      forEachClaimed(kItems, 4,
                     [&](std::size_t item) {
                       claimed.fetch_add(1);
                       if (item == 0) {
                         waitFor([&] { return started.load() + 1 >= workers; });
                         thrown.store(true);
                         throw std::runtime_error("first");
                       }
                       started.fetch_add(1);
                       waitFor([&] { return thrown.load(); });
                       // Finish well after the error is recorded.
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(50));
                     }),
      std::runtime_error);
  EXPECT_EQ(claimed.load(), workers);
}

// When several items fail at once, the caller sees exactly one of their
// errors, after every thread has been joined.
TEST(ParallelTest, SeveralErrorsReportOne) {
  try {
    forEachClaimed(64, 4, [](std::size_t item) {
      if (item % 2 == 1) throw std::runtime_error("odd");
    });
    FAIL() << "expected an error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "odd");
  }
}

}  // namespace
}  // namespace fmossim
