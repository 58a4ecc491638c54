#include "runtime/parallel_map.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/progress.h"

namespace ccsig::runtime {
namespace {

TEST(DefaultJobs, AtLeastOne) { EXPECT_GE(default_jobs(), 1u); }

TEST(ParallelMap, PreservesInputOrder) {
  std::vector<int> items(257);
  for (std::size_t i = 0; i < items.size(); ++i) items[i] = static_cast<int>(i);
  const auto doubled = parallel_map(
      items,
      [](const int& v) {
        if (v % 7 == 0) {  // stagger completion times
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return v * 2;
      },
      8);
  ASSERT_EQ(doubled.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(doubled[i], static_cast<int>(i) * 2);
  }
}

TEST(ParallelMap, JobsOneRunsSeriallyOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> items = {1, 2, 3, 4, 5};
  std::vector<int> seen;
  const auto out = parallel_map(
      items,
      [&](const int& v) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        seen.push_back(v);  // safe: serial fallback, no pool
        return v;
      },
      1);
  EXPECT_EQ(seen, items);
  EXPECT_EQ(out, items);
}

TEST(ParallelMap, WorkerExceptionRethrownAtCallSite) {
  std::vector<int> items(64);
  for (std::size_t i = 0; i < items.size(); ++i) items[i] = static_cast<int>(i);
  const auto boom = [](const int& v) {
    if (v == 41) throw std::runtime_error("boom at 41");
    return v;
  };
  try {
    parallel_map(items, boom, 4);
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 41");
  }
  // The serial fallback propagates too.
  EXPECT_THROW(parallel_map(items, boom, 1), std::runtime_error);

  // Several failures: the lowest slot's exception wins, as with jobs == 1,
  // even when a higher slot throws first.
  const auto two_fail = [](const int& v) {
    if (v == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      throw std::runtime_error("a");
    }
    if (v == 5) throw std::runtime_error("b");
    return v;
  };
  for (int jobs : {1, 4}) {
    try {
      parallel_map(items, two_fail, jobs);
      FAIL() << "expected a worker exception at jobs " << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "a") << "jobs " << jobs;
    }
  }
}

TEST(ParallelMap, ProgressCounterMonotonicAndExact) {
  std::vector<int> items(100);
  std::vector<std::size_t> reported;
  ProgressCounter progress(items.size(),
                           [&](std::size_t done, std::size_t total) {
                             EXPECT_EQ(total, items.size());
                             reported.push_back(done);  // serialized by tick()
                           });
  parallel_map(items, [](const int& v) { return v; }, 6, &progress);
  ASSERT_EQ(reported.size(), items.size());
  for (std::size_t i = 0; i < reported.size(); ++i) {
    EXPECT_EQ(reported[i], i + 1);  // exactly 1..N, strictly increasing
  }
  EXPECT_EQ(progress.done(), items.size());
  EXPECT_EQ(progress.total(), items.size());
}

TEST(ParallelMap, EmptyAndSingleItemInputs) {
  const std::vector<int> empty;
  EXPECT_TRUE(parallel_map(empty, [](const int& v) { return v; }, 4).empty());
  const std::vector<int> one = {7};
  const auto out = parallel_map(one, [](const int& v) { return v + 1; }, 4);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 8);
}

TEST(ParallelMap, ZeroJobsMeansHardwareDefault) {
  std::vector<int> items = {1, 2, 3};
  const auto out = parallel_map(items, [](const int& v) { return v * v; }, 0);
  EXPECT_EQ(out, (std::vector<int>{1, 4, 9}));
}

}  // namespace
}  // namespace ccsig::runtime
