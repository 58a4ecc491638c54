#include "runtime/supervised.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/parallel_map.h"
#include "runtime/progress.h"

namespace ccsig::runtime {
namespace {

std::vector<int> iota_items(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

FaultSpec spec_with(double throw_rate, double permanent_rate = 0) {
  FaultSpec s;
  s.throw_rate = throw_rate;
  s.permanent_rate = permanent_rate;
  return s;
}

/// Runs every item through run_supervised on parallel_map, the way
/// run_checkpointed does: slot i is keyed by i and tagged with seed 1000+i.
template <typename Fn>
std::vector<JobResult<int>> supervise(const std::vector<int>& items, Fn fn,
                                      int jobs, const RetryPolicy& retry = {},
                                      const FaultPlan* faults = nullptr,
                                      ProgressCounter* progress = nullptr) {
  std::vector<std::size_t> slots(items.size());
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  return parallel_map(
      slots,
      [&](const std::size_t& i) {
        return run_supervised(items[i], fn, retry, i, 1000 + i, faults);
      },
      jobs, progress);
}

TEST(Supervised, AllSucceedInOrder) {
  const auto items = iota_items(16);
  for (int jobs : {1, 4}) {
    const auto results =
        supervise(items, [](const int& x) { return x * x; }, jobs);
    ASSERT_EQ(results.size(), 16u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      EXPECT_EQ(results[i].value(), static_cast<int>(i * i));
      EXPECT_EQ(results[i].attempts(), 1);
    }
  }
}

TEST(Supervised, TransientFaultsRecoveredByRetry) {
  const auto items = iota_items(12);
  const FaultPlan faults(7, spec_with(1.0));
  const auto results = supervise(items, [](const int& x) { return x + 1; }, 2,
                                 RetryPolicy::attempts(2), &faults);
  ASSERT_EQ(results.size(), 12u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error().to_string();
    EXPECT_EQ(results[i].value(), static_cast<int>(i) + 1);
    // Every first attempt faulted; every job needed exactly one retry.
    EXPECT_EQ(results[i].attempts(), 2);
  }
}

TEST(Supervised, RetriedResultsIdenticalToFaultFree) {
  const auto items = iota_items(20);
  auto fn = [](const int& x) { return 31 * x + 7; };
  const auto clean = supervise(items, fn, 0);

  const FaultPlan faults(99, spec_with(0.7));
  for (int jobs : {1, 3}) {
    const auto faulty =
        supervise(items, fn, jobs, RetryPolicy::attempts(3), &faults);
    ASSERT_EQ(faulty.size(), clean.size());
    for (std::size_t i = 0; i < clean.size(); ++i) {
      ASSERT_TRUE(faulty[i].ok());
      EXPECT_EQ(faulty[i].value(), clean[i].value());
    }
  }
}

TEST(Supervised, PermanentFailuresReportedStructured) {
  const auto items = iota_items(8);
  const auto results = supervise(
      items,
      [](const int& x) -> int {
        if (x % 2 == 1) throw std::runtime_error("odd job rejected");
        return x;
      },
      2, RetryPolicy::attempts(3));  // retries must NOT be spent on permanents
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(results[i].ok());
      continue;
    }
    ASSERT_FALSE(results[i].ok());
    const JobError& err = results[i].error();
    EXPECT_EQ(err.index, i);
    EXPECT_EQ(err.seed, 1000 + i);
    EXPECT_EQ(err.attempts, 1);  // permanent: no retry attempted
    EXPECT_EQ(err.kind, JobErrorKind::kPermanent);
    EXPECT_EQ(err.message, "odd job rejected");
    EXPECT_NE(err.to_string().find("permanent"), std::string::npos);
  }
}

TEST(Supervised, TransientExhaustionReportsAttemptCount) {
  const std::vector<int> items = {0};
  const auto results = supervise(
      items, [](const int&) -> int { throw TransientError("flaky forever"); },
      1, RetryPolicy::attempts(3));
  ASSERT_EQ(results.size(), 1u);
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].error().kind, JobErrorKind::kTransient);
  EXPECT_EQ(results[0].error().attempts, 3);
}

TEST(RetryPolicy, BackoffDoublesAndCaps) {
  RetryPolicy p;
  p.backoff = std::chrono::milliseconds(10);
  p.max_backoff = std::chrono::milliseconds(35);
  EXPECT_EQ(p.backoff_for(1).count(), 10);
  EXPECT_EQ(p.backoff_for(2).count(), 20);
  EXPECT_EQ(p.backoff_for(3).count(), 35);  // capped, not 40
  EXPECT_EQ(p.backoff_for(9).count(), 35);
  RetryPolicy off;
  EXPECT_EQ(off.backoff_for(5).count(), 0);
}

TEST(RetryPolicy, DefaultClassifierKnowsTransientTypes) {
  const RetryPolicy p;
  EXPECT_TRUE(p.classify_transient(TransientError("x")));
  EXPECT_TRUE(p.classify_transient(std::ios_base::failure("y")));
  EXPECT_FALSE(p.classify_transient(std::runtime_error("z")));
}

TEST(Supervised, FaultOutcomesIdenticalAcrossJobCounts) {
  const auto items = iota_items(24);
  const FaultPlan faults(1234, spec_with(0.3, 0.2));
  auto run = [&](int jobs) {
    return supervise(items, [](const int& x) { return x; }, jobs,
                     RetryPolicy::attempts(2), &faults);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].ok(), parallel[i].ok()) << "slot " << i;
    if (serial[i].ok()) {
      EXPECT_EQ(serial[i].value(), parallel[i].value());
      EXPECT_EQ(serial[i].attempts(), parallel[i].attempts());
    } else {
      EXPECT_EQ(serial[i].error().kind, parallel[i].error().kind);
      EXPECT_EQ(serial[i].error().attempts, parallel[i].error().attempts);
    }
  }
}

TEST(Supervised, ProgressTicksOncePerItem) {
  const auto items = iota_items(10);
  std::size_t calls = 0;
  std::size_t last_done = 0;
  ProgressCounter progress(items.size(),
                           [&](std::size_t done, std::size_t total) {
                             ++calls;
                             last_done = done;
                             EXPECT_EQ(total, 10u);
                           });
  supervise(items, [](const int& x) { return x; }, 3, {}, nullptr, &progress);
  EXPECT_EQ(calls, 10u);
  EXPECT_EQ(last_done, 10u);
}

}  // namespace
}  // namespace ccsig::runtime
