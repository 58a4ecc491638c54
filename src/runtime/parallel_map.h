// parallel_map: run an independent function over every element of a
// vector on worker threads, preserving input order in the results.
//
// This is the one execution primitive behind the testbed sweep, the M-Lab
// campaigns (through run_checkpointed), the forest/CV fits and the bench
// generator. Determinism contract: `fn` receives items that already carry
// their own RNG seeds (drawn in a serial pre-pass), and the result vector
// is indexed by input slot, so the output is identical for any `jobs`
// value — byte-for-byte, including `jobs == 1`, which runs inline on the
// calling thread with no worker at all.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/progress.h"

namespace ccsig::runtime {

/// The default worker count for `jobs <= 0`: every hardware thread
/// (`std::thread::hardware_concurrency()`, which may be 0 on exotic
/// platforms — treated as 1).
inline unsigned default_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

/// Wall time of every mapped item, registered once.
inline obs::Histogram& job_ms_histogram() {
  static obs::Histogram h = obs::MetricsRegistry::global().histogram(
      "runtime.pool.job_ms", {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250,
                              500, 1000, 2500, 5000, 10000, 30000});
  return h;
}

/// Maps `fn` over `items` using `jobs` worker threads (`jobs <= 0` means
/// default_jobs(); `jobs == 1` is the serial fallback). Results come back
/// in input order. If any invocation throws, every item still runs and the
/// exception of the lowest failing slot is rethrown here — the one the
/// serial fallback would have thrown first, whatever `jobs` is. The
/// optional `progress` counter ticks once per completed item.
template <typename In, typename Fn>
auto parallel_map(const std::vector<In>& items, Fn&& fn, int jobs,
                  ProgressCounter* progress = nullptr)
    -> std::vector<std::invoke_result_t<Fn&, const In&>> {
  using Out = std::invoke_result_t<Fn&, const In&>;
  static_assert(!std::is_void_v<Out>,
                "parallel_map requires a value-returning function");
  static_assert(std::is_default_constructible_v<Out>,
                "parallel_map results are slot-assigned and must be "
                "default-constructible");
  static_assert(!std::is_same_v<Out, bool>,
                "vector<bool> slots share storage across indices and would "
                "race under concurrent writes; return a wider type");

  const std::size_t n = items.size();
  std::vector<Out> results(n);
  std::vector<std::exception_ptr> errors(n);
  // Each slot is written by exactly one thread; joining the workers
  // publishes every write to the caller.
  auto run_slot = [&](std::size_t i) {
    obs::TraceSpan span("runtime.job", "runtime");
    const auto start = std::chrono::steady_clock::now();
    try {
      results[i] = fn(items[i]);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    job_ms_histogram().record(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
    if (progress) progress->tick();
  };

  const unsigned want = jobs <= 0 ? default_jobs() : static_cast<unsigned>(jobs);
  if (want <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      run_slot(i);
      if (errors[i]) std::rethrow_exception(errors[i]);
    }
    return results;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers(std::min<std::size_t>(want, n));
  for (std::thread& w : workers) {
    w = std::thread([&] {
      for (std::size_t i = next++; i < n; i = next++) run_slot(i);
    });
  }
  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

}  // namespace ccsig::runtime
