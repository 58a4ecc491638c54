// run_supervised: the per-slot retry loop behind run_checkpointed.
//
// parallel_map fans slots out; run_supervised runs inside one slot and
// turns its outcome into a JobResult instead of an exception, so a
// multi-thousand-run campaign survives individual failures: a failed slot
// carries a structured JobError (slot, seed tag, attempts, cause) and every
// other slot is unaffected. A RetryPolicy re-runs transient failures with
// deterministic exponential backoff.
//
// Determinism contract (same as parallel_map): job content must depend only
// on the input item, never on thread interleaving. Retries re-run the same
// deterministic item, and injected faults are keyed by the campaign slot,
// so a retried-transient job produces a result byte-identical to a
// fault-free run and fault outcomes do not depend on `jobs`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/fault_injection.h"
#include "runtime/job_result.h"

namespace ccsig::runtime {

/// Supervision counters (attempt/retry/failure accounting), registered
/// once; see obs/metrics.h for the recording contract.
struct SupervisedMetrics {
  obs::Counter attempts;
  obs::Counter retries;
  obs::Counter failures_transient;
  obs::Counter failures_permanent;
};

inline SupervisedMetrics& supervised_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static SupervisedMetrics m{reg.counter("runtime.attempts"),
                             reg.counter("runtime.retries"),
                             reg.counter("runtime.failures_transient"),
                             reg.counter("runtime.failures_permanent")};
  return m;
}

/// Runs `fn(item)` until it succeeds, fails permanently, or exhausts
/// `retry.max_attempts`. `slot` keys the fault plan (`faults`, nullptr =
/// none) and is reported with `seed` in the JobError of a failed slot.
template <typename In, typename Fn>
auto run_supervised(const In& item, Fn& fn, const RetryPolicy& retry,
                    std::size_t slot, std::uint64_t seed,
                    const FaultPlan* faults = nullptr)
    -> JobResult<std::invoke_result_t<Fn&, const In&>> {
  using Out = std::invoke_result_t<Fn&, const In&>;
  SupervisedMetrics& m = supervised_metrics();
  for (int attempt = 1;; ++attempt) {
    m.attempts.inc();
    JobError err{slot, seed, attempt, JobErrorKind::kPermanent, {}};
    try {
      obs::TraceSpan span("runtime.attempt", "runtime");
      if (faults) faults->maybe_fault(slot, attempt);
      return JobResult<Out>::success(fn(item), attempt);
    } catch (const std::exception& e) {
      if (retry.classify_transient(e)) {
        if (attempt < retry.max_attempts) {
          m.retries.inc();
          obs::trace_instant("runtime.retry", "runtime");
          std::this_thread::sleep_for(retry.backoff_for(attempt));
          continue;
        }
        err.kind = JobErrorKind::kTransient;
      }
      err.message = e.what();
    } catch (...) {
      err.message = "unknown exception";
    }
    (err.kind == JobErrorKind::kTransient ? m.failures_transient
                                          : m.failures_permanent)
        .inc();
    return JobResult<Out>::failure(std::move(err));
  }
}

}  // namespace ccsig::runtime
