// Per-slot outcome and retry vocabulary for supervised campaign slots.
//
// `parallel_map` rethrows a job's exception and discards the whole map;
// `run_supervised` (supervised.h), run inside each slot, instead returns a
// JobResult, so a multi-thousand-run campaign survives individual failures
// and can report exactly which slots failed, why, and after how many
// attempts.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <ios>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace ccsig::runtime {

/// How a job failure should be treated by the retry machinery.
enum class JobErrorKind {
  kTransient,  // worth retrying (I/O hiccup, injected fault, …)
  kPermanent,  // retrying cannot help (bad input, logic error)
};

inline const char* to_string(JobErrorKind k) {
  switch (k) {
    case JobErrorKind::kTransient: return "transient";
    case JobErrorKind::kPermanent: return "permanent";
  }
  return "?";
}

/// Throw this (or a subclass) from a job to mark the failure retryable
/// (RetryPolicy::classify_transient).
class TransientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Structured description of one job's final failure.
struct JobError {
  std::size_t index = 0;    // input slot in the mapped vector
  std::uint64_t seed = 0;   // caller-supplied job tag (e.g. the run's seed)
  int attempts = 0;         // attempts actually made
  JobErrorKind kind = JobErrorKind::kPermanent;
  std::string message;

  std::string to_string() const {
    return "job " + std::to_string(index) + " (seed " + std::to_string(seed) +
           "): " + to_string_kind() + " after " + std::to_string(attempts) +
           " attempt(s): " + message;
  }

 private:
  const char* to_string_kind() const { return runtime::to_string(kind); }
};

/// Value-or-error outcome of one supervised job.
template <typename T>
class JobResult {
 public:
  JobResult() = default;

  static JobResult success(T value, int attempts) {
    JobResult r;
    r.value_ = std::move(value);
    r.attempts_ = attempts;
    return r;
  }

  static JobResult failure(JobError error) {
    JobResult r;
    r.attempts_ = error.attempts;
    r.error_ = std::move(error);
    return r;
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const T& value() const { return *value_; }
  T& value() { return *value_; }
  const JobError& error() const { return *error_; }

  int attempts() const { return attempts_; }

 private:
  std::optional<T> value_;
  std::optional<JobError> error_;
  int attempts_ = 0;
};

/// Bounded-retry policy with deterministic exponential backoff. Backoff for
/// attempt k (1-based) is `backoff * 2^(k-1)` capped at `max_backoff` — a
/// pure function of the attempt number, never randomized, so supervised
/// runs stay reproducible.
struct RetryPolicy {
  int max_attempts = 1;  // 1 = no retry
  std::chrono::milliseconds backoff{0};
  std::chrono::milliseconds max_backoff{2000};

  std::chrono::milliseconds backoff_for(int attempt) const {
    if (backoff.count() <= 0) return std::chrono::milliseconds{0};
    std::chrono::milliseconds b = backoff;
    for (int k = 1; k < attempt && b < max_backoff; ++k) b *= 2;
    return b < max_backoff ? b : max_backoff;
  }

  /// TransientError and std::ios_base::failure are transient (retryable),
  /// everything else is permanent.
  bool classify_transient(const std::exception& e) const {
    if (dynamic_cast<const TransientError*>(&e)) return true;
    if (dynamic_cast<const std::ios_base::failure*>(&e)) return true;
    return false;
  }

  static constexpr RetryPolicy attempts(int n) {
    RetryPolicy p;
    p.max_attempts = n;
    return p;
  }
};

}  // namespace ccsig::runtime
