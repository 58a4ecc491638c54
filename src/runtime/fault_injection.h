// Deterministic fault injection for the supervised retry loop and the
// ingestion corpus tests.
//
// A FaultPlan is seeded and *stateless per decision*: whether job `i`
// faults on attempt `a` is a pure hash of (seed, i, a), so the same plan
// produces the same faults regardless of thread interleaving or execution
// order — which lets tests assert exact per-job outcomes and lets a
// fault-injected run be replayed.
//
// The corpus mutators deterministically damage files on disk (truncation,
// bit flips) to prove the pcap/CSV readers degrade into structured errors
// instead of crashing or misparsing.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/job_result.h"

namespace ccsig::runtime {

/// Fault rates and shapes. Rates are probabilities in [0, 1] evaluated
/// independently per (job, attempt).
struct FaultSpec {
  double throw_rate = 0;      // throw TransientError
  double permanent_rate = 0;  // throw std::runtime_error (not retryable)
  double stall_rate = 0;      // sleep `stall` (models slow reads)
  double io_fail_rate = 0;    // consulted by I/O hooks (checkpoint writes)
  std::chrono::milliseconds stall{50};
  /// Only attempts <= this number are faulted; the default 1 means a
  /// retried job always succeeds, so retries provably recover.
  int fault_attempts_at_most = 1;
};

class FaultPlan {
 public:
  /// Inert plan: never faults. Useful as a default.
  FaultPlan() = default;
  FaultPlan(std::uint64_t seed, FaultSpec spec) : seed_(seed), spec_(spec) {}

  bool armed() const {
    return spec_.throw_rate > 0 || spec_.permanent_rate > 0 ||
           spec_.stall_rate > 0 || spec_.io_fail_rate > 0;
  }

  const FaultSpec& spec() const { return spec_; }

  /// Injects the planned fault for (job, attempt), if any: throws
  /// TransientError, throws std::runtime_error, or stalls the calling
  /// thread.
  void maybe_fault(std::uint64_t job_key, int attempt) const;

  /// True when the planned fault for (job, attempt) is an I/O failure.
  /// Consulted by checkpoint/atomic-file writers wired for injection.
  bool io_should_fail(std::uint64_t job_key, int attempt) const;

  /// Decision predicates (exposed so tests can predict the plan).
  bool plans_throw(std::uint64_t job_key, int attempt) const;
  bool plans_permanent(std::uint64_t job_key, int attempt) const;
  bool plans_stall(std::uint64_t job_key, int attempt) const;

 private:
  /// Uniform [0,1) draw, a pure function of (seed, job, attempt, salt).
  double unit_draw(std::uint64_t job_key, int attempt,
                   std::uint64_t salt) const;

  std::uint64_t seed_ = 0;
  FaultSpec spec_;
};

// ---------------------------------------------------------------------------
// Corpus mutation: deterministic file damage for ingestion tests.

/// Truncates the file to its first `keep_bytes` bytes (no-op if already
/// shorter). Throws ParseException-free std::runtime_error on I/O failure.
void truncate_file(const std::string& path, std::uint64_t keep_bytes);

/// XORs the byte at `offset` with `mask` (mask 0 is promoted to 0xFF so a
/// mutation always changes the byte). Throws std::runtime_error when the
/// offset is out of range or the file cannot be rewritten.
void flip_byte(const std::string& path, std::uint64_t offset,
               std::uint8_t mask = 0xFF);

/// Produces `count` deterministically damaged copies of `source` inside
/// `out_dir` (created if missing): alternating truncations at hashed
/// offsets and hashed single-byte flips. Returns the mutant paths.
std::vector<std::string> mutate_corpus(const std::string& source,
                                       const std::string& out_dir,
                                       std::uint64_t seed, int count);

}  // namespace ccsig::runtime
