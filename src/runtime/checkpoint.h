// Fingerprinted shard checkpoints for long campaigns.
//
// A checkpoint records, per completed slot of a campaign's deterministic
// enumeration, the exact serialized row that slot contributes to the final
// CSV. The file is rewritten atomically every `flush_every` completions, so
// a killed campaign resumes by reloading it, skipping completed slots, and
// still emits a byte-identical final CSV (rows are reused verbatim-after-
// round-trip and assembled in slot order).
//
// Format:
//   # checkpoint: <fingerprint>
//   <slot>\t<row>
//
// A checkpoint whose fingerprint does not match the current options is
// stale and ignored; a corrupt or unreadable checkpoint is likewise
// ignored (the campaign simply re-runs everything) — resume is a pure
// optimization and must never be able to fail a run. A line whose slot is
// not a plain decimal (`1x`, ` 1`, `+1`) or that has no tab is skipped,
// so its slot re-runs.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include "runtime/fault_injection.h"

namespace ccsig::runtime {

class ShardCheckpoint {
 public:
  /// Parses `path`; returns the slot->row map, or an empty map when the
  /// file is missing, stale (fingerprint mismatch), or corrupt.
  static std::map<std::size_t, std::string> load(
      const std::string& path, const std::string& fingerprint);

  ShardCheckpoint(std::string path, std::string fingerprint,
                  int flush_every = 16);

  /// Seeds the checkpoint with rows restored from a previous run so
  /// subsequent flushes keep them.
  void restore(const std::map<std::size_t, std::string>& rows);

  /// Records one completed slot. Thread-safe; flushes atomically every
  /// `flush_every` records. When `faults` plans an I/O failure for this
  /// slot's current record attempt, throws TransientError *before*
  /// recording — the supervising retry loop re-runs the job.
  void record(std::size_t slot, std::string row,
              const FaultPlan* faults = nullptr);

  /// Atomically rewrites the checkpoint file with everything recorded so
  /// far. Best-effort: I/O failures are swallowed and counted, because a
  /// checkpoint must never take down the campaign it protects.
  void flush();

  /// Deletes the checkpoint file (campaign completed successfully).
  void remove();

  std::size_t rows_recorded() const;
  std::size_t flush_failures() const;
  const std::string& path() const { return path_; }

 private:
  void flush_locked();

  const std::string path_;
  const std::string fingerprint_;
  const int flush_every_;

  mutable std::mutex mu_;
  std::map<std::size_t, std::string> rows_;
  std::unordered_map<std::size_t, int> record_attempts_;
  int dirty_ = 0;
  std::size_t flush_failures_ = 0;
};

}  // namespace ccsig::runtime
