// Supervised capture sources for ccsigd.
//
// A source is one ingest feed — a growing pcap file tailed past EOF, a
// named pipe carrying pcap bytes, or a static capture read once — wrapped
// in a per-source supervision state machine so that ANY single-source
// failure degrades that source only, never the daemon:
//
//   kOpening ──ok──> kActive <──records──> kWaiting (tail caught up)
//      │  \                │
//      │   transient error │ (RetryPolicy backoff, bounded attempts)
//      │    v              v
//      │  kBackoff ──retry budget exhausted or permanent──> kQuarantined
//      │
//      └──oneshot EOF──> kFinished
//
// Transient failures (runtime::TransientError, std::ios_base::failure, a
// vanished-but-expected file) back off with the RetryPolicy's
// deterministic exponential schedule and retry; a success resets the
// attempt budget. Permanent failures (a ParseException from genuinely
// corrupt capture bytes) and exhausted budgets quarantine the source: it
// stops being polled, its partial clean prefix has already been delivered,
// and the daemon keeps serving every other source.
//
// A fifo source's named pipe is read in place: the source opens a
// tail-mode BatchedIngest directly on the FIFO (nonblocking, so an empty
// pipe is the same caught-up state as a tail file's EOF) and a frame
// half-written into the pipe is an incomplete tail like any other. The
// source also holds one write end of its own FIFO, so the pipe never
// reports hang-up between writer sessions: a writer may close and a new
// one attach, and a reader waiting on poll_fd() sleeps instead of spinning
// on POLLHUP. A failing read(2) on the pipe is reported by the cursor as a
// ParseException and so quarantines the source. A oneshot source whose
// path is a pipe (say /dev/stdin) holds no write end: it reads until its
// writer closes, as for a file.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/event_log.h"
#include "runtime/fault_injection.h"
#include "runtime/job_result.h"
#include "stream/ingest.h"

#include <chrono>

namespace ccsig::service {

enum class SourceState {
  kOpening,      // not yet (re)opened
  kActive,       // delivering records
  kWaiting,      // tail caught up with the writer; will poll again
  kBackoff,      // transient failure; sleeping out the retry backoff
  kQuarantined,  // permanent failure or retry budget exhausted; terminal
  kFinished,     // oneshot source read to clean EOF; terminal
};

const char* to_string(SourceState s);

struct SourceConfig {
  std::string path;
  /// The path is a named pipe carrying pcap bytes (read in place, see
  /// above; always tailed).
  bool fifo = false;
  /// Read the capture once to EOF and finish, instead of tailing it.
  bool oneshot = false;
};

class CaptureSource {
 public:
  /// `faults` (nullable) injects deterministic per-poll faults keyed by
  /// (`fault_key`, attempt); `events` (nullable) receives structured
  /// lifecycle events. Both must outlive the source. Construction never
  /// throws — the first poll() performs the open under supervision.
  CaptureSource(SourceConfig cfg, runtime::RetryPolicy retry,
                const runtime::FaultPlan* faults, std::uint64_t fault_key,
                runtime::EventLog* events);
  CaptureSource(const CaptureSource&) = delete;
  CaptureSource& operator=(const CaptureSource&) = delete;
  ~CaptureSource();

  /// Pulls up to `max_records` decoded records, appending to `out`.
  /// Returns the number appended; 0 from a terminal state, a backoff
  /// window, or a tail that has not grown. Never throws: every failure is
  /// absorbed into the state machine.
  std::size_t poll(std::vector<stream::RoutedRecord>& out,
                   std::size_t max_records);

  SourceState state() const { return state_; }
  bool terminal() const {
    return state_ == SourceState::kQuarantined ||
           state_ == SourceState::kFinished;
  }
  const std::string& name() const { return cfg_.path; }
  /// The descriptor to wait on for new bytes: an open fifo source's read
  /// end, or -1 (a regular file always polls readable, and a source in
  /// backoff must not wake its reader early).
  int poll_fd() const;
  std::uint64_t records_delivered() const { return delivered_; }
  int attempts() const { return attempt_; }

 private:
  void open_ingest();
  void close_ingest();
  void check_rotation();
  void quarantine(const std::string& reason);
  void enter_backoff(const std::string& reason);

  SourceConfig cfg_;
  runtime::RetryPolicy retry_;
  const runtime::FaultPlan* faults_;
  std::uint64_t fault_key_;
  runtime::EventLog* events_;

  SourceState state_ = SourceState::kOpening;
  std::unique_ptr<stream::BatchedIngest> ingest_;
  int attempt_ = 1;
  std::chrono::steady_clock::time_point backoff_until_{};
  std::uint64_t delivered_ = 0;

  // Tail-file rotation detection (inode change / shrink = new capture).
  std::uint64_t open_ino_ = 0;

  // The source's own write end of its named pipe (-1 for a regular file).
  int pipe_writer_fd_ = -1;
};

}  // namespace ccsig::service
