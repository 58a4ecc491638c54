#include "service/source.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "runtime/parse_error.h"

namespace ccsig::service {

const char* to_string(SourceState s) {
  switch (s) {
    case SourceState::kOpening: return "opening";
    case SourceState::kActive: return "active";
    case SourceState::kWaiting: return "waiting";
    case SourceState::kBackoff: return "backoff";
    case SourceState::kQuarantined: return "quarantined";
    case SourceState::kFinished: return "finished";
  }
  return "?";
}

CaptureSource::CaptureSource(SourceConfig cfg, runtime::RetryPolicy retry,
                             const runtime::FaultPlan* faults,
                             std::uint64_t fault_key,
                             runtime::EventLog* events)
    : cfg_(std::move(cfg)),
      retry_(std::move(retry)),
      faults_(faults),
      fault_key_(fault_key),
      events_(events) {}

CaptureSource::~CaptureSource() { close_ingest(); }

int CaptureSource::poll_fd() const {
  if (pipe_writer_fd_ < 0 || state_ == SourceState::kBackoff) return -1;
  return ingest_->cursor().fd();
}

void CaptureSource::open_ingest() {
  struct stat st;
  if (::stat(cfg_.path.c_str(), &st) != 0) {
    // Not there (yet): a daemon source may be created after startup or
    // vanish briefly during rotation. Retryable, not capture damage.
    throw runtime::TransientError("source not present: " + cfg_.path);
  }
  const bool tail = cfg_.fifo || !cfg_.oneshot;
  ingest_ = std::make_unique<stream::BatchedIngest>(
      cfg_.path, pcap::CursorMode::kStream, tail);
  open_ino_ = static_cast<std::uint64_t>(st.st_ino);
  if (cfg_.fifo && S_ISFIFO(st.st_mode)) {
    // Only a tailed --fifo source holds a write end: a oneshot source on a
    // pipe must still see end of file once its writer closes. The read end
    // is open, so this nonblocking open cannot fail with ENXIO; holding it
    // keeps the pipe from hanging up between writers.
    pipe_writer_fd_ = ::open(cfg_.path.c_str(), O_WRONLY | O_NONBLOCK |
                                                    O_CLOEXEC);
    if (pipe_writer_fd_ < 0) {
      throw std::runtime_error("fifo: cannot open " + cfg_.path +
                               " for writing: " + std::strerror(errno));
    }
#ifdef F_SETPIPE_SZ
    // 1 MiB instead of the default 64 KiB lets a bursty writer run ahead
    // of the control loop (best effort: capped at fs.pipe-max-size).
    ::fcntl(pipe_writer_fd_, F_SETPIPE_SZ, 1 << 20);
#endif
  }
  if (events_) {
    events_->log("source_open", {{"source", cfg_.path},
                                 {"mode", cfg_.fifo ? "fifo"
                                          : tail    ? "tail"
                                                    : "oneshot"}});
  }
}

void CaptureSource::close_ingest() {
  ingest_.reset();
  if (pipe_writer_fd_ >= 0) ::close(pipe_writer_fd_);
  pipe_writer_fd_ = -1;
}

void CaptureSource::check_rotation() {
  struct stat st;
  if (::stat(cfg_.path.c_str(), &st) != 0) {
    // The tailed file vanished mid-run; treat as transient and let the
    // retry path reopen whatever replaces it.
    close_ingest();
    throw runtime::TransientError("tailed source vanished: " + cfg_.path);
  }
  const bool rotated =
      static_cast<std::uint64_t>(st.st_ino) != open_ino_ ||
      static_cast<std::uint64_t>(st.st_size) < ingest_->cursor().offset();
  if (rotated) {
    if (events_) events_->log("source_rotated", {{"source", cfg_.path}});
    close_ingest();
    open_ingest();
  }
}

void CaptureSource::quarantine(const std::string& reason) {
  state_ = SourceState::kQuarantined;
  close_ingest();
  if (events_) {
    events_->log("source_quarantined",
                 {{"source", cfg_.path},
                  {"attempts", std::to_string(attempt_)},
                  {"reason", reason}});
  }
}

void CaptureSource::enter_backoff(const std::string& reason) {
  const auto pause = retry_.backoff_for(attempt_);
  ++attempt_;
  backoff_until_ = std::chrono::steady_clock::now() + pause;
  state_ = SourceState::kBackoff;
  if (events_) {
    events_->log("source_backoff",
                 {{"source", cfg_.path},
                  {"attempt", std::to_string(attempt_)},
                  {"backoff_ms", std::to_string(pause.count())},
                  {"reason", reason}});
  }
}

std::size_t CaptureSource::poll(std::vector<stream::RoutedRecord>& out,
                                std::size_t max_records) {
  if (terminal()) return 0;
  if (state_ == SourceState::kBackoff &&
      std::chrono::steady_clock::now() < backoff_until_) {
    return 0;
  }
  try {
    // Deterministic fault injection point: stalls model slow reads,
    // TransientError models recoverable I/O hiccups, runtime_error models
    // unrecoverable source damage.
    if (faults_ && faults_->armed()) faults_->maybe_fault(fault_key_, attempt_);
    if (ingest_ && !cfg_.fifo && !cfg_.oneshot) check_rotation();
    if (!ingest_) open_ingest();
    const std::size_t got = ingest_->fill(out, max_records);
    if (ingest_->error()) {
      // Capture damage: fill() delivered the clean prefix and no amount of
      // retrying re-reads the same bad bytes into good ones.
      quarantine(ingest_->error()->reason);
      delivered_ += got;
      return got;
    }
    attempt_ = 1;  // a clean poll refills the whole retry budget
    if (got == 0) {
      if (ingest_->exhausted()) {
        state_ = SourceState::kFinished;
        if (events_) {
          events_->log("source_eof",
                       {{"source", cfg_.path},
                        {"records", std::to_string(delivered_)}});
        }
      } else {
        state_ = SourceState::kWaiting;  // tail caught up with the writer
      }
    } else {
      state_ = SourceState::kActive;
      delivered_ += got;
    }
    return got;
  } catch (const std::exception& e) {
    if (retry_.classify_transient(e) && attempt_ < retry_.max_attempts) {
      enter_backoff(e.what());
    } else {
      quarantine(e.what());
    }
    return 0;
  }
}

}  // namespace ccsig::service
