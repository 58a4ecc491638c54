// ClassificationService — the engine room of the ccsigd daemon.
//
// One control thread owns the whole loop: poll every supervised source,
// apply the shed ladder, push survivors into a StreamEngine
// (optionally recording them to a session file), drain deterministic
// verdict emissions, classify each with the hot-swappable model, and fan
// the rendered lines out to the crash-safe verdict log and the optional
// Unix-socket subscribers. An iteration that found no work waits in one
// poll(2) on the named-pipe sources and the sockets; its 1 ms timeout is
// what notices tail-file growth, backoff deadlines, ticks and the
// stop/reload flags. Signals arrive through runtime::ShutdownLatch
// (SIGTERM/SIGINT drain, SIGHUP reloads the model, both ending the wait
// early); in-process tests use request_stop()/request_reload() instead.
//
// The robustness contract, end to end:
//   - a failing source backs off, retries, and is quarantined on permanent
//     failure — other sources keep flowing (service/source.h);
//   - overload walks the shed ladder and every shed is counted
//     (service/shed.h);
//   - SIGTERM drains: intake stops, resident flows finalize, the verdict
//     log is flushed and fsynced, exit code 0;
//   - SIGKILL tears at most the last verdict frame: restart truncates the
//     torn tail (VerdictLog::recover) and a session replay regenerates the
//     remainder byte-identically at any `jobs` (service/session.h);
//   - SIGHUP swaps in a new model atomically (classification happens on
//     the control thread at emission time); an unparseable model is
//     rejected and the old one keeps serving.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/analyzer.h"
#include "core/classifier.h"
#include "obs/metrics.h"
#include "obs/window.h"
#include "runtime/event_log.h"
#include "runtime/fault_injection.h"
#include "runtime/job_result.h"
#include "service/latency.h"
#include "service/line_server.h"
#include "service/session.h"
#include "service/shed.h"
#include "service/source.h"
#include "service/verdict_log.h"
#include "stream/stream.h"

namespace ccsig::service {

/// Retry schedule a daemon source gets unless the caller overrides it:
/// a handful of attempts with fast exponential backoff.
inline runtime::RetryPolicy default_source_retry() {
  runtime::RetryPolicy p;
  p.max_attempts = 5;
  p.backoff = std::chrono::milliseconds(10);
  p.max_backoff = std::chrono::milliseconds(500);
  return p;
}

struct ServiceConfig {
  std::vector<SourceConfig> sources;
  /// Engine shape.
  stream::StreamConfig stream;
  /// Required: the crash-safe framed verdict log (recovered, then appended).
  std::string verdict_log_path;
  /// Pretrained-tree file; empty uses the bundled model. SIGHUP reloads it.
  std::string model_path;
  /// Optional Unix-domain socket for live verdict/metrics subscribers.
  std::string socket_path;
  /// Optional second Unix-domain socket answering one-line admin queries:
  /// healthz, statusz, varz, metricsz (see DESIGN.md §14). Empty disables.
  std::string admin_socket_path;
  /// Windowed-metrics tick cadence for the varz aggregator; <= 0 disables
  /// ticking (varz then reports an empty window). Only ticked when the
  /// admin socket is configured.
  int window_tick_ms = 1000;
  /// Ring depth: varz covers the last window_slots * window_tick_ms.
  std::size_t window_slots = 12;
  /// Service clock: nanoseconds on any monotone epoch. Drives uptime,
  /// ingest stamps, the latency histograms, and window ticks — never
  /// verdict content or order. Empty uses steady_clock; tests inject a
  /// fake for deterministic windows.
  std::function<std::int64_t()> clock;
  /// Record every pushed record / evict command for later replay.
  std::string record_session_path;
  /// Replay a recorded session instead of polling sources.
  std::string replay_session_path;
  /// Replay pacing: microseconds slept per pushed batch (lets tests land a
  /// SIGKILL mid-replay deterministically enough). 0 = full speed.
  int replay_pace_us = 0;
  /// Per-source records pulled per loop iteration.
  std::size_t poll_records = 512;
  /// Emit a metrics line (socket + event log) this often; 0 disables.
  int metrics_interval_ms = 0;
  runtime::RetryPolicy source_retry = default_source_retry();
  ShedConfig shed;
  /// Deterministic fault injection for the sources (nullable, not owned).
  const runtime::FaultPlan* faults = nullptr;
  /// Test hook: overrides StreamEngine::pressure() as the shed signal.
  std::function<double()> pressure_probe;
  /// Exit once every source is terminal and the engine is drained (tests
  /// and batch-style invocations); default is to keep serving.
  bool oneshot = false;
  /// Structured event sink (nullable, not owned).
  runtime::EventLog* events = nullptr;
};

/// Plain tallies mirroring the service.* obs instruments — tests read
/// these so they keep working under CCSIG_OBS_OFF.
struct ServiceStats {
  std::uint64_t records_ingested = 0;
  std::uint64_t verdicts_emitted = 0;
  /// Emissions suppressed because the recovered log already held them.
  std::uint64_t verdicts_skipped_resume = 0;
  std::uint64_t shed_dropped_records = 0;
  std::uint64_t shed_forced_evicts = 0;
  std::uint64_t shed_source_pauses = 0;
  std::uint64_t sources_quarantined = 0;
  std::uint64_t model_reloads = 0;
  std::uint64_t model_reloads_rejected = 0;
  std::uint64_t metrics_lines = 0;
  std::uint64_t admin_queries = 0;
  std::uint64_t window_ticks = 0;
  /// Verdict/metrics lines lost to slow subscribers, and subscribers
  /// reaped dead — totals across the broadcast socket's lifetime.
  std::uint64_t subscriber_lines_dropped = 0;
  std::uint64_t subscriber_disconnects = 0;
};

class ClassificationService {
 public:
  // Exit codes (the repo-wide tool convention).
  static constexpr int kExitOk = 0;        // clean drain
  static constexpr int kExitUsage = 2;     // caller misconfiguration
  static constexpr int kExitInput = 3;     // unreadable log/model/session
  static constexpr int kExitInternal = 4;  // unexpected exception

  explicit ClassificationService(ServiceConfig cfg);

  /// Runs until drained (signal, request_stop, oneshot completion, or end
  /// of a replayed session) and returns the process exit code.
  int run();

  /// Thread-safe test hooks mirroring SIGTERM / SIGHUP.
  void request_stop() { stop_.store(true, std::memory_order_release); }
  void request_reload() { reload_.store(true, std::memory_order_release); }

  const ServiceStats& stats() const { return stats_; }

 private:
  int setup();  // returns an exit code; kExitOk to proceed
  void run_live(stream::StreamEngine& engine);
  void run_replay(stream::StreamEngine& engine);
  void drain(stream::StreamEngine& engine);
  void serve_sockets();
  /// Blocks until a named pipe or socket is readable or 1 ms passes;
  /// `paused` leaves the sources out (the shed ladder stopped reading).
  void wait_idle(bool paused);
  void push_stamped(stream::StreamEngine& engine,
                    std::vector<stream::RoutedRecord>& batch);
  void drain_ready(stream::StreamEngine& engine,
                   std::vector<stream::ReadyReport>& ready);
  void emit(const std::vector<stream::ReadyReport>& ready);
  void do_reload();
  double pressure(const stream::StreamEngine& engine) const;
  void note_source_transitions();
  void maybe_metrics_line(const stream::StreamEngine& engine);
  bool stopping() const;
  std::int64_t clock_ns() const;
  /// Folds LineServer drop/disconnect totals into stats_ and the
  /// service.* counters (delta-based, safe to call any time).
  void sync_subscriber_counters();
  /// Ticks the varz window on the configured cadence (admin mode only).
  void maybe_window_tick(const stream::StreamEngine& engine);
  // Admin query answering (control thread; engine_ valid while serving).
  std::string admin_response(std::string_view query);
  std::string health_line() const;
  std::string statusz_text() const;

  ServiceConfig cfg_;
  CongestionClassifier classifier_;
  ServiceStats stats_;
  std::uint64_t resume_skip_ = 0;
  /// Verdicts the recovered log already held at startup; the durable log
  /// position is recovered_ + log_->appended().
  std::uint64_t recovered_ = 0;

  std::unique_ptr<VerdictLog> log_;
  std::unique_ptr<SessionWriter> recorder_;
  std::unique_ptr<SessionReader> replay_;
  std::unique_ptr<LineServer> server_;
  std::unique_ptr<LineServer> admin_;
  std::vector<std::unique_ptr<CaptureSource>> sources_;
  std::vector<SourceState> last_states_;
  std::vector<pollfd> wait_fds_;  // wait_idle()'s set, reused
  std::size_t evict_rr_ = 0;  // round-robin shard for force-evicts
  ShedAction last_action_ = ShedAction::kNone;
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point last_metrics_{};

  // Introspection plane. engine_ aliases run()'s stack engine for the
  // admin handlers; it is only dereferenced from the control thread while
  // the run loops (which own both the engine and the admin socket) are
  // serving.
  LatencyTracker latency_;
  obs::WindowAggregator window_;
  stream::StreamEngine* engine_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::int64_t last_window_ns_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<bool> reload_{false};

  obs::Counter records_ctr_, verdicts_ctr_, dropped_ctr_, evicts_ctr_,
      pauses_ctr_, quarantined_ctr_, reloads_ctr_, reload_rejected_ctr_;
  obs::Counter admin_queries_ctr_, sub_dropped_ctr_, sub_disc_ctr_;
  obs::Gauge pressure_g_, subscribers_g_, resident_g_, uptime_g_;
};

}  // namespace ccsig::service
