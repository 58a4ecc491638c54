#include "service/service.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/prometheus.h"
#include "runtime/shutdown.h"

namespace ccsig::service {
namespace {

// Longest idle wait. Tail files, backoff deadlines, window ticks, metrics
// lines and thread-side stop/reload have no descriptor to wait on; this
// bound is how soon they are noticed.
constexpr int kIdleWaitMs = 1;

}  // namespace

ClassificationService::ClassificationService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      window_(obs::WindowConfig{cfg_.window_slots}) {
  auto& reg = obs::MetricsRegistry::global();
  records_ctr_ = reg.counter("service.records_ingested");
  verdicts_ctr_ = reg.counter("service.verdicts_emitted");
  dropped_ctr_ = reg.counter("service.shed_dropped_records");
  evicts_ctr_ = reg.counter("service.shed_forced_evicts");
  pauses_ctr_ = reg.counter("service.shed_source_pauses");
  quarantined_ctr_ = reg.counter("service.sources_quarantined");
  reloads_ctr_ = reg.counter("service.model_reloads");
  reload_rejected_ctr_ = reg.counter("service.model_reloads_rejected");
  admin_queries_ctr_ = reg.counter("service.admin_queries");
  sub_dropped_ctr_ = reg.counter("service.subscriber_lines_dropped");
  sub_disc_ctr_ = reg.counter("service.subscriber_disconnects");
  pressure_g_ = reg.gauge("service.pressure");
  subscribers_g_ = reg.gauge("service.subscribers");
  resident_g_ = reg.gauge("service.flows_resident");
  uptime_g_ = reg.gauge("service.uptime_s");
  latency_.init();
}

std::int64_t ClassificationService::clock_ns() const {
  if (cfg_.clock) return cfg_.clock();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ClassificationService::stopping() const {
  return runtime::ShutdownLatch::drain_requested() ||
         stop_.load(std::memory_order_acquire);
}

double ClassificationService::pressure(
    const stream::StreamEngine& engine) const {
  return cfg_.pressure_probe ? cfg_.pressure_probe() : engine.pressure();
}

int ClassificationService::setup() {
  try {
    if (cfg_.verdict_log_path.empty()) {
      throw std::runtime_error("verdict log path is required");
    }
    classifier_ = cfg_.model_path.empty()
                      ? CongestionClassifier::pretrained()
                      : CongestionClassifier::load(cfg_.model_path);
    if (!classifier_.trained()) {
      throw std::runtime_error("model is untrained: " + cfg_.model_path);
    }
    // Always recover first: over a log a SIGKILLed daemon tore, this
    // truncates the partial tail frame and tells us how many verdicts the
    // previous incarnation already made durable — the replay skips exactly
    // that many emissions. Over a fresh or clean log it is a no-op.
    resume_skip_ = VerdictLog::recover(cfg_.verdict_log_path);
    recovered_ = resume_skip_;
    log_ = std::make_unique<VerdictLog>(cfg_.verdict_log_path);
    if (!cfg_.replay_session_path.empty()) {
      replay_ = std::make_unique<SessionReader>(cfg_.replay_session_path);
    }
    if (!cfg_.record_session_path.empty()) {
      recorder_ = std::make_unique<SessionWriter>(cfg_.record_session_path);
    }
    if (!cfg_.socket_path.empty()) {
      server_ = std::make_unique<LineServer>(cfg_.socket_path);
    }
    if (!cfg_.admin_socket_path.empty()) {
      admin_ = std::make_unique<LineServer>(
          cfg_.admin_socket_path,
          [this](std::string_view q) { return admin_response(q); });
    }
  } catch (const std::exception& e) {
    if (cfg_.events) cfg_.events->log("startup_failed", {{"error", e.what()}});
    return kExitInput;
  }
  if (!replay_) {
    std::uint64_t key = 0;
    for (const auto& sc : cfg_.sources) {
      sources_.push_back(std::make_unique<CaptureSource>(
          sc, cfg_.source_retry, cfg_.faults, key++, cfg_.events));
      last_states_.push_back(sources_.back()->state());
    }
  }
  return kExitOk;
}

int ClassificationService::run() {
  const int rc = setup();
  if (rc != kExitOk) return rc;

  // The engine's own analyzer only matters for the features it computes;
  // the service re-classifies every emission with the current (possibly
  // hot-reloaded) model on the control thread, so a reload never races the
  // workers.
  FlowAnalyzer analyzer{classifier_};
  try {
    // Constructed inside the try: an engine that cannot be built (a shard
    // count past StreamConfig::kMaxShards, an allocation failure) is an
    // internal error with an exit code, not a terminate().
    stream::StreamEngine engine(analyzer, cfg_.stream);
    start_ = std::chrono::steady_clock::now();
    last_metrics_ = start_;
    engine_ = &engine;
    start_ns_ = clock_ns();
    last_window_ns_ = 0;
    if (cfg_.events) {
      cfg_.events->log("started",
                       {{"mode", replay_ ? "replay" : "live"},
                        {"sources", std::to_string(sources_.size())},
                        {"jobs", std::to_string(cfg_.stream.jobs)},
                        {"resume_skip", std::to_string(resume_skip_)}});
    }
    if (replay_) {
      run_replay(engine);
    } else {
      run_live(engine);
    }
    drain(engine);
  } catch (const std::exception& e) {
    engine_ = nullptr;
    if (cfg_.events) {
      cfg_.events->log("internal_error", {{"error", e.what()}});
    }
    return kExitInternal;
  }
  engine_ = nullptr;
  return kExitOk;
}

void ClassificationService::run_live(stream::StreamEngine& engine) {
  std::vector<stream::RoutedRecord> batch;
  std::vector<stream::ReadyReport> ready;
  batch.reserve(cfg_.poll_records);

  for (;;) {
    if (stopping()) break;
    if (runtime::ShutdownLatch::take_reload() ||
        reload_.exchange(false, std::memory_order_acq_rel)) {
      do_reload();
    }
    serve_sockets();

    bool any = false;
    bool paused = false;
    for (auto& src : sources_) {
      // Re-evaluate the ladder before every source: pushes from the
      // previous source may have raised the pressure past the next rung.
      const double p = pressure(engine);
      const ShedAction act = shed_action(cfg_.shed, p);
      if (act != last_action_) {
        if (cfg_.events) {
          char pbuf[32];
          std::snprintf(pbuf, sizeof(pbuf), "%.3f", p);
          cfg_.events->log(
              "shed", {{"action", to_string(act)}, {"pressure", pbuf}});
        }
        last_action_ = act;
      }
      if (act == ShedAction::kPauseSources) {
        ++stats_.shed_source_pauses;
        pauses_ctr_.inc();
        paused = true;
        break;  // stop reading entirely this iteration
      }
      if (act == ShedAction::kForceEvict) {
        const std::size_t sh = engine.push_force_evict(evict_rr_++);
        if (recorder_) recorder_->evict(static_cast<std::uint16_t>(sh));
        ++stats_.shed_forced_evicts;
        evicts_ctr_.inc();
      }
      batch.clear();
      const std::size_t got = src->poll(batch, cfg_.poll_records);
      if (got == 0) continue;
      any = true;
      if (act == ShedAction::kDropNewest || act == ShedAction::kForceEvict) {
        // Shed BEFORE recording: dropped records are not part of the
        // session, exactly as if they were never captured, so a replay
        // reproduces the live log.
        stats_.shed_dropped_records += got;
        dropped_ctr_.add(got);
        continue;
      }
      if (recorder_) {
        for (const auto& r : batch) recorder_->record(r.w);
      }
      push_stamped(engine, batch);
    }
    note_source_transitions();

    drain_ready(engine, ready);

    if (cfg_.oneshot && !any) {
      bool all_terminal = true;
      for (const auto& src : sources_) {
        if (!src->terminal()) {
          all_terminal = false;
          break;
        }
      }
      if (all_terminal) break;
    }
    if (!any && ready.empty()) wait_idle(paused);
  }
}

void ClassificationService::wait_idle(bool paused) {
  wait_fds_.clear();
  if (!paused) {
    for (const auto& src : sources_) {
      const int fd = src->poll_fd();
      if (fd >= 0) wait_fds_.push_back({fd, POLLIN, 0});
    }
  }
  if (server_) server_->poll_fds(wait_fds_);
  if (admin_) admin_->poll_fds(wait_fds_);
  // EINTR (a signal) just ends the wait early; the loop re-checks it all.
  ::poll(wait_fds_.data(), wait_fds_.size(), kIdleWaitMs);
}

void ClassificationService::run_replay(stream::StreamEngine& engine) {
  std::vector<stream::RoutedRecord> batch;
  std::vector<stream::ReadyReport> ready;
  batch.reserve(cfg_.poll_records);

  bool done = false;
  while (!done) {
    if (stopping()) break;
    serve_sockets();

    while (batch.size() < cfg_.poll_records) {
      const std::optional<SessionEntry> e = replay_->next();
      if (!e) {
        done = true;
        break;
      }
      if (e->kind ==
          static_cast<std::uint8_t>(stream::RoutedKind::kEvictOldest)) {
        // The evict command sat between records in the live push order;
        // flush what precedes it so the replayed position is identical.
        push_stamped(engine, batch);
        engine.push_force_evict(e->shard);
        ++stats_.shed_forced_evicts;
        evicts_ctr_.inc();
      } else {
        batch.push_back(stream::route_record(e->w));
      }
    }
    push_stamped(engine, batch);

    drain_ready(engine, ready);

    if (cfg_.replay_pace_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(cfg_.replay_pace_us));
    }
  }
}

void ClassificationService::serve_sockets() {
  if (server_) server_->accept_pending();
  if (admin_) {
    admin_->accept_pending();
    admin_->serve_pending();
  }
}

void ClassificationService::push_stamped(
    stream::StreamEngine& engine, std::vector<stream::RoutedRecord>& batch) {
  if (batch.empty()) return;
  // Stamp the batch with the service clock on its way into the engine:
  // the stamp rides each RoutedRecord through the shard and comes back on
  // the emission it triggers, where emit() turns it into the
  // ingest->verdict latency histogram. The first stamp also anchors the
  // capture clock's epoch.
  const std::int64_t ingest_now = clock_ns();
  latency_.on_ingest(ingest_now, batch.front().w.time);
  for (auto& r : batch) r.ingest_ns = ingest_now;
  engine.push_batch(batch);
  stats_.records_ingested += batch.size();
  records_ctr_.add(batch.size());
  batch.clear();
}

void ClassificationService::drain_ready(
    stream::StreamEngine& engine, std::vector<stream::ReadyReport>& ready) {
  ready.clear();
  engine.drain_ready(ready);
  emit(ready);
  maybe_metrics_line(engine);
  maybe_window_tick(engine);
}

void ClassificationService::emit(
    const std::vector<stream::ReadyReport>& ready) {
  if (ready.empty()) return;
  const std::int64_t now_ns = clock_ns();
  for (const auto& rr : ready) {
    FlowReport r = rr.report;
    if (r.features) r.classification = classifier_.classify(*r.features);
    const std::string line = FlowAnalyzer::render(r);
    if (resume_skip_ > 0) {
      // The previous incarnation already made this verdict durable.
      --resume_skip_;
      ++stats_.verdicts_skipped_resume;
      continue;
    }
    // Latency is recorded only for verdicts this incarnation actually
    // emits — resume skips replay past work and would poison the SLO.
    latency_.on_verdict(now_ns, rr.trigger_ingest_ns, rr.trigger_time);
    log_->append(line);
    ++stats_.verdicts_emitted;
    verdicts_ctr_.inc();
    if (server_) server_->broadcast(line);
  }
}

void ClassificationService::drain(stream::StreamEngine& engine) {
  std::vector<stream::ReadyReport> ready;
  engine.finish_ordered(ready);
  emit(ready);
  if (recorder_) recorder_->flush();
  log_->sync();
  sync_subscriber_counters();
  // One last serve so a query raced against shutdown still gets its
  // answer before the sockets close.
  if (admin_) {
    admin_->accept_pending();
    admin_->serve_pending();
  }
  if (cfg_.events) {
    cfg_.events->log(
        "drained",
        {{"records", std::to_string(stats_.records_ingested)},
         {"verdicts", std::to_string(stats_.verdicts_emitted)},
         {"resumed", std::to_string(stats_.verdicts_skipped_resume)}});
  }
}

void ClassificationService::do_reload() {
  if (cfg_.model_path.empty()) {
    ++stats_.model_reloads_rejected;
    reload_rejected_ctr_.inc();
    if (cfg_.events) {
      cfg_.events->log("model_reload_rejected",
                       {{"reason", "no model path configured"}});
    }
    return;
  }
  try {
    CongestionClassifier next = CongestionClassifier::load(cfg_.model_path);
    if (!next.trained()) {
      throw std::runtime_error("model file deserialized to an untrained tree");
    }
    classifier_ = std::move(next);  // atomic w.r.t. emission: same thread
    ++stats_.model_reloads;
    reloads_ctr_.inc();
    if (cfg_.events) {
      cfg_.events->log("model_reloaded", {{"path", cfg_.model_path}});
    }
  } catch (const std::exception& e) {
    // Keep serving the old model — a bad file on disk must never take the
    // classification path down.
    ++stats_.model_reloads_rejected;
    reload_rejected_ctr_.inc();
    if (cfg_.events) {
      cfg_.events->log("model_reload_rejected",
                       {{"path", cfg_.model_path}, {"reason", e.what()}});
    }
  }
}

void ClassificationService::note_source_transitions() {
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const SourceState s = sources_[i]->state();
    if (s == last_states_[i]) continue;
    if (s == SourceState::kQuarantined) {
      ++stats_.sources_quarantined;
      quarantined_ctr_.inc();
    }
    last_states_[i] = s;
  }
}

void ClassificationService::maybe_metrics_line(
    const stream::StreamEngine& engine) {
  if (cfg_.metrics_interval_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  if (now - last_metrics_ <
      std::chrono::milliseconds(cfg_.metrics_interval_ms)) {
    return;
  }
  last_metrics_ = now;

  const double p = pressure(engine);
  pressure_g_.set(p);
  subscribers_g_.set(
      static_cast<double>(server_ ? server_->subscribers() : 0));
  sync_subscriber_counters();
  char pbuf[32];
  std::snprintf(pbuf, sizeof(pbuf), "%.3f", p);

  std::string line = "metrics";
  const auto field = [&line](std::string_view k, std::uint64_t v) {
    line.append(" ").append(k).append("=").append(std::to_string(v));
  };
  field("service.records_ingested", stats_.records_ingested);
  field("service.verdicts_emitted", stats_.verdicts_emitted);
  field("service.shed_dropped_records", stats_.shed_dropped_records);
  field("service.shed_forced_evicts", stats_.shed_forced_evicts);
  field("service.shed_source_pauses", stats_.shed_source_pauses);
  field("service.sources_quarantined", stats_.sources_quarantined);
  field("service.model_reloads", stats_.model_reloads);
  field("service.model_reloads_rejected", stats_.model_reloads_rejected);
  line.append(" service.pressure=").append(pbuf);
  field("service.subscribers", server_ ? server_->subscribers() : 0);
  field("service.subscriber_lines_dropped", stats_.subscriber_lines_dropped);
  field("service.subscriber_disconnects", stats_.subscriber_disconnects);
  // The engine's live stream.* counters (empty under CCSIG_OBS_OFF; the
  // service.* fields above come from plain tallies and always appear).
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& c : snap.counters) {
    if (c.name.rfind("stream.", 0) == 0) field(c.name, c.value);
  }

  ++stats_.metrics_lines;
  if (server_) server_->broadcast(line);
  if (cfg_.events) {
    cfg_.events->log("metrics",
                     {{"records", std::to_string(stats_.records_ingested)},
                      {"verdicts", std::to_string(stats_.verdicts_emitted)},
                      {"pressure", pbuf}});
  }
}

void ClassificationService::sync_subscriber_counters() {
  if (!server_) return;
  const std::uint64_t dropped = server_->lines_dropped();
  const std::uint64_t disc = server_->disconnects();
  if (dropped > stats_.subscriber_lines_dropped) {
    sub_dropped_ctr_.add(dropped - stats_.subscriber_lines_dropped);
    stats_.subscriber_lines_dropped = dropped;
  }
  if (disc > stats_.subscriber_disconnects) {
    sub_disc_ctr_.add(disc - stats_.subscriber_disconnects);
    stats_.subscriber_disconnects = disc;
  }
}

void ClassificationService::maybe_window_tick(
    const stream::StreamEngine& engine) {
  if (!admin_ || cfg_.window_tick_ms <= 0) return;
  const std::int64_t now = clock_ns();
  if (last_window_ns_ != 0 &&
      now - last_window_ns_ <
          static_cast<std::int64_t>(cfg_.window_tick_ms) * 1000000) {
    return;
  }
  last_window_ns_ = now;
  // Refresh the gauges the snapshot will carry into the window (varz
  // reports the latest gauge values alongside the windowed rates).
  sync_subscriber_counters();
  pressure_g_.set(pressure(engine));
  subscribers_g_.set(
      static_cast<double>(server_ ? server_->subscribers() : 0));
  resident_g_.set(static_cast<double>(engine.resident_flows()));
  uptime_g_.set(static_cast<double>(now - start_ns_) / 1e9);
  window_.tick(now, obs::MetricsRegistry::global().snapshot());
  ++stats_.window_ticks;
}

std::string ClassificationService::admin_response(std::string_view query) {
  ++stats_.admin_queries;
  admin_queries_ctr_.inc();
  if (query == "healthz") return health_line();
  if (query == "statusz") return statusz_text();
  if (query == "varz") return window_.to_json();
  if (query == "metricsz") {
    return obs::prometheus_text(obs::MetricsRegistry::global().snapshot());
  }
  return std::string("ERR unknown query: ").append(query);
}

std::string ClassificationService::health_line() const {
  // Most-acute state wins: active shedding, then degraded sources.
  if (last_action_ != ShedAction::kNone) {
    return std::string("shedding reason=shed_rung rung=") +
           to_string(last_action_);
  }
  std::size_t quarantined = 0, backoff = 0;
  for (const auto& src : sources_) {
    if (src->state() == SourceState::kQuarantined) {
      ++quarantined;
    } else if (src->state() == SourceState::kBackoff) {
      ++backoff;
    }
  }
  if (quarantined > 0) {
    return "degraded reason=sources_quarantined count=" +
           std::to_string(quarantined);
  }
  if (backoff > 0) {
    return "degraded reason=sources_backoff count=" +
           std::to_string(backoff);
  }
  return "ok";
}

std::string ClassificationService::statusz_text() const {
  std::string out;
  const auto line = [&out](const std::string& s) {
    out += s;
    out += '\n';
  };
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  char fbuf[32];
  const std::int64_t now = clock_ns();
  std::snprintf(fbuf, sizeof(fbuf), "%.3f",
                static_cast<double>(now - start_ns_) / 1e9);
  line(std::string("service mode=") + (replay_ ? "replay" : "live") +
       " uptime_s=" + fbuf);
  line("health " + health_line());
  std::snprintf(fbuf, sizeof(fbuf), "%.3f",
                engine_ ? pressure(*engine_) : 0.0);
  line(std::string("shed rung=") + to_string(last_action_) + " pressure=" +
       fbuf + " dropped_records=" + u64(stats_.shed_dropped_records) +
       " forced_evicts=" + u64(stats_.shed_forced_evicts) +
       " source_pauses=" + u64(stats_.shed_source_pauses));
  line("engine shards=" +
       u64(engine_ ? engine_->shard_count() : 0) + " flows_resident=" +
       u64(engine_ ? engine_->resident_flows() : 0) +
       " records_ingested=" + u64(stats_.records_ingested));
  line("log path=" + cfg_.verdict_log_path + " position=" +
       u64(recovered_ + (log_ ? log_->appended() : 0)) + " recovered=" +
       u64(recovered_) + " resume_skip_remaining=" + u64(resume_skip_));
  line("verdicts emitted=" + u64(stats_.verdicts_emitted) +
       " skipped_resume=" + u64(stats_.verdicts_skipped_resume) +
       " latency_recorded=" + u64(latency_.recorded()) +
       " latency_untracked=" + u64(latency_.untracked()));
  line("window ticks=" + u64(stats_.window_ticks) + " slots=" +
       u64(window_.slots()));
  line("admin queries=" + u64(stats_.admin_queries));
  line("sources count=" + u64(sources_.size()));
  for (const auto& src : sources_) {
    line("source name=" + src->name() + " state=" +
         to_string(src->state()) + " attempts=" +
         std::to_string(src->attempts()) + " delivered=" +
         u64(src->records_delivered()));
  }
  line("subscribers count=" + u64(server_ ? server_->subscribers() : 0) +
       " lines_dropped=" +
       u64(server_ ? server_->lines_dropped()
                   : stats_.subscriber_lines_dropped) +
       " disconnects=" +
       u64(server_ ? server_->disconnects()
                   : stats_.subscriber_disconnects));
  if (server_) {
    for (const auto& sub : server_->subscriber_stats()) {
      line("subscriber id=" + u64(sub.id) + " lines_dropped=" +
           u64(sub.lines_dropped));
    }
  }
  return out;
}

}  // namespace ccsig::service
