// ccsigd — crash-safe, backpressured classification daemon.
//
// Usage:
//   ccsigd --log FILE [--source FILE]... [--fifo PIPE]...
//          [--oneshot-source FILE]...
//          [--model FILE] [--socket PATH] [--admin-socket PATH]
//          [--window-tick-ms N] [--window-slots N]
//          [--record FILE | --replay FILE [--replay-pace-us N]]
//          [--jobs N] [--shards N] [--max-flows N] [--idle-timeout SECONDS]
//          [--poll-records N] [--metrics-interval-ms N] [--oneshot]
//          [--quiet]
//
// Tails every --source pcap file past EOF (surviving rotation), reads
// every --fifo named pipe in place (waking when it turns readable),
// classifies each finished flow with the loaded model, and appends one
// framed verdict line per flow to --log — an append-only, CRC-framed
// file that survives SIGKILL with at most a torn tail (truncated and
// resumed on restart). --socket serves the verdicts and periodic metrics
// lines to live subscribers over a Unix-domain stream socket (lossy; the
// log is the durable record). --record writes
// the exact pushed-record session for later --replay, which regenerates a
// byte-identical verdict log at any --jobs. --admin-socket serves the
// live introspection plane on a second Unix socket: one-line queries
// healthz / statusz / varz / metricsz, answered with body lines and a
// lone "." terminator (poll it with ccsig_top). varz rates and quantiles
// cover a sliding window of --window-slots ticks taken every
// --window-tick-ms.
//
// Signals:
//   SIGTERM / SIGINT   graceful drain: stop intake, finalize resident
//                      flows, flush + fsync the verdict log, exit 0.
//   SIGHUP             hot-reload --model; an unparseable file is rejected
//                      and the old model keeps serving.
//   SIGKILL            (uncatchable) at most one torn verdict frame;
//                      restart + --replay resumes byte-identically.
//
// Numeric flags take non-negative decimal values (--idle-timeout: seconds)
// and reject anything else with exit 2: --poll-records must be 1 to
// 1048576, --shards at most StreamConfig::kMaxShards, --window-slots at
// most 3600.
//
// Exit codes: 0 clean drain, 2 usage error, 3 unreadable log/model/
// session, 4 internal error.
#include <cstdio>
#include <cstring>
#include <string>

#include "runtime/cli_args.h"
#include "runtime/event_log.h"
#include "runtime/shutdown.h"
#include "service/service.h"

namespace {

// --poll-records ceiling: the record batch is reserved up front.
constexpr std::size_t kMaxPollRecords = std::size_t{1} << 20;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --log FILE [--source FILE]... [--fifo PIPE]...\n"
      "          [--oneshot-source FILE]... [--model FILE] [--socket PATH]\n"
      "          [--admin-socket PATH] [--window-tick-ms N]\n"
      "          [--window-slots N]\n"
      "          [--record FILE | --replay FILE [--replay-pace-us N]]\n"
      "          [--jobs N] [--shards N] [--max-flows N]\n"
      "          [--idle-timeout SECONDS] [--poll-records N]\n"
      "          [--metrics-interval-ms N] [--oneshot] [--quiet]\n",
      argv0);
  return ccsig::service::ClassificationService::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  using ccsig::runtime::parse_count;
  using ccsig::runtime::parse_seconds;
  ccsig::service::ServiceConfig cfg;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const bool has_value = i + 1 < argc;
    // Exit 2 naming the flag and the value just consumed.
    const auto bad = [&] {
      std::fprintf(stderr, "%s: invalid value '%s'\n", flag, argv[i]);
      return ccsig::service::ClassificationService::kExitUsage;
    };
    double secs = 0;
    if (std::strcmp(flag, "--log") == 0 && has_value) {
      cfg.verdict_log_path = argv[++i];
    } else if (std::strcmp(flag, "--source") == 0 && has_value) {
      ccsig::service::SourceConfig sc;
      sc.path = argv[++i];
      cfg.sources.push_back(sc);
    } else if (std::strcmp(flag, "--fifo") == 0 && has_value) {
      ccsig::service::SourceConfig sc;
      sc.path = argv[++i];
      sc.fifo = true;
      cfg.sources.push_back(sc);
    } else if (std::strcmp(flag, "--oneshot-source") == 0 && has_value) {
      ccsig::service::SourceConfig sc;
      sc.path = argv[++i];
      sc.oneshot = true;
      cfg.sources.push_back(sc);
    } else if (std::strcmp(flag, "--model") == 0 && has_value) {
      cfg.model_path = argv[++i];
    } else if (std::strcmp(flag, "--socket") == 0 && has_value) {
      cfg.socket_path = argv[++i];
    } else if (std::strcmp(flag, "--admin-socket") == 0 && has_value) {
      cfg.admin_socket_path = argv[++i];
    } else if (std::strcmp(flag, "--window-tick-ms") == 0 && has_value) {
      if (!parse_count(argv[++i], cfg.window_tick_ms)) return bad();
    } else if (std::strcmp(flag, "--window-slots") == 0 && has_value) {
      // The varz ring is allocated up front: an hour of 1 s ticks at most.
      if (!parse_count(argv[++i], cfg.window_slots, std::size_t{0},
                       std::size_t{3600})) {
        return bad();
      }
    } else if (std::strcmp(flag, "--record") == 0 && has_value) {
      cfg.record_session_path = argv[++i];
    } else if (std::strcmp(flag, "--replay") == 0 && has_value) {
      cfg.replay_session_path = argv[++i];
    } else if (std::strcmp(flag, "--replay-pace-us") == 0 && has_value) {
      if (!parse_count(argv[++i], cfg.replay_pace_us)) return bad();
    } else if (std::strcmp(flag, "--jobs") == 0 && has_value) {
      if (!parse_count(argv[++i], cfg.stream.jobs)) return bad();
    } else if (std::strcmp(flag, "--shards") == 0 && has_value) {
      if (!parse_count(argv[++i], cfg.stream.shards, 0u,
                       ccsig::stream::StreamConfig::kMaxShards)) {
        return bad();
      }
    } else if (std::strcmp(flag, "--max-flows") == 0 && has_value) {
      if (!parse_count(argv[++i], cfg.stream.max_active_flows)) return bad();
    } else if (std::strcmp(flag, "--idle-timeout") == 0 && has_value) {
      if (!parse_seconds(argv[++i], secs)) return bad();
      cfg.stream.idle_timeout = ccsig::sim::from_seconds(secs);
    } else if (std::strcmp(flag, "--poll-records") == 0 && has_value) {
      // 0 would poll nothing, forever; the batch is reserved up front, so
      // the top is bounded too.
      if (!parse_count(argv[++i], cfg.poll_records, std::size_t{1},
                       kMaxPollRecords)) {
        return bad();
      }
    } else if (std::strcmp(flag, "--metrics-interval-ms") == 0 && has_value) {
      if (!parse_count(argv[++i], cfg.metrics_interval_ms)) return bad();
    } else if (std::strcmp(flag, "--oneshot") == 0) {
      cfg.oneshot = true;
    } else if (std::strcmp(flag, "--quiet") == 0) {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (cfg.verdict_log_path.empty()) {
    std::fprintf(stderr, "error: --log is required\n");
    return usage(argv[0]);
  }
  if (!cfg.replay_session_path.empty() && !cfg.record_session_path.empty()) {
    std::fprintf(stderr, "error: --record and --replay are exclusive\n");
    return usage(argv[0]);
  }
  if (cfg.replay_session_path.empty() && cfg.sources.empty()) {
    std::fprintf(stderr, "error: no --source/--fifo given (and no --replay)\n");
    return usage(argv[0]);
  }

  ccsig::runtime::ShutdownLatch::install();
  ccsig::runtime::EventLog events("ccsigd", stderr, !quiet);
  cfg.events = &events;
  ccsig::service::ClassificationService service(std::move(cfg));
  return service.run();
}
