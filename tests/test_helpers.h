// Shared fixtures for integration-style tests: a minimal two-node network
// with one shaped bottleneck link, plus helpers to run TCP transfers on it,
// a shared quick testbed configuration, a seeded random multi-flow
// capture generator, and a pollable event log for daemon tests.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/trace_recorder.h"
#include "pcap/capture.h"
#include "runtime/event_log.h"
#include "sim/network.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"
#include "testbed/experiment.h"

namespace ccsig::testutil {

/// server ── bottleneck link ── client, with a trace tap at the server.
struct TwoNodePath {
  explicit TwoNodePath(sim::Link::Config bottleneck, std::uint64_t seed = 1)
      : net(seed) {
    server = net.add_node("server");
    client = net.add_node("client");
    sim::Link::Config up = bottleneck;
    up.loss_rate = 0;  // keep the ACK path clean unless a test overrides
    auto duplex = net.connect(server, client, bottleneck, up);
    down = duplex.ab;
    up_link = duplex.ba;
    server->add_tap(&recorder);
  }

  sim::FlowKey flow_key(sim::Port sport = 5001, sim::Port dport = 5002) const {
    return sim::FlowKey{server->address(), client->address(), sport, dport};
  }

  sim::Network net;
  sim::Node* server = nullptr;
  sim::Node* client = nullptr;
  sim::Link* down = nullptr;
  sim::Link* up_link = nullptr;
  analysis::TraceRecorder recorder;
};

inline sim::Link::Config basic_link(double rate_bps, double delay_ms,
                                    double buffer_ms, double loss = 0.0) {
  sim::Link::Config cfg;
  cfg.rate_bps = rate_bps;
  cfg.prop_delay = sim::from_millis(delay_ms);
  cfg.buffer_bytes = sim::buffer_bytes_for(rate_bps, buffer_ms);
  cfg.loss_rate = loss;
  return cfg;
}

/// Runs a finite transfer to completion (or a deadline); returns true when
/// all bytes were acknowledged.
struct TransferResult {
  bool completed = false;
  sim::Time completed_at = -1;
  tcp::TcpSource::Stats source_stats;
  tcp::TcpSink::Stats sink_stats;
};

inline TransferResult run_transfer(TwoNodePath& path, std::uint64_t bytes,
                                   const std::string& cc = "reno",
                                   sim::Duration deadline =
                                       sim::from_seconds(120),
                                   bool use_sack = true,
                                   int segments_per_ack = 2) {
  const sim::FlowKey key = path.flow_key();

  tcp::TcpSink::Config sink_cfg;
  sink_cfg.data_key = key;
  sink_cfg.segments_per_ack = segments_per_ack;
  tcp::TcpSink sink(path.net.sim(), path.client, sink_cfg);

  tcp::TcpSource::Config src_cfg;
  src_cfg.key = key;
  src_cfg.bytes_to_send = bytes;
  src_cfg.congestion_control = cc;
  src_cfg.use_sack = use_sack;
  tcp::TcpSource source(path.net.sim(), path.server, src_cfg);

  TransferResult result;
  source.set_on_complete([&] {
    result.completed = true;
    result.completed_at = path.net.sim().now();
  });
  source.start();
  path.net.sim().run_until(deadline);
  result.source_stats = source.stats();
  result.sink_stats = sink.stats();
  return result;
}

/// The short (4 s test, 2 s warmup) testbed configuration used by the
/// integration suites — one definition instead of a copy per test file.
inline testbed::TestbedConfig quick_testbed_config(testbed::Scenario scenario,
                                                   std::uint64_t seed) {
  testbed::TestbedConfig cfg;
  cfg.scenario = scenario;
  cfg.test_duration = sim::from_seconds(4);
  cfg.warmup = sim::from_seconds(2);
  cfg.seed = seed;
  return cfg;
}

/// Writes a deterministic pseudo-random server-side capture to `pcap_path`:
/// 1–3 concurrent TCP transfers (staggered starts, mixed congestion
/// controls and receiver configs) over one randomly shaped bottleneck.
/// Everything — link rate, latency, buffer, loss, flow count, sizes — is a
/// pure function of `seed` (std::mt19937_64 is fully specified, and values
/// are derived by modulo rather than through implementation-defined
/// distributions). Returns the number of flows started.
inline int write_random_capture(std::uint64_t seed,
                                const std::string& pcap_path) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
  const auto pick = [&rng](std::uint64_t n) {
    return static_cast<std::size_t>(rng() % n);
  };

  const double rates_mbps[] = {5, 10, 20, 50};
  const double delays_ms[] = {5, 10, 20, 40};
  const double buffers_ms[] = {15, 25, 50, 100};
  const double losses[] = {0.0, 0.0, 0.001, 0.005};
  const char* ccs[] = {"reno", "cubic", "bbr"};

  TwoNodePath path(basic_link(rates_mbps[pick(4)] * 1e6, delays_ms[pick(4)],
                              buffers_ms[pick(4)], losses[pick(4)]),
                   seed + 1);
  pcap::PcapCaptureTap tap(pcap_path);
  path.server->add_tap(&tap);

  const int flows = 1 + static_cast<int>(pick(3));
  std::vector<std::unique_ptr<tcp::TcpSink>> sinks;
  std::vector<std::unique_ptr<tcp::TcpSource>> sources;
  for (int f = 0; f < flows; ++f) {
    const sim::FlowKey key =
        path.flow_key(static_cast<sim::Port>(5001 + 2 * f),
                      static_cast<sim::Port>(5002 + 2 * f));

    tcp::TcpSink::Config sink_cfg;
    sink_cfg.data_key = key;
    sink_cfg.segments_per_ack = 1 + static_cast<int>(pick(2));
    sinks.push_back(std::make_unique<tcp::TcpSink>(path.net.sim(),
                                                   path.client, sink_cfg));

    tcp::TcpSource::Config src_cfg;
    src_cfg.key = key;
    src_cfg.bytes_to_send = 60'000 + 1'000 * pick(240);
    src_cfg.congestion_control = ccs[pick(3)];
    src_cfg.use_sack = pick(2) == 0;
    sources.push_back(std::make_unique<tcp::TcpSource>(path.net.sim(),
                                                       path.server, src_cfg));
    tcp::TcpSource* src = sources.back().get();
    const sim::Time start_at =
        static_cast<sim::Time>(pick(500)) * sim::kMillisecond;
    path.net.sim().schedule_at(start_at, [src] { src->start(); });
  }
  path.net.sim().run_until(sim::from_seconds(60));
  path.server->remove_tap(&tap);
  tap.flush();
  return flows;
}

/// An EventLog backed by a file the test thread can poll. A service owns
/// its stats on its own thread, so a test must not read them while it
/// runs; an event line, in contrast, appears only after the service thread
/// logged it, and reading the file shares no memory with that thread.
class EventFile {
 public:
  explicit EventFile(std::string path)
      : path_(std::move(path)),
        file_(std::fopen(path_.c_str(), "w")),
        log_("test", file_) {}
  ~EventFile() {
    if (file_) std::fclose(file_);
  }
  EventFile(const EventFile&) = delete;
  EventFile& operator=(const EventFile&) = delete;

  runtime::EventLog* log() { return &log_; }

  /// Polls for up to 5 s until a line logging exactly `event` satisfies
  /// `pred` (called with the whole line).
  template <typename Pred>
  bool wait_for(std::string_view event, Pred pred) const {
    const std::string needle = " event=" + std::string(event);
    for (int i = 0; i <= 500; ++i) {
      std::ifstream in(path_);
      for (std::string line; std::getline(in, line);) {
        const std::size_t at = line.find(needle);
        const std::size_t end = at + needle.size();
        if (at != std::string::npos &&
            (end == line.size() || line[end] == ' ') && pred(line)) {
          return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }
  bool wait_for(std::string_view event) const {
    return wait_for(event, [](const std::string&) { return true; });
  }

 private:
  std::string path_;
  std::FILE* file_;
  runtime::EventLog log_;
};

}  // namespace ccsig::testutil
