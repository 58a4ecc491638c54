// One controlled throughput test on the emulated Figure-2 testbed.
#pragma once

#include <memory>
#include <optional>

#include "analysis/trace_recorder.h"
#include "features/extractor.h"
#include "sim/network.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"
#include "testbed/config.h"
#include "testbed/traffic.h"

namespace ccsig::testbed {

/// Outcome of a single netperf-style downstream test.
struct TestResult {
  /// Features extracted from the server-side capture; nullopt when the flow
  /// failed validity filters (e.g. too few slow-start RTT samples).
  std::optional<features::FlowFeatures> features;
  tcp::TcpSource::Stats web100;
  double receiver_throughput_bps = 0;  // goodput measured at the client
  Scenario scenario = Scenario::kSelfInduced;
  double access_capacity_bps = 0;
  std::uint64_t cross_traffic_bytes = 0;  // TGcong volume during the test
};

/// Builds the testbed topology:
///
///   Server1 ── Link3 ── Router1 ══ InterConnectLink ══ Router2 ── AccessLink ── Pi1
///   Server2/3 ─┘ (20/60 ms)                              └── 100M ── Pi2
///   Server4 ──┘ (2 ms)
///
/// and runs one throughput test from Server1 to Pi1 with the configured
/// cross traffic, capturing at Server1.
class TestbedExperiment {
 public:
  explicit TestbedExperiment(const TestbedConfig& cfg);
  TestbedExperiment(const TestbedExperiment&) = delete;
  TestbedExperiment& operator=(const TestbedExperiment&) = delete;

  /// Runs the full timeline (cross-traffic warmup, test, drain) and returns
  /// the result. Call once.
  TestResult run();

  /// The server-side trace of the test flow (valid after run()).
  const analysis::Trace& server_trace() const { return trace_; }
  sim::Network& network() { return *net_; }

  /// Key links, exposed for instrumentation and tests.
  sim::Link* interconnect_down() const { return interconnect_down_; }
  sim::Link* access_down() const { return access_down_; }

 private:
  TestbedConfig cfg_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<analysis::TraceRecorder> recorder_;
  std::unique_ptr<PortAllocator> ports_;
  std::unique_ptr<TgTrans> tgtrans_;
  std::unique_ptr<TgCong> tgcong_;
  std::vector<std::unique_ptr<FetchLoop>> access_cross_;
  analysis::Trace trace_;
  sim::Link* interconnect_down_ = nullptr;
  sim::Link* access_down_ = nullptr;
};

/// Convenience: configure, run, return.
TestResult run_testbed_experiment(const TestbedConfig& cfg);

}  // namespace ccsig::testbed
