#include "testbed/experiment.h"

#include "obs/metrics.h"
#include "stream/flow_state.h"

namespace ccsig::testbed {
namespace {

// Per-run distributions over the experiment's two key links; one record
// per link per completed run.
struct RunMetrics {
  obs::Histogram link_utilization_pct;
  obs::Histogram queue_peak_pct;
};

RunMetrics& run_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static RunMetrics m{
      reg.histogram("testbed.link_utilization_pct",
                    {5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99, 100}),
      reg.histogram("testbed.queue_peak_pct",
                    {5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99, 100})};
  return m;
}

void record_link_run(const sim::Link* link, double duration_s) {
  if (!link || duration_s <= 0) return;
  const sim::Link::Stats st = link->stats();
  const sim::Link::Config& cfg = link->config();
  RunMetrics& m = run_metrics();
  if (cfg.rate_bps > 0) {
    m.link_utilization_pct.record(
        100.0 * static_cast<double>(st.delivered_bytes) * 8.0 /
        (cfg.rate_bps * duration_s));
  }
  if (cfg.buffer_bytes > 0) {
    m.queue_peak_pct.record(100.0 *
                            static_cast<double>(st.max_queue_bytes) /
                            static_cast<double>(cfg.buffer_bytes));
  }
}

sim::Link::Config plain_link(double rate_bps, double delay_ms,
                             double buffer_ms) {
  sim::Link::Config c;
  c.rate_bps = rate_bps;
  c.prop_delay = sim::from_millis(delay_ms);
  c.buffer_bytes = sim::buffer_bytes_for(rate_bps, buffer_ms);
  return c;
}

/// The server-side port the netperf-style test flow uses; fixed so the
/// analysis side can find the flow deterministically.
constexpr sim::Port kTestFlowServerPort = 5001;
constexpr sim::Port kTestFlowClientPort = 5002;

constexpr sim::Duration kDrain = 500 * sim::kMillisecond;

}  // namespace

TestbedExperiment::TestbedExperiment(const TestbedConfig& cfg) : cfg_(cfg) {
  net_ = std::make_unique<sim::Network>(cfg.seed);
  ports_ = std::make_unique<PortAllocator>();

  sim::Node* server1 = net_->add_node("server1");
  sim::Node* server2 = net_->add_node("server2");
  sim::Node* server3 = net_->add_node("server3");
  sim::Node* server4 = net_->add_node("server4");
  sim::Node* router1 = net_->add_node("router1");
  sim::Node* router2 = net_->add_node("router2");
  sim::Node* pi1 = net_->add_node("pi1");
  sim::Node* pi2 = net_->add_node("pi2");

  const double gig = 1e9 * cfg.scale;

  // Server attachment links. RTTs to the cross-traffic servers follow §3.1:
  // Server2 ≈ 20 ms, Server3 ≈ 60 ms, Server4 < 2 ms away.
  const auto l_s1 = net_->connect(server1, router1, plain_link(gig, 0.1, 100));
  const auto l_s2 = net_->connect(server2, router1, plain_link(gig, 10.0, 100));
  const auto l_s3 = net_->connect(server3, router1, plain_link(gig, 30.0, 100));
  const auto l_s4 = net_->connect(server4, router1, plain_link(gig, 1.0, 100));

  // InterConnectLink: shaped with a 50 ms buffer; only the downstream
  // direction (router1 -> router2) ever congests in these experiments.
  sim::Link::Config ic_down = plain_link(cfg.interconnect_rate_bps(), 0.0,
                                         cfg.interconnect_buffer_ms);
  ic_down.name = "interconnect-down";
  sim::Link::Config ic_up = ic_down;
  ic_up.name = "interconnect-up";
  const auto l_ic = net_->connect(router1, router2, ic_down, ic_up);
  interconnect_down_ = l_ic.ab;

  // AccessLink: tbf+netem emulation — rate, one-way added latency with
  // jitter, i.i.d. loss, and the configured drop-tail buffer, downstream.
  sim::Link::Config acc_down;
  acc_down.name = "access-down";
  acc_down.rate_bps = cfg.access_rate_bps();
  acc_down.prop_delay = sim::from_millis(cfg.access_latency_ms);
  acc_down.jitter = sim::from_millis(cfg.access_jitter_ms);
  acc_down.loss_rate = cfg.access_loss;
  acc_down.buffer_bytes =
      sim::buffer_bytes_for(acc_down.rate_bps, cfg.access_buffer_ms);
  sim::Link::Config acc_up = acc_down;
  acc_up.name = "access-up";
  acc_up.jitter = 0;
  acc_up.loss_rate = 0;   // the upstream ACK stream is tiny and clean
  acc_up.prop_delay = 0;  // netem adds the latency on one interface only
  const auto l_acc = net_->connect(router2, pi1, acc_down, acc_up);
  access_down_ = l_acc.ab;

  // Pi 2 attaches to Router 2 at 100 Mbps (its NIC limit), bypassing
  // AccessLink, so TGtrans cannot congest the interconnect (§3.1).
  const auto l_pi2 =
      net_->connect(router2, pi2, plain_link(1e8 * cfg.scale, 0.1, 50));

  // Routing beyond direct neighbours: leaves default through their single
  // attachment; the routers default toward each other across the
  // interconnect (a linear backbone).
  server1->set_default_route(l_s1.ab);
  server2->set_default_route(l_s2.ab);
  server3->set_default_route(l_s3.ab);
  server4->set_default_route(l_s4.ab);
  router1->set_default_route(l_ic.ab);  // pi1 / pi2 live beyond router2
  router2->set_default_route(l_ic.ba);  // servers live beyond router1
  pi1->set_default_route(l_acc.ba);
  pi2->set_default_route(l_pi2.ba);

  // tcpdump at the test server.
  recorder_ = std::make_unique<analysis::TraceRecorder>();
  server1->add_tap(recorder_.get());

  // Cross traffic.
  if (cfg.tgtrans_enabled) {
    TgTrans::Config tc;
    tc.servers = {server2, server3};
    tc.client = pi2;
    tc.workers = cfg.tgtrans_workers;
    tc.scale = cfg.scale;
    tgtrans_ = std::make_unique<TgTrans>(net_->sim(), *ports_,
                                         net_->rng().fork(), tc);
  }
  if (cfg.scenario == Scenario::kExternal && cfg.tgcong_flows > 0) {
    TgCong::Config cc;
    cc.server = server4;
    cc.client = router2;  // TGcong runs on Router 2 itself (§3.1)
    cc.flows = cfg.tgcong_flows;
    cc.scale = cfg.scale;
    cc.congestion_control = cfg.tgcong_cc;
    tgcong_ = std::make_unique<TgCong>(net_->sim(), *ports_,
                                       net_->rng().fork(), cc);
  }
  // §3.3 multiplexing: long-lived flows sharing the access link with the
  // test flow, served from Server2.
  for (int i = 0; i < cfg.access_cross_flows; ++i) {
    FetchLoop::Config lc;
    lc.server = server2;
    lc.client = pi1;
    lc.size_sampler = [] { return 1ull << 40; };  // effectively endless
    lc.think_sampler = nullptr;
    lc.congestion_control = cfg.congestion_control;
    access_cross_.push_back(
        std::make_unique<FetchLoop>(net_->sim(), *ports_, std::move(lc)));
  }
}

TestResult TestbedExperiment::run() {
  sim::Simulator& sim = net_->sim();
  sim::Node* server1 = net_->node("server1");
  sim::Node* pi1 = net_->node("pi1");

  if (tgtrans_) tgtrans_->start(0);
  if (tgcong_) tgcong_->start(0);
  for (auto& loop : access_cross_) loop->start(0);

  // The netperf-style test flow.
  sim::FlowKey key;
  key.src_addr = server1->address();
  key.dst_addr = pi1->address();
  key.src_port = kTestFlowServerPort;
  key.dst_port = kTestFlowClientPort;

  tcp::TcpSink::Config sink_cfg;
  sink_cfg.data_key = key;
  sink_cfg.segments_per_ack = cfg_.receiver_segments_per_ack;
  tcp::TcpSink sink(sim, pi1, sink_cfg);

  tcp::TcpSource::Config src_cfg;
  src_cfg.key = key;
  src_cfg.bytes_to_send = 0;  // timed test
  src_cfg.congestion_control = cfg_.congestion_control;
  src_cfg.telemetry = cfg_.telemetry;
  tcp::TcpSource source(sim, server1, src_cfg);

  const std::uint64_t cong_before = tgcong_ ? tgcong_->bytes_fetched() : 0;

  sim.schedule_at(cfg_.warmup, [&source] { source.start(); });
  const sim::Time test_end = cfg_.warmup + cfg_.test_duration;
  sim.schedule_at(test_end, [&source] { source.stop_sending(); });
  sim.run_until(test_end + kDrain);

  TestResult result;
  result.scenario = cfg_.scenario;
  result.access_capacity_bps = cfg_.access_rate_bps();
  result.web100 = source.stats();
  result.receiver_throughput_bps =
      static_cast<double>(sink.bytes_received()) * 8.0 /
      sim::to_seconds(cfg_.test_duration);
  result.cross_traffic_bytes =
      (tgcong_ ? tgcong_->bytes_fetched() : 0) - cong_before;

  const double run_s = sim::to_seconds(cfg_.warmup + cfg_.test_duration);
  record_link_run(interconnect_down_, run_s);
  record_link_run(access_down_, run_s);

  trace_ = recorder_->take();
  result.features = stream::analyze_trace_flow(trace_, key).extracted.features;
  return result;
}

TestResult run_testbed_experiment(const TestbedConfig& cfg) {
  TestbedExperiment exp(cfg);
  return exp.run();
}

}  // namespace ccsig::testbed
