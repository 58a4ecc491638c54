#include "mlab/path.h"

#include <algorithm>
#include <cmath>

#include "analysis/trace_recorder.h"
#include "stream/flow_state.h"

namespace ccsig::mlab {
namespace {

sim::Link::Config make_link(std::string name, double rate_bps, double delay_ms,
                            double buffer_ms, double loss = 0.0,
                            double jitter_ms = 0.0) {
  sim::Link::Config c;
  c.name = std::move(name);
  c.rate_bps = rate_bps;
  c.prop_delay = sim::from_millis(delay_ms);
  c.jitter = sim::from_millis(jitter_ms);
  c.loss_rate = loss;
  c.buffer_bytes = sim::buffer_bytes_for(rate_bps, buffer_ms);
  return c;
}

constexpr sim::Port kNdtServerPort = 3001;
constexpr sim::Port kNdtClientPort = 3002;

}  // namespace

ChunkedStream::ChunkedStream(sim::Simulator& sim, tcp::TcpSource* source,
                             double nominal_bps, sim::Duration period,
                             sim::Rng rng)
    : sim_(sim),
      source_(source),
      chunk_bytes_(static_cast<std::uint64_t>(
          nominal_bps / 8.0 * sim::to_seconds(period))),
      period_(period),
      rng_(rng) {
  // Random phase so players' segment clocks are desynchronized.
  sim_.schedule_in(
      static_cast<sim::Duration>(
          rng_.uniform(0.0, sim::to_seconds(period_)) *
          static_cast<double>(sim::kSecond)),
      [this] { tick(); });
}

void ChunkedStream::tick() {
  // Tolerate a couple of chunks of backlog (player buffer) before skipping;
  // a congested stream keeps pressing the link rather than going quiet the
  // moment it falls behind.
  if (source_->app_backlog() < 2 * chunk_bytes_) {
    source_->release_app_bytes(chunk_bytes_);
    ++chunks_;
  } else {
    ++skipped_;  // player stalled; skip ahead rather than pile up demand
  }
  const double jitter = rng_.uniform(0.95, 1.05);
  sim_.schedule_in(
      static_cast<sim::Duration>(static_cast<double>(period_) * jitter),
      [this] { tick(); });
}

AdaptiveStream::AdaptiveStream(sim::Simulator& sim, tcp::TcpSource* source,
                               double nominal_bps, double floor_fraction,
                               sim::Rng rng)
    : sim_(sim),
      source_(source),
      nominal_bps_(nominal_bps),
      floor_bps_(nominal_bps * floor_fraction),
      current_bps_(nominal_bps),
      rng_(rng) {
  last_tick_ = sim_.now();
  // Desynchronized decision epochs, like real players' segment clocks.
  sim_.schedule_in(
      static_cast<sim::Duration>(rng_.uniform(1.0, 2.0) *
                                 static_cast<double>(sim::kSecond)),
      [this] { tick(); });
}

void AdaptiveStream::tick() {
  const sim::Time now = sim_.now();
  const std::uint64_t acked = source_->stats().bytes_acked;
  const double dt = sim::to_seconds(now - last_tick_);
  if (dt > 0) {
    const double achieved_bps =
        static_cast<double>(acked - last_acked_) * 8.0 / dt;
    if (achieved_bps < 0.9 * current_bps_) {
      current_bps_ = std::max(floor_bps_, current_bps_ * 0.75);
      source_->set_app_rate(current_bps_);
    } else if (current_bps_ < nominal_bps_) {
      current_bps_ = std::min(nominal_bps_, current_bps_ * 1.15);
      source_->set_app_rate(current_bps_);
    }
  }
  last_acked_ = acked;
  last_tick_ = now;
  sim_.schedule_in(
      static_cast<sim::Duration>(rng_.uniform(1.2, 1.8) *
                                 static_cast<double>(sim::kSecond)),
      [this] { tick(); });
}

PathSim::PathSim(const PathConfig& cfg) : cfg_(cfg) {
  net_ = std::make_unique<sim::Network>(cfg.seed);

  client_ = net_->add_node("client");
  sim::Node* isp_router = net_->add_node("isp_router");
  sim::Node* transit_router = net_->add_node("transit_router");
  server_ = net_->add_node("server");
  sim::Node* bg_server = net_->add_node("bg_server");
  sim::Node* bg_sink = net_->add_node("bg_sink");

  const double plan_bps = cfg.plan_mbps * 1e6;
  const double ic_bps = cfg.interconnect_mbps * 1e6;

  // Access link (both directions carry the propagation latency; the plan
  // rate shapes downstream, and a matching upstream is ample for ACKs).
  sim::Link::Config acc_down =
      make_link("access-down", plan_bps, cfg.access_latency_ms,
                cfg.access_buffer_ms, cfg.access_loss, 1.0);
  sim::Link::Config acc_up = acc_down;
  acc_up.name = "access-up";
  acc_up.loss_rate = 0;
  acc_up.jitter = 0;
  const auto l_acc = net_->connect(isp_router, client_, acc_down, acc_up);

  // Interconnect.
  sim::Link::Config ic_down = make_link(
      "interconnect-down", ic_bps, 0.5, cfg.interconnect_buffer_ms);
  sim::Link::Config ic_up = ic_down;
  ic_up.name = "interconnect-up";
  const auto l_ic = net_->connect(transit_router, isp_router, ic_down, ic_up);
  interconnect_down_ = l_ic.ab;

  // Server and background attachments.
  const auto l_srv =
      net_->connect(server_, transit_router, make_link("server", 1e9, 0.5, 100));
  const auto l_bgs = net_->connect(bg_server, transit_router,
                                   make_link("bg-server", 1e9, 1.0, 100));
  const auto l_bgk = net_->connect(isp_router, bg_sink,
                                   make_link("bg-sink", 1e9, 1.0, 100));

  // Routing: leaves default through their attachment; routers toward each
  // other across the interconnect.
  client_->set_default_route(l_acc.ba);
  server_->set_default_route(l_srv.ab);
  bg_server->set_default_route(l_bgs.ab);
  bg_sink->set_default_route(l_bgk.ba);
  transit_router->set_default_route(l_ic.ab);
  isp_router->set_default_route(l_ic.ba);

  // Echo services for TSLP.
  echoes_.push_back(std::make_unique<sim::EchoResponder>(isp_router));
  echoes_.push_back(std::make_unique<sim::EchoResponder>(transit_router));
  near_prober_ = std::make_unique<TslpProber>(net_->sim(), client_,
                                              isp_router, next_port_++);
  far_prober_ = std::make_unique<TslpProber>(net_->sim(), client_,
                                             transit_router, next_port_++);

  // Background demand: N rate-limited streams, staggered starts. In kMixed
  // mode the first `cbr_fraction` of them release smoothly (CBR) and the
  // rest fetch in chunks.
  const int n_streams = static_cast<int>(std::lround(
      cfg.background_load * ic_bps / (cfg.background_stream_mbps * 1e6)));
  const int n_cbr =
      cfg.background_mode == PathConfig::BackgroundMode::kMixed
          ? static_cast<int>(std::lround(cfg.cbr_fraction * n_streams))
          : 0;
  sim::Rng rng = net_->rng().fork();
  for (int i = 0; i < n_streams; ++i) {
    sim::FlowKey key;
    key.src_addr = bg_server->address();
    key.dst_addr = bg_sink->address();
    key.src_port = next_port_++;
    key.dst_port = next_port_++;

    tcp::TcpSink::Config sk;
    sk.data_key = key;
    bg_sinks_.push_back(
        std::make_unique<tcp::TcpSink>(net_->sim(), bg_sink, sk));

    enum class Kind { kCbr, kChunked, kAdaptive };
    Kind kind = Kind::kCbr;
    switch (cfg.background_mode) {
      case PathConfig::BackgroundMode::kMixed:
        kind = i < n_cbr ? Kind::kCbr : Kind::kChunked;
        break;
      case PathConfig::BackgroundMode::kChunked:
        kind = Kind::kChunked;
        break;
      case PathConfig::BackgroundMode::kCbr:
        kind = Kind::kCbr;
        break;
      case PathConfig::BackgroundMode::kAdaptive:
        kind = Kind::kAdaptive;
        break;
    }

    tcp::TcpSource::Config sc;
    sc.key = key;
    sc.bytes_to_send = 0;
    sc.congestion_control = cfg.background_cc;
    if (kind == Kind::kChunked) {
      sc.quota_mode = true;  // data arrives via release_app_bytes chunks
      sc.fixed_pacing_bps =
          cfg.background_stream_mbps * 1e6 * cfg.chunk_fetch_multiple;
    } else {
      sc.app_rate_bps = cfg.background_stream_mbps * 1e6;
    }
    auto src = std::make_unique<tcp::TcpSource>(net_->sim(), bg_server, sc);
    tcp::TcpSource* raw = src.get();
    net_->sim().schedule_at(
        static_cast<sim::Time>(rng.uniform(0.0, 1.0) *
                               static_cast<double>(sim::kSecond)),
        [raw] { raw->start(); });
    switch (kind) {
      case Kind::kChunked:
        bg_chunkers_.push_back(std::make_unique<ChunkedStream>(
            net_->sim(), raw, cfg.background_stream_mbps * 1e6,
            cfg.chunk_period, rng.fork()));
        break;
      case Kind::kAdaptive:
        bg_adapters_.push_back(std::make_unique<AdaptiveStream>(
            net_->sim(), raw, cfg.background_stream_mbps * 1e6,
            cfg.adaptive_floor_fraction, rng.fork()));
        break;
      case Kind::kCbr:
        break;
    }
    bg_sources_.push_back(std::move(src));
  }
}

void PathSim::warmup(sim::Duration d) {
  net_->sim().run_until(net_->sim().now() + d);
}

NdtResult PathSim::run_ndt(sim::Duration duration) {
  sim::Simulator& sim = net_->sim();

  analysis::TraceRecorder recorder;
  server_->add_tap(&recorder);

  sim::FlowKey key;
  key.src_addr = server_->address();
  key.dst_addr = client_->address();
  key.src_port = kNdtServerPort;
  key.dst_port = kNdtClientPort;

  tcp::TcpSink::Config sk;
  sk.data_key = key;
  tcp::TcpSink sink(sim, client_, sk);

  tcp::TcpSource::Config sc;
  sc.key = key;
  sc.bytes_to_send = 0;
  sc.congestion_control = cfg_.ndt_cc;  // default "cubic": Linux M-Lab era
  tcp::TcpSource source(sim, server_, sc);

  const sim::Time start = sim.now();
  source.start();
  sim.schedule_at(start + duration, [&source] { source.stop_sending(); });
  sim.run_until(start + duration + 300 * sim::kMillisecond);

  NdtResult result;
  result.duration = duration;
  result.throughput_bps = static_cast<double>(sink.bytes_received()) * 8.0 /
                          sim::to_seconds(duration);
  const auto stats = source.stats();
  const sim::Duration active =
      stats.established_at >= 0 ? (start + duration) - stats.established_at
                                : 0;
  result.congestion_limited_fraction =
      active > 0 ? static_cast<double>(stats.time_congestion_limited) /
                       static_cast<double>(active)
                 : 0.0;
  const bool long_enough =
      stats.established_at >= 0 &&
      active >= static_cast<sim::Duration>(0.9 * static_cast<double>(duration));
  result.passes_mlab_filters =
      long_enough && result.congestion_limited_fraction >= 0.9;

  server_->remove_tap(&recorder);
  result.features =
      stream::analyze_trace_flow(recorder.trace(), key).extracted.features;
  return result;
}

sim::Duration PathSim::probe_far() {
  far_prober_->probe();
  const std::size_t idx = far_prober_->samples().size() - 1;
  net_->sim().run_until(net_->sim().now() + 500 * sim::kMillisecond);
  return far_prober_->samples()[idx].rtt;
}

sim::Duration PathSim::probe_near() {
  near_prober_->probe();
  const std::size_t idx = near_prober_->samples().size() - 1;
  net_->sim().run_until(net_->sim().now() + 500 * sim::kMillisecond);
  return near_prober_->samples()[idx].rtt;
}

}  // namespace ccsig::mlab
