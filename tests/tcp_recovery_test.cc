// Targeted loss-recovery tests with *deterministic* drops: a scriptable
// filter between the link and the receiving node drops exactly the chosen
// sequence ranges exactly once, so SACK scoreboard behaviour, limited
// transmit, and RTO fallback can be asserted precisely.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "analysis/trace_recorder.h"
#include "sim/network.h"
#include "stream/flow_state.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"

namespace ccsig {
namespace {

class ScriptedLossPath {
 public:
  explicit ScriptedLossPath(std::uint64_t seed = 1) : net_(seed) {
    server_ = net_.add_node("server");
    client_ = net_.add_node("client");
    sim::Link::Config cfg;
    cfg.rate_bps = 10e6;
    cfg.prop_delay = 10 * sim::kMillisecond;
    cfg.buffer_bytes = 1 << 22;  // never overflows; drops are scripted only
    auto duplex = net_.connect(server_, client_, cfg);
    // Interpose the drop filter on the data direction.
    duplex.ab->set_receiver([this](const sim::Packet& p) {
      if (should_drop_ && p.payload_bytes > 0 && should_drop_(p)) {
        ++dropped_;
        return;
      }
      client_->receive(p);
    });
  }

  /// Raw drop filter: full control, including dropping retransmissions.
  void set_drop_filter(std::function<bool(const sim::Packet&)> pred) {
    should_drop_ = std::move(pred);
  }

  /// Drops each payload segment whose range matches the predicate, once
  /// per starting sequence (retransmissions get through).
  void drop_once_if(std::function<bool(const sim::Packet&)> pred) {
    should_drop_ = [this, pred = std::move(pred)](const sim::Packet& p) {
      const std::uint64_t id = p.seq;
      if (!pred(p) || already_dropped_.count(id)) return false;
      already_dropped_.insert(id);
      return true;
    };
  }

  struct Result {
    bool completed = false;
    sim::Time completed_at = 0;
    tcp::TcpSource::Stats stats;
  };

  Result transfer(std::uint64_t bytes, bool use_sack = true) {
    const sim::FlowKey key{server_->address(), client_->address(), 1, 2};
    tcp::TcpSink::Config sk;
    sk.data_key = key;
    tcp::TcpSink sink(net_.sim(), client_, sk);
    tcp::TcpSource::Config sc;
    sc.key = key;
    sc.bytes_to_send = bytes;
    sc.use_sack = use_sack;
    tcp::TcpSource source(net_.sim(), server_, sc);
    Result r;
    source.set_on_complete([&] {
      r.completed = true;
      r.completed_at = net_.sim().now();
    });
    source.start();
    net_.sim().run_until(sim::from_seconds(60));
    r.stats = source.stats();
    return r;
  }

  int dropped() const { return dropped_; }

 private:
  sim::Network net_;
  sim::Node* server_ = nullptr;
  sim::Node* client_ = nullptr;
  std::function<bool(const sim::Packet&)> should_drop_;
  std::set<std::uint64_t> already_dropped_;
  int dropped_ = 0;
};

TEST(TcpRecovery, SingleLossRecoversByFastRetransmit) {
  ScriptedLossPath path;
  // Drop the segment starting at offset ~30 KB (mid-window), once.
  path.drop_once_if([](const sim::Packet& p) { return p.seq == 28961; });
  const auto r = path.transfer(300'000);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(path.dropped(), 1);
  EXPECT_EQ(r.stats.fast_retransmits, 1u);
  EXPECT_EQ(r.stats.timeouts, 0u);  // never needed the timer
  EXPECT_EQ(r.stats.retransmits, 1u);
}

TEST(TcpRecovery, BurstLossRepairedWithinRecovery) {
  ScriptedLossPath path;
  // Drop eight consecutive segments from one window.
  path.drop_once_if([](const sim::Packet& p) {
    return p.seq >= 28961 && p.seq < 28961 + 8 * 1448;
  });
  const auto r = path.transfer(400'000);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(path.dropped(), 8);
  // SACK repairs the whole burst inside one recovery episode, no RTO.
  EXPECT_EQ(r.stats.timeouts, 0u);
  EXPECT_EQ(r.stats.fast_retransmits, 1u);
  EXPECT_EQ(r.stats.retransmits, 8u);
}

TEST(TcpRecovery, NewRenoNeedsLongerForBurst) {
  ScriptedLossPath sack_path;
  sack_path.drop_once_if([](const sim::Packet& p) {
    return p.seq >= 28961 && p.seq < 28961 + 8 * 1448;
  });
  const auto with_sack = sack_path.transfer(400'000, /*use_sack=*/true);

  ScriptedLossPath nr_path;
  nr_path.drop_once_if([](const sim::Packet& p) {
    return p.seq >= 28961 && p.seq < 28961 + 8 * 1448;
  });
  const auto newreno = nr_path.transfer(400'000, /*use_sack=*/false);

  ASSERT_TRUE(with_sack.completed);
  ASSERT_TRUE(newreno.completed);
  // NewReno retransmits one hole per RTT; SACK fixes all 8 in ~1 RTT.
  EXPECT_LT(with_sack.completed_at, newreno.completed_at);
}

TEST(TcpRecovery, LostRetransmissionFallsBackToRto) {
  ScriptedLossPath path;
  // Drop the original AND its first retransmission; only the third copy
  // (driven by the retransmission timer) gets through.
  int drops_of_target = 0;
  path.set_drop_filter([&](const sim::Packet& p) {
    if (p.seq == 28961 && drops_of_target < 2) {
      ++drops_of_target;
      return true;
    }
    return false;
  });
  const auto r = path.transfer(300'000);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(drops_of_target, 2);
  EXPECT_GE(r.stats.timeouts, 1u);
  EXPECT_EQ(r.stats.bytes_acked, 300'000u);
}

TEST(TcpRecovery, TailLossRecoveredByTimeout) {
  ScriptedLossPath path;
  // Drop the very last segment of the transfer: no later data means no
  // duplicate ACKs, so only the retransmission timer can save it.
  path.drop_once_if([](const sim::Packet& p) {
    return p.seq + p.payload_bytes == 300'001;  // final byte of 300 kB
  });
  const auto r = path.transfer(300'000);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(path.dropped(), 1);
  EXPECT_GE(r.stats.timeouts, 1u);
}

TEST(TcpRecovery, EveryLossPatternDeliversExactly) {
  // Property-style sweep: different scripted loss shapes must never corrupt
  // delivery (completeness is checked by on_complete firing, which requires
  // every byte ACKed).
  const std::uint64_t kBytes = 250'000;
  const std::vector<std::function<bool(const sim::Packet&)>> patterns = {
      [](const sim::Packet& p) { return p.seq % 7 == 1 && p.seq < 100'000; },
      [](const sim::Packet& p) { return p.seq > 50'000 && p.seq < 80'000; },
      [](const sim::Packet& p) { return p.seq == 1; },  // very first segment
      [](const sim::Packet&) { return false; },         // control: no loss
  };
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    ScriptedLossPath path(100 + i);
    path.drop_once_if(patterns[i]);
    const auto r = path.transfer(kBytes);
    EXPECT_TRUE(r.completed) << "pattern " << i;
    EXPECT_EQ(r.stats.bytes_acked, kBytes) << "pattern " << i;
  }
}

TEST(TcpRecovery, TraceShowsRetransmissionForAnalysis) {
  // The analysis layer must see the scripted loss as a retransmission
  // (sequence regression) in the server-side trace.
  ScriptedLossPath path;
  path.drop_once_if([](const sim::Packet& p) { return p.seq == 28961; });

  // Rebuild with a recorder: simpler to re-run with a fresh path + tap.
  sim::Network net(9);
  sim::Node* server = net.add_node("server");
  sim::Node* client = net.add_node("client");
  sim::Link::Config cfg;
  cfg.rate_bps = 10e6;
  cfg.prop_delay = 10 * sim::kMillisecond;
  cfg.buffer_bytes = 1 << 22;
  auto duplex = net.connect(server, client, cfg);
  bool dropped = false;
  duplex.ab->set_receiver([&](const sim::Packet& p) {
    if (!dropped && p.seq == 28961 && p.payload_bytes > 0) {
      dropped = true;
      return;
    }
    client->receive(p);
  });
  analysis::TraceRecorder recorder;
  server->add_tap(&recorder);
  const sim::FlowKey key{server->address(), client->address(), 1, 2};
  tcp::TcpSink::Config sk;
  sk.data_key = key;
  tcp::TcpSink sink(net.sim(), client, sk);
  tcp::TcpSource::Config sc;
  sc.key = key;
  sc.bytes_to_send = 300'000;
  tcp::TcpSource source(net.sim(), server, sc);
  source.start();
  net.sim().run_until(sim::from_seconds(30));

  const auto flow = stream::analyze_trace_flow(recorder.trace(), key);
  EXPECT_TRUE(flow.slow_start.ended_by_retransmission);
}

}  // namespace
}  // namespace ccsig
