// Slow-start boundary and throughput rules of the flow engine
// (stream::FlowState), plus the scalar throughput helpers it calls.
#include "analysis/slow_start.h"

#include <gtest/gtest.h>

#include "flow_records.h"

namespace ccsig {
namespace {

using analysis::AckAdvance;
using analysis::SlowStartInfo;
using sim::kMillisecond;
using sim::kSecond;
using testutil::FlowRecords;

TEST(SlowStart, FirstRetransmissionEndsIt) {
  FlowRecords f;
  f.data(0, 1, 100);
  f.data(10, 101, 100);
  f.data(20, 201, 100);
  f.data(90, 101, 100);  // retransmission
  f.data(95, 301, 100);
  f.data(99, 201, 100);  // a later retransmission does not move the end
  const auto ss = f.run().flow.slow_start;
  EXPECT_TRUE(ss.ended_by_retransmission);
  EXPECT_EQ(ss.end_time, 90);
}

TEST(SlowStart, PartialRangeRetransmissionEndsIt) {
  // [501, 901) lies inside the bytes already sent without matching any
  // segment boundary: still a retransmission.
  FlowRecords f;
  f.data(0, 1, 1000);
  f.data(5, 1001, 1000);
  f.data(10, 501, 400);
  const auto ss = f.run().flow.slow_start;
  EXPECT_TRUE(ss.ended_by_retransmission);
  EXPECT_EQ(ss.end_time, 10);
}

TEST(SlowStart, OverlapExtendingPastHighestSentIsNewData) {
  FlowRecords f;
  f.data(0, 1, 1000);
  f.data(10, 501, 1000);  // overlaps the sent range but ends past it
  // seq_end 1501 > 1001, so it is NOT a retransmission (new data included).
  EXPECT_FALSE(f.run().flow.slow_start.ended_by_retransmission);
}

TEST(SlowStart, NoRetransmissionSpansWholeFlow) {
  FlowRecords f;
  f.data(0, 1, 100);
  f.data(10, 101, 100);
  f.ack(30, 201);
  const auto ss = f.run().flow.slow_start;
  EXPECT_FALSE(ss.ended_by_retransmission);
  EXPECT_EQ(ss.end_time, 30);
  EXPECT_EQ(ss.acked_bytes, 200u);
}

TEST(SlowStart, AckedBytesOnlyCountUntilEnd) {
  FlowRecords f;
  f.data(0, 1, 100);
  f.data(10, 101, 100);
  f.ack(20, 101);
  f.data(50, 1, 100);  // retx at t=50 ends slow start
  f.ack(100, 201);     // after slow start; must not count
  const auto ss = f.run().flow.slow_start;
  EXPECT_EQ(ss.end_time, 50);
  EXPECT_EQ(ss.acked_bytes, 100u);
}

TEST(SlowStartThroughput, SecondHalfDeliveryRateThroughTheEngine) {
  // Data from t=0; slow start ends at t = 1 s via retransmission. ACK
  // progress: by mid (0.5 s) 1000 bytes; last advance at 0.9 s with 9000
  // bytes. Rate over [0.5 s, 0.9 s] = 8000 B / 0.4 s = 160 kbit/s.
  FlowRecords f;
  f.data(0, 1, 100);
  f.ack(500 * kMillisecond, 1001);
  f.ack(900 * kMillisecond, 9001);
  f.data(1 * kSecond, 1, 100);  // retx marks the end
  features::ExtractOptions opt;
  opt.min_rtt_samples = 1;
  const auto flow = f.run(opt).flow;
  ASSERT_TRUE(flow.extracted.features.has_value());
  EXPECT_NEAR(flow.extracted.features->slow_start_throughput_bps,
              8000.0 * 8.0 / 0.4, 1.0);
}

TEST(SlowStartThroughput, SecondHalfDeliveryRate) {
  SlowStartInfo ss;
  ss.end_time = 1 * kSecond;
  ss.ended_by_retransmission = true;
  ss.acked_bytes = 9000;
  const AckAdvance advances[] = {{500 * kMillisecond, 1001},
                                 {900 * kMillisecond, 9001}};
  const auto tput =
      stream::slow_start_throughput_from_advances(0, ss, advances);
  ASSERT_TRUE(tput.has_value());
  EXPECT_NEAR(*tput, 8000.0 * 8.0 / 0.4, 1.0);
}

TEST(SlowStartThroughput, NoProgressInSecondHalfIsZero) {
  SlowStartInfo ss;
  ss.end_time = 1 * kSecond;
  ss.acked_bytes = 5000;
  const AckAdvance advances[] = {{100 * kMillisecond, 5001}};
  const auto tput =
      stream::slow_start_throughput_from_advances(0, ss, advances);
  ASSERT_TRUE(tput.has_value());
  EXPECT_EQ(*tput, 0.0);
}

TEST(SlowStartThroughput, NulloptWhenNothingAcked) {
  SlowStartInfo ss;
  ss.end_time = 10;
  EXPECT_FALSE(
      stream::slow_start_throughput_from_advances(0, ss, {}).has_value());
}

TEST(FlowThroughput, AckedBytesOverDuration) {
  FlowRecords f;
  f.data(0, 1, 100);
  f.ack(1 * kSecond, 100'001);
  EXPECT_NEAR(f.run().flow.throughput_bps, 100'000 * 8.0, 1.0);
}

TEST(FlowThroughput, ZeroOnEmptyOrInstant) {
  EXPECT_FALSE(stream::throughput_bps(0, kSecond).has_value());
  EXPECT_FALSE(stream::throughput_bps(100, 0).has_value());
  FlowRecords f;
  f.data(5, 1, 100);
  EXPECT_EQ(f.run().flow.throughput_bps, 0.0);  // zero duration
}

}  // namespace
}  // namespace ccsig
