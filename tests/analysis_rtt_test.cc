// RTT sampling rules of the flow engine (stream::FlowState): which ACK
// samples which segment, Karn's rule, the slow-start cutoff and the
// data-first tie order.
#include <gtest/gtest.h>

#include "flow_records.h"

namespace ccsig {
namespace {

using sim::kMillisecond;
using testutil::FlowRecords;

TEST(RttSampling, ExactAckMatch) {
  FlowRecords f;
  f.data(0, 1, 100);
  f.ack(20 * kMillisecond, 101);
  const auto samples = f.run().samples;
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].rtt, 20 * kMillisecond);
  EXPECT_EQ(samples[0].at, 20 * kMillisecond);
  EXPECT_EQ(samples[0].acked_seq, 101u);
}

TEST(RttSampling, CumulativeAckSamplesNewestCoveredSegment) {
  FlowRecords f;
  f.data(0, 1, 100);
  f.data(5 * kMillisecond, 101, 100);
  f.ack(25 * kMillisecond, 201);  // covers both (delayed ACK)
  const auto samples = f.run().samples;
  ASSERT_EQ(samples.size(), 1u);
  // Sample belongs to the second segment: 25 - 5 = 20 ms.
  EXPECT_EQ(samples[0].rtt, 20 * kMillisecond);
  EXPECT_EQ(samples[0].acked_seq, 201u);
}

TEST(RttSampling, AckBetweenBoundariesSamplesHighestCoveredSegment) {
  FlowRecords f;
  f.data(0, 1, 100);
  f.data(5 * kMillisecond, 101, 100);
  f.ack(25 * kMillisecond, 151);  // covers the first segment only
  const auto samples = f.run().samples;
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].acked_seq, 101u);
  EXPECT_EQ(samples[0].rtt, 25 * kMillisecond);
}

TEST(RttSampling, EachAckYieldsAtMostOneSample) {
  FlowRecords f;
  for (unsigned i = 0; i < 4; ++i) f.data(i * kMillisecond, 1 + 100 * i, 100);
  f.ack(30 * kMillisecond, 201);
  f.ack(32 * kMillisecond, 401);
  EXPECT_EQ(f.run().samples.size(), 2u);
}

TEST(RttSampling, KarnExcludesRetransmittedRange) {
  // The retransmission of [1, 101) at 50 ms ends slow start; ACKs at that
  // same instant still count, and the one naming the ambiguous range must
  // not sample it.
  FlowRecords f;
  f.data(0, 1, 100);
  f.data(1 * kMillisecond, 101, 100);
  f.data(50 * kMillisecond, 1, 100);  // retransmission of seq 1
  f.ack(50 * kMillisecond, 101);      // acks the ambiguous range
  f.ack(50 * kMillisecond, 201);      // acks the clean range
  const auto result = f.run();
  ASSERT_EQ(result.samples.size(), 1u);
  // Only the never-retransmitted segment may produce a sample.
  EXPECT_EQ(result.samples[0].acked_seq, 201u);
  EXPECT_EQ(result.samples[0].rtt, 49 * kMillisecond);
  EXPECT_TRUE(result.flow.slow_start.ended_by_retransmission);
}

TEST(RttSampling, DataIsOrderedBeforeAckOnTimestampTies) {
  // The capture wrote the ACK before the retransmission that shares its
  // timestamp. The tie-order rule puts the data first, so the ACK sees the
  // range as retransmitted and — Karn's rule — does not sample it.
  FlowRecords f;
  f.data(0, 1, 100);
  f.data(10 * kMillisecond, 101, 100);
  f.ack(30 * kMillisecond, 101);
  f.data(30 * kMillisecond, 1, 100);  // retransmission, captured second
  f.ack(30 * kMillisecond, 201);
  const auto samples = f.run().samples;
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].acked_seq, 201u);
  EXPECT_EQ(samples[0].rtt, 20 * kMillisecond);
}

TEST(RttSampling, DuplicateAcksProduceNoSamples) {
  FlowRecords f;
  f.data(0, 1, 100);
  f.ack(20 * kMillisecond, 101);
  f.ack(21 * kMillisecond, 101);  // dup
  f.ack(22 * kMillisecond, 101);  // dup
  EXPECT_EQ(f.run().samples.size(), 1u);
}

TEST(RttSampling, SlowStartEndCutsOffLaterAcks) {
  FlowRecords all;
  all.data(0, 1, 100);
  all.data(1 * kMillisecond, 101, 100);
  all.ack(20 * kMillisecond, 101);
  all.ack(40 * kMillisecond, 201);
  EXPECT_EQ(all.run().samples.size(), 2u);

  // A retransmission at 30 ms ends slow start: the 40 ms ACK is past it.
  FlowRecords cut;
  cut.data(0, 1, 100);
  cut.data(1 * kMillisecond, 101, 100);
  cut.ack(20 * kMillisecond, 101);
  cut.data(30 * kMillisecond, 1, 100);
  cut.ack(40 * kMillisecond, 201);
  const auto samples = cut.run().samples;
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].rtt, 20 * kMillisecond);
}

TEST(RttSampling, PureControlPacketsIgnored) {
  FlowRecords f;
  analysis::WireRecord& syn = f.data(0, 0, 0);
  syn.flags.syn = true;
  syn.flags.ack = false;
  f.data(10 * kMillisecond, 1, 100);
  analysis::WireRecord& synack = f.ack(15 * kMillisecond, 1);
  synack.flags.syn = true;  // SYN-ACKs never sample
  f.ack(30 * kMillisecond, 101);
  const auto samples = f.run().samples;
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].rtt, 20 * kMillisecond);
}

TEST(RttSampling, SamplesAreTimeOrdered) {
  FlowRecords f;
  for (unsigned i = 0; i < 20; ++i) {
    f.data(i * kMillisecond, 1 + 100 * i, 100);
    f.ack((i + 15) * kMillisecond, 101 + 100 * i);
  }
  f.sort_by_time();
  const auto samples = f.run().samples;
  ASSERT_GT(samples.size(), 1u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].at, samples[i - 1].at);
  }
}

// The outstanding window: retransmissions land in sequence order, wherever
// their boundary falls, and a long slow start keeps every sample exact.

TEST(RttSampling, RetransmissionInsideWindowIsInsertedInOrderAndTainted) {
  // [101, 151) is resent at 10 ms: 151 is a boundary no original segment
  // had, between 101 and 201, with 101 already acknowledged.
  FlowRecords f;
  for (unsigned i = 0; i < 4; ++i) f.data(i * kMillisecond, 1 + 100 * i, 100);
  f.ack(5 * kMillisecond, 101);
  f.data(10 * kMillisecond, 101, 50);  // retransmission, new boundary 151
  f.ack(10 * kMillisecond, 151);       // newest covered: the resent range
  f.ack(10 * kMillisecond, 401);       // newest covered: [301, 401)
  const auto result = f.run();
  ASSERT_EQ(result.samples.size(), 2u);
  EXPECT_EQ(result.samples[0].acked_seq, 101u);
  EXPECT_EQ(result.samples[0].rtt, 5 * kMillisecond);
  EXPECT_EQ(result.samples[1].acked_seq, 401u);
  EXPECT_EQ(result.samples[1].rtt, 7 * kMillisecond);
  EXPECT_TRUE(result.flow.slow_start.ended_by_retransmission);
  EXPECT_EQ(result.flow.slow_start.end_time, 10 * kMillisecond);
}

TEST(RttSampling, AckBelowInsertedRetransmissionSamplesLowerSegment) {
  FlowRecords f;
  for (unsigned i = 0; i < 4; ++i) f.data(i * kMillisecond, 1 + 100 * i, 100);
  f.data(10 * kMillisecond, 101, 50);  // retransmission, new boundary 151
  f.ack(10 * kMillisecond, 120);       // stops below 151: samples [1, 101)
  f.ack(10 * kMillisecond, 151);       // the resent range: no sample
  f.ack(10 * kMillisecond, 201);       // [151, 201) was never resent
  const auto samples = f.run().samples;
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].acked_seq, 101u);
  EXPECT_EQ(samples[0].rtt, 10 * kMillisecond);
  EXPECT_EQ(samples[1].acked_seq, 201u);
  EXPECT_EQ(samples[1].rtt, 9 * kMillisecond);
}

TEST(RttSampling, RetransmissionBelowWindowFront) {
  // [1, 51) was already acknowledged when it is resent: it still ends slow
  // start, and the ACKs that follow sample the outstanding segments.
  FlowRecords f;
  for (unsigned i = 0; i < 3; ++i) f.data(i * kMillisecond, 1 + 100 * i, 100);
  f.ack(20 * kMillisecond, 101);
  f.data(25 * kMillisecond, 1, 50);  // below the window front
  f.ack(25 * kMillisecond, 101);     // covers only the resent range
  f.ack(25 * kMillisecond, 201);
  f.ack(25 * kMillisecond, 301);
  const auto result = f.run();
  ASSERT_EQ(result.samples.size(), 3u);
  EXPECT_EQ(result.samples[0].acked_seq, 101u);
  EXPECT_EQ(result.samples[0].rtt, 20 * kMillisecond);
  EXPECT_EQ(result.samples[1].acked_seq, 201u);
  EXPECT_EQ(result.samples[1].rtt, 24 * kMillisecond);
  EXPECT_EQ(result.samples[2].acked_seq, 301u);
  EXPECT_EQ(result.samples[2].rtt, 23 * kMillisecond);
  EXPECT_EQ(result.flow.slow_start.end_time, 25 * kMillisecond);
}

TEST(RttSampling, SameRangeSentTwiceIsTainted) {
  FlowRecords f;
  f.data(0, 1, 100);
  f.data(1 * kMillisecond, 101, 100);
  f.data(30 * kMillisecond, 101, 100);  // the same range again
  f.ack(30 * kMillisecond, 101);
  f.ack(30 * kMillisecond, 201);  // ambiguous: Karn's rule, no sample
  const auto samples = f.run().samples;
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].acked_seq, 101u);
  EXPECT_EQ(samples[0].rtt, 30 * kMillisecond);
}

TEST(RttSampling, LongSlowStartSamplesEverySegmentExactly) {
  // 10,000 segments, one every 10 us, each odd one acknowledged 5 ms (plus
  // a few us of jitter) after it was sent: about 500 segments are always
  // outstanding, so the window's dead prefix is dropped many times.
  constexpr unsigned kSegments = 10'000;
  constexpr sim::Duration kGap = 10 * sim::kMicrosecond;
  const auto rtt_of = [](unsigned k) {
    return 5 * kMillisecond + (k % 13) * sim::kMicrosecond;
  };
  FlowRecords f;
  for (unsigned i = 0; i < kSegments; ++i) f.data(i * kGap, 1 + 100 * i, 100);
  for (unsigned k = 0; k < kSegments / 2; ++k) {
    f.ack((2 * k + 1) * kGap + rtt_of(k), 201 + 200 * k);
  }
  f.sort_by_time();
  const auto result = f.run();
  EXPECT_FALSE(result.flow.slow_start.ended_by_retransmission);
  ASSERT_EQ(result.samples.size(), kSegments / 2);
  for (unsigned k = 0; k < kSegments / 2; ++k) {
    EXPECT_EQ(result.samples[k].acked_seq, 201u + 200 * k) << k;
    EXPECT_EQ(result.samples[k].rtt, rtt_of(k)) << k;
  }
}

TEST(RttSampling, EmptyFlowNoSamples) {
  const FlowRecords f;
  const auto result = f.run();
  EXPECT_TRUE(result.samples.empty());
  EXPECT_FALSE(result.flow.has_payload);
}

}  // namespace
}  // namespace ccsig
