// How the engine turns a mixed trace into flows: the data direction is the
// payload majority, payloadless connections yield no report, reports come
// in start-time order, and the per-flow scalars span both directions.
#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "flow_records.h"
#include "stream/stream.h"

namespace ccsig {
namespace {

using testutil::FlowRecords;

/// Every flow of `trace`, through the engine at one and four workers
/// (which must agree).
std::vector<FlowReport> analyze(const analysis::Trace& trace) {
  const FlowAnalyzer analyzer;
  std::vector<FlowReport> out = analyzer.analyze(trace);
  stream::StreamConfig cfg;
  cfg.jobs = 4;
  stream::StreamEngine engine(analyzer, cfg);
  for (const analysis::WireRecord& w : trace) engine.push(w);
  const std::vector<FlowReport> parallel = engine.finish();
  EXPECT_EQ(parallel.size(), out.size());
  for (std::size_t i = 0; i < std::min(parallel.size(), out.size()); ++i) {
    EXPECT_EQ(FlowAnalyzer::render(parallel[i]), FlowAnalyzer::render(out[i]));
  }
  return out;
}

TEST(FlowSplit, SeparatesDataAndAckDirections) {
  FlowRecords f;
  f.data(1, 1, 100);
  f.ack(2, 101);
  f.data(3, 101, 100);
  const auto reports = analyze(f.records);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].data_packets, 2u);
  EXPECT_EQ(reports[0].data_key.src_addr, 1u);  // payload direction
  EXPECT_EQ(reports[0].data_key.dst_addr, 2u);
}

TEST(FlowSplit, PayloadDirectionWinsRegardlessOfAddressOrder) {
  // Data flows from the *higher* address; the canonicalization must still
  // pick the payload-carrying side as data_key.
  FlowRecords f;
  f.key = sim::FlowKey{9, 3, 80, 1000};
  f.data(1, 1, 500);
  f.ack(2, 501);
  const auto reports = analyze(f.records);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].data_key.src_addr, 9u);
}

TEST(FlowSplit, PayloadMajorityDecidesNotFirstSender) {
  // The lower address speaks first (a request), the other side sends the
  // bulk: the bulk sender is the data direction.
  FlowRecords f;
  f.key = sim::FlowKey{2, 1, 20, 10};
  analysis::WireRecord& request = f.ack(1, 1);
  request.payload_bytes = 50;
  f.data(2, 1, 1000);
  f.data(3, 1001, 1000);
  const auto reports = analyze(f.records);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].data_key, (sim::FlowKey{2, 1, 20, 10}));
  EXPECT_EQ(reports[0].data_packets, 2u);
}

TEST(FlowSplit, MultipleConnectionsSplit) {
  analysis::Trace trace;
  for (const sim::FlowKey key : {sim::FlowKey{1, 2, 10, 20},
                                 sim::FlowKey{1, 2, 11, 21},
                                 sim::FlowKey{5, 6, 10, 20}}) {
    FlowRecords f;
    f.key = key;
    trace.push_back(f.data(static_cast<sim::Time>(trace.size() + 1), 1, 100));
  }
  EXPECT_EQ(analyze(trace).size(), 3u);
}

TEST(FlowSplit, DropsPayloadlessConnections) {
  FlowRecords f;
  f.ack(1, 1);
  f.ack(2, 1);
  EXPECT_TRUE(analyze(f.records).empty());
}

TEST(FlowSplit, OrderedByStartTime) {
  // The later flow has the smaller key: start time decides, not the key.
  FlowRecords late;
  late.key = sim::FlowKey{1, 2, 10, 20};
  FlowRecords early;
  early.key = sim::FlowKey{3, 4, 10, 20};
  analysis::Trace trace;
  trace.push_back(early.data(5, 1, 10));
  trace.push_back(late.data(100, 1, 10));
  const auto reports = analyze(trace);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].data_key.src_addr, 3u);
  EXPECT_EQ(reports[1].data_key.src_addr, 1u);
}

TEST(FlowSplit, TupleReusedAfterFinHandshakeIsANewFlow) {
  FlowRecords f;
  f.data(1, 1, 100);
  f.ack(2, 101);
  f.data(3, 101, 0).flags.fin = true;  // data side closes at seq 101
  f.ack(4, 102).flags.fin = true;      // peer acks it and closes at seq 1
  f.data(5, 102, 0).ack32 = 2;         // final ACK of the peer's FIN
  // The same 4-tuple opens again.
  f.data(10, 1, 100);
  f.ack(11, 101);
  const auto reports = analyze(f.records);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].data_key, f.key);
  EXPECT_EQ(reports[1].data_key, f.key);
  EXPECT_EQ(reports[0].data_packets, 3u);
  EXPECT_EQ(reports[1].data_packets, 1u);
}

TEST(FlowScalars, ThroughputUsesHighestAckIgnoringStaleOnes) {
  FlowRecords f;
  f.data(0, 1, 600);
  f.ack(1, 101);
  f.ack(2, 501);
  f.ack(3, 301);  // stale duplicate
  // Wire sequence 1 is the first payload byte, so acked payload = 500.
  EXPECT_EQ(f.run().flow.throughput_bps,
            stream::throughput_bps(500, 3).value());
}

TEST(FlowScalars, ThroughputZeroWhenNoAcks) {
  FlowRecords f;
  f.data(0, 1, 100);
  f.data(10, 101, 100);
  const auto flow = f.run().flow;
  EXPECT_EQ(flow.throughput_bps, 0.0);
  EXPECT_EQ(flow.extracted.insufficiency, features::Insufficiency::kNoData);
}

TEST(FlowScalars, TimesSpanBothDirections) {
  FlowRecords f;
  f.data(10, 1, 100);
  f.ack(25, 101);
  const auto flow = f.run().flow;
  EXPECT_EQ(flow.start_time, 10);
  EXPECT_EQ(flow.duration, 15);
}

TEST(TraceFlow, AnalyzesOnlyTheNamedConnection) {
  FlowRecords f;
  f.data(1, 1, 100);
  f.ack(2, 101);
  FlowRecords other;
  other.key = sim::FlowKey{7, 8, 9, 9};
  analysis::Trace trace = f.records;
  trace.push_back(other.data(3, 1, 100));
  const auto flow = stream::analyze_trace_flow(trace, f.key);
  EXPECT_TRUE(flow.has_payload);
  EXPECT_EQ(flow.data_key, f.key);
  EXPECT_EQ(flow.data_packets, 1u);
  EXPECT_EQ(flow.duration, 1);
}

TEST(TraceFlow, NoReportWhenAbsent) {
  const analysis::Trace trace;
  const auto flow =
      stream::analyze_trace_flow(trace, sim::FlowKey{1, 2, 3, 4});
  EXPECT_FALSE(flow.has_payload);
  EXPECT_FALSE(flow.extracted.ok());
}

}  // namespace
}  // namespace ccsig
