// Degenerate RTT streams must yield Verdict::kInsufficientData with a
// machine-readable reason — never a fabricated congestion label.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/analyzer.h"
#include "features/extractor.h"
#include "flow_records.h"

namespace ccsig {
namespace {

using features::ExtractOptions;
using features::ExtractResult;
using features::Insufficiency;
using sim::kMillisecond;
using testutil::FlowRecords;

/// A clean single-flow capture: `n` segments, each acked one base RTT plus
/// a small ramp later, records in time order. Tests damage it as needed.
FlowRecords make_flow(int n) {
  FlowRecords f;
  for (int i = 0; i < n; ++i) {
    const sim::Time t = 2 * i * kMillisecond;
    const auto seq = 1 + 100u * static_cast<unsigned>(i);
    f.data(t, seq, 100);
    f.ack(t + (20 + 2 * i) * kMillisecond, seq + 100);
  }
  f.sort_by_time();
  return f;
}

ExtractResult extract(const FlowRecords& f, const ExtractOptions& opt = {}) {
  return f.run(opt).flow.extracted;
}

/// The one report of a single-flow capture.
FlowReport analyze_one(const FlowRecords& f) {
  const auto reports = FlowAnalyzer().analyze(f.records);
  EXPECT_EQ(reports.size(), 1u);
  return reports.empty() ? FlowReport{} : reports[0];
}

/// `n` segments each acked at the exact instant it left: RTT = 0, which a
/// real path cannot produce — a corrupt-capture signature.
FlowRecords zero_rtt_flow(int n) {
  FlowRecords f;
  for (int i = 0; i < n; ++i) {
    const sim::Time t = 2 * i * kMillisecond;
    const auto seq = 1 + 100u * static_cast<unsigned>(i);
    f.data(t, seq, 100);
    f.ack(t, seq + 100);
  }
  return f;
}

TEST(Insufficiency, DataWithoutAcksIsNoData) {
  FlowRecords f;
  for (int i = 0; i < 12; ++i) {
    f.data(i * kMillisecond, 1 + 100u * static_cast<unsigned>(i), 100);
  }
  const auto r = extract(f);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.insufficiency, Insufficiency::kNoData);
}

TEST(Insufficiency, AcksOnlyConnectionYieldsNoReport) {
  FlowRecords f;
  for (int i = 0; i < 12; ++i) f.ack(i * kMillisecond, 101);
  EXPECT_FALSE(f.run().flow.has_payload);
  EXPECT_TRUE(FlowAnalyzer().analyze(f.records).empty());
}

TEST(Insufficiency, ShortFlowIsTooFewSamples) {
  const auto r = extract(make_flow(5));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.insufficiency, Insufficiency::kTooFewRttSamples);
}

TEST(Insufficiency, NoSamplesIsTooFewEvenWithZeroMinimum) {
  FlowRecords f;
  f.data(0, 1, 100);
  f.ack(1 * kMillisecond, 1);  // acknowledges nothing
  ExtractOptions opt;
  opt.min_rtt_samples = 0;
  EXPECT_EQ(extract(f, opt).insufficiency, Insufficiency::kTooFewRttSamples);
}

TEST(Insufficiency, RequireRetransmissionReported) {
  ExtractOptions opt;
  opt.require_retransmission = true;
  const auto r = extract(make_flow(20), opt);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.insufficiency, Insufficiency::kNoRetransmission);
}

TEST(Insufficiency, ZeroRttsFromDamagedTimestampsAreInvalid) {
  const auto r = extract(zero_rtt_flow(12));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.insufficiency, Insufficiency::kInvalidRtts);
}

TEST(Insufficiency, BackwardsSampleTimesAreNonMonotonic) {
  // Two mid-stream ACKs swap their timestamps in place: the capture now
  // runs backwards there (the last ACK keeps the latest time, so the flow
  // end and the sample count are intact).
  FlowRecords f = make_flow(12);
  std::vector<analysis::WireRecord*> acks;
  for (auto& w : f.records) {
    if (w.key == f.key.reversed()) acks.push_back(&w);
  }
  std::swap(acks[5]->time, acks[6]->time);
  const auto r = extract(f);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.insufficiency, Insufficiency::kNonMonotonicTimestamps);
}

TEST(Insufficiency, HealthyFlowReportsNone) {
  const auto r = extract(make_flow(20));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.insufficiency, Insufficiency::kNone);
  EXPECT_EQ(r.features->rtt_samples, 20u);
}

TEST(Insufficiency, ReasonsHaveDistinctNames) {
  EXPECT_STREQ(features::to_string(Insufficiency::kNone), "none");
  EXPECT_NE(std::string(features::to_string(Insufficiency::kInvalidRtts)),
            features::to_string(Insufficiency::kNonMonotonicTimestamps));
  EXPECT_NE(std::string(features::to_string(Insufficiency::kNoData)),
            features::to_string(Insufficiency::kTooFewRttSamples));
}

TEST(AnalyzerVerdict, InsufficientFlowNeverGetsCongestionLabel) {
  const auto report = analyze_one(make_flow(5));
  EXPECT_FALSE(report.classification.has_value());
  EXPECT_FALSE(report.features.has_value());
  EXPECT_EQ(report.insufficiency, Insufficiency::kTooFewRttSamples);
  EXPECT_EQ(report.verdict(), Verdict::kInsufficientData);
  const std::string line = FlowAnalyzer::render(report);
  EXPECT_NE(line.find("insufficient-data"), std::string::npos);
  EXPECT_NE(line.find(features::to_string(Insufficiency::kTooFewRttSamples)),
            std::string::npos);
}

TEST(AnalyzerVerdict, DamagedRttStreamRefusedNotMislabeled) {
  const auto report = analyze_one(zero_rtt_flow(12));
  EXPECT_EQ(report.verdict(), Verdict::kInsufficientData);
  EXPECT_EQ(report.insufficiency, Insufficiency::kInvalidRtts);
}

TEST(AnalyzerVerdict, HealthyFlowStillClassifies) {
  const auto report = analyze_one(make_flow(30));
  ASSERT_TRUE(report.classification.has_value());
  EXPECT_NE(report.verdict(), Verdict::kInsufficientData);
  EXPECT_EQ(report.verdict(), report.classification->verdict);
}

TEST(AnalyzerVerdict, VerdictNamesCoverAllThreeStates) {
  EXPECT_STREQ(to_string(Verdict::kExternalCongestion),
               "external-congestion");
  EXPECT_STREQ(to_string(Verdict::kSelfInducedCongestion),
               "self-induced-congestion");
  EXPECT_STREQ(to_string(Verdict::kInsufficientData), "insufficient-data");
}

}  // namespace
}  // namespace ccsig
