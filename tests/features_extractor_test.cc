// Feature extraction through the flow engine: validity filters and the
// ordering of the paper's two metrics on synthetic RTT ramps.
#include "features/extractor.h"

#include <gtest/gtest.h>

#include "flow_records.h"

namespace ccsig::features {
namespace {

using sim::kMillisecond;
using testutil::FlowRecords;

/// `n_segments` segments 2 ms apart, segment i acked after base_rtt +
/// i * rtt_step, optionally closed by a retransmission 500 ms later.
FlowRecords synthetic_flow(int n_segments, sim::Duration base_rtt,
                           sim::Duration rtt_step, bool end_with_retx = true) {
  FlowRecords f;
  sim::Time t = 0;
  for (int i = 0; i < n_segments; ++i) {
    const auto seq = 1 + 100u * static_cast<unsigned>(i);
    f.data(t, seq, 100);
    f.ack(t + base_rtt + i * rtt_step, seq + 100);
    t += 2 * kMillisecond;
  }
  if (end_with_retx) f.data(t + 500 * kMillisecond, 1, 100);
  f.sort_by_time();
  return f;
}

std::optional<FlowFeatures> extract_features(const FlowRecords& f,
                                             const ExtractOptions& opt = {}) {
  return f.run(opt).flow.extracted.features;
}

TEST(Extractor, ProducesFeaturesForValidFlow) {
  const auto flow = synthetic_flow(30, 20 * kMillisecond, 2 * kMillisecond);
  const auto f = extract_features(flow);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->rtt_samples, 30u);
  EXPECT_GT(f->norm_diff, 0.5);  // RTT tripled over the window
  EXPECT_GT(f->cov, 0.1);
  EXPECT_TRUE(f->slow_start_ended_by_retransmission);
  EXPECT_NEAR(f->min_rtt_ms, 20.0, 0.01);
}

TEST(Extractor, RejectsTooFewSamples) {
  const auto flow = synthetic_flow(9, 20 * kMillisecond, 1 * kMillisecond);
  EXPECT_FALSE(extract_features(flow).has_value());
  // Exactly at the limit passes.
  const auto flow10 = synthetic_flow(10, 20 * kMillisecond, 1 * kMillisecond);
  EXPECT_TRUE(extract_features(flow10).has_value());
}

TEST(Extractor, MinSamplesConfigurable) {
  const auto flow = synthetic_flow(5, 20 * kMillisecond, 1 * kMillisecond);
  ExtractOptions opt;
  opt.min_rtt_samples = 3;
  EXPECT_TRUE(extract_features(flow, opt).has_value());
}

TEST(Extractor, RequireRetransmissionOption) {
  const auto flow =
      synthetic_flow(20, 20 * kMillisecond, 1 * kMillisecond, false);
  ExtractOptions strict;
  strict.require_retransmission = true;
  EXPECT_FALSE(extract_features(flow, strict).has_value());
  EXPECT_TRUE(extract_features(flow).has_value());  // default accepts
}

TEST(Extractor, EmptyFlowRejected) {
  const FlowRecords flow;
  EXPECT_FALSE(extract_features(flow).has_value());
}

TEST(Extractor, FlatRttGivesNearZeroMetrics) {
  const auto flow = synthetic_flow(30, 70 * kMillisecond, 0);
  const auto f = extract_features(flow);
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR(f->norm_diff, 0.0, 1e-9);
  EXPECT_NEAR(f->cov, 0.0, 1e-9);
}

TEST(Extractor, SelfLikeVsExternalLikeSignaturesSeparate) {
  // Self-induced: low baseline, strong growth. External: high baseline,
  // little growth. The extracted metrics must order accordingly.
  const auto self_flow =
      synthetic_flow(40, 20 * kMillisecond, 3 * kMillisecond);
  const auto ext_flow =
      synthetic_flow(40, 70 * kMillisecond, 200 * sim::kMicrosecond);
  const auto fs = extract_features(self_flow);
  const auto fe = extract_features(ext_flow);
  ASSERT_TRUE(fs && fe);
  EXPECT_GT(fs->norm_diff, 2 * fe->norm_diff);
  EXPECT_GT(fs->cov, 2 * fe->cov);
}

}  // namespace
}  // namespace ccsig::features
