#include "features/extractor.h"

#include <cmath>
#include <vector>

namespace ccsig::features {

const char* to_string(Insufficiency i) {
  switch (i) {
    case Insufficiency::kNone: return "none";
    case Insufficiency::kNoData: return "no data packets";
    case Insufficiency::kNoRetransmission: return "no retransmission";
    case Insufficiency::kTooFewRttSamples:
      return "insufficient slow-start RTT samples";
    case Insufficiency::kInvalidRtts: return "invalid RTT samples";
    case Insufficiency::kNonMonotonicTimestamps:
      return "non-monotonic sample timestamps";
    case Insufficiency::kDegenerateStats:
      return "degenerate RTT statistics";
  }
  return "?";
}

ExtractResult features_from_slow_start(
    std::span<const analysis::RttSample> samples,
    const analysis::SlowStartInfo& ss,
    std::optional<double> slow_start_throughput,
    std::optional<double> flow_throughput, sim::Duration flow_duration,
    const ExtractOptions& opt) {
  ExtractResult out;
  if (opt.require_retransmission && !ss.ended_by_retransmission) {
    out.insufficiency = Insufficiency::kNoRetransmission;
    return out;
  }

  if (samples.empty() || samples.size() < opt.min_rtt_samples) {
    out.insufficiency = Insufficiency::kTooFewRttSamples;
    return out;
  }

  // A damaged or truncated capture can decode into garbage measurements;
  // refuse to classify rather than feed the tree a fabricated signature.
  std::vector<double> rtts_ms;
  rtts_ms.reserve(samples.size());
  sim::Time prev_at = samples.front().at;
  for (const auto& s : samples) {
    const double ms = sim::to_millis(s.rtt);
    if (!std::isfinite(ms) || ms <= 0.0) {
      out.insufficiency = Insufficiency::kInvalidRtts;
      return out;
    }
    if (s.at < prev_at) {
      out.insufficiency = Insufficiency::kNonMonotonicTimestamps;
      return out;
    }
    prev_at = s.at;
    rtts_ms.push_back(ms);
  }

  const auto nd = norm_diff(rtts_ms);
  const auto cv = coefficient_of_variation(rtts_ms);
  if (!nd || !cv || !std::isfinite(*nd) || !std::isfinite(*cv)) {
    out.insufficiency = Insufficiency::kDegenerateStats;
    return out;
  }

  FlowFeatures f;
  f.norm_diff = *nd;
  f.cov = *cv;
  f.rtt_slope = normalized_rtt_slope(rtts_ms).value_or(0.0);
  f.rtt_iqr = normalized_iqr(rtts_ms).value_or(0.0);
  f.rtt_samples = rtts_ms.size();
  const Summary s = summarize(rtts_ms);
  f.min_rtt_ms = s.min;
  f.max_rtt_ms = s.max;
  f.slow_start_throughput_bps = slow_start_throughput.value_or(0.0);
  f.flow_throughput_bps = flow_throughput.value_or(0.0);
  f.slow_start_ended_by_retransmission = ss.ended_by_retransmission;
  f.flow_duration = flow_duration;
  out.features = f;
  return out;
}

}  // namespace ccsig::features
