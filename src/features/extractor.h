// Slow-start RTT samples → congestion-signature feature vector.
#pragma once

#include <optional>
#include <span>

#include "analysis/slow_start.h"
#include "features/metrics.h"

namespace ccsig::features {

/// Minimum slow-start RTT samples required for statistical validity
/// (paper §3.2 discards flows with fewer than 10).
inline constexpr std::size_t kMinRttSamples = 10;

/// The classifier's inputs, plus context useful for labeling and reporting.
struct FlowFeatures {
  double norm_diff = 0;   // (max-min)/max RTT during slow start
  double cov = 0;         // stddev/mean RTT during slow start
  // Extended features (not used by the paper's classifier; for ablations).
  double rtt_slope = 0;
  double rtt_iqr = 0;
  // Context.
  std::size_t rtt_samples = 0;
  double min_rtt_ms = 0;
  double max_rtt_ms = 0;
  double slow_start_throughput_bps = 0;
  double flow_throughput_bps = 0;
  bool slow_start_ended_by_retransmission = false;
  sim::Duration flow_duration = 0;
};

struct ExtractOptions {
  std::size_t min_rtt_samples = kMinRttSamples;
  /// Require the slow-start boundary to be an actual retransmission. The
  /// paper's definition implies it; flows that never retransmit never
  /// experienced (either kind of) congestion. Off by default because the
  /// M-Lab filters already handle it via Web100 state.
  bool require_retransmission = false;
};

/// Why a flow yielded no features. Degenerate measurement streams (bogus
/// RTTs, time going backwards) are distinguished from merely-short flows:
/// the former indicate a damaged capture, the latter are routine filtering.
enum class Insufficiency {
  kNone = 0,               // features extracted
  kNoData,                 // no data or no ack packets
  kNoRetransmission,       // require_retransmission and none seen
  kTooFewRttSamples,       // fewer than min_rtt_samples in slow start
  kInvalidRtts,            // NaN, zero, or negative RTT samples
  kNonMonotonicTimestamps, // sample timestamps go backwards
  kDegenerateStats,        // summary statistics undefined (e.g. zero mean)
};

const char* to_string(Insufficiency i);

struct ExtractResult {
  std::optional<FlowFeatures> features;
  Insufficiency insufficiency = Insufficiency::kNone;
  bool ok() const { return features.has_value(); }
};

/// The final stage of feature extraction: from a flow's slow-start RTT
/// samples and summary scalars to the validated feature vector, or the
/// reason it was refused — so callers can tell a short flow from a damaged
/// capture and never emit a bogus congestion label for either.
/// stream::FlowState::finalize calls it with the samples it accumulated.
/// Callers are responsible for the kNoData check (a flow with no data or no
/// ack packets must not reach this far).
ExtractResult features_from_slow_start(
    std::span<const analysis::RttSample> samples,
    const analysis::SlowStartInfo& ss,
    std::optional<double> slow_start_throughput,
    std::optional<double> flow_throughput, sim::Duration flow_duration,
    const ExtractOptions& opt = {});

}  // namespace ccsig::features
