// Full testbed parameter sweep (§3.1): every combination of access rate,
// latency, loss, and buffer size, in both congestion scenarios, repeated.
// Produces the samples the classifier is trained on, with CSV caching so
// expensive sweeps run once per machine.
#pragma once

#include <string>
#include <vector>

#include "ml/dataset.h"
#include "obs/flow_telemetry.h"
#include "runtime/campaign.h"
#include "testbed/config.h"

namespace ccsig::testbed {

/// One completed test, reduced to what labeling and training need.
struct SweepSample {
  double norm_diff = 0;
  double cov = 0;
  double rtt_slope = 0;
  double rtt_iqr = 0;
  double slow_start_tput_bps = 0;
  double flow_tput_bps = 0;
  double access_capacity_bps = 0;
  int scenario = 0;  // CongestionClass encoding of the run's scenario
  // Provenance.
  double access_rate_mbps = 0;
  double access_latency_ms = 0;
  double access_loss = 0;
  double access_buffer_ms = 0;
};

/// What the sweep computes (every field but `telemetry` is fingerprinted)
/// plus how it executes (the CampaignOptions base, see runtime/campaign.h).
struct SweepOptions : runtime::CampaignOptions {
  std::vector<double> access_rates_mbps = {10, 20, 50};
  std::vector<double> access_latencies_ms = {20, 40};
  std::vector<double> access_losses = {0.0002, 0.0005};
  std::vector<double> access_buffers_ms = {20, 50, 100};
  int reps = 5;  // paper: 50 per combination (use --full for that)
  double scale = 0.1;
  sim::Duration test_duration = sim::from_seconds(5.0);
  sim::Duration warmup = sim::from_seconds(1.5);
  int tgcong_flows = 100;
  std::string congestion_control = "reno";
  std::uint64_t seed = 42;

  /// Optional telemetry sink attached to the FIRST run of the enumeration
  /// (the exemplar flow); all other runs stay untouched. Excluded from the
  /// fingerprint — purely observational, never changes sweep content.
  obs::FlowTelemetryRecorder* telemetry = nullptr;
};

/// Runs the full sweep; both scenarios for every combination.
std::vector<SweepSample> run_sweep(const SweepOptions& opt);

/// Labels the samples at `threshold` and builds the two-feature training
/// set (norm_diff, cov). `extended_features` adds rtt_slope and rtt_iqr
/// (for the feature-ablation bench). Filtered samples are skipped.
ml::Dataset make_dataset(const std::vector<SweepSample>& samples,
                         double threshold, bool extended_features = false);

/// Labels one sample at `threshold`; -1 when filtered.
int label_sample(const SweepSample& s, double threshold);

/// Canonical one-line digest of every option that affects sweep *content*
/// (grids, reps, scale, durations, cc, seed — no CampaignOptions field).
/// Embedded in cache CSVs so stale caches are detected and regenerated.
std::string sweep_fingerprint(const SweepOptions& opt);

/// The samples cache CSV: runtime::save_rows_csv / load_rows_csv with the
/// sweep's row format (see runtime/csv.h).
void save_samples_csv(const std::string& path,
                      const std::vector<SweepSample>& samples,
                      const std::string& fingerprint = "");
std::vector<SweepSample> load_samples_csv(const std::string& path,
                                          std::string* fingerprint_out =
                                              nullptr);

/// run_sweep behind the campaign cache: runtime::load_or_run_campaign.
std::vector<SweepSample> load_or_run_sweep(const std::string& cache_path,
                                           const SweepOptions& opt);

}  // namespace ccsig::testbed
