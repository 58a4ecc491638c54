// The paper's targeted TSLP2017 experiment (§4.2): a client with a known
// 25 Mbps plan in a Comcast access network, an M-Lab server hosted by TATA
// in New York (~18 ms base RTT), and an interconnect whose far-side TSLP
// latency rises ~15 ms during occasional peak-hour congestion episodes.
// NDT tests run every 15 minutes during peak hours and hourly off-peak.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mlab/path.h"
#include "runtime/campaign.h"

namespace ccsig::mlab {

/// One measurement slot: TSLP probes plus (optionally) an NDT test, run
/// against the world state at that wall-clock time.
struct TslpObservation {
  int day = 0;
  int hour = 0;
  int minute = 0;
  double far_rtt_ms = -1;   // TSLP far-router RTT
  double near_rtt_ms = -1;  // TSLP near-router RTT
  bool ndt_ran = false;
  double throughput_mbps = 0;
  double min_flow_rtt_ms = 0;  // min RTT of the NDT flow itself
  double norm_diff = 0;
  double cov = 0;
  bool has_features = false;
  bool truth_external = false;  // interconnect demand > capacity in slot
};

/// What the campaign computes (fingerprinted) plus how it executes (the
/// CampaignOptions base, see runtime/campaign.h).
struct Tslp2017Options : runtime::CampaignOptions {
  int days = 5;
  double plan_mbps = 25.0;
  double base_one_way_ms = 8.0;          // ~18 ms RTT with router hops
  double access_buffer_ms = 20.0;        // §5.4: small buffers, ~15–20 ms
  double interconnect_mbps = 300.0;
  double interconnect_buffer_ms = 15.0;  // the observed ~15 ms latency rise
  /// Probability that a given peak-hour block (19–23h) is congested.
  double episode_probability = 0.3;
  double congested_load = 1.25;
  double normal_peak_load = 0.8;
  sim::Duration ndt_duration = sim::from_seconds(10.0);
  sim::Duration warmup = sim::from_seconds(2.0);
  /// Congestion control of the measured NDT flows (registry name or alias;
  /// see tcp/congestion_control.h). Appended to the fingerprint only when
  /// non-default so historical caches stay valid.
  std::string ndt_cc = "cubic";
  std::uint64_t seed = 2017;
};

/// Runs the multi-day campaign (one path snapshot per slot; peak slots every
/// 15 minutes, off-peak hourly, like the paper's schedule).
std::vector<TslpObservation> generate_tslp2017(const Tslp2017Options& opt);

/// The paper's §4.2/§5.4 labeling: throughput < 15 Mbps AND minimum flow
/// RTT > 30 ms -> external (0); throughput > 20 Mbps AND min RTT < 20 ms ->
/// self-induced (1); otherwise unlabeled (-1).
int tslp_label(const TslpObservation& obs);

/// One-line digest of every option affecting campaign content (no
/// CampaignOptions field); embedded in cache CSVs to invalidate stale caches.
std::string tslp_fingerprint(const Tslp2017Options& opt);

/// The TSLP cache CSV: runtime::save_rows_csv / load_rows_csv with the
/// TSLP row format (see runtime/csv.h).
void save_tslp_csv(const std::string& path,
                   const std::vector<TslpObservation>& obs,
                   const std::string& fingerprint = "");
std::vector<TslpObservation> load_tslp_csv(
    const std::string& path, std::string* fingerprint_out = nullptr);

/// generate_tslp2017 behind the campaign cache:
/// runtime::load_or_run_campaign.
std::vector<TslpObservation> load_or_generate_tslp2017(
    const std::string& cache_path, const Tslp2017Options& opt);

}  // namespace ccsig::mlab
