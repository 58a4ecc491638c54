// Synthetic reconstruction of the paper's Dispute2014 M-Lab/NDT dataset
// (§4.1): NDT throughput tests from four access ISPs to three transit-hosted
// M-Lab sites across January–April 2014, spanning the Cogent peering
// dispute. Every observation is an actual simulated TCP flow through a
// two-bottleneck path whose interconnect load follows a diurnal curve; for
// the disputed combinations the evening peak exceeds capacity in Jan–Feb
// and is relieved in Mar–Apr (Comcast's Netflix agreement / Cogent's
// prioritization). Cox peered directly and is never affected.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mlab/path.h"
#include "runtime/campaign.h"
#include "runtime/csv.h"
#include "sim/random.h"

namespace ccsig::mlab {

struct TransitSite {
  std::string transit;  // "Cogent" / "Level3"
  std::string site;     // "LAX" / "LGA" / "ATL"
  bool disputed;        // carried the contested Netflix traffic
};

struct AccessIsp {
  std::string name;
  bool direct_peering;  // Cox: yes -> unaffected by the dispute
  std::vector<double> plan_mbps;
  std::vector<double> plan_weights;
};

/// The measured entities (paper §4.1).
std::vector<TransitSite> dispute_sites();
std::vector<AccessIsp> dispute_isps();

/// Diurnal interconnect demand multiplier for local hour h (0–23):
/// ~0.35 overnight, rising to 1.0 at the evening peak.
double diurnal_curve(int hour);

/// True when the (site, isp, month) combination suffered interconnect
/// congestion at peak (the dispute was active for non-peered ISPs through
/// Cogent in January–February).
bool dispute_active(const TransitSite& site, const AccessIsp& isp, int month);

struct NdtObservation {
  std::string transit;
  std::string site;
  std::string isp;
  int month = 1;  // 1..4 (Jan..Apr 2014)
  int hour = 0;   // local hour of day
  double plan_mbps = 0;
  double throughput_mbps = 0;
  double ss_tput_mbps = 0;
  double norm_diff = 0;
  double cov = 0;
  bool has_features = false;
  bool passes_filters = false;
  /// Ground truth: was the interconnect demand above capacity during the
  /// test? (Available here because we generated the world; the paper had
  /// to approximate this with coarse labels.)
  bool truth_external = false;
};

/// What the campaign computes (fingerprinted) plus how it executes (the
/// CampaignOptions base, see runtime/campaign.h).
struct Dispute2014Options : runtime::CampaignOptions {
  int tests_per_cell = 1;  // per (site, isp, month, hour)
  std::vector<int> months = {1, 2, 3, 4};
  std::vector<int> hours = {0, 1, 2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                            12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23};
  /// Interconnect capacity of the modeled (scaled-down) transit port.
  double interconnect_mbps = 300.0;
  double interconnect_buffer_ms = 25.0;
  /// Demand multiplier applied on top of the diurnal curve when the
  /// dispute is active (evening-peak load ≈ 1.2–1.35 × capacity).
  double dispute_intensity = 1.35;
  double normal_intensity = 0.75;
  sim::Duration ndt_duration = sim::from_seconds(10.0);
  sim::Duration warmup = sim::from_seconds(2.0);
  /// Congestion control of the measured NDT flows (registry name or alias;
  /// see tcp/congestion_control.h). Part of the cache fingerprint, appended
  /// only when it differs from the historical default so existing caches
  /// stay valid.
  std::string ndt_cc = "cubic";
  std::uint64_t seed = 2014;
};

/// Runs the campaign (one independent path simulation per observation).
std::vector<NdtObservation> generate_dispute2014(const Dispute2014Options& opt);

/// The paper's coarse labeling (§4.1): peak-hour (16–23h) Jan–Feb tests on
/// affected combinations are external; off-peak (1–8h) Mar–Apr tests are
/// self-induced; everything else is unlabeled. Returns the CongestionClass
/// encoding (0 external / 1 self) or nullopt.
std::optional<int> dispute_coarse_label(const NdtObservation& obs);

/// Peak / off-peak helpers matching the paper's windows.
inline bool is_peak_hour(int hour) { return hour >= 16 && hour <= 23; }
inline bool is_offpeak_hour(int hour) { return hour >= 1 && hour <= 8; }

/// One-line digest of every option affecting campaign content (no
/// CampaignOptions field); embedded in cache CSVs to invalidate stale caches.
std::string dispute_fingerprint(const Dispute2014Options& opt);

/// One fully-specified NDT test: the path it runs over plus the metadata
/// that identifies its cell. Built in a deterministic pre-pass (fixed
/// enumeration and RNG draw order), so campaign content never depends on
/// execution order, worker count, or chunking.
struct PlannedNdt {
  PathConfig pc;
  std::string transit;
  std::string site;
  std::string isp;
  int month = 0;
  int hour = 0;
  double load = 0;
};

/// Incremental enumeration of the campaign plan in the exact order (and
/// with the exact RNG draw sequence) of generate_dispute2014's serial
/// pre-pass. Lets the million-row scale driver (mlab/scale.h) walk an
/// arbitrarily large plan in O(1) memory — and, by calling next() past
/// already-completed rows, resume mid-campaign with bit-identical draws.
class DisputePlanCursor {
 public:
  explicit DisputePlanCursor(const Dispute2014Options& opt);
  /// Total plan size (cells × tests_per_cell).
  std::uint64_t total() const { return total_; }
  /// Next planned test, or nullopt when the plan is exhausted.
  std::optional<PlannedNdt> next();

 private:
  Dispute2014Options opt_;
  std::vector<TransitSite> sites_;
  std::vector<AccessIsp> isps_;
  sim::Rng rng_;
  std::uint64_t total_ = 0;
  std::size_t si_ = 0, ii_ = 0, mi_ = 0, hi_ = 0;
  int t_ = 0;
};

/// Runs one planned test through the full PathSim model (warmup + NDT) and
/// fills in the observation. Deterministic given `p.pc.seed`.
NdtObservation run_planned_ndt(const PlannedNdt& p,
                               const Dispute2014Options& opt);

/// The one precision-17 row formatter behind the cache CSV, the shard
/// checkpoint, and the binary row store's CSV export (mlab/rowstore.h):
/// every consumer sharing it is what makes kill/resume byte-reproducible.
std::string format_observation_row(const NdtObservation& o);
/// Inverse of format_observation_row; malformed input raises
/// runtime::ParseException against (`file`, `line_no`).
NdtObservation parse_observation_row(const std::string& line,
                                     const std::string& file,
                                     std::uint64_t line_no);
/// The observation row format: header line plus the two functions above.
extern const runtime::RowFormat<NdtObservation> kObservationRows;

/// The observations cache CSV: runtime::save_rows_csv / load_rows_csv
/// with kObservationRows.
void save_observations_csv(const std::string& path,
                           const std::vector<NdtObservation>& obs,
                           const std::string& fingerprint = "");
std::vector<NdtObservation> load_observations_csv(
    const std::string& path, std::string* fingerprint_out = nullptr);

/// generate_dispute2014 behind the campaign cache:
/// runtime::load_or_run_campaign.
std::vector<NdtObservation> load_or_generate_dispute2014(
    const std::string& cache_path, const Dispute2014Options& opt);

}  // namespace ccsig::mlab
