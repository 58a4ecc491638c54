#include "mlab/tslp2017.h"

#include <sstream>

#include "mlab/dispute2014.h"  // diurnal_curve
#include "runtime/campaign.h"
#include "runtime/csv.h"
#include "sim/random.h"

namespace ccsig::mlab {
namespace {

bool is_tslp_peak(int hour) { return hour >= 16 && hour <= 23; }

/// One measurement slot with its path fully specified (seed drawn in the
/// deterministic pre-pass), ready to run on any worker thread.
struct PlannedSlot {
  PathConfig pc;
  int day = 0;
  int hour = 0;
  int minute = 0;
  double load = 0;
};

TslpObservation run_planned_slot(const PlannedSlot& p,
                                 const Tslp2017Options& opt) {
  PathSim path(p.pc);
  path.warmup(opt.warmup);

  TslpObservation obs;
  obs.day = p.day;
  obs.hour = p.hour;
  obs.minute = p.minute;
  obs.truth_external = p.load > 1.0;
  obs.near_rtt_ms = sim::to_millis(path.probe_near());
  obs.far_rtt_ms = sim::to_millis(path.probe_far());

  const NdtResult ndt = path.run_ndt(opt.ndt_duration);
  obs.ndt_ran = true;
  obs.throughput_mbps = ndt.throughput_bps / 1e6;
  if (ndt.features) {
    obs.has_features = true;
    obs.norm_diff = ndt.features->norm_diff;
    obs.cov = ndt.features->cov;
    obs.min_flow_rtt_ms = ndt.features->min_rtt_ms;
  }
  return obs;
}

std::string format_tslp_row(const TslpObservation& o) {
  std::ostringstream out;
  out.precision(17);
  out << o.day << ',' << o.hour << ',' << o.minute << ',' << o.far_rtt_ms
      << ',' << o.near_rtt_ms << ',' << (o.ndt_ran ? 1 : 0) << ','
      << o.throughput_mbps << ',' << o.min_flow_rtt_ms << ',' << o.norm_diff
      << ',' << o.cov << ',' << (o.has_features ? 1 : 0) << ','
      << (o.truth_external ? 1 : 0);
  return out.str();
}

TslpObservation parse_tslp_row(const std::string& line,
                               const std::string& file,
                               std::uint64_t line_no) {
  runtime::CsvRow row(line, file, line_no);
  TslpObservation o;
  o.day = row.next_int();
  o.hour = row.next_int();
  o.minute = row.next_int();
  o.far_rtt_ms = row.next_double();
  o.near_rtt_ms = row.next_double();
  o.ndt_ran = row.next_bool01();
  o.throughput_mbps = row.next_double();
  o.min_flow_rtt_ms = row.next_double();
  o.norm_diff = row.next_double();
  o.cov = row.next_double();
  o.has_features = row.next_bool01();
  o.truth_external = row.next_bool01();
  row.expect_end();
  return o;
}

constexpr runtime::RowFormat<TslpObservation> kTslpRows{
    "tslp2017",
    "day,hour,minute,far_rtt_ms,near_rtt_ms,ndt_ran,throughput_mbps,"
    "min_flow_rtt_ms,norm_diff,cov,has_features,truth_external",
    format_tslp_row, parse_tslp_row};

runtime::Campaign<PlannedSlot, TslpObservation> tslp_campaign(
    const Tslp2017Options& opt) {
  sim::Rng rng(opt.seed);

  // Pre-draw the congestion episodes: each evening hour block 19–23 is
  // congested with the configured probability.
  std::vector<std::vector<bool>> congested(
      static_cast<std::size_t>(opt.days), std::vector<bool>(24, false));
  for (int d = 0; d < opt.days; ++d) {
    for (int h = 19; h <= 23; ++h) {
      congested[static_cast<std::size_t>(d)][static_cast<std::size_t>(h)] =
          rng.chance(opt.episode_probability);
    }
  }

  // Deterministic pre-pass: enumerate slots and draw their seeds in
  // schedule order, independent of which thread later runs them.
  std::vector<PlannedSlot> plan;
  for (int day = 0; day < opt.days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      const int slots = is_tslp_peak(hour) ? 4 : 1;  // 15 min vs hourly
      for (int s = 0; s < slots; ++s) {
        const bool episode =
            congested[static_cast<std::size_t>(day)]
                     [static_cast<std::size_t>(hour)];
        const double load = episode ? opt.congested_load
                                    : opt.normal_peak_load *
                                          diurnal_curve(hour);

        PlannedSlot p;
        p.pc.plan_mbps = opt.plan_mbps;
        p.pc.access_buffer_ms = opt.access_buffer_ms;
        p.pc.access_latency_ms = opt.base_one_way_ms;
        p.pc.interconnect_mbps = opt.interconnect_mbps;
        p.pc.interconnect_buffer_ms = opt.interconnect_buffer_ms;
        p.pc.background_load = load;
        p.pc.ndt_cc = opt.ndt_cc;
        p.pc.seed = rng.next_u64();
        p.day = day;
        p.hour = hour;
        p.minute = s * 15;
        p.load = load;
        plan.push_back(p);
      }
    }
  }

  return {std::move(plan),
          [opt](const PlannedSlot& p) { return run_planned_slot(p, opt); },
          [](const PlannedSlot& p) { return p.pc.seed; },
          tslp_fingerprint(opt), &kTslpRows};
}

}  // namespace

std::vector<TslpObservation> generate_tslp2017(const Tslp2017Options& opt) {
  return runtime::run_campaign(tslp_campaign(opt), opt);
}

int tslp_label(const TslpObservation& obs) {
  if (!obs.ndt_ran || !obs.has_features) return -1;
  if (obs.throughput_mbps < 15.0 && obs.min_flow_rtt_ms > 30.0) return 0;
  if (obs.throughput_mbps > 20.0 && obs.min_flow_rtt_ms < 20.0) return 1;
  return -1;
}

std::string tslp_fingerprint(const Tslp2017Options& opt) {
  std::ostringstream out;
  out.precision(17);
  out << "tslp2017-v1 days=" << opt.days << " plan=" << opt.plan_mbps
      << " base_owd=" << opt.base_one_way_ms
      << " access_buffer=" << opt.access_buffer_ms
      << " interconnect=" << opt.interconnect_mbps
      << " ic_buffer=" << opt.interconnect_buffer_ms
      << " episode_p=" << opt.episode_probability
      << " congested_load=" << opt.congested_load
      << " normal_peak_load=" << opt.normal_peak_load
      << " ndt=" << sim::to_seconds(opt.ndt_duration)
      << " warmup=" << sim::to_seconds(opt.warmup) << " seed=" << opt.seed;
  // Appended only when non-default so pre-knob caches keep verifying.
  if (opt.ndt_cc != "cubic") out << " cc=" << opt.ndt_cc;
  return out.str();
}

void save_tslp_csv(const std::string& path,
                   const std::vector<TslpObservation>& obs,
                   const std::string& fingerprint) {
  runtime::save_rows_csv(path, obs, kTslpRows, fingerprint);
}

std::vector<TslpObservation> load_tslp_csv(const std::string& path,
                                           std::string* fingerprint_out) {
  return runtime::load_rows_csv(path, kTslpRows, fingerprint_out);
}

std::vector<TslpObservation> load_or_generate_tslp2017(
    const std::string& cache_path, const Tslp2017Options& opt) {
  return runtime::load_or_run_campaign(cache_path, tslp_campaign(opt), opt);
}

}  // namespace ccsig::mlab
