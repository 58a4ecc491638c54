#include "mlab/dispute2014.h"

#include <cmath>
#include <sstream>

#include "runtime/campaign.h"
#include "runtime/csv.h"
#include "sim/random.h"

namespace ccsig::mlab {

std::vector<TransitSite> dispute_sites() {
  return {
      {"Cogent", "LAX", true},
      {"Cogent", "LGA", true},
      {"Level3", "ATL", false},
  };
}

std::vector<AccessIsp> dispute_isps() {
  // Era-appropriate residential plan mixes (2014).
  return {
      {"Comcast", false, {10, 25, 50}, {0.25, 0.50, 0.25}},
      {"TimeWarner", false, {10, 15, 30}, {0.30, 0.45, 0.25}},
      {"Verizon", false, {15, 25, 50}, {0.25, 0.45, 0.30}},
      {"Cox", true, {10, 25, 50}, {0.25, 0.50, 0.25}},
  };
}

double diurnal_curve(int hour) {
  // Single evening peak at ~20:30 local, trough overnight — the canonical
  // residential traffic shape (and what Figure 5 exhibits).
  const double h = static_cast<double>(hour);
  const double d1 = h - 20.5;
  const double d2 = h + 24.0 - 20.5;  // wraparound for the small hours
  const double g = std::exp(-d1 * d1 / (2 * 4.5 * 4.5)) +
                   std::exp(-d2 * d2 / (2 * 4.5 * 4.5));
  return 0.3 + 0.7 * std::min(1.0, g);
}

bool dispute_active(const TransitSite& site, const AccessIsp& isp, int month) {
  return site.disputed && !isp.direct_peering && (month == 1 || month == 2);
}

NdtObservation run_planned_ndt(const PlannedNdt& p,
                               const Dispute2014Options& opt) {
  PathSim path(p.pc);
  path.warmup(opt.warmup);
  const NdtResult ndt = path.run_ndt(opt.ndt_duration);

  NdtObservation obs;
  obs.transit = p.transit;
  obs.site = p.site;
  obs.isp = p.isp;
  obs.month = p.month;
  obs.hour = p.hour;
  obs.plan_mbps = p.pc.plan_mbps;
  obs.throughput_mbps = ndt.throughput_bps / 1e6;
  obs.passes_filters = ndt.passes_mlab_filters;
  obs.truth_external = p.load > 1.0;
  if (ndt.features) {
    obs.has_features = true;
    obs.norm_diff = ndt.features->norm_diff;
    obs.cov = ndt.features->cov;
    obs.ss_tput_mbps = ndt.features->slow_start_throughput_bps / 1e6;
  }
  return obs;
}

namespace {

void append_ints(std::ostream& out, const std::vector<int>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out << '|';
    out << v[i];
  }
}

}  // namespace

std::string format_observation_row(const NdtObservation& o) {
  std::ostringstream out;
  out.precision(17);
  out << o.transit << ',' << o.site << ',' << o.isp << ',' << o.month << ','
      << o.hour << ',' << o.plan_mbps << ',' << o.throughput_mbps << ','
      << o.ss_tput_mbps << ',' << o.norm_diff << ',' << o.cov << ','
      << (o.has_features ? 1 : 0) << ',' << (o.passes_filters ? 1 : 0) << ','
      << (o.truth_external ? 1 : 0);
  return out.str();
}

NdtObservation parse_observation_row(const std::string& line,
                                     const std::string& file,
                                     std::uint64_t line_no) {
  runtime::CsvRow row(line, file, line_no);
  NdtObservation o;
  o.transit = row.next_string();
  o.site = row.next_string();
  o.isp = row.next_string();
  o.month = row.next_int();
  o.hour = row.next_int();
  o.plan_mbps = row.next_double();
  o.throughput_mbps = row.next_double();
  o.ss_tput_mbps = row.next_double();
  o.norm_diff = row.next_double();
  o.cov = row.next_double();
  o.has_features = row.next_bool01();
  o.passes_filters = row.next_bool01();
  o.truth_external = row.next_bool01();
  row.expect_end();
  return o;
}

const runtime::RowFormat<NdtObservation> kObservationRows{
    "dispute2014",
    "transit,site,isp,month,hour,plan_mbps,throughput_mbps,ss_tput_mbps,"
    "norm_diff,cov,has_features,passes_filters,truth_external",
    format_observation_row, parse_observation_row};

DisputePlanCursor::DisputePlanCursor(const Dispute2014Options& opt)
    : opt_(opt),
      sites_(dispute_sites()),
      isps_(dispute_isps()),
      rng_(opt.seed) {
  total_ = static_cast<std::uint64_t>(sites_.size()) * isps_.size() *
           opt_.months.size() * opt_.hours.size() *
           static_cast<std::uint64_t>(opt_.tests_per_cell);
}

std::optional<PlannedNdt> DisputePlanCursor::next() {
  if (si_ >= sites_.size()) return std::nullopt;
  const TransitSite& site = sites_[si_];
  const AccessIsp& isp = isps_[ii_];
  const int month = opt_.months[mi_];
  const int hour = opt_.hours[hi_];
  const double intensity = dispute_active(site, isp, month)
                               ? opt_.dispute_intensity
                               : opt_.normal_intensity;
  const double load = intensity * diurnal_curve(hour);

  // Exact draw order of the original serial pre-pass: plan, buffer,
  // latency, loss, then the per-test seed.
  PlannedNdt p;
  p.pc.plan_mbps = isp.plan_mbps[rng_.weighted_index(isp.plan_weights)];
  p.pc.access_buffer_ms = rng_.uniform(30.0, 120.0);
  p.pc.access_latency_ms = rng_.uniform(6.0, 18.0);
  p.pc.access_loss = rng_.uniform(0.0, 0.0003);
  p.pc.interconnect_mbps = opt_.interconnect_mbps;
  p.pc.interconnect_buffer_ms = opt_.interconnect_buffer_ms;
  p.pc.background_load = load;
  p.pc.ndt_cc = opt_.ndt_cc;
  p.pc.seed = rng_.next_u64();
  p.transit = site.transit;
  p.site = site.site;
  p.isp = isp.name;
  p.month = month;
  p.hour = hour;
  p.load = load;

  // Advance the odometer: tests innermost, then hour, month, isp, site —
  // the loop nest of the original pre-pass.
  if (++t_ >= opt_.tests_per_cell) {
    t_ = 0;
    if (++hi_ >= opt_.hours.size()) {
      hi_ = 0;
      if (++mi_ >= opt_.months.size()) {
        mi_ = 0;
        if (++ii_ >= isps_.size()) {
          ii_ = 0;
          ++si_;
        }
      }
    }
  }
  return p;
}

namespace {

runtime::Campaign<PlannedNdt, NdtObservation> dispute_campaign(
    const Dispute2014Options& opt) {
  DisputePlanCursor cursor(opt);
  std::vector<PlannedNdt> plan;
  plan.reserve(cursor.total());
  while (auto p = cursor.next()) plan.push_back(std::move(*p));
  return {std::move(plan),
          [opt](const PlannedNdt& p) { return run_planned_ndt(p, opt); },
          [](const PlannedNdt& p) { return p.pc.seed; },
          dispute_fingerprint(opt), &kObservationRows};
}

}  // namespace

std::vector<NdtObservation> generate_dispute2014(
    const Dispute2014Options& opt) {
  return runtime::run_campaign(dispute_campaign(opt), opt);
}

std::optional<int> dispute_coarse_label(const NdtObservation& obs) {
  const bool jan_feb = obs.month == 1 || obs.month == 2;
  const bool mar_apr = obs.month == 3 || obs.month == 4;
  const bool affected_combo = obs.transit == "Cogent" && obs.isp != "Cox";
  if (jan_feb && is_peak_hour(obs.hour) && affected_combo) {
    return 0;  // external
  }
  if (mar_apr && is_offpeak_hour(obs.hour)) {
    return 1;  // self-induced
  }
  return std::nullopt;
}

std::string dispute_fingerprint(const Dispute2014Options& opt) {
  std::ostringstream out;
  out.precision(17);
  out << "dispute2014-v1 tests_per_cell=" << opt.tests_per_cell << " months=";
  append_ints(out, opt.months);
  out << " hours=";
  append_ints(out, opt.hours);
  out << " interconnect=" << opt.interconnect_mbps
      << " ic_buffer=" << opt.interconnect_buffer_ms
      << " dispute_intensity=" << opt.dispute_intensity
      << " normal_intensity=" << opt.normal_intensity
      << " ndt=" << sim::to_seconds(opt.ndt_duration)
      << " warmup=" << sim::to_seconds(opt.warmup) << " seed=" << opt.seed;
  // Appended only when non-default: every cache fingerprinted before the
  // CC knob existed was generated with cubic and must keep verifying.
  if (opt.ndt_cc != "cubic") out << " cc=" << opt.ndt_cc;
  return out.str();
}

void save_observations_csv(const std::string& path,
                           const std::vector<NdtObservation>& obs,
                           const std::string& fingerprint) {
  runtime::save_rows_csv(path, obs, kObservationRows, fingerprint);
}

std::vector<NdtObservation> load_observations_csv(
    const std::string& path, std::string* fingerprint_out) {
  return runtime::load_rows_csv(path, kObservationRows, fingerprint_out);
}

std::vector<NdtObservation> load_or_generate_dispute2014(
    const std::string& cache_path, const Dispute2014Options& opt) {
  return runtime::load_or_run_campaign(cache_path, dispute_campaign(opt),
                                       opt);
}

}  // namespace ccsig::mlab
