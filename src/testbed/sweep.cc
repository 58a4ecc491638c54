#include "testbed/sweep.h"

#include <optional>
#include <sstream>

#include "runtime/campaign.h"
#include "runtime/csv.h"
#include "sim/random.h"
#include "testbed/experiment.h"
#include "testbed/labeler.h"

namespace ccsig::testbed {

namespace {
void append_doubles(std::ostream& out, const std::vector<double>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out << '|';
    out << v[i];
  }
}

std::string format_sample_row(const SweepSample& s) {
  std::ostringstream out;
  out.precision(17);
  out << s.norm_diff << ',' << s.cov << ',' << s.rtt_slope << ','
      << s.rtt_iqr << ',' << s.slow_start_tput_bps << ',' << s.flow_tput_bps
      << ',' << s.access_capacity_bps << ',' << s.scenario << ','
      << s.access_rate_mbps << ',' << s.access_latency_ms << ','
      << s.access_loss << ',' << s.access_buffer_ms;
  return out.str();
}

SweepSample parse_sample_row(const std::string& line, const std::string& file,
                             std::uint64_t line_no) {
  runtime::CsvRow row(line, file, line_no);
  SweepSample s;
  s.norm_diff = row.next_double();
  s.cov = row.next_double();
  s.rtt_slope = row.next_double();
  s.rtt_iqr = row.next_double();
  s.slow_start_tput_bps = row.next_double();
  s.flow_tput_bps = row.next_double();
  s.access_capacity_bps = row.next_double();
  s.scenario = row.next_int();
  s.access_rate_mbps = row.next_double();
  s.access_latency_ms = row.next_double();
  s.access_loss = row.next_double();
  s.access_buffer_ms = row.next_double();
  row.expect_end();
  return s;
}

constexpr runtime::RowFormat<SweepSample> kSampleRows{
    "sweep",
    "norm_diff,cov,rtt_slope,rtt_iqr,slow_start_tput_bps,flow_tput_bps,"
    "access_capacity_bps,scenario,access_rate_mbps,access_latency_ms,"
    "access_loss,access_buffer_ms",
    format_sample_row, parse_sample_row};

/// Runs one grid point and reduces it to its sample; nullopt when the
/// features are unavailable.
std::optional<SweepSample> run_one(const TestbedConfig& cfg) {
  const TestResult r = run_testbed_experiment(cfg);
  if (!r.features) return std::nullopt;
  SweepSample s;
  s.norm_diff = r.features->norm_diff;
  s.cov = r.features->cov;
  s.rtt_slope = r.features->rtt_slope;
  s.rtt_iqr = r.features->rtt_iqr;
  s.slow_start_tput_bps = r.features->slow_start_throughput_bps;
  s.flow_tput_bps = r.receiver_throughput_bps;
  s.access_capacity_bps = r.access_capacity_bps;
  s.scenario = static_cast<int>(cfg.scenario == Scenario::kExternal
                                    ? CongestionClass::kExternal
                                    : CongestionClass::kSelfInduced);
  s.access_rate_mbps = cfg.access_rate_mbps;
  s.access_latency_ms = cfg.access_latency_ms;
  s.access_loss = cfg.access_loss;
  s.access_buffer_ms = cfg.access_buffer_ms;
  return s;
}

/// The sweep as a campaign. Deterministic pre-pass: enumerate the grid in
/// the canonical order and draw every run's seed up front. A run's seed
/// depends only on its slot in the enumeration — never on execution order
/// — so the parallel sweep reproduces the serial one exactly, and a
/// resumed sweep reproduces an uninterrupted one.
runtime::Campaign<TestbedConfig, SweepSample> sweep_campaign(
    const SweepOptions& opt) {
  std::vector<TestbedConfig> runs;
  runs.reserve(opt.access_rates_mbps.size() * opt.access_latencies_ms.size() *
               opt.access_losses.size() * opt.access_buffers_ms.size() * 2 *
               static_cast<std::size_t>(opt.reps));
  sim::Rng seeder(opt.seed);
  for (double rate : opt.access_rates_mbps) {
    for (double latency : opt.access_latencies_ms) {
      for (double loss : opt.access_losses) {
        for (double buffer : opt.access_buffers_ms) {
          for (Scenario scenario :
               {Scenario::kSelfInduced, Scenario::kExternal}) {
            for (int rep = 0; rep < opt.reps; ++rep) {
              TestbedConfig cfg;
              cfg.scale = opt.scale;
              cfg.access_rate_mbps = rate;
              cfg.access_latency_ms = latency;
              cfg.access_loss = loss;
              cfg.access_buffer_ms = buffer;
              cfg.scenario = scenario;
              cfg.tgcong_flows = opt.tgcong_flows;
              cfg.test_duration = opt.test_duration;
              cfg.warmup = opt.warmup;
              cfg.congestion_control = opt.congestion_control;
              cfg.seed = seeder.next_u64();
              runs.push_back(cfg);
            }
          }
        }
      }
    }
  }

  // The telemetry sink rides on the first run only: one exemplar cwnd/RTT
  // trajectory per sweep without recording thousands of flows.
  if (opt.telemetry && !runs.empty()) runs.front().telemetry = opt.telemetry;

  return {std::move(runs), run_one,
          [](const TestbedConfig& cfg) { return cfg.seed; },
          sweep_fingerprint(opt), &kSampleRows};
}

}  // namespace

std::vector<SweepSample> run_sweep(const SweepOptions& opt) {
  return runtime::run_campaign(sweep_campaign(opt), opt);
}

int label_sample(const SweepSample& s, double threshold) {
  const bool reached = reached_capacity(s.slow_start_tput_bps,
                                        s.access_capacity_bps, threshold);
  const bool external_run =
      s.scenario == static_cast<int>(CongestionClass::kExternal);
  if (reached) {
    return external_run ? -1
                        : static_cast<int>(CongestionClass::kSelfInduced);
  }
  return external_run ? static_cast<int>(CongestionClass::kExternal) : -1;
}

ml::Dataset make_dataset(const std::vector<SweepSample>& samples,
                         double threshold, bool extended_features) {
  std::vector<std::string> names = {"norm_diff", "cov"};
  if (extended_features) {
    names.push_back("rtt_slope");
    names.push_back("rtt_iqr");
  }
  ml::Dataset data(names);
  for (const SweepSample& s : samples) {
    const int label = label_sample(s, threshold);
    if (label < 0) continue;
    std::vector<double> row = {s.norm_diff, s.cov};
    if (extended_features) {
      row.push_back(s.rtt_slope);
      row.push_back(s.rtt_iqr);
    }
    data.add(std::move(row), label);
  }
  return data;
}

std::string sweep_fingerprint(const SweepOptions& opt) {
  std::ostringstream out;
  out.precision(17);
  out << "sweep-v1 rates=";
  append_doubles(out, opt.access_rates_mbps);
  out << " latencies=";
  append_doubles(out, opt.access_latencies_ms);
  out << " losses=";
  append_doubles(out, opt.access_losses);
  out << " buffers=";
  append_doubles(out, opt.access_buffers_ms);
  out << " reps=" << opt.reps << " scale=" << opt.scale
      << " duration=" << sim::to_seconds(opt.test_duration)
      << " warmup=" << sim::to_seconds(opt.warmup)
      << " tgcong_flows=" << opt.tgcong_flows
      << " cc=" << opt.congestion_control << " seed=" << opt.seed;
  return out.str();
}

void save_samples_csv(const std::string& path,
                      const std::vector<SweepSample>& samples,
                      const std::string& fingerprint) {
  runtime::save_rows_csv(path, samples, kSampleRows, fingerprint);
}

std::vector<SweepSample> load_samples_csv(const std::string& path,
                                          std::string* fingerprint_out) {
  return runtime::load_rows_csv(path, kSampleRows, fingerprint_out);
}

std::vector<SweepSample> load_or_run_sweep(const std::string& cache_path,
                                           const SweepOptions& opt) {
  return runtime::load_or_run_campaign(cache_path, sweep_campaign(opt), opt);
}

}  // namespace ccsig::testbed
