// Differential test pinning the congestion-control refactor.
//
// The CC hook-interface refactor (DESIGN.md §15) must not change a single
// byte of simulated output for the pre-existing modules. This suite renders
// a randomized-but-deterministic grid of transfers, testbed TestResults
// (including pretrained-classifier verdicts), a flow-telemetry CSV, and a
// small sweep CSV into canonical precision-17 text and compares them to
// goldens committed *before* the refactor. It also re-derives the
// fingerprints embedded in the committed bench_cache CSVs from the same
// options bench_common.h uses, so a silent fingerprint change (which would
// invalidate every cached campaign) fails here instead of in a bench run.
//
// Regenerating goldens (only legitimate when simulator semantics change on
// purpose): CCSIG_UPDATE_GOLDENS=1 ./tcp_refactor_equivalence_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "mlab/dispute2014.h"
#include "mlab/tslp2017.h"
#include "obs/flow_telemetry.h"
#include "test_helpers.h"
#include "testbed/experiment.h"
#include "testbed/sweep.h"

#ifndef CCSIG_GOLDEN_DIR
#error "CCSIG_GOLDEN_DIR must be defined (see tests/CMakeLists.txt)"
#endif
#ifndef CCSIG_REPO_DIR
#error "CCSIG_REPO_DIR must be defined (see tests/CMakeLists.txt)"
#endif

namespace ccsig {
namespace {

bool update_goldens() {
  const char* env = std::getenv("CCSIG_UPDATE_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string golden_path(const std::string& name) {
  return std::string(CCSIG_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Compares `actual` against the committed golden, or rewrites the golden
/// in update mode. Byte comparison: a one-ULP drift anywhere fails.
void expect_matches_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (update_goldens()) {
    std::filesystem::create_directories(CCSIG_GOLDEN_DIR);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed writing golden " << path;
    return;
  }
  const std::string expected = read_file(path);
  // EXPECT_EQ on multi-KB strings prints an unreadable diff; locate the
  // first divergent line instead.
  if (actual == expected) return;
  std::istringstream got(actual), want(expected);
  std::string got_line, want_line;
  int line = 0;
  while (true) {
    ++line;
    const bool g = static_cast<bool>(std::getline(got, got_line));
    const bool w = static_cast<bool>(std::getline(want, want_line));
    if (!g && !w) break;
    if (got_line != want_line || g != w) {
      FAIL() << name << " diverges from golden at line " << line
             << "\n  golden: " << (w ? want_line : "<eof>")
             << "\n  actual: " << (g ? got_line : "<eof>");
    }
  }
  FAIL() << name << " differs from golden (sizes " << actual.size() << " vs "
         << expected.size() << ")";
}

// ---------------------------------------------------------------------------
// Golden 1: a grid of finite transfers over assorted link shapes × CC × seed.
// Everything observable from the sender's Stats is rendered; any change in
// packet timing, loss recovery, or window evolution shows up here.

struct LinkShape {
  double rate_mbps, delay_ms, buffer_ms, loss;
};

std::string render_transfer_grid() {
  // Shapes chosen to cover: clean deep buffer, shallow lossy, high-BDP,
  // and fast short-RTT paths — the regimes where CC modules diverge most.
  const LinkShape shapes[] = {
      {10, 10, 25, 0.0},
      {5, 20, 50, 0.001},
      {20, 40, 100, 0.0005},
      {50, 5, 15, 0.0},
  };
  const char* ccs[] = {"reno", "cubic", "bbr"};

  std::ostringstream out;
  out.precision(17);
  out << "# transfer grid: shape x cc x seed, sender stats\n";
  int idx = 0;
  for (const LinkShape& shape : shapes) {
    for (const char* cc : ccs) {
      const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(idx);
      const std::uint64_t bytes = 200'000 + 25'000 * (idx % 5);
      testutil::TwoNodePath path(
          testutil::basic_link(shape.rate_mbps * 1e6, shape.delay_ms,
                               shape.buffer_ms, shape.loss),
          seed);
      const auto r = testutil::run_transfer(path, bytes, cc);
      const auto& s = r.source_stats;
      out << "shape=" << shape.rate_mbps << "/" << shape.delay_ms << "/"
          << shape.buffer_ms << "/" << shape.loss << " cc=" << cc
          << " seed=" << seed << " bytes=" << bytes
          << " completed=" << (r.completed ? 1 : 0)
          << " at=" << sim::to_seconds(r.completed_at)
          << " sent=" << s.bytes_sent << " acked=" << s.bytes_acked
          << " segs=" << s.segments_sent << " retx=" << s.retransmits
          << " fast=" << s.fast_retransmits << " rto=" << s.timeouts
          << " min_rtt=" << sim::to_seconds(s.min_rtt)
          << " srtt=" << sim::to_seconds(s.smoothed_rtt)
          << " cwnd=" << s.cwnd_bytes << " ssthresh=" << s.ssthresh_bytes
          << " cong_t=" << sim::to_seconds(s.time_congestion_limited)
          << " rwnd_t=" << sim::to_seconds(s.time_receiver_limited)
          << " app_t=" << sim::to_seconds(s.time_application_limited) << "\n";
      ++idx;
    }
  }
  return out.str();
}

TEST(TcpRefactorEquivalence, TransferGridMatchesGolden) {
  expect_matches_golden("transfer_grid.txt", render_transfer_grid());
}

// ---------------------------------------------------------------------------
// Golden 2: full testbed TestResults (both scenarios × pre-refactor CC
// modules), including the pretrained model's verdicts — this is the
// "pretrained-model predictions byte-identical" acceptance criterion.

std::string render_testbed_results() {
  const char* ccs[] = {"reno", "cubic", "bbr"};
  const testbed::Scenario scenarios[] = {testbed::Scenario::kSelfInduced,
                                         testbed::Scenario::kExternal};
  const auto& clf = CongestionClassifier::pretrained();

  std::ostringstream out;
  out.precision(17);
  out << "# testbed results: scenario x cc, quick config\n";
  std::uint64_t seed = 71;
  for (const testbed::Scenario scenario : scenarios) {
    for (const char* cc : ccs) {
      testbed::TestbedConfig cfg = testutil::quick_testbed_config(
          scenario, seed++);
      cfg.congestion_control = cc;
      const testbed::TestResult r = testbed::run_testbed_experiment(cfg);
      out << "scenario="
          << (scenario == testbed::Scenario::kExternal ? "external" : "self")
          << " cc=" << cc << " seed=" << seed - 1
          << " tput=" << r.receiver_throughput_bps
          << " cap=" << r.access_capacity_bps
          << " cross=" << r.cross_traffic_bytes
          << " segs=" << r.web100.segments_sent
          << " retx=" << r.web100.retransmits
          << " fast=" << r.web100.fast_retransmits
          << " rto=" << r.web100.timeouts
          << " srtt=" << sim::to_seconds(r.web100.smoothed_rtt);
      if (r.features) {
        const auto v = clf.classify(*r.features);
        out << " norm_diff=" << r.features->norm_diff
            << " cov=" << r.features->cov
            << " rtt_slope=" << r.features->rtt_slope
            << " rtt_iqr=" << r.features->rtt_iqr
            << " rtt_samples=" << r.features->rtt_samples
            << " min_rtt_ms=" << r.features->min_rtt_ms
            << " max_rtt_ms=" << r.features->max_rtt_ms
            << " ss_tput=" << r.features->slow_start_throughput_bps
            << " flow_tput=" << r.features->flow_throughput_bps
            << " verdict=" << to_string(v.verdict)
            << " confidence=" << v.confidence;
      } else {
        out << " features=unavailable";
      }
      out << "\n";
    }
  }
  return out.str();
}

TEST(TcpRefactorEquivalence, TestbedResultsMatchGolden) {
  expect_matches_golden("testbed_results.txt", render_testbed_results());
}

// ---------------------------------------------------------------------------
// Golden 3: the flow-telemetry CSV of one lossy transfer — pins the exact
// per-ACK cwnd/ssthresh/pipe sequence the refactored hooks must reproduce.

std::string render_flow_telemetry() {
  obs::FlowTelemetryRecorder telemetry;
  testutil::TwoNodePath path(testutil::basic_link(8e6, 15, 30, 0.002), 5);
  const sim::FlowKey key = path.flow_key();

  tcp::TcpSink::Config sink_cfg;
  sink_cfg.data_key = key;
  tcp::TcpSink sink(path.net.sim(), path.client, sink_cfg);

  tcp::TcpSource::Config src_cfg;
  src_cfg.key = key;
  src_cfg.bytes_to_send = 400'000;
  src_cfg.congestion_control = "cubic";
  src_cfg.telemetry = &telemetry;
  tcp::TcpSource source(path.net.sim(), path.server, src_cfg);
  source.start();
  path.net.sim().run_until(sim::from_seconds(120));
  return telemetry.to_csv();
}

TEST(TcpRefactorEquivalence, FlowTelemetryMatchesGolden) {
#ifdef CCSIG_OBS_OFF
  // The recorder records nothing in this mode: its CSV is the header only.
  EXPECT_EQ(render_flow_telemetry(),
            "time_s,event,cwnd_bytes,ssthresh_bytes,pipe_bytes,srtt_s,"
            "retransmits\n");
#else
  expect_matches_golden("flow_telemetry.csv", render_flow_telemetry());
#endif
}

// ---------------------------------------------------------------------------
// Golden 4: a small sweep rendered through the real cache-CSV writer
// (fingerprint line included), at jobs=1 and jobs=4 — covers the sweep
// row formatter, the fingerprint, and parallel determinism in one shot.

testbed::SweepOptions small_sweep_options(int jobs) {
  testbed::SweepOptions opt;
  opt.access_rates_mbps = {10};
  opt.access_latencies_ms = {20};
  opt.access_losses = {0.0002};
  opt.access_buffers_ms = {20, 50};
  opt.reps = 1;
  opt.scale = 0.1;
  opt.test_duration = sim::from_seconds(2.0);
  opt.warmup = sim::from_seconds(1.0);
  opt.seed = 7;
  opt.jobs = jobs;
  return opt;
}

std::string render_sweep_csv(int jobs) {
  const testbed::SweepOptions opt = small_sweep_options(jobs);
  const auto samples = testbed::run_sweep(opt);
  const std::string tmp =
      (std::filesystem::temp_directory_path() / "ccsig_equiv_sweep.csv")
          .string();
  testbed::save_samples_csv(tmp, samples, testbed::sweep_fingerprint(opt));
  std::string text = read_file(tmp);
  std::filesystem::remove(tmp);
  return text;
}

TEST(TcpRefactorEquivalence, SweepRowsMatchGoldenAtAnyJobs) {
  const std::string serial = render_sweep_csv(1);
  expect_matches_golden("sweep_rows.csv", serial);
  EXPECT_EQ(serial, render_sweep_csv(4))
      << "sweep output depends on worker count";
}

// ---------------------------------------------------------------------------
// Fingerprint pins: the options bench_common.h reconstructs must still
// fingerprint to the exact lines embedded in the committed bench_cache
// CSVs, otherwise every cached campaign silently regenerates (and any new
// config knob that leaked into the fingerprint would do exactly that).

std::string embedded_fingerprint(const std::string& cache_file) {
  std::ifstream in(std::string(CCSIG_REPO_DIR) + "/bench_cache/" + cache_file);
  EXPECT_TRUE(in.is_open()) << "missing bench_cache/" << cache_file;
  std::string line;
  std::getline(in, line);
  const std::string prefix = "# options: ";
  EXPECT_EQ(line.rfind(prefix, 0), 0u) << cache_file << ": " << line;
  return line.substr(prefix.size());
}

TEST(TcpRefactorEquivalence, SweepCacheFingerprintUnchanged) {
  // bench_common.h standard_sweep at default reps (3).
  testbed::SweepOptions sweep;
  sweep.scale = 1.0;
  sweep.reps = 3;
  sweep.test_duration = sim::from_seconds(5.0);
  sweep.warmup = sim::from_seconds(2.5);
  EXPECT_EQ(testbed::sweep_fingerprint(sweep),
            embedded_fingerprint("testbed_sweep_r3.csv"));
}

TEST(TcpRefactorEquivalence, Dispute2014CacheFingerprintUnchanged) {
  // bench_common.h standard_dispute2014 at default reps (1, even hours).
  mlab::Dispute2014Options campaign;
  campaign.tests_per_cell = 1;
  campaign.ndt_duration = sim::from_seconds(6.0);
  campaign.hours = {0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22};
  EXPECT_EQ(mlab::dispute_fingerprint(campaign),
            embedded_fingerprint("dispute2014_t1.csv"));
}

TEST(TcpRefactorEquivalence, Tslp2017CacheFingerprintsUnchanged) {
  // bench_common.h standard_tslp2017 at 4 and 6 days.
  for (const int days : {4, 6}) {
    mlab::Tslp2017Options campaign;
    campaign.days = days;
    campaign.ndt_duration = sim::from_seconds(6.0);
    campaign.episode_probability = 0.4;
    EXPECT_EQ(mlab::tslp_fingerprint(campaign),
              embedded_fingerprint("tslp2017_d" + std::to_string(days) +
                                   ".csv"));
  }
}

}  // namespace
}  // namespace ccsig
