#include "testbed/sweep.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "mlab/dispute2014.h"
#include "mlab/tslp2017.h"
#include "runtime/fault_injection.h"

namespace ccsig::testbed {
namespace {

SweepSample sample(double ss_tput, double capacity, int scenario,
                   double nd = 0.5, double cov = 0.2) {
  SweepSample s;
  s.norm_diff = nd;
  s.cov = cov;
  s.rtt_slope = 0.1;
  s.rtt_iqr = 0.2;
  s.slow_start_tput_bps = ss_tput;
  s.access_capacity_bps = capacity;
  s.scenario = scenario;
  s.access_rate_mbps = capacity / 1e6;
  s.access_latency_ms = 20;
  s.access_loss = 0.0002;
  s.access_buffer_ms = 100;
  return s;
}

TEST(LabelSample, ConsistentRunsLabeled) {
  EXPECT_EQ(label_sample(sample(18e6, 20e6, 1), 0.8), 1);
  EXPECT_EQ(label_sample(sample(4e6, 20e6, 0), 0.8), 0);
}

TEST(LabelSample, InconsistentRunsFiltered) {
  EXPECT_EQ(label_sample(sample(18e6, 20e6, 0), 0.8), -1);
  EXPECT_EQ(label_sample(sample(4e6, 20e6, 1), 0.8), -1);
}

TEST(LabelSample, ThresholdMatters) {
  const SweepSample s = sample(15e6, 20e6, 1);  // 75% of capacity
  EXPECT_EQ(label_sample(s, 0.7), 1);
  EXPECT_EQ(label_sample(s, 0.8), -1);
}

TEST(MakeDataset, TwoFeatureRows) {
  std::vector<SweepSample> samples = {
      sample(18e6, 20e6, 1, 0.8, 0.4),
      sample(4e6, 20e6, 0, 0.2, 0.05),
      sample(18e6, 20e6, 0),  // filtered
  };
  const ml::Dataset d = make_dataset(samples, 0.8);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_EQ(d.feature_names()[0], "norm_diff");
  EXPECT_EQ(d.row(0)[0], 0.8);
  EXPECT_EQ(d.label(0), 1);
  EXPECT_EQ(d.label(1), 0);
}

TEST(MakeDataset, ExtendedFeaturesAddColumns) {
  std::vector<SweepSample> samples = {sample(18e6, 20e6, 1)};
  const ml::Dataset d = make_dataset(samples, 0.8, /*extended=*/true);
  EXPECT_EQ(d.num_features(), 4u);
  EXPECT_EQ(d.feature_names()[2], "rtt_slope");
  EXPECT_EQ(d.row(0)[3], 0.2);
}

TEST(SweepCsv, RoundTripPreservesEverything) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ccsig_sweep_rt.csv").string();
  std::vector<SweepSample> samples = {
      sample(18.25e6, 20e6, 1, 0.812345, 0.4321),
      sample(4.5e6, 50e6, 0, 0.1, 0.02),
  };
  save_samples_csv(path, samples);
  const auto loaded = load_samples_csv(path);
  std::filesystem::remove(path);
  ASSERT_EQ(loaded.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].norm_diff, samples[i].norm_diff);
    EXPECT_DOUBLE_EQ(loaded[i].cov, samples[i].cov);
    EXPECT_DOUBLE_EQ(loaded[i].slow_start_tput_bps,
                     samples[i].slow_start_tput_bps);
    EXPECT_EQ(loaded[i].scenario, samples[i].scenario);
    EXPECT_DOUBLE_EQ(loaded[i].access_buffer_ms, samples[i].access_buffer_ms);
  }
}

TEST(SweepCsv, RejectsUnknownHeader) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ccsig_sweep_bad.csv")
          .string();
  {
    std::ofstream out(path);
    out << "something,else\n1,2\n";
  }
  EXPECT_THROW(load_samples_csv(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(SweepCsv, MissingFileThrows) {
  EXPECT_THROW(load_samples_csv("/no/such/file.csv"), std::runtime_error);
}

TEST(SweepCsv, FingerprintRoundTrips) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ccsig_sweep_fp.csv").string();
  const std::vector<SweepSample> samples = {sample(18e6, 20e6, 1)};
  SweepOptions opt;
  const std::string fp = sweep_fingerprint(opt);
  save_samples_csv(path, samples, fp);
  std::string loaded_fp;
  const auto loaded = load_samples_csv(path, &loaded_fp);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded_fp, fp);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0].norm_diff, samples[0].norm_diff);
}

/// Sets every CampaignOptions field away from its default. Execution
/// settings must never reach a fingerprint, or changing --jobs would
/// invalidate every cache.
void set_every_execution_field(runtime::CampaignOptions& opt,
                               const runtime::FaultPlan& faults,
                               std::vector<runtime::JobError>& errors,
                               runtime::CampaignStats& stats) {
  opt.jobs = 16;
  opt.progress = [](std::size_t, std::size_t) {};
  opt.checkpoint_path = "elsewhere.ckpt";
  opt.checkpoint_every = 3;
  opt.faults = &faults;
  opt.errors_out = &errors;
  opt.stats_out = &stats;
}

TEST(SweepFingerprint, SensitiveToContentOptionsOnly) {
  const runtime::FaultPlan faults(5, runtime::FaultSpec{});
  std::vector<runtime::JobError> errors;
  runtime::CampaignStats stats;
  {
    mlab::Dispute2014Options a;
    mlab::Dispute2014Options b = a;
    set_every_execution_field(b, faults, errors, stats);
    EXPECT_EQ(mlab::dispute_fingerprint(a), mlab::dispute_fingerprint(b));
    b.tests_per_cell = a.tests_per_cell + 1;
    EXPECT_NE(mlab::dispute_fingerprint(a), mlab::dispute_fingerprint(b));
  }
  {
    mlab::Tslp2017Options a;
    mlab::Tslp2017Options b = a;
    set_every_execution_field(b, faults, errors, stats);
    EXPECT_EQ(mlab::tslp_fingerprint(a), mlab::tslp_fingerprint(b));
    b.days = a.days + 1;
    EXPECT_NE(mlab::tslp_fingerprint(a), mlab::tslp_fingerprint(b));
  }
  SweepOptions a;
  SweepOptions b = a;
  EXPECT_EQ(sweep_fingerprint(a), sweep_fingerprint(b));
  set_every_execution_field(b, faults, errors, stats);
  obs::FlowTelemetryRecorder telemetry;
  b.telemetry = &telemetry;  // observational only
  EXPECT_EQ(sweep_fingerprint(a), sweep_fingerprint(b));
  b.reps = a.reps + 1;
  EXPECT_NE(sweep_fingerprint(a), sweep_fingerprint(b));
  b = a;
  b.congestion_control = "cubic";
  EXPECT_NE(sweep_fingerprint(a), sweep_fingerprint(b));
  b = a;
  b.test_duration = a.test_duration * 2;
  EXPECT_NE(sweep_fingerprint(a), sweep_fingerprint(b));
  b = a;
  b.scale = a.scale * 2;
  EXPECT_NE(sweep_fingerprint(a), sweep_fingerprint(b));
}

// An empty parameter grid makes run_sweep a no-op, which lets the cache
// logic be tested without paying for simulations: a cached file that the
// current options could not have produced (it has rows) is the witness
// for "loaded from cache" vs "regenerated".
SweepOptions empty_grid_options(std::uint64_t seed) {
  SweepOptions opt;
  opt.access_rates_mbps.clear();
  opt.seed = seed;
  return opt;
}

TEST(LoadOrRunSweep, MatchingFingerprintLoadsCache) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ccsig_cache_match.csv")
          .string();
  const SweepOptions opt = empty_grid_options(1);
  save_samples_csv(path, {sample(18e6, 20e6, 1)}, sweep_fingerprint(opt));
  const auto got = load_or_run_sweep(path, opt);
  std::filesystem::remove(path);
  EXPECT_EQ(got.size(), 1u);  // cache hit; a real run would yield 0 samples
}

TEST(LoadOrRunSweep, LegacyCacheWithoutFingerprintTrusted) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ccsig_cache_legacy.csv")
          .string();
  save_samples_csv(path, {sample(18e6, 20e6, 1)});  // no fingerprint line
  const auto got = load_or_run_sweep(path, empty_grid_options(1));
  std::filesystem::remove(path);
  EXPECT_EQ(got.size(), 1u);
}

TEST(LoadOrRunSweep, StaleFingerprintRegenerates) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ccsig_cache_stale.csv")
          .string();
  save_samples_csv(path, {sample(18e6, 20e6, 1)},
                   sweep_fingerprint(empty_grid_options(1)));
  const SweepOptions changed = empty_grid_options(2);  // different seed
  const auto got = load_or_run_sweep(path, changed);
  EXPECT_TRUE(got.empty());  // regenerated: the empty grid produced nothing
  std::string fp;
  load_samples_csv(path, &fp);
  std::filesystem::remove(path);
  EXPECT_EQ(fp, sweep_fingerprint(changed));  // cache rewritten with new fp
}

TEST(LoadOrRunSweep, RegenerationWritesMetricsSidecar) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ccsig_cache_obs.csv")
          .string();
  const std::string sidecar = path + ".metrics.json";
  std::filesystem::remove(path);
  std::filesystem::remove(sidecar);
  const auto got = load_or_run_sweep(path, empty_grid_options(9));
  EXPECT_TRUE(got.empty());
  ASSERT_TRUE(std::filesystem::exists(sidecar));
  std::ifstream in(sidecar);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"fingerprint\":"), std::string::npos);
  EXPECT_NE(json.find("\"campaign\":{\"total_slots\":0"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{\"counters\":"), std::string::npos);
  std::filesystem::remove(path);
  std::filesystem::remove(sidecar);
}

TEST(RunSweep, TinySweepProducesLabeledSamples) {
  // One configuration, one reach, both scenarios — a smoke-level check
  // that the full machinery holds together.
  SweepOptions opt;
  opt.access_rates_mbps = {20};
  opt.access_latencies_ms = {20};
  opt.access_losses = {0.0002};
  opt.access_buffers_ms = {100};
  opt.reps = 1;
  opt.scale = 1.0;
  opt.test_duration = sim::from_seconds(3);
  opt.warmup = sim::from_seconds(1.5);
  opt.seed = 9;
  std::size_t progress_calls = 0;
  opt.progress = [&](std::size_t done, std::size_t total) {
    ++progress_calls;
    EXPECT_LE(done, total);
  };
  const auto samples = run_sweep(opt);
  EXPECT_EQ(progress_calls, 2u);  // 1 config x 2 scenarios x 1 rep
  EXPECT_LE(samples.size(), 2u);
  EXPECT_GE(samples.size(), 1u);
}

}  // namespace
}  // namespace ccsig::testbed
