// Kill/resume and fault-recovery guarantees of the checkpointed campaign
// harness: an interrupted campaign resumed from its shard checkpoint must
// produce a final CSV byte-identical to an uninterrupted run, at any job
// count, and injected faults must surface as structured per-job errors.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mlab/dispute2014.h"
#include "runtime/campaign.h"
#include "runtime/fault_injection.h"
#include "testbed/sweep.h"

namespace ccsig {
namespace {

namespace fs = std::filesystem;
using runtime::CheckpointedRunOptions;
using runtime::FaultPlan;
using runtime::FaultSpec;
using runtime::JobError;
using runtime::RetryPolicy;
using runtime::run_checkpointed;

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("ccsig_resume_" + std::to_string(counter_++)))
               .string();
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string file(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  static std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  static int counter_;
  std::string dir_;
};

int ResumeTest::counter_ = 0;

std::vector<int> iota_items(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

std::string ser_int(const int& x) { return std::to_string(x); }
int de_int(const std::string& s) { return std::stoi(s); }

TEST_F(ResumeTest, CompletedSlotsAreNotRerunAfterInterruption) {
  const auto items = iota_items(10);
  CheckpointedRunOptions opt;
  opt.checkpoint_path = file("harness.ckpt");
  opt.fingerprint = "fp-v1";
  opt.checkpoint_every = 1;
  opt.seed_of = [](std::size_t slot) { return 500 + slot; };
  std::vector<JobError> errors;
  opt.errors_out = &errors;

  // Phase 1: every odd item fails permanently — the campaign survives,
  // keeps the even rows in its checkpoint, and reports the failures.
  const auto partial = run_checkpointed(
      items,
      [](const int& x) -> int {
        if (x % 2 == 1) throw std::runtime_error("boom " + std::to_string(x));
        return x * 7;
      },
      ser_int, de_int, opt);
  ASSERT_EQ(partial.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(partial[static_cast<std::size_t>(i)].has_value(), i % 2 == 0);
  }
  ASSERT_EQ(errors.size(), 5u);
  for (const auto& e : errors) {
    EXPECT_EQ(e.index % 2, 1u);
    EXPECT_EQ(e.seed, 500 + e.index);
    EXPECT_EQ(e.attempts, 1);
    EXPECT_NE(e.message.find("boom"), std::string::npos);
  }
  ASSERT_TRUE(fs::exists(opt.checkpoint_path));

  // Phase 2: the fault is gone. Only the 5 failed slots may run again.
  std::atomic<int> executed{0};
  opt.errors_out = nullptr;
  const auto full = run_checkpointed(
      items,
      [&executed](const int& x) -> int {
        ++executed;
        return x * 7;
      },
      ser_int, de_int, opt);
  EXPECT_EQ(executed.load(), 5);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(full[static_cast<std::size_t>(i)].has_value());
    EXPECT_EQ(*full[static_cast<std::size_t>(i)], i * 7);
  }
  // Complete run: the checkpoint has served its purpose and is gone.
  EXPECT_FALSE(fs::exists(opt.checkpoint_path));
}

TEST_F(ResumeTest, StaleOrDamagedCheckpointRowsAreRerunNotTrusted) {
  {
    std::ofstream out(file("stale.ckpt"));
    out << "# checkpoint: some-other-options\n0\t999\n1\t999\n";
  }
  {
    std::ofstream out(file("damaged.ckpt"));
    out << "# checkpoint: fp-v1\n0\tnot-a-number\n1\t11\n";
  }
  {
    // Slot keys that are not plain decimals never name slot 1.
    std::ofstream out(file("bad-keys.ckpt"));
    out << "# checkpoint: fp-v1\n1x\t999\n 1\t999\n+1\t999\n";
  }
  for (const char* name : {"stale.ckpt", "damaged.ckpt", "bad-keys.ckpt"}) {
    CheckpointedRunOptions opt;
    opt.checkpoint_path = file(name);
    opt.fingerprint = "fp-v1";
    std::atomic<int> executed{0};
    const auto out = run_checkpointed(
        iota_items(2),
        [&executed](const int& x) -> int {
          ++executed;
          return x * 11;
        },
        ser_int, de_int, opt);
    // Stale file or damaged keys: both slots re-run. Damaged row: slot 0
    // re-runs, slot 1 (whose row parses) is reused.
    const bool damaged = std::string(name) == "damaged.ckpt";
    EXPECT_EQ(executed.load(), damaged ? 1 : 2) << name;
    ASSERT_TRUE(out[0].has_value());
    ASSERT_TRUE(out[1].has_value());
    EXPECT_EQ(*out[0], 0);
    EXPECT_EQ(*out[1], 11);
  }
}

TEST_F(ResumeTest, CheckpointWriteFaultIsRetriedTransparently) {
  // Every slot's FIRST checkpoint-record attempt fails (injected I/O
  // fault); the supervising retry re-runs the job and the second record
  // succeeds. The campaign completes with no errors.
  FaultSpec spec;
  spec.io_fail_rate = 1.0;
  const FaultPlan faults(21, spec);
  CheckpointedRunOptions opt;
  opt.checkpoint_path = file("io.ckpt");
  opt.fingerprint = "fp-io";
  opt.faults = &faults;
  std::vector<JobError> errors;
  opt.errors_out = &errors;
  std::atomic<int> executed{0};
  const auto out = run_checkpointed(
      iota_items(6),
      [&executed](const int& x) -> int {
        ++executed;
        return x + 100;
      },
      ser_int, de_int, opt);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(executed.load(), 12);  // each job ran twice
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(out[static_cast<std::size_t>(i)].has_value());
    EXPECT_EQ(*out[static_cast<std::size_t>(i)], i + 100);
  }
  EXPECT_FALSE(fs::exists(opt.checkpoint_path));
}

TEST_F(ResumeTest, CommitOutDefersCheckpointRemovalUntilCallerCommits) {
  const auto items = iota_items(4);
  CheckpointedRunOptions opt;
  opt.checkpoint_path = file("commit.ckpt");
  opt.fingerprint = "fp-commit";
  opt.checkpoint_every = 1;
  std::function<void()> commit;
  opt.commit_out = &commit;
  const auto out = run_checkpointed(
      items, [](const int& x) -> int { return x * 2; }, ser_int, de_int, opt);
  for (const auto& o : out) ASSERT_TRUE(o.has_value());
  // Full success with a deferred commit: the checkpoint survives until the
  // caller has written its final artifact and invokes the callback.
  EXPECT_TRUE(fs::exists(opt.checkpoint_path));
  ASSERT_TRUE(static_cast<bool>(commit));
  commit();
  EXPECT_FALSE(fs::exists(opt.checkpoint_path));
}

TEST_F(ResumeTest, CommitOutLeftEmptyOnPartialFailure) {
  const auto items = iota_items(4);
  CheckpointedRunOptions opt;
  opt.checkpoint_path = file("commit_fail.ckpt");
  opt.fingerprint = "fp-commit";
  opt.checkpoint_every = 1;
  std::function<void()> commit = [] {};  // must be cleared, not left stale
  opt.commit_out = &commit;
  const auto out = run_checkpointed(
      items,
      [](const int& x) -> int {
        if (x == 2) throw std::runtime_error("boom");
        return x * 2;
      },
      ser_int, de_int, opt);
  EXPECT_FALSE(out[2].has_value());
  EXPECT_FALSE(static_cast<bool>(commit));
  EXPECT_TRUE(fs::exists(opt.checkpoint_path));
}

testbed::SweepOptions tiny_sweep() {
  testbed::SweepOptions opt;
  opt.access_rates_mbps = {20};
  opt.access_latencies_ms = {20};
  opt.access_losses = {0.0002};
  opt.access_buffers_ms = {100};
  opt.reps = 1;
  opt.scale = 1.0;
  opt.test_duration = sim::from_seconds(3);
  opt.warmup = sim::from_seconds(1.5);
  opt.seed = 9;
  return opt;
}

/// A seed whose fault plan kills exactly one of the two sweep slots on the
/// first attempt — a deterministic stand-in for an arbitrary mid-sweep kill.
std::uint64_t seed_killing_one_of_two(const FaultSpec& spec) {
  for (std::uint64_t seed = 1; seed < 1000; ++seed) {
    const FaultPlan plan(seed, spec);
    if (plan.plans_permanent(0, 1) != plan.plans_permanent(1, 1)) return seed;
  }
  ADD_FAILURE() << "no seed kills exactly one slot";
  return 0;
}

TEST_F(ResumeTest, InterruptedSweepResumesByteIdentical) {
  const std::string baseline_csv = file("baseline.csv");
  const auto baseline = testbed::run_sweep(tiny_sweep());
  testbed::save_samples_csv(baseline_csv, baseline,
                            testbed::sweep_fingerprint(tiny_sweep()));
  const std::string want = read_file(baseline_csv);

  FaultSpec spec;
  spec.permanent_rate = 0.5;
  const std::uint64_t fault_seed = seed_killing_one_of_two(spec);

  for (int jobs : {1, 2}) {
    auto opt = tiny_sweep();
    opt.jobs = jobs;
    opt.checkpoint_path = file("sweep_" + std::to_string(jobs) + ".ckpt");
    opt.checkpoint_every = 1;

    // Interrupted phase: one of the two runs dies permanently.
    const FaultPlan faults(fault_seed, spec);
    opt.faults = &faults;
    std::vector<JobError> errors;
    opt.errors_out = &errors;
    const auto partial = testbed::run_sweep(opt);
    EXPECT_EQ(errors.size(), 1u);
    EXPECT_LE(partial.size(), baseline.size());
    ASSERT_TRUE(fs::exists(opt.checkpoint_path));

    // Resume without the fault: completed slots come from the checkpoint.
    opt.faults = nullptr;
    opt.errors_out = nullptr;
    const auto resumed = testbed::run_sweep(opt);
    const std::string resumed_csv =
        file("resumed_" + std::to_string(jobs) + ".csv");
    testbed::save_samples_csv(resumed_csv, resumed,
                              testbed::sweep_fingerprint(opt));
    EXPECT_EQ(read_file(resumed_csv), want) << "jobs=" << jobs;
    EXPECT_FALSE(fs::exists(opt.checkpoint_path));
  }
}

TEST_F(ResumeTest, RetriedTransientFaultsLeaveSweepOutputIdentical) {
  const auto clean = testbed::run_sweep(tiny_sweep());

  auto opt = tiny_sweep();
  FaultSpec spec;
  spec.throw_rate = 1.0;  // every first attempt fails transiently
  const FaultPlan faults(5, spec);
  opt.faults = &faults;
  std::vector<JobError> errors;
  opt.errors_out = &errors;
  const auto faulty = testbed::run_sweep(opt);

  EXPECT_TRUE(errors.empty()) << errors.front().to_string();
  const std::string a = file("clean.csv");
  const std::string b = file("faulty.csv");
  testbed::save_samples_csv(a, clean);
  testbed::save_samples_csv(b, faulty);
  EXPECT_EQ(read_file(a), read_file(b));
}

TEST_F(ResumeTest, SweepPermanentFaultsReportIndexSeedAttempts) {
  auto opt = tiny_sweep();
  FaultSpec spec;
  spec.permanent_rate = 1.0;
  const FaultPlan faults(3, spec);
  opt.faults = &faults;
  std::vector<JobError> errors;
  opt.errors_out = &errors;
  const auto samples = testbed::run_sweep(opt);
  EXPECT_TRUE(samples.empty());
  ASSERT_EQ(errors.size(), 2u);  // 1 config x 2 scenarios
  EXPECT_NE(errors[0].index, errors[1].index);
  for (const auto& e : errors) {
    EXPECT_LT(e.index, 2u);
    EXPECT_NE(e.seed, 0u);  // the run's own RNG seed, for reproduction
    EXPECT_EQ(e.attempts, 1);
    EXPECT_EQ(e.kind, runtime::JobErrorKind::kPermanent);
  }
}

TEST_F(ResumeTest, PartialFailureDoesNotPoisonSweepCache) {
  // Regression: a sweep with permanently failed slots must not publish a
  // fingerprinted cache — that cache would be a trusted hit forever and
  // the kept checkpoint would never be consulted again.
  const std::string cache = file("sweep_cache.csv");
  const auto want = testbed::run_sweep(tiny_sweep());

  FaultSpec spec;
  spec.permanent_rate = 0.5;
  const FaultPlan faults(seed_killing_one_of_two(spec), spec);

  auto opt = tiny_sweep();
  opt.checkpoint_every = 1;
  opt.faults = &faults;
  std::vector<JobError> errors;
  opt.errors_out = &errors;
  const auto partial = testbed::load_or_run_sweep(cache, opt);
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_LE(partial.size(), want.size());
  EXPECT_FALSE(fs::exists(cache));  // incomplete data never cached
  EXPECT_TRUE(fs::exists(cache + ".ckpt"));

  // Fault gone: the retry resumes from the checkpoint, completes, publishes
  // the cache, and only then retires the checkpoint.
  opt.faults = nullptr;
  opt.errors_out = nullptr;
  const auto full = testbed::load_or_run_sweep(cache, opt);
  EXPECT_EQ(full.size(), want.size());
  EXPECT_TRUE(fs::exists(cache));
  EXPECT_FALSE(fs::exists(cache + ".ckpt"));

  // The published cache is a genuine hit with the complete data.
  const auto cached = testbed::load_or_run_sweep(cache, tiny_sweep());
  EXPECT_EQ(cached.size(), want.size());
}

TEST_F(ResumeTest, InterruptedDisputeCampaignResumesByteIdentical) {
  mlab::Dispute2014Options base;
  base.tests_per_cell = 1;
  base.months = {1};
  base.hours = {3};
  base.ndt_duration = sim::from_seconds(4);
  base.seed = 7;

  const auto baseline = mlab::generate_dispute2014(base);
  ASSERT_FALSE(baseline.empty());
  const std::string want_csv = file("dispute_base.csv");
  mlab::save_observations_csv(want_csv, baseline,
                              mlab::dispute_fingerprint(base));
  const std::string want = read_file(want_csv);

  auto opt = base;
  opt.checkpoint_path = file("dispute.ckpt");
  opt.checkpoint_every = 1;
  FaultSpec spec;
  spec.permanent_rate = 0.5;
  const FaultPlan faults(19, spec);
  opt.faults = &faults;
  std::vector<JobError> errors;
  opt.errors_out = &errors;
  const auto partial = mlab::generate_dispute2014(opt);
  EXPECT_EQ(partial.size() + errors.size(), baseline.size());

  opt.faults = nullptr;
  opt.errors_out = nullptr;
  const auto resumed = mlab::generate_dispute2014(opt);
  const std::string got_csv = file("dispute_resumed.csv");
  mlab::save_observations_csv(got_csv, resumed,
                              mlab::dispute_fingerprint(opt));
  EXPECT_EQ(read_file(got_csv), want);
  EXPECT_FALSE(fs::exists(opt.checkpoint_path));
}

}  // namespace
}  // namespace ccsig
