// Fault injection against the service layer: a permanently-failing source
// is quarantined without stalling or crashing the daemon (and without
// losing the other sources' verdicts), transient read faults recover
// through the RetryPolicy backoff, read stalls only slow the run down,
// and mid-run model corruption is rejected while the old model keeps
// serving. Also wired into fault_tests_asan_ubsan, so every path here is
// sanitizer-clean.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "runtime/fault_injection.h"
#include "runtime/shutdown.h"
#include "service/service.h"
#include "test_helpers.h"

namespace ccsig::service {
namespace {

namespace fs = std::filesystem;

class ServiceFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime::ShutdownLatch::reset();
    const std::string stamp =
        std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
        "_" + std::to_string(counter_++);
    dir_ = (fs::temp_directory_path() / ("ccsig_svcfault_" + stamp)).string();
    fs::create_directories(dir_);
    good_ = dir_ + "/good.pcap";
    testutil::write_random_capture(21, good_);
  }
  void TearDown() override {
    runtime::ShutdownLatch::reset();
    fs::remove_all(dir_);
  }

  ServiceConfig base_config(const std::string& log_name) {
    ServiceConfig cfg;
    cfg.verdict_log_path = dir_ + "/" + log_name;
    cfg.oneshot = true;
    cfg.source_retry.max_attempts = 3;
    cfg.source_retry.backoff = std::chrono::milliseconds(1);
    return cfg;
  }

  static SourceConfig oneshot_source(const std::string& path) {
    SourceConfig sc;
    sc.path = path;
    sc.oneshot = true;
    return sc;
  }

  std::size_t flows_in(const std::string& capture) {
    FlowAnalyzer analyzer;
    return analyzer.analyze_pcap(capture).size();
  }

  static int counter_;
  std::string dir_;
  std::string good_;
};

int ServiceFaultTest::counter_ = 0;

TEST_F(ServiceFaultTest, CorruptSourceIsQuarantinedGoodSourceKeepsFlowing) {
  // Damage the second capture inside a record body so its header parses
  // but ingest hits a permanent ParseException mid-file.
  const std::string bad = dir_ + "/bad.pcap";
  fs::copy_file(good_, bad);
  runtime::truncate_file(bad, fs::file_size(bad) - 5);

  ServiceConfig cfg = base_config("quarantine.log");
  cfg.sources.push_back(oneshot_source(good_));
  cfg.sources.push_back(oneshot_source(bad));
  ClassificationService svc(std::move(cfg));
  ASSERT_EQ(svc.run(), ClassificationService::kExitOk);

  // The quarantine is visible in service.* accounting and the daemon
  // exited cleanly with at least the good capture's verdicts.
  EXPECT_EQ(svc.stats().sources_quarantined, 1u);
  EXPECT_GE(VerdictLog::read_all(dir_ + "/quarantine.log").size(),
            flows_in(good_));
}

TEST_F(ServiceFaultTest, MissingSourceExhaustsRetriesThenQuarantines) {
  ServiceConfig cfg = base_config("missing.log");
  cfg.sources.push_back(oneshot_source(good_));
  cfg.sources.push_back(oneshot_source(dir_ + "/never_appears.pcap"));
  ClassificationService svc(std::move(cfg));
  ASSERT_EQ(svc.run(), ClassificationService::kExitOk);

  EXPECT_EQ(svc.stats().sources_quarantined, 1u);
  EXPECT_EQ(VerdictLog::read_all(dir_ + "/missing.log").size(),
            flows_in(good_));
}

TEST_F(ServiceFaultTest, TransientReadFaultsRecoverThroughBackoff) {
  // Every first attempt throws TransientError; the retry (attempt 2) is
  // clean, so the capture must still be fully delivered and classified.
  runtime::FaultSpec spec;
  spec.throw_rate = 1.0;
  spec.fault_attempts_at_most = 1;
  const runtime::FaultPlan plan(42, spec);

  ServiceConfig cfg = base_config("transient.log");
  cfg.sources.push_back(oneshot_source(good_));
  cfg.faults = &plan;
  cfg.poll_records = 1u << 20;  // one clean poll drains the whole capture
  ClassificationService svc(std::move(cfg));
  ASSERT_EQ(svc.run(), ClassificationService::kExitOk);

  EXPECT_EQ(svc.stats().sources_quarantined, 0u);
  EXPECT_EQ(svc.stats().verdicts_emitted, flows_in(good_));
}

TEST_F(ServiceFaultTest, PermanentFaultQuarantinesWithoutCrashing) {
  runtime::FaultSpec spec;
  spec.permanent_rate = 1.0;
  const runtime::FaultPlan plan(43, spec);

  ServiceConfig cfg = base_config("permanent.log");
  cfg.sources.push_back(oneshot_source(good_));
  cfg.faults = &plan;
  ClassificationService svc(std::move(cfg));
  ASSERT_EQ(svc.run(), ClassificationService::kExitOk);

  EXPECT_EQ(svc.stats().sources_quarantined, 1u);
  EXPECT_EQ(svc.stats().verdicts_emitted, 0u);
}

TEST_F(ServiceFaultTest, ReadStallsOnlySlowTheDaemonDown) {
  runtime::FaultSpec spec;
  spec.stall_rate = 1.0;
  spec.stall = std::chrono::milliseconds(20);
  spec.fault_attempts_at_most = 1;
  const runtime::FaultPlan plan(44, spec);

  ServiceConfig cfg = base_config("stall.log");
  cfg.sources.push_back(oneshot_source(good_));
  cfg.faults = &plan;
  cfg.poll_records = 1u << 20;
  ClassificationService svc(std::move(cfg));
  ASSERT_EQ(svc.run(), ClassificationService::kExitOk);

  EXPECT_EQ(svc.stats().sources_quarantined, 0u);
  EXPECT_EQ(svc.stats().verdicts_emitted, flows_in(good_));
}

TEST_F(ServiceFaultTest, ModelFileCorruptedMidRunIsRejected) {
  const std::string model = dir_ + "/model.tree";
  CongestionClassifier::pretrained().save(model);

  ServiceConfig cfg;
  SourceConfig sc;
  sc.path = good_;  // tailed: keeps the daemon alive for the corruption
  cfg.sources.push_back(sc);
  cfg.verdict_log_path = dir_ + "/midrun.log";
  cfg.model_path = model;
  // Progress is observed through the event log: stats() belongs to the
  // service thread until join().
  testutil::EventFile events(dir_ + "/midrun.events");
  cfg.events = events.log();
  cfg.metrics_interval_ms = 1;  // a `metrics` event carries records=N
  ClassificationService svc(std::move(cfg));
  std::thread t([&svc] { svc.run(); });

  // Wait until the service is past setup (the model load) and serving —
  // corrupting the file any earlier races the startup load.
  ASSERT_TRUE(events.wait_for("metrics", [](const std::string& line) {
    return line.find(" records=0 ") == std::string::npos;
  }));

  // Corrupt the model on disk, then ask for a reload: the daemon must
  // reject it, keep the old model, and keep classifying.
  {
    std::ofstream out(model, std::ios::trunc);
    out << "garbage that is not a serialized tree";
  }
  svc.request_reload();
  EXPECT_TRUE(events.wait_for("model_reload_rejected"));
  svc.request_stop();
  t.join();

  EXPECT_EQ(svc.stats().model_reloads, 0u);
  EXPECT_GE(svc.stats().model_reloads_rejected, 1u);
  EXPECT_EQ(svc.stats().verdicts_emitted, flows_in(good_));
}

}  // namespace
}  // namespace ccsig::service
