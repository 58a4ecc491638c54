// ClassificationService end-to-end: oneshot runs over generated captures
// produce the same verdict set as FlowAnalyzer at any --jobs (and
// byte-identical logs between jobs counts), the verdict log survives torn
// tails, the shed ladder counts every shed, SIGHUP-style reloads swap or
// reject models without downtime, and a SIGTERMed ccsigd child drains
// with exit 0.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "runtime/event_log.h"
#include "runtime/shutdown.h"
#include "service/service.h"
#include "test_helpers.h"

namespace ccsig::service {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime::ShutdownLatch::reset();
    const std::string stamp =
        std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
        "_" + std::to_string(counter_++);
    dir_ = (fs::temp_directory_path() / ("ccsig_service_" + stamp)).string();
    fs::create_directories(dir_);
    capture_ = dir_ + "/capture.pcap";
    testutil::write_random_capture(11, capture_);
  }
  void TearDown() override {
    runtime::ShutdownLatch::reset();
    fs::remove_all(dir_);
  }

  ServiceConfig oneshot_config(const std::string& log_name,
                               unsigned jobs = 1) {
    ServiceConfig cfg;
    SourceConfig sc;
    sc.path = capture_;
    sc.oneshot = true;
    cfg.sources.push_back(sc);
    cfg.verdict_log_path = dir_ + "/" + log_name;
    cfg.oneshot = true;
    cfg.stream.jobs = jobs;
    return cfg;
  }

  static int counter_;
  std::string dir_;
  std::string capture_;
};

int ServiceTest::counter_ = 0;

TEST_F(ServiceTest, OneshotMatchesBatchVerdictsAndIsJobsInvariant) {
  ClassificationService s1(oneshot_config("j1.log", 1));
  ASSERT_EQ(s1.run(), ClassificationService::kExitOk);
  ClassificationService s4(oneshot_config("j4.log", 4));
  ASSERT_EQ(s4.run(), ClassificationService::kExitOk);

  // Byte-identical logs at different worker counts.
  const auto b1 = read_bytes(dir_ + "/j1.log");
  const auto b4 = read_bytes(dir_ + "/j4.log");
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(b1, b4);

  // Same verdict *set* as FlowAnalyzer (the service emits flows as they
  // finalize, so only the ordering may differ from start-time order).
  FlowAnalyzer analyzer;
  const auto reports = analyzer.analyze_pcap(capture_);
  std::vector<std::string> want;
  for (const auto& r : reports) want.push_back(FlowAnalyzer::render(r));
  std::vector<std::string> got = VerdictLog::read_all(dir_ + "/j1.log");
  EXPECT_EQ(got.size(), want.size());
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(s1.stats().verdicts_emitted, reports.size());
  EXPECT_GT(s1.stats().records_ingested, 0u);
}

TEST_F(ServiceTest, VerdictLogRecoversTornTail) {
  const std::string path = dir_ + "/torn.log";
  {
    VerdictLog log(path);
    log.append("verdict one");
    log.append("verdict two");
    log.sync();
  }
  EXPECT_EQ(VerdictLog::recover(path), 2u);

  // A SIGKILL mid-append leaves a partial frame; recover() cuts it off.
  const auto intact = read_bytes(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = {0x20, 0x00, 0x00, 0x00, 0x55};  // framed, truncated
    out.write(torn, sizeof(torn));
  }
  EXPECT_EQ(VerdictLog::recover(path), 2u);
  EXPECT_EQ(read_bytes(path), intact);
  EXPECT_EQ(VerdictLog::read_all(path),
            (std::vector<std::string>{"verdict one", "verdict two"}));

  // A corrupted payload byte fails the CRC and truncates that frame too.
  {
    std::ofstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(static_cast<std::streamoff>(intact.size()) - 2);
    out.put('X');
  }
  EXPECT_EQ(VerdictLog::recover(path), 1u);
  EXPECT_EQ(VerdictLog::read_all(path),
            (std::vector<std::string>{"verdict one"}));
}

TEST_F(ServiceTest, ShedLadderDropsAndCountsEverything) {
  // Pressure pinned above the drop threshold: every polled record is shed,
  // no flow ever reaches the engine, and every drop is counted.
  ServiceConfig cfg = oneshot_config("shed.log");
  cfg.pressure_probe = [] { return 0.80; };
  ClassificationService svc(std::move(cfg));
  ASSERT_EQ(svc.run(), ClassificationService::kExitOk);
  EXPECT_EQ(svc.stats().records_ingested, 0u);
  EXPECT_GT(svc.stats().shed_dropped_records, 0u);
  EXPECT_EQ(svc.stats().shed_forced_evicts, 0u);
  EXPECT_EQ(svc.stats().verdicts_emitted, 0u);
  EXPECT_TRUE(VerdictLog::read_all(dir_ + "/shed.log").empty());
}

TEST_F(ServiceTest, ShedLadderEscalatesToEvictAndPause) {
  // Walk the ladder top-down: a few pause iterations, then the evict rung,
  // then clear — the run must still finish and count each rung.
  ServiceConfig cfg = oneshot_config("shed2.log");
  cfg.poll_records = 8;  // keep the drop rungs from eating the whole capture
  auto calls = std::make_shared<std::atomic<int>>(0);
  cfg.pressure_probe = [calls] {
    const int n = calls->fetch_add(1);
    if (n < 2) return 1.0;   // pause_sources
    if (n < 4) return 0.95;  // force_evict (+ drop)
    return 0.0;
  };
  ClassificationService svc(std::move(cfg));
  ASSERT_EQ(svc.run(), ClassificationService::kExitOk);
  EXPECT_GE(svc.stats().shed_source_pauses, 2u);
  EXPECT_GE(svc.stats().shed_forced_evicts, 2u);
  // After the ladder cleared, the remaining records flowed normally.
  EXPECT_GT(svc.stats().records_ingested, 0u);
}

TEST_F(ServiceTest, HotReloadSwapsValidModelAndRejectsCorruptOne) {
  const std::string model = dir_ + "/model.tree";
  CongestionClassifier::pretrained().save(model);

  // A tailed (never-finishing) source keeps the daemon serving while the
  // main thread swaps the model file under it.
  ServiceConfig cfg;
  SourceConfig sc;
  sc.path = capture_;  // tail mode: EOF is "caught up", not terminal
  cfg.sources.push_back(sc);
  cfg.verdict_log_path = dir_ + "/reload.log";
  cfg.model_path = model;
  // Progress is observed through the event log: stats() belongs to the
  // service thread until join().
  testutil::EventFile events(dir_ + "/reload.events");
  cfg.events = events.log();
  ClassificationService svc(std::move(cfg));

  std::thread t([&svc] { svc.run(); });

  // Valid reload.
  svc.request_reload();
  EXPECT_TRUE(events.wait_for("model_reloaded"));

  // Corrupt the model file: the reload must be rejected and the daemon
  // must keep serving with the old model.
  {
    std::ofstream out(model, std::ios::trunc);
    out << "not a decision tree\n";
  }
  svc.request_reload();
  EXPECT_TRUE(events.wait_for("model_reload_rejected"));

  svc.request_stop();
  t.join();
  EXPECT_EQ(svc.stats().model_reloads, 1u);
  EXPECT_GE(svc.stats().model_reloads_rejected, 1u);
  // The drain still completed: the capture's flows were all emitted.
  EXPECT_GT(svc.stats().verdicts_emitted, 0u);
}

TEST_F(ServiceTest, LineServerBroadcastsAndSurvivesSlowSubscribers) {
  const std::string sock = dir_ + "/sub.sock";
  LineServer server(sock);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  server.accept_pending();
  ASSERT_EQ(server.subscribers(), 1u);

  server.broadcast("hello flow");
  char buf[64] = {};
  const ssize_t n = ::read(fd, buf, sizeof(buf));
  ASSERT_GT(n, 0);
  EXPECT_EQ(std::string(buf, static_cast<std::size_t>(n)), "hello flow\n");

  // A dead subscriber is reaped on the next broadcast, never crashing the
  // daemon (MSG_NOSIGNAL — no SIGPIPE).
  ::close(fd);
  server.broadcast("after close");
  server.broadcast("after close 2");
  EXPECT_EQ(server.subscribers(), 0u);
}

TEST_F(ServiceTest, MissingModelFileFailsStartupWithInputExit) {
  ServiceConfig cfg = oneshot_config("nostart.log");
  cfg.model_path = dir_ + "/does_not_exist.tree";
  ClassificationService svc(std::move(cfg));
  EXPECT_EQ(svc.run(), ClassificationService::kExitInput);
}

TEST_F(ServiceTest, EventLogEmitsStructuredSingleLines) {
  const std::string line = runtime::EventLog::format_line(
      "ccsigd", 12.0416, "source_quarantined",
      {{"source", "eth0.pcap"}, {"reason", "bad magic in header"}});
  EXPECT_EQ(line,
            "ccsigd up=12.042 event=source_quarantined source=eth0.pcap "
            "reason=\"bad magic in header\"");
}

#ifdef CCSIGD_BIN
TEST_F(ServiceTest, SigtermDrainsChildDaemonWithExitZero) {
  const std::string log = dir_ + "/child.log";
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Tail source: the daemon would run forever without the signal.
    ::execl(CCSIGD_BIN, CCSIGD_BIN, "--log", log.c_str(), "--source",
            capture_.c_str(), "--quiet", static_cast<char*>(nullptr));
    _exit(127);
  }
  // Give the child time to ingest the capture and go idle on the tail
  // (without FINs in the capture, verdicts only emit at the drain).
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The drained log holds every flow of the capture.
  FlowAnalyzer analyzer;
  EXPECT_EQ(VerdictLog::read_all(log).size(),
            analyzer.analyze_pcap(capture_).size());
}
#endif  // CCSIGD_BIN

}  // namespace
}  // namespace ccsig::service
