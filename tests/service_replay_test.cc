// Record-and-replay crash safety, the tentpole acceptance test: a live
// run's session file replays to a byte-identical verdict log at any
// --jobs; a daemon SIGKILLed mid-replay (torn log tail included) restarts,
// truncates the tail, resumes, and converges on the same bytes.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

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

class ServiceReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime::ShutdownLatch::reset();
    const std::string stamp =
        std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
        "_" + std::to_string(counter_++);
    dir_ = (fs::temp_directory_path() / ("ccsig_replay_" + stamp)).string();
    fs::create_directories(dir_);
    capture_ = dir_ + "/capture.pcap";
    testutil::write_random_capture(31, capture_);
    session_ = dir_ + "/session.ses";
    live_log_ = dir_ + "/live.log";

    // The reference live run, recording its session.
    ServiceConfig cfg;
    SourceConfig sc;
    sc.path = capture_;
    sc.oneshot = true;
    cfg.sources.push_back(sc);
    cfg.verdict_log_path = live_log_;
    cfg.record_session_path = session_;
    cfg.oneshot = true;
    ClassificationService live(std::move(cfg));
    ASSERT_EQ(live.run(), ClassificationService::kExitOk);
    live_bytes_ = read_bytes(live_log_);
    ASSERT_FALSE(live_bytes_.empty());
    ASSERT_GT(live.stats().verdicts_emitted, 0u);
  }
  void TearDown() override {
    runtime::ShutdownLatch::reset();
    fs::remove_all(dir_);
  }

  ServiceConfig replay_config(const std::string& log_name, unsigned jobs) {
    ServiceConfig cfg;
    cfg.verdict_log_path = dir_ + "/" + log_name;
    cfg.replay_session_path = session_;
    cfg.stream.jobs = jobs;
    return cfg;
  }

  static int counter_;
  std::string dir_;
  std::string capture_;
  std::string session_;
  std::string live_log_;
  std::vector<std::uint8_t> live_bytes_;
};

int ServiceReplayTest::counter_ = 0;

TEST_F(ServiceReplayTest, ReplayIsByteIdenticalAtAnyJobs) {
  for (const unsigned jobs : {1u, 4u}) {
    const std::string log = "replay_j" + std::to_string(jobs) + ".log";
    ClassificationService svc(replay_config(log, jobs));
    ASSERT_EQ(svc.run(), ClassificationService::kExitOk);
    EXPECT_EQ(read_bytes(dir_ + "/" + log), live_bytes_)
        << "jobs=" << jobs << " diverged from the live log";
  }
}

TEST_F(ServiceReplayTest, TornLogResumesToIdenticalBytes) {
  // Simulate a SIGKILL: a prefix of the live log plus a partial frame.
  const std::string log = dir_ + "/resume.log";
  const std::vector<std::string> lines = VerdictLog::read_all(live_log_);
  ASSERT_GE(lines.size(), 1u);
  {
    VerdictLog prefix(log);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      prefix.append(lines[i]);
    }
  }
  {
    std::ofstream out(log, std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 0x13, 0x37};
    out.write(torn, sizeof(torn));
  }
  ASSERT_NE(read_bytes(log), live_bytes_);

  // Restart: recover truncates the torn tail, the replay skips the intact
  // prefix and regenerates only the missing verdicts.
  ServiceConfig cfg = replay_config("resume.log", 4);
  ClassificationService svc(std::move(cfg));
  ASSERT_EQ(svc.run(), ClassificationService::kExitOk);
  EXPECT_EQ(svc.stats().verdicts_skipped_resume, lines.size() - 1);
  EXPECT_EQ(svc.stats().verdicts_emitted, 1u);
  EXPECT_EQ(read_bytes(log), live_bytes_);
}

#ifdef CCSIGD_BIN
TEST_F(ServiceReplayTest, SigkilledDaemonRestartsAndConverges) {
  const std::string log = dir_ + "/killed.log";

  // Paced replay so SIGKILL lands mid-run (and possibly mid-write);
  // whether it does or the child finishes first, the restart must
  // converge on the reference bytes.
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execl(CCSIGD_BIN, CCSIGD_BIN, "--log", log.c_str(), "--replay",
            session_.c_str(), "--replay-pace-us", "5000", "--poll-records",
            "64", "--jobs", "2", "--quiet", static_cast<char*>(nullptr));
    _exit(127);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) || WIFEXITED(status));

  // Restart at a different jobs count, full speed.
  for (const char* jobs : {"1", "4"}) {
    pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::execl(CCSIGD_BIN, CCSIGD_BIN, "--log", log.c_str(), "--replay",
              session_.c_str(), "--jobs", jobs, "--quiet",
              static_cast<char*>(nullptr));
      _exit(127);
    }
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
    EXPECT_EQ(read_bytes(log), live_bytes_) << "restart at jobs=" << jobs;
  }
}
#endif  // CCSIGD_BIN

}  // namespace
}  // namespace ccsig::service
