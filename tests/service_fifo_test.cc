// A named-pipe (--fifo) source end to end: a capture written through the
// FIFO in pieces — one record split across two writes, and the writer
// closing and a second writer reopening mid-record — yields the same
// verdict log as a oneshot run over the capture file, with nothing spooled
// to disk; and once every writer has closed, the live service blocks in
// its readiness wait instead of spinning on the drained pipe. A oneshot
// source whose path is a pipe is not a fifo source: it ends when its
// writer closes.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/shutdown.h"
#include "service/service.h"
#include "test_helpers.h"

namespace ccsig::service {
namespace {

namespace fs = std::filesystem;

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

/// Byte offset where each record of a little-endian pcap starts.
std::vector<std::size_t> record_offsets(const std::vector<char>& pcap) {
  std::vector<std::size_t> out;
  std::size_t at = 24;  // file header
  while (at + 16 <= pcap.size()) {
    out.push_back(at);
    std::uint32_t incl_len = 0;
    std::memcpy(&incl_len, pcap.data() + at + 8, sizeof(incl_len));
    at += 16 + incl_len;
  }
  return out;
}

/// One writer session on the FIFO: opens it once a reader is attached,
/// writes with blocking writes, closes on destruction.
class FifoWriter {
 public:
  explicit FifoWriter(const std::string& path) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    // A nonblocking open fails with ENXIO until the service has opened
    // the read end; retrying it never hangs the test.
    while ((fd_ = ::open(path.c_str(), O_WRONLY | O_NONBLOCK)) < 0 &&
           errno == ENXIO && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (fd_ >= 0) ::fcntl(fd_, F_SETFL, 0);  // blocking writes from here
  }
  FifoWriter(const FifoWriter&) = delete;
  FifoWriter& operator=(const FifoWriter&) = delete;
  ~FifoWriter() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool write(const std::vector<char>& bytes, std::size_t from,
             std::size_t to) {
    while (from < to) {
      const ssize_t n = ::write(fd_, bytes.data() + from, to - from);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      from += static_cast<std::size_t>(n);
    }
    return true;
  }

 private:
  int fd_ = -1;
};

/// A service running on its own thread, stopped and joined on every exit
/// path (a failed ASSERT included).
class LiveService {
 public:
  explicit LiveService(ServiceConfig cfg)
      : svc_(std::move(cfg)), thread_([this] { svc_.run(); }) {}
  LiveService(const LiveService&) = delete;
  LiveService& operator=(const LiveService&) = delete;
  ~LiveService() { stop(); }

  /// Drains the service; its stats are readable afterwards.
  const ServiceStats& stop() {
    if (thread_.joinable()) {
      svc_.request_stop();
      thread_.join();
    }
    return svc_.stats();
  }

  /// CPU seconds the service thread has used so far.
  double cpu_seconds() {
    clockid_t clock{};
    timespec ts{};
    if (::pthread_getcpuclockid(thread_.native_handle(), &clock) != 0 ||
        ::clock_gettime(clock, &ts) != 0) {
      ADD_FAILURE() << "no cpu clock for the service thread";
    }
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
  }

 private:
  ClassificationService svc_;
  std::thread thread_;
};

class ServiceFifoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime::ShutdownLatch::reset();
    dir_ = (fs::temp_directory_path() /
            ("ccsig_fifo_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++)))
               .string();
    fs::create_directories(dir_);
    capture_ = dir_ + "/capture.pcap";
    testutil::write_random_capture(17, capture_);
    bytes_ = read_bytes(capture_);
    fifo_ = dir_ + "/feed.fifo";
    ASSERT_EQ(::mkfifo(fifo_.c_str(), 0600), 0);

    // The reference: the same capture read once as a file.
    ServiceConfig cfg;
    SourceConfig sc;
    sc.path = capture_;
    sc.oneshot = true;
    cfg.sources.push_back(sc);
    cfg.verdict_log_path = dir_ + "/oneshot.log";
    cfg.oneshot = true;
    ClassificationService svc(std::move(cfg));
    ASSERT_EQ(svc.run(), ClassificationService::kExitOk);
    records_ = svc.stats().records_ingested;
    ASSERT_GT(records_, 0u);
  }
  void TearDown() override {
    runtime::ShutdownLatch::reset();
    fs::remove_all(dir_);
  }

  /// A live service on the FIFO, logging to fifo.log; progress shows up
  /// as `metrics` events (the stats belong to the service thread).
  ServiceConfig fifo_config(testutil::EventFile& events) {
    ServiceConfig cfg;
    SourceConfig sc;
    sc.path = fifo_;
    sc.fifo = true;
    cfg.sources.push_back(sc);
    cfg.verdict_log_path = dir_ + "/fifo.log";
    cfg.metrics_interval_ms = 5;
    cfg.events = events.log();
    return cfg;
  }

  /// Waits until the service has ingested every record of the capture.
  bool wait_all_ingested(const testutil::EventFile& events) const {
    const std::string want = " records=" + std::to_string(records_) + " ";
    return events.wait_for("metrics", [&](const std::string& line) {
      return line.find(want) != std::string::npos;
    });
  }

  static int counter_;
  std::string dir_;
  std::string capture_;
  std::string fifo_;
  std::vector<char> bytes_;
  std::uint64_t records_ = 0;
};

int ServiceFifoTest::counter_ = 0;

TEST_F(ServiceFifoTest, TwoWriterSessionsMatchTheOneshotLog) {
  const std::vector<std::size_t> recs = record_offsets(bytes_);
  ASSERT_GT(recs.size(), 10u);
  // Cut A lands inside a record of the first session's two writes; cut B
  // inside a later record, where the first writer closes and the second
  // one reopens to finish it.
  const std::size_t cut_a = recs[recs.size() / 3] + 7;
  const std::size_t cut_b = recs[2 * recs.size() / 3] + 20;

  testutil::EventFile events(dir_ + "/fifo.events");
  LiveService svc(fifo_config(events));
  {
    FifoWriter first(fifo_);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.write(bytes_, 0, cut_a));
    // Let the service read up to the partial record before its rest.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(first.write(bytes_, cut_a, cut_b));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    FifoWriter second(fifo_);
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(second.write(bytes_, cut_b, bytes_.size()));
  }
  EXPECT_TRUE(wait_all_ingested(events));
  const ServiceStats& stats = svc.stop();

  EXPECT_EQ(stats.records_ingested, records_);
  EXPECT_EQ(stats.sources_quarantined, 0u);
  const std::vector<char> want = read_bytes(dir_ + "/oneshot.log");
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(read_bytes(dir_ + "/fifo.log"), want);
  EXPECT_FALSE(fs::exists(fifo_ + ".spool"));
}

TEST_F(ServiceFifoTest, BlocksInsteadOfSpinningAfterTheWriterCloses) {
  testutil::EventFile events(dir_ + "/idle.events");
  LiveService svc(fifo_config(events));
  {
    FifoWriter writer(fifo_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.write(bytes_, 0, bytes_.size()));
  }
  ASSERT_TRUE(wait_all_ingested(events));

  // Every writer has closed and the pipe is drained. A loop that polled
  // the hung-up pipe would burn the whole interval on the service thread.
  const double cpu0 = svc.cpu_seconds();
  const auto wall0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double cpu = svc.cpu_seconds() - cpu0;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
  const ServiceStats& stats = svc.stop();

  EXPECT_LT(cpu, 0.25 * wall) << "service thread cpu " << cpu << " s over "
                              << wall << " s idle";
  EXPECT_EQ(stats.records_ingested, records_);
}

TEST_F(ServiceFifoTest, OneshotSourceOnAPipeEndsWhenItsWriterCloses) {
  ServiceConfig cfg;
  SourceConfig sc;
  sc.path = fifo_;
  sc.oneshot = true;
  cfg.sources.push_back(sc);
  cfg.verdict_log_path = dir_ + "/pipe.log";
  cfg.oneshot = true;
  // Shared with the runner so a run that never ends can be abandoned
  // (detached, leaked) instead of hanging the suite.
  auto svc = std::make_shared<ClassificationService>(std::move(cfg));
  auto done = std::make_shared<std::promise<int>>();
  std::future<int> exit_code = done->get_future();
  std::thread runner([svc, done] { done->set_value(svc->run()); });
  bool wrote = false;
  {
    FifoWriter writer(fifo_);
    wrote = writer.ok() && writer.write(bytes_, 0, bytes_.size());
  }
  EXPECT_TRUE(wrote);
  if (exit_code.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    runner.detach();
    FAIL() << "oneshot run on a pipe did not end after its writer closed";
  }
  runner.join();
  EXPECT_EQ(exit_code.get(), ClassificationService::kExitOk);
  EXPECT_EQ(svc->stats().records_ingested, records_);
  const std::vector<char> want = read_bytes(dir_ + "/oneshot.log");
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(read_bytes(dir_ + "/pipe.log"), want);
}

}  // namespace
}  // namespace ccsig::service
