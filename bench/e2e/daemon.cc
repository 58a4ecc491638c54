// `daemon`: drives a real ccsigd process through its FIFO source.
//
// One generator process (this one) plays tcpdump and the operator: the
// main thread writes the capture's bytes into the daemon's FIFO, a second
// thread reads the live verdict socket, and one admin connection asks
// healthz / statusz / metricsz. Every phase gets a fresh daemon
// (ccsigd --jobs 1) and feeds it the whole capture:
//
//   A  saturation: blocking writes as fast as the pipe takes them;
//      throughput runs from the first write to the last verdict on the
//      subscriber socket.
//   B  open loop at --low-rate records/s, C at --high-rate: record i is
//      due at t0 + i / rate whatever the daemon does, and a flow's latency
//      runs from when its closing record was due to when its verdict line
//      arrives, so generator stalls are charged to the system.
//
// A runs --saturation-reps times, then B and C once each. Each daemon's
// set-up time (spawn -> first healthz answer) is reported.
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include "e2e.h"
#include "obs/metrics.h"
#include "service/verdict_log.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;

constexpr const char* kLog = "verdicts.log";
constexpr const char* kFifo = "feed.fifo";
constexpr const char* kSub = "sub.sock";
constexpr const char* kAdmin = "admin.sock";

/// Connects to a Unix socket path relative to the working directory;
/// returns -1 while nothing listens there yet.
int connect_unix(const char* path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path, sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Buffered line reader over a blocking socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  /// Next line without its '\n'; false on EOF or error.
  bool next(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// One admin query: the body lines up to the "." terminator.
std::vector<std::string> admin_query(int fd, LineReader& in,
                                     const std::string& q) {
  const std::string line = q + "\n";
  if (::write(fd, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    throw std::runtime_error("admin write failed");
  }
  std::vector<std::string> body;
  std::string l;
  while (in.next(l)) {
    if (l == ".") return body;
    body.push_back(l);
  }
  throw std::runtime_error("admin connection closed during " + q);
}

/// A spawned ccsigd: SIGTERM-drained by stop(), SIGKILLed and reaped by the
/// destructor if still running (every exit path waits for the child).
class Daemon {
 public:
  explicit Daemon(const std::string& bin) {
    std::vector<std::string> args = {bin,     "--log",          kLog,
                                     "--fifo", kFifo,           "--socket",
                                     kSub,     "--admin-socket", kAdmin,
                                     "--jobs", "1",             "--quiet"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    spawned_ns_ = now_ns();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      reap();
    }
  }

  std::int64_t spawned_ns() const { return spawned_ns_; }

  /// Graceful drain; returns the exit status (0 = clean).
  int stop() {
    ::kill(pid_, SIGTERM);
    return reap();
  }
  double peak_rss_mb() const { return rss_kb_ / 1024.0; }

 private:
  int reap() {
    int status = 0;
    rusage ru{};
    while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    rss_kb_ = static_cast<double>(ru.ru_maxrss);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

  pid_t pid_ = -1;
  std::int64_t spawned_ns_ = 0;
  double rss_kb_ = 0;
};

void clean_workdir() {
  for (const char* f : {kLog, kFifo, kSub, kAdmin}) fs::remove(f);
  fs::remove(std::string(kFifo) + ".spool");
}

/// Polls until the daemon's admin socket accepts; returns the connection.
int connect_admin() {
  const std::int64_t deadline = now_ns() + 20'000'000'000;
  for (;;) {
    const int fd = connect_unix(kAdmin);
    if (fd >= 0) return fd;
    if (now_ns() > deadline) throw std::runtime_error("ccsigd never listened");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Owns a file descriptor.
struct Fd {
  explicit Fd(int f) : fd(f) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  int fd;
};

/// Maps the capture read-only for the writer.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw std::runtime_error("cannot open " + path);
    struct stat st {};
    ::fstat(fd, &st);
    size_ = static_cast<std::size_t>(st.st_size);
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) throw std::runtime_error("cannot map " + path);
    data_ = static_cast<const char*>(p);
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() { ::munmap(const_cast<char*>(data_), size_); }
  const char* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Writes all of [p, p+n) with blocking writes; returns the time spent
/// inside write() (blocked on a full pipe, mostly).
double write_all(int fd, const char* p, std::size_t n) {
  double blocked = 0;
  while (n > 0) {
    const double t0 = now_s();
    const ssize_t w = ::write(fd, p, std::min<std::size_t>(n, 1 << 18));
    blocked += now_s() - t0;
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("fifo write: ") +
                               std::strerror(errno));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return blocked;
}

/// Prometheus text -> named counters and histograms.
struct Scrape {
  std::map<std::string, double> values;
  std::map<std::string, ccsig::obs::HistogramSnapshot> hists;
};

Scrape parse_metricsz(const std::vector<std::string>& body) {
  Scrape s;
  for (const std::string& l : body) {
    if (l.empty() || l[0] == '#') continue;
    const std::size_t sp = l.rfind(' ');
    if (sp == std::string::npos) continue;
    const std::string name = l.substr(0, sp);
    const double v = std::atof(l.c_str() + sp + 1);
    const std::size_t brace = name.find("_bucket{le=\"");
    if (brace == std::string::npos) {
      s.values[name] = v;
      continue;
    }
    ccsig::obs::HistogramSnapshot& h = s.hists[name.substr(0, brace)];
    const std::string le = name.substr(brace + 12, name.size() - brace - 14);
    // Exposition buckets are cumulative; the snapshot wants per-bucket.
    std::uint64_t below = 0;
    for (auto b : h.buckets) below += b;
    h.buckets.push_back(static_cast<std::uint64_t>(v) - below);
    if (le != "+Inf") h.bounds.push_back(std::atof(le.c_str()));
  }
  return s;
}

struct PhaseResult {
  double setup_s = 0;
  double wall_s = 0;  // first write -> last verdict
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  double write_blocked_s = 0;
  std::uint64_t log_mismatches = 0;
  std::uint64_t sub_mismatches = 0;
  int exit_code = 0;
  double rss_mb = 0;
  Scrape scrape;
};

PhaseResult run_phase(const std::string& bin, const Capture& cap,
                      const MappedFile& file, double rate) {
  clean_workdir();
  if (::mkfifo(kFifo, 0600) != 0) throw std::runtime_error("mkfifo failed");
  PhaseResult res;
  Daemon daemon(bin);
  const Fd admin_fd(connect_admin());
  LineReader admin(admin_fd.fd);
  const std::vector<std::string> health =
      admin_query(admin_fd.fd, admin, "healthz");
  res.setup_s = static_cast<double>(now_ns() - daemon.spawned_ns()) / 1e9;
  if (health.empty() || health[0] != "ok") {
    throw std::runtime_error("ccsigd unhealthy at start");
  }

  const Fd sub_fd(connect_unix(kSub));
  if (sub_fd.fd < 0) throw std::runtime_error("cannot subscribe");
  for (int i = 0;; ++i) {
    bool accepted = false;
    for (const auto& l : admin_query(admin_fd.fd, admin, "statusz")) {
      if (l.rfind("subscribers count=1", 0) == 0) accepted = true;
    }
    if (accepted) break;
    if (i > 20000) throw std::runtime_error("subscriber never accepted");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // Verdict subscriber: stamps each line as it arrives. `got` belongs to
  // the reader until it is joined; `received` is what the writer polls.
  const std::size_t expected = cap.replicas.size();
  std::vector<std::pair<std::string, std::int64_t>> got;
  got.reserve(expected);
  std::atomic<std::size_t> received{0};
  std::thread reader([&] {
    LineReader in(sub_fd.fd);
    std::string l;
    while (got.size() < expected && in.next(l)) {
      if (l.rfind("metrics", 0) == 0) continue;
      got.emplace_back(l, now_ns());
      received.store(got.size(), std::memory_order_release);
    }
  });
  // Unblocks and joins the reader on every exit path, before the daemon
  // (declared earlier) is killed and reaped.
  struct JoinOnExit {
    std::thread& t;
    int fd;
    ~JoinOnExit() {
      if (t.joinable()) {
        ::shutdown(fd, SHUT_RDWR);
        t.join();
      }
    }
  } join_reader{reader, sub_fd.fd};

  const std::uint64_t n = cap.records;
  const double ns_per_record = rate > 0 ? 1e9 / rate : 0;
  std::int64_t start = 0, first_write = 0;
  auto due = [&](std::uint64_t i) {
    return start + static_cast<std::int64_t>(std::llround(
                       static_cast<double>(i) * ns_per_record));
  };
  {
    const Fd w(::open(kFifo, O_WRONLY | O_CLOEXEC));
    if (w.fd < 0) throw std::runtime_error("cannot open fifo for writing");
    start = now_ns() + 2'000'000;  // t0 of the open-loop schedule
    if (rate <= 0) {
      first_write = now_ns();
      res.write_blocked_s = write_all(w.fd, file.data(), file.size());
    } else {
      std::uint64_t written = 0;
      while (written < n) {
        const std::int64_t now = now_ns();
        if (now < due(written)) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              std::min<std::int64_t>(due(written) - now, 200'000)));
          continue;
        }
        const auto ready = std::min<std::uint64_t>(
            n, static_cast<std::uint64_t>(
                   static_cast<double>(now - start) / ns_per_record) +
                   1);
        const std::size_t from = written == 0 ? 0 : record_offset(written);
        if (written == 0) first_write = now;
        res.write_blocked_s += write_all(w.fd, file.data() + from,
                                         record_offset(ready) - from);
        res.lag_ms.push_back(
            static_cast<double>(now_ns() - due(ready - 1)) / 1e6);
        written = ready;
      }
    }
  }

  // Wait for every verdict; a drop or a crash shows up as missing lines.
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  while (received.load(std::memory_order_acquire) < expected &&
         now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  try {
    res.scrape = parse_metricsz(admin_query(admin_fd.fd, admin, "metricsz"));
  } catch (const std::runtime_error&) {
    // A daemon that died mid-phase: its exit status and the missing
    // verdicts below report it.
  }
  res.exit_code = daemon.stop();  // the drain closes the subscriber socket
  reader.join();
  res.rss_mb = daemon.peak_rss_mb();

  std::vector<std::string> sub_lines;
  std::int64_t last = first_write;
  for (const auto& [l, t] : got) {
    sub_lines.push_back(l);
    last = std::max(last, t);
  }
  res.wall_s = static_cast<double>(last - first_write) / 1e9;
  res.sub_mismatches = check_lines(cap, sub_lines);
  res.log_mismatches =
      check_lines(cap, ccsig::service::VerdictLog::read_all(kLog));
  if (rate > 0) {
    std::map<std::uint32_t, std::uint64_t> close_of;
    for (const Replica& r : cap.replicas) close_of[r.client_addr] = r.close_idx;
    for (const auto& [l, t] : got) {
      const auto it = close_of.find(line_client_addr(l));
      if (it == close_of.end()) continue;
      res.latency_ms.push_back(static_cast<double>(t - due(it->second)) / 1e6);
    }
  }
  return res;
}

double scraped(const Scrape& s, const std::string& service_name) {
  const auto it = s.values.find("ccsig_" + service_name);
  return it == s.values.end() ? 0 : it->second;
}

}  // namespace

int cmd_daemon(const std::vector<std::string>& argv) {
  const Args args(argv,
                  {"--ccsigd", "--capture", "--workdir", "--low-rate",
                   "--high-rate", "--saturation-reps"},
                  {});
  if (!args.ok() || !args.has("--ccsigd") || !args.has("--capture") ||
      !args.has("--workdir") || args.num("--low-rate", 0) <= 0 ||
      args.num("--high-rate", 0) <= 0) {
    std::fprintf(stderr,
                 "usage: bench_e2e daemon --ccsigd BIN --capture DIR "
                 "--workdir DIR --low-rate R --high-rate R "
                 "[--saturation-reps N]\n%s\n",
                 args.error().c_str());
    return 2;
  }
  const std::string bin = fs::absolute(args.get("--ccsigd")).string();
  const Capture cap = load_capture(fs::absolute(args.get("--capture")).string());
  const MappedFile file(cap.pcap);
  fs::create_directories(args.get("--workdir"));
  // Socket paths stay short (sun_path is 108 bytes) by working in place.
  fs::current_path(args.get("--workdir"));
  ::signal(SIGPIPE, SIG_IGN);

  std::vector<PhaseResult> phases;
  std::vector<double> saturation, blocked;
  const int reps = static_cast<int>(args.num("--saturation-reps", 1));
  for (int i = 0; i < reps; ++i) {
    phases.push_back(run_phase(bin, cap, file, 0));
    saturation.push_back(static_cast<double>(cap.records) /
                         phases.back().wall_s);
    blocked.push_back(phases.back().write_blocked_s);
  }
  const PhaseResult low = run_phase(bin, cap, file, args.num("--low-rate", 0));
  const PhaseResult high =
      run_phase(bin, cap, file, args.num("--high-rate", 0));
  // The daemon's own ingest->verdict histogram for the low-rate phase.
  const auto inside =
      low.scrape.hists.find("ccsig_service_latency_ingest_to_verdict_ms");
  const auto inside_q = [&](double q) {
    return inside == low.scrape.hists.end() ? 0.0 : inside->second.quantile(q);
  };
  phases.push_back(low);
  phases.push_back(high);
  clean_workdir();

  std::vector<double> setup;
  std::uint64_t failed = 0;
  double rss_mb = 0;
  int exit_codes = 0;
  for (const PhaseResult& p : phases) {
    setup.push_back(p.setup_s);
    rss_mb = std::max(rss_mb, p.rss_mb);
    exit_codes += p.exit_code;
    failed += p.log_mismatches + p.sub_mismatches;
    failed += static_cast<std::uint64_t>(
        scraped(p.scrape, "service_shed_dropped_records") +
        scraped(p.scrape, "service_shed_forced_evicts") +
        scraped(p.scrape, "service_subscriber_lines_dropped"));
  }
  const Scrape& first = phases.front().scrape;
  Json out;
  out.integer("verdicts",
              static_cast<std::int64_t>(phases.size() * cap.replicas.size()))
      .integer("failed", static_cast<std::int64_t>(failed))
      .integer("exit_codes", exit_codes)
      .raw("setup_s", json_array(setup))
      .raw("saturation_records_per_s", json_array(saturation))
      .raw("low_latency_ms", json_array(low.latency_ms))
      .raw("high_latency_ms", json_array(high.latency_ms))
      .num("inside_p50_ms", inside_q(0.5))
      .num("inside_p99_ms", inside_q(0.99))
      .raw("write_blocked_s", json_array(blocked))
      .num("gen_lag_p99_ms", quantile(low.lag_ms, 0.99))
      .num("peak_rss_mb", rss_mb)
      .num("records_ingested", scraped(first, "service_records_ingested"))
      .num("verdicts_emitted", scraped(first, "service_verdicts_emitted"));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace e2e
