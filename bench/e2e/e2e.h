// bench_e2e — shared pieces of the end-to-end benchmark program.
//
// bench_e2e has four subcommands (see main.cc): `gen` builds a workload's
// capture from simulated template flows, `offline` times the two capture ->
// verdict library paths, `daemon` drives a real ccsigd process, and `repro`
// times testbed runs and a Dispute2014 campaign. Each prints one JSON
// object; run.py turns those into the benchmark's metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e {

/// One workload's input recipe. A workload is a flow-length regime applied
/// across the whole system: the template flows its capture is built from,
/// the testbed runs `repro` re-simulates, and the campaign's NDT length.
struct Recipe {
  std::string name;
  // Template pool: every (scenario, cc, rate, buffer) combination is
  // simulated once, with the committed sweep's other settings.
  double test_s = 1.0;
  std::vector<double> rates_mbps;
  std::vector<double> buffers_ms;
  // Capture: each template is replicated this many times (once under
  // --smoke); replica k's first record lands at k * stagger_us (+ seeded
  // jitter).
  int replicas = 1;
  std::int64_t stagger_us = 1000;
  // Campaign rows (full PathSim Dispute2014; kSmokeCampaignRows under
  // --smoke).
  double ndt_s = 2.0;
  int campaign_rows = 8;
};

inline constexpr int kSmokeCampaignRows = 2;

/// The two workloads; throws std::invalid_argument on an unknown name.
const Recipe& recipe(const std::string& name);

/// The six registered congestion-control modules the pool covers.
const std::vector<std::string>& cc_modules();

/// Fingerprint of the whole recipe; it names the recipe's input directory,
/// so a changed recipe never reuses stale templates or captures.
std::string recipe_fingerprint(const Recipe& r);

/// 64-bit FNV-1a, used for capture, trace, line and CSV digests.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(const void* data, std::size_t n);
  void add(std::string_view s) { add(s.data(), s.size()); }
  std::string hex() const;
};

/// Multiset digest of verdict lines: the digest of the sorted lines.
std::string lines_digest(std::vector<std::string> lines);

/// The verdict line without its leading "src:port -> dst:port  " key.
std::string strip_key(std::string_view line);

/// Client address (the 24-bit address the decoder keeps) of a rendered
/// verdict line's data key "src:port -> dst:port", or 0 if unparseable.
std::uint32_t line_client_addr(std::string_view line);

double now_s();
std::int64_t now_ns();

/// Reads a whole file; throws std::runtime_error when it cannot.
std::string read_file(const std::string& path);
/// Writes a file via a temporary and rename.
void write_file(const std::string& path, std::string_view data);

/// Minimal flat JSON object writer for the subcommands' one-line results.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::int64_t v);
  Json& str(const std::string& key, std::string_view v);
  Json& boolean(const std::string& key, bool v);
  Json& raw(const std::string& key, const std::string& json);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// JSON array of numbers.
std::string json_array(const std::vector<double>& v);

/// Median of a copy of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] of a copy of `v` (0 when empty).
double quantile(std::vector<double> v, double q);

// -- Captures ------------------------------------------------------------
// Every record of a generated capture is a headers-only 54-byte frame, so
// records are fixed-size and record i starts at a known byte offset.
inline constexpr std::size_t kFrameBytes = 54;
inline constexpr std::size_t kRecordBytes = 16 + kFrameBytes;
inline constexpr std::size_t kFileHeaderBytes = 24;
inline std::uint64_t record_offset(std::uint64_t i) {
  return kFileHeaderBytes + i * kRecordBytes;
}

/// One replica of a template in a generated capture.
struct Replica {
  std::uint32_t client_addr = 0;  // 24-bit address the decoder reports
  int template_id = 0;
  std::uint64_t close_idx = 0;    // record index completing the FIN handshake
  std::string ref_line;           // template's reference line, key stripped
};

/// A generated capture directory: capture.pcap plus manifest.tsv.
struct Capture {
  std::string dir;
  std::string pcap;
  std::uint64_t records = 0;
  std::vector<Replica> replicas;
};

/// Loads `dir`'s manifest; throws std::runtime_error when it is missing.
Capture load_capture(const std::string& dir);

/// Checks rendered verdict lines against the manifest: every replica must
/// appear exactly once with its template's reference line. Returns the
/// number of replicas whose verdict is missing, duplicated or different.
std::uint64_t check_lines(const Capture& cap,
                          const std::vector<std::string>& lines);

// -- Heap accounting -----------------------------------------------------
// bench_e2e replaces global operator new; counting is off until enabled
// so untraced passes pay one predictable branch per allocation.
void alloc_counting(bool on);
std::uint64_t alloc_count();

// -- Subcommands ---------------------------------------------------------
int cmd_gen(const std::vector<std::string>& args);
int cmd_offline(const std::vector<std::string>& args);
int cmd_daemon(const std::vector<std::string>& args);
int cmd_repro(const std::vector<std::string>& args);

/// Tiny flag parser shared by the subcommands: "--key value" pairs and
/// bare "--flag" switches. Unknown keys are a usage error (exit 2).
class Args {
 public:
  Args(const std::vector<std::string>& args,
       const std::vector<std::string>& valued,
       const std::vector<std::string>& switches);
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def = "") const;
  double num(const std::string& key, double def) const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
  bool ok_ = true;
  std::string error_;
};

}  // namespace e2e
