#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>

#include "e2e.h"

// Counting global allocator (same hook shape as bench_stream_ingest).
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Every unaligned form is replaced, nothrow ones included, so that no
// block is allocated by one allocator and released by another.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace e2e {

void alloc_counting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}
std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

const Recipe& recipe(const std::string& name) {
  // flows: 1 s tests at the committed sweep's full scale. Most of each
  // flow is slow start, so RTT sampling, the slow-start cut, features,
  // classification and emission carry a large share of the work.
  static const Recipe flows = [] {
    Recipe r;
    r.name = "flows";
    r.test_s = 1.0;
    r.rates_mbps = {10, 20};
    r.buffers_ms = {20, 100};
    r.replicas = 20;
    r.stagger_us = 1000;
    r.ndt_s = 2.0;
    r.campaign_rows = 8;
    return r;
  }();
  // bulk: 3 s tests on 10 Mbps access links with a 20 ms buffer, where
  // every congestion control retransmits early: slow start is a small
  // share of each flow, so read, decode, routing and per-record flow state
  // dominate.
  static const Recipe bulk = [] {
    Recipe r;
    r.name = "bulk";
    r.test_s = 3.0;
    r.rates_mbps = {10};
    r.buffers_ms = {20};
    r.replicas = 60;
    r.stagger_us = 5000;
    r.ndt_s = 6.0;
    r.campaign_rows = 4;
    return r;
  }();
  if (name == "flows") return flows;
  if (name == "bulk") return bulk;
  throw std::invalid_argument("unknown workload: " + name);
}

const std::vector<std::string>& cc_modules() {
  static const std::vector<std::string> m = {
      "reno", "cubic", "cubic_hystart", "bbr_lite", "vegas", "westwood"};
  return m;
}

std::string recipe_fingerprint(const Recipe& r) {
  std::ostringstream os;
  os.precision(17);
  // Bump the version when gen.cc or repro.cc changes what they produce.
  os << "recipe-v1 " << r.name << " test=" << r.test_s << " rates=";
  for (double v : r.rates_mbps) os << v << '|';
  os << " buffers=";
  for (double v : r.buffers_ms) os << v << '|';
  os << " cc=";
  for (const auto& c : cc_modules()) os << c << '|';
  os << " replicas=" << r.replicas << " stagger=" << r.stagger_us
     << " ndt=" << r.ndt_s << " rows=" << r.campaign_rows;
  Digest d;
  d.add(os.str());
  return r.name + "-" + d.hex();
}

void Digest::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string lines_digest(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  Digest d;
  for (const auto& l : lines) {
    d.add(l);
    d.add("\n", 1);
  }
  return d.hex();
}

std::string strip_key(std::string_view line) {
  const std::size_t at = line.find("  ");
  return std::string(at == std::string_view::npos ? line
                                                  : line.substr(at + 2));
}

std::uint32_t line_client_addr(std::string_view line) {
  // "<src>:<sport> -> <dst>:<dport>  ..."; the data direction runs from
  // the server to the client, so the client is the destination.
  const std::size_t arrow = line.find(" -> ");
  if (arrow == std::string_view::npos) return 0;
  const std::string_view rest = line.substr(arrow + 4);
  const std::size_t colon = rest.find(':');
  if (colon == std::string_view::npos) return 0;
  std::uint32_t v = 0;
  for (char c : rest.substr(0, colon)) {
    if (c < '0' || c > '9') return 0;
    v = v * 10 + static_cast<std::uint32_t>(c - '0');
  }
  return v;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp);
  }
}

Json& Json::num(const std::string& key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  fields_.emplace_back(key, buf);
  return *this;
}

Json& Json::integer(const std::string& key, std::int64_t v) {
  fields_.emplace_back(key, std::to_string(v));
  return *this;
}

Json& Json::str(const std::string& key, std::string_view v) {
  std::string out = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  fields_.emplace_back(key, out);
  return *this;
}

Json& Json::boolean(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}

Json& Json::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string Json::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += '"' + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

Capture load_capture(const std::string& dir) {
  Capture cap;
  cap.dir = dir;
  cap.pcap = dir + "/capture.pcap";
  std::istringstream in(read_file(dir + "/manifest.tsv"));
  std::string line;
  // Header: "records\t<n>", then one replica per line:
  // client_addr \t template \t close_idx \t ref_line
  if (!std::getline(in, line) || line.rfind("records\t", 0) != 0) {
    throw std::runtime_error("bad manifest header in " + dir);
  }
  cap.records = std::stoull(line.substr(8));
  while (std::getline(in, line)) {
    Replica r;
    std::istringstream f(line);
    std::string addr, tmpl, close;
    if (!std::getline(f, addr, '\t') || !std::getline(f, tmpl, '\t') ||
        !std::getline(f, close, '\t') || !std::getline(f, r.ref_line)) {
      throw std::runtime_error("bad manifest line in " + dir + ": " + line);
    }
    r.client_addr = static_cast<std::uint32_t>(std::stoul(addr));
    r.template_id = std::stoi(tmpl);
    r.close_idx = std::stoull(close);
    cap.replicas.push_back(std::move(r));
  }
  return cap;
}

std::uint64_t check_lines(const Capture& cap,
                          const std::vector<std::string>& lines) {
  // Replica client addresses are dense from a fixed base (see gen.cc), but
  // a lookup table keeps this independent of that layout.
  std::vector<std::pair<std::uint32_t, std::size_t>> index;
  index.reserve(cap.replicas.size());
  for (std::size_t i = 0; i < cap.replicas.size(); ++i) {
    index.emplace_back(cap.replicas[i].client_addr, i);
  }
  std::sort(index.begin(), index.end());
  std::vector<int> seen(cap.replicas.size(), 0);
  std::uint64_t bad = 0;
  for (const auto& l : lines) {
    const std::uint32_t addr = line_client_addr(l);
    const auto it = std::lower_bound(
        index.begin(), index.end(), std::make_pair(addr, std::size_t{0}));
    if (it == index.end() || it->first != addr) {
      ++bad;  // a verdict for a flow the capture does not contain
      continue;
    }
    const Replica& r = cap.replicas[it->second];
    if (seen[it->second]++ == 0 && strip_key(l) != r.ref_line) ++bad;
  }
  for (int s : seen) {
    if (s != 1) ++bad;  // missing or duplicated
  }
  return bad;
}

Args::Args(const std::vector<std::string>& args,
           const std::vector<std::string>& valued,
           const std::vector<std::string>& switches) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (std::find(switches.begin(), switches.end(), a) != switches.end()) {
      kv_.emplace_back(a, "1");
    } else if (std::find(valued.begin(), valued.end(), a) != valued.end() &&
               i + 1 < args.size()) {
      kv_.emplace_back(a, args[++i]);
    } else {
      ok_ = false;
      error_ = "unexpected argument: " + a;
      return;
    }
  }
}

bool Args::has(const std::string& key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return true;
  }
  return false;
}

std::string Args::get(const std::string& key, const std::string& def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  return def;
}

double Args::num(const std::string& key, double def) const {
  const std::string v = get(key);
  return v.empty() ? def : std::atof(v.c_str());
}

}  // namespace e2e
