// `gen`: builds a workload capture from the template pool.
//
// The pool (one simulated flow per grid point, see pool.h) depends only on
// the recipe and is simulated once per input directory. The capture
// depends on the seed too: it places recipe.replicas copies of every
// template at a fixed stagger plus seeded jitter, in a seeded order, under
// seeded unique client addresses, and merges them into one time-ordered
// pcap. Every workload seed therefore carries the same multiset of flows,
// so run-to-run differences measure the program rather than the draw.
#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/analyzer.h"
#include "pcap/headers.h"
#include "pool.h"
#include "runtime/parallel_map.h"
#include "sim/random.h"
#include "sim/trace.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using ccsig::sim::Packet;

void put_le32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t get_le32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint32_t get_be32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

void put_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::string pcap_file_header() {
  std::string h;
  put_le32(h, 0xa1b2c3d4);
  h += std::string("\x02\x00\x04\x00", 4);  // version 2.4
  put_le32(h, 0);                           // thiszone
  put_le32(h, 0);                           // sigfigs
  put_le32(h, kFrameBytes);                 // snaplen: headers only
  put_le32(h, 1);                           // EN10MB
  return h;
}

void append_record(std::string& out, std::int64_t t_us,
                   const std::uint8_t* frame, std::uint32_t orig_len) {
  put_le32(out, static_cast<std::uint32_t>(t_us / 1000000));
  put_le32(out, static_cast<std::uint32_t>(t_us % 1000000));
  put_le32(out, kFrameBytes);
  put_le32(out, orig_len);
  out.append(reinterpret_cast<const char*>(frame), kFrameBytes);
}

/// Server-side tap: every packet server1 sends or receives, in order.
class FrameTap : public ccsig::sim::TraceSink {
 public:
  void on_packet(ccsig::sim::Time t, const Packet& p) override {
    times.push_back(t);
    packets.push_back(p);
  }
  std::vector<ccsig::sim::Time> times;
  std::vector<Packet> packets;
};

}  // namespace

std::vector<TemplateSpec> pool_specs(const Recipe& r) {
  std::vector<TemplateSpec> out;
  for (bool external : {false, true}) {
    for (const std::string& cc : cc_modules()) {
      for (double rate : r.rates_mbps) {
        for (double buf : r.buffers_ms) {
          TemplateSpec s;
          s.id = static_cast<int>(out.size());
          s.external = external;
          s.cc = cc;
          s.rate_mbps = rate;
          s.buffer_ms = buf;
          out.push_back(s);
        }
      }
    }
  }
  return out;
}

ccsig::testbed::TestbedConfig template_config(const Recipe& r,
                                              const TemplateSpec& s,
                                              int attempt) {
  ccsig::testbed::TestbedConfig cfg;  // scale 1, as the committed sweep
  cfg.warmup = ccsig::sim::from_seconds(2.5);
  cfg.test_duration = ccsig::sim::from_seconds(r.test_s);
  cfg.access_rate_mbps = s.rate_mbps;
  cfg.access_buffer_ms = s.buffer_ms;
  cfg.access_latency_ms = 20;
  cfg.access_loss = 0.0002;
  cfg.scenario = s.external ? ccsig::testbed::Scenario::kExternal
                            : ccsig::testbed::Scenario::kSelfInduced;
  cfg.congestion_control = s.cc;
  cfg.seed = 42 + static_cast<std::uint64_t>(s.id) +
             1000 * static_cast<std::uint64_t>(attempt);
  return cfg;
}

TemplateFlow simulate_template(const Recipe& r, const TemplateSpec& s,
                               int attempt,
                               ccsig::testbed::TestResult* result_out) {
  using namespace ccsig;
  testbed::TestbedExperiment exp(template_config(r, s, attempt));
  sim::Node* server = exp.network().node("server1");
  FrameTap tap;
  server->add_tap(&tap);
  testbed::TestResult res = exp.run();
  if (result_out) *result_out = res;
  if (tap.packets.empty()) {
    throw std::runtime_error("template " + std::to_string(s.id) +
                             " captured no packets");
  }

  // TcpSource never closes: append FIN / FIN+ACK / ACK so the streaming
  // engine finalizes the flow on its last record, as for a real close.
  const sim::Address srv = server->address();
  std::uint64_t snd_max = 0, srv_ack = 0, cli_seq = 0;
  std::uint32_t srv_win = 0, cli_win = 0;
  sim::FlowKey data_key;
  for (const Packet& p : tap.packets) {
    if (p.key.src_addr == srv) {
      snd_max = std::max(snd_max, p.seq + p.payload_bytes);
      srv_ack = p.ack;
      srv_win = p.window;
      data_key = p.key;
    } else {
      cli_seq = p.seq;
      cli_win = p.window;
    }
  }
  const sim::Time last = tap.times.back();
  Packet fin1;
  fin1.key = data_key;
  fin1.seq = snd_max;
  fin1.ack = srv_ack;
  fin1.window = srv_win;
  fin1.flags.ack = fin1.flags.fin = true;
  Packet fin2;
  fin2.key = data_key.reversed();
  fin2.seq = cli_seq;
  fin2.ack = snd_max + 1;
  fin2.window = cli_win;
  fin2.flags.ack = fin2.flags.fin = true;
  Packet ack3;
  ack3.key = data_key;
  ack3.seq = snd_max + 1;
  ack3.ack = cli_seq + 1;
  ack3.window = srv_win;
  ack3.flags.ack = true;
  const Packet closing[] = {fin1, fin2, ack3};
  for (int i = 0; i < 3; ++i) {
    tap.times.push_back(last + (i + 1) * sim::kMillisecond);
    tap.packets.push_back(closing[i]);
  }

  TemplateFlow flow;
  flow.attempt = attempt;
  flow.client_ip = pcap::to_ipv4(data_key.dst_addr);
  flow.simulated_s = sim::to_seconds(exp.network().sim().now());
  flow.pcap = pcap_file_header();
  flow.pcap.reserve(flow.pcap.size() + tap.packets.size() * kRecordBytes);
  const std::int64_t t0_us = tap.times.front() / sim::kMicrosecond;
  std::uint64_t highest = 0;
  bool ss_open = true;
  for (std::size_t i = 0; i < tap.packets.size(); ++i) {
    const Packet& p = tap.packets[i];
    const auto frame = pcap::encode_frame(p);
    append_record(flow.pcap, tap.times[i] / sim::kMicrosecond - t0_us,
                  frame.data(),
                  static_cast<std::uint32_t>(kFrameBytes + p.payload_bytes));
    if (ss_open) ++flow.slow_start_records;
    if (p.key.src_addr == srv && p.payload_bytes > 0) {
      const std::uint64_t end = p.seq + p.payload_bytes;
      if (end <= highest) ss_open = false;  // first retransmission
      highest = std::max(highest, end);
    }
  }
  flow.records = tap.packets.size();
  return flow;
}

std::string ensure_pool(const Recipe& r, const std::string& inputs_dir,
                        std::vector<PoolEntry>& entries) {
  const std::string dir = inputs_dir + "/" + recipe_fingerprint(r);
  const std::string index = dir + "/templates.tsv";
  const std::vector<TemplateSpec> specs = pool_specs(r);
  entries.clear();
  if (fs::exists(index)) {
    std::istringstream in(read_file(index));
    std::string line;
    for (const TemplateSpec& s : specs) {
      if (!std::getline(in, line)) break;
      PoolEntry e;
      e.spec = s;
      std::istringstream f(line);
      std::string id, attempt, records, ss, ip;
      std::getline(f, id, '\t');
      std::getline(f, attempt, '\t');
      std::getline(f, records, '\t');
      std::getline(f, ss, '\t');
      std::getline(f, ip, '\t');
      std::getline(f, e.digest, '\t');
      std::getline(f, e.ref_line);
      e.attempt = std::stoi(attempt);
      e.records = std::stoull(records);
      e.slow_start_records = std::stoull(ss);
      e.client_ip = static_cast<std::uint32_t>(std::stoul(ip));
      entries.push_back(std::move(e));
    }
    if (entries.size() == specs.size()) return dir;
    entries.clear();  // damaged index: simulate again
  }

  fs::create_directories(dir);
  const ccsig::FlowAnalyzer analyzer;
  // Templates are independent simulations; run them on every core. This is
  // input preparation, never timed. A run whose flow never got payload
  // through (a 1 s test can lose its whole first window to an RTO under
  // external congestion) yields no verdict; it is rerun on the next
  // simulator seed.
  struct Built {
    TemplateFlow flow;
    std::string line;
  };
  const auto flows = ccsig::runtime::parallel_map(
      specs,
      [&](const TemplateSpec& s) {
        const std::string path = dir + "/tmpl-" + std::to_string(s.id) + ".pcap";
        for (int attempt = 0; attempt < 8; ++attempt) {
          Built b{simulate_template(r, s, attempt, nullptr), {}};
          write_file(path, b.flow.pcap);
          const ccsig::PcapAnalysis a = analyzer.analyze_pcap_checked(path);
          if (a.ok() && a.reports.size() == 1) {
            b.line = strip_key(ccsig::FlowAnalyzer::render(a.reports[0]));
            return b;
          }
        }
        throw std::runtime_error("template " + std::to_string(s.id) +
                                 " never analyzed to exactly one flow");
      },
      0);
  std::string tsv;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    PoolEntry e;
    e.spec = specs[i];
    e.attempt = flows[i].flow.attempt;
    e.records = flows[i].flow.records;
    e.slow_start_records = flows[i].flow.slow_start_records;
    e.client_ip = flows[i].flow.client_ip;
    Digest d;
    d.add(flows[i].flow.pcap);
    e.digest = d.hex();
    e.ref_line = flows[i].line;
    tsv += std::to_string(i) + "\t" + std::to_string(e.attempt) + "\t" +
           std::to_string(e.records) + "\t" +
           std::to_string(e.slow_start_records) + "\t" +
           std::to_string(e.client_ip) + "\t" + e.digest + "\t" +
           e.ref_line + "\n";
    entries.push_back(std::move(e));
  }
  write_file(index, tsv);
  return dir;
}

namespace {

/// Replicates the pool's templates into one time-ordered capture in
/// `cap_dir` (capture.pcap, manifest.tsv, meta.json).
void write_capture(const Recipe& r, const std::vector<PoolEntry>& pool,
                   const std::string& pool_dir, std::uint64_t seed, int reps,
                   const std::string& cap_dir) {
  fs::create_directories(cap_dir);
  std::vector<std::string> tmpl(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    tmpl[i] = read_file(pool_dir + "/tmpl-" + std::to_string(i) + ".pcap");
  }
  ccsig::sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xE2E);
  std::vector<int> order;
  for (int k = 0; k < reps; ++k) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      order.push_back(static_cast<int>(i));
    }
  }
  std::shuffle(order.begin(), order.end(), rng.engine());
  const std::uint32_t addr_base =
      0x100000u + static_cast<std::uint32_t>(rng.uniform_int(0, 0x7FFFF));
  const std::int64_t base_us = 1'000'000'000;  // an arbitrary epoch

  struct Ref {
    std::int64_t t_us;
    std::uint32_t replica;
    std::uint32_t idx;
    bool operator<(const Ref& o) const {
      if (t_us != o.t_us) return t_us < o.t_us;
      if (replica != o.replica) return replica < o.replica;
      return idx < o.idx;
    }
  };
  std::vector<Ref> refs;
  std::vector<std::int64_t> offset(order.size());
  std::uint64_t total = 0, ss_total = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    total += pool[static_cast<std::size_t>(order[k])].records;
    ss_total += pool[static_cast<std::size_t>(order[k])].slow_start_records;
  }
  refs.reserve(total);
  double flow_time_us = 0;
  std::int64_t cap_end = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    offset[k] = base_us + static_cast<std::int64_t>(k) * r.stagger_us +
                rng.uniform_int(0, r.stagger_us / 2);
    const std::string& t = tmpl[static_cast<std::size_t>(order[k])];
    const std::size_t n = (t.size() - kFileHeaderBytes) / kRecordBytes;
    std::int64_t last = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const char* rec = t.data() + record_offset(i);
      const std::int64_t ts = std::int64_t{get_le32(rec)} * 1000000 +
                              get_le32(rec + 4);
      last = ts;
      refs.push_back(Ref{offset[k] + ts, static_cast<std::uint32_t>(k),
                         static_cast<std::uint32_t>(i)});
    }
    flow_time_us += static_cast<double>(last);
    cap_end = std::max(cap_end, offset[k] + last);
  }
  std::sort(refs.begin(), refs.end());

  std::vector<std::uint64_t> close_idx(order.size(), 0);
  std::string out = pcap_file_header();
  Digest digest;
  std::ofstream f(cap_dir + "/capture.pcap.tmp",
                  std::ios::binary | std::ios::trunc);
  out.reserve(1 << 20);
  for (std::size_t g = 0; g < refs.size(); ++g) {
    const Ref& ref = refs[g];
    const std::size_t tid = static_cast<std::size_t>(order[ref.replica]);
    const char* rec = tmpl[tid].data() + record_offset(ref.idx);
    std::array<std::uint8_t, kFrameBytes> frame;
    std::memcpy(frame.data(), rec + 16, kFrameBytes);
    // Re-address the client side: Ethernet MACs embed the IPs, and the
    // IPv4 header checksum covers them.
    const std::uint32_t old_ip = pool[tid].client_ip;
    const std::uint32_t new_ip = (10u << 24) | (addr_base + ref.replica);
    std::uint8_t* eth = frame.data();
    std::uint8_t* ip = eth + 14;
    if (get_be32(ip + 12) == old_ip) {
      put_be32(ip + 12, new_ip);
      put_be32(eth + 7, new_ip);
    }
    if (get_be32(ip + 16) == old_ip) {
      put_be32(ip + 16, new_ip);
      put_be32(eth + 1, new_ip);
    }
    ip[10] = ip[11] = 0;
    const std::uint16_t csum = ccsig::pcap::internet_checksum({ip, 20});
    ip[10] = static_cast<std::uint8_t>(csum >> 8);
    ip[11] = static_cast<std::uint8_t>(csum & 0xFF);
    append_record(out, ref.t_us, frame.data(), get_le32(rec + 12));
    close_idx[ref.replica] = g;  // the replica's last record wins
    if (out.size() >= (1u << 20)) {
      digest.add(out);
      f.write(out.data(), static_cast<std::streamsize>(out.size()));
      out.clear();
    }
  }
  digest.add(out);
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  f.close();
  if (!f) throw std::runtime_error("cannot write capture in " + cap_dir);
  fs::rename(cap_dir + "/capture.pcap.tmp", cap_dir + "/capture.pcap");

  std::string manifest = "records\t" + std::to_string(refs.size()) + "\n";
  for (std::size_t k = 0; k < order.size(); ++k) {
    const PoolEntry& e = pool[static_cast<std::size_t>(order[k])];
    manifest += std::to_string(addr_base + k) + "\t" +
                std::to_string(order[k]) + "\t" +
                std::to_string(close_idx[k]) + "\t" + e.ref_line + "\n";
  }
  write_file(cap_dir + "/manifest.tsv", manifest);

  const double span_us =
      static_cast<double>(cap_end - (refs.empty() ? 0 : refs[0].t_us));
  Json meta;
  meta.str("digest", digest.hex())
      .str("recipe", recipe_fingerprint(r))
      .integer("records", static_cast<std::int64_t>(refs.size()))
      .integer("flows", static_cast<std::int64_t>(order.size()))
      .num("mean_open_flows", span_us > 0 ? flow_time_us / span_us : 0)
      .num("post_slow_start_share",
           total ? 1.0 - static_cast<double>(ss_total) /
                             static_cast<double>(total)
                 : 0)
      .num("mb", static_cast<double>(record_offset(refs.size())) / 1e6);
  write_file(cap_dir + "/meta.json", meta.dump() + "\n");
}

}  // namespace

int cmd_gen(const std::vector<std::string>& argv) {
  const Args args(argv, {"--workload", "--seed", "--inputs"}, {"--smoke"});
  if (!args.ok() || !args.has("--workload") || !args.has("--inputs")) {
    std::fprintf(stderr,
                 "usage: bench_e2e gen --workload NAME --seed N --inputs DIR "
                 "[--smoke]\n%s\n",
                 args.error().c_str());
    return 2;
  }
  const Recipe& r = recipe(args.get("--workload"));
  const auto seed = static_cast<std::uint64_t>(args.num("--seed", 1));
  const bool smoke = args.has("--smoke");
  const double t_start = now_s();

  std::vector<PoolEntry> pool;
  const std::string pool_dir = ensure_pool(r, args.get("--inputs"), pool);

  const std::string cap_name = std::string("capture-") +
                               (smoke ? "smoke-" : "") + "s" +
                               std::to_string(seed);
  const std::string cap_dir = pool_dir + "/" + cap_name;
  // One capture per pool is kept: captures are cheap to rebuild and large.
  for (const auto& ent : fs::directory_iterator(pool_dir)) {
    const std::string n = ent.path().filename().string();
    if (ent.is_directory() && n.rfind("capture-", 0) == 0 && n != cap_name) {
      fs::remove_all(ent.path());
    }
  }
  if (!fs::exists(cap_dir + "/meta.json")) {
    write_capture(r, pool, pool_dir, seed,
                  smoke ? 1 : r.replicas, cap_dir);
  }
  std::string meta = read_file(cap_dir + "/meta.json");
  while (!meta.empty() && meta.back() == '\n') meta.pop_back();
  Json out;
  out.str("capture_dir", cap_dir)
      .raw("meta", meta)
      .num("gen_s", now_s() - t_start);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace e2e
