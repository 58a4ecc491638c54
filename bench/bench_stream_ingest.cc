// Micro-benchmark of the streaming engine's per-record hot path, with the
// same global operator new/delete counting hook as bench_micro_components.
//
// The engine's bounded-memory claim rests on flows going quiescent: once a
// flow's slow-start stats are frozen and its RTT sampler has stopped,
// every further record must touch only scalars — no pending-window
// appends, no vector growth, no deferred-ACK churn. The warmup drives one
// flow through exactly that transition (two segments, a retransmission
// closing slow start, and an ACK past the boundary), then the probe pushes
// records through StreamEngine::push and counts heap allocations. The
// `allocs_per_packet` counter is asserted == 0 by `tools/bench_micro.py
// --smoke` (wired into ctest as bench_micro_smoke).
// BM_StreamFlowLifecycle/{100,1000} covers the part of a flow's life
// before that: it opens, runs and finalizes whole flows (slow start, one
// retransmission, FIN handshake) and reports `allocs_per_flow`, which
// --smoke bounds by a constant: a slow-start segment must not cost an
// allocation of its own.
// The same binary also carries the ingest *ladder*: whole-capture passes
// over synthetic headers-only captures at 64 MB / 256 MB / 1 GB through
// the batched cursor (streamed and mmap backends). Each rung reports
// packets_per_second, gbps (capture bytes consumed per second), and
// allocs_per_packet over a warm engine, which `tools/bench_micro.py
// --ladder-smoke` (ctest: bench_ingest_ladder_smoke, label `perf`) holds
// to a hard packets/s floor and a hard zero on the mmap rung.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "analysis/wire_record.h"
#include "core/analyzer.h"
#include "pcap/cursor.h"
#include "pcap/headers.h"
#include "pcap/pcap_file.h"
#include "sim/packet.h"
#include "sim/time.h"
#include "stream/ingest.h"
#include "stream/stream.h"

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

/// Counts heap allocations across a scope. Deterministic, unlike timings.
class AllocProbe {
 public:
  AllocProbe() : start_(heap_allocs()) {}
  std::uint64_t count() const { return heap_allocs() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ccsig;

constexpr sim::FlowKey kKey{1, 2, 5001, 5002};

analysis::WireRecord data_rec(sim::Time t, std::uint32_t seq,
                              const sim::FlowKey& key = kKey) {
  analysis::WireRecord w;
  w.time = t;
  w.key = key;
  w.seq32 = seq;
  w.payload_bytes = 1448;
  return w;
}

analysis::WireRecord ack_rec(sim::Time t, std::uint32_t acked,
                             const sim::FlowKey& key = kKey) {
  analysis::WireRecord w;
  w.time = t;
  w.key = key.reversed();
  w.seq32 = 1;
  w.ack32 = acked;
  w.flags.ack = true;
  return w;
}

/// Drives the flow to the frozen + sampler-stopped state: slow start
/// closed by a retransmission at t=3ms, stats frozen by the first
/// ACK-direction record past the boundary, sampler stopped when that ACK
/// drains from the deferred queue.
void warmup(stream::StreamEngine& engine) {
  engine.push(data_rec(0, 1));
  engine.push(data_rec(1 * sim::kMillisecond, 1449));
  engine.push(ack_rec(2 * sim::kMillisecond, 1449));
  engine.push(data_rec(3 * sim::kMillisecond, 1));  // retx: closes slow start
  engine.push(ack_rec(4 * sim::kMillisecond, 2897));
  engine.push(data_rec(5 * sim::kMillisecond, 2897));
}

void BM_StreamIngestHotPath(benchmark::State& state) {
  const FlowAnalyzer analyzer;
  constexpr int kRecords = 100'000;
  std::uint64_t allocs = 0;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    state.PauseTiming();
    stream::StreamConfig cfg;
    cfg.jobs = 1;
    auto engine = std::make_unique<stream::StreamEngine>(analyzer, cfg);
    warmup(*engine);
    state.ResumeTiming();
    {
      const AllocProbe probe;
      sim::Time t = 10 * sim::kMillisecond;
      std::uint32_t seq = 4345;
      for (int i = 0; i < kRecords / 2; ++i) {
        engine->push(data_rec(t, seq));
        engine->push(ack_rec(t + sim::kMicrosecond, seq + 1448));
        seq += 1448;
        t += 100 * sim::kMicrosecond;
      }
      allocs += probe.count();
    }
    packets += kRecords;
    state.PauseTiming();
    auto reports = engine->finish();
    benchmark::DoNotOptimize(reports);
    engine.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
  state.counters["allocs_per_packet"] =
      static_cast<double>(allocs) / static_cast<double>(packets);
}
BENCHMARK(BM_StreamIngestHotPath);

// ---------------------------------------------------------------------------
// Whole-flow lifecycle: open, slow start, retransmission, FIN, finalize.
// ---------------------------------------------------------------------------

constexpr std::size_t kLifecycleFlows = 64;

/// Pushes one whole connection on `key`, from time `t` on (and advances
/// `t` past its last record): `segments` slow-start data segments in
/// doubling bursts (2, 4, 8, ...), each burst answered by one cumulative
/// ACK per two segments; a retransmission of the last segment, which
/// closes slow start; an ACK past it, which freezes the slow-start stats
/// and stops the sampler; then the FIN handshake, which finalizes the
/// flow. Returns the records pushed.
std::uint64_t push_whole_flow(stream::StreamEngine& engine,
                              const sim::FlowKey& key, std::size_t segments,
                              sim::Time& t) {
  std::uint64_t records = 0;
  const auto push = [&](analysis::WireRecord w) {
    engine.push(w);
    ++records;
    t += 10 * sim::kMicrosecond;
  };
  std::uint32_t seq = 1;
  std::size_t sent = 0;
  for (std::size_t burst = 2; sent < segments; burst *= 2) {
    const std::size_t n = std::min(burst, segments - sent);
    for (std::size_t i = 0; i < n; ++i) {
      push(data_rec(t, static_cast<std::uint32_t>(seq + i * 1448), key));
    }
    for (std::size_t i = 2; i <= n; i += 2) {
      push(ack_rec(t, static_cast<std::uint32_t>(seq + i * 1448), key));
    }
    seq += static_cast<std::uint32_t>(n * 1448);
    sent += n;
  }
  push(data_rec(t, seq - 1448, key));  // retx: closes slow start
  push(ack_rec(t, seq, key));          // past the boundary
  analysis::WireRecord fin = data_rec(t, seq, key);
  fin.payload_bytes = 0;
  fin.flags.fin = true;
  push(fin);
  analysis::WireRecord fin_ack = ack_rec(t, seq + 1, key);  // acks the FIN
  fin_ack.flags.fin = true;
  push(fin_ack);
  analysis::WireRecord last = data_rec(t, seq + 1, key);  // acks theirs
  last.payload_bytes = 0;
  last.ack32 = 2;
  last.flags.ack = true;
  push(last);
  return records;
}

void BM_StreamFlowLifecycle(benchmark::State& state) {
  const FlowAnalyzer analyzer;
  const auto segments = static_cast<std::size_t>(state.range(0));
  std::uint64_t allocs = 0;
  std::uint64_t flows = 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    stream::StreamConfig cfg;
    cfg.jobs = 1;
    auto engine = std::make_unique<stream::StreamEngine>(analyzer, cfg);
    state.ResumeTiming();
    {
      const AllocProbe probe;
      sim::Time t = 0;
      for (std::size_t f = 0; f < kLifecycleFlows; ++f) {
        const sim::FlowKey key{static_cast<sim::Address>(1 + f),
                               static_cast<sim::Address>(10001 + f),
                               static_cast<std::uint16_t>(40000 + f), 443};
        records += push_whole_flow(*engine, key, segments, t);
      }
      allocs += probe.count();
    }
    flows += kLifecycleFlows;
    state.PauseTiming();
    auto reports = engine->finish();
    benchmark::DoNotOptimize(reports);
    engine.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.counters["allocs_per_flow"] =
      static_cast<double>(allocs) / static_cast<double>(flows);
}
BENCHMARK(BM_StreamFlowLifecycle)->Arg(100)->Arg(1000);

// ---------------------------------------------------------------------------
// Ingest ladder: whole-capture passes over synthetic pcap files.
// ---------------------------------------------------------------------------

constexpr std::size_t kLadderFlows = 64;

sim::FlowKey ladder_key(std::size_t flow) {
  return sim::FlowKey{static_cast<sim::Address>(1 + flow),
                      static_cast<sim::Address>(10001 + flow),
                      static_cast<std::uint16_t>(40000 + flow), 443};
}

void write_frame(pcap::PcapWriter& out, sim::Time t, const sim::Packet& p) {
  const auto frame = pcap::encode_frame(p);
  out.write(t, frame, static_cast<std::uint32_t>(frame.size()) +
                          p.payload_bytes);
}

sim::Packet data_pkt(const sim::FlowKey& key, std::uint64_t seq) {
  sim::Packet p;
  p.key = key;
  p.seq = seq;
  p.payload_bytes = 1448;
  p.window = 65535;
  return p;
}

sim::Packet ack_pkt(const sim::FlowKey& key, std::uint64_t acked) {
  sim::Packet p;
  p.key = key.reversed();
  p.seq = 1;
  p.ack = acked;
  p.window = 65535;
  p.flags.ack = true;
  return p;
}

struct LadderCapture {
  std::string path;
  std::uint64_t file_bytes = 0;
  std::uint64_t packets = 0;  // TCP records decoded per full pass
};

/// Builds (once per process, cached on disk across runs) a capture of at
/// least `target_bytes`. Every flow is driven through the slow-start-close
/// + freeze transition in its first six records, so the overwhelming bulk
/// of the file exercises the quiescent scalar-only engine path — the
/// steady state a long capture spends its life in.
const LadderCapture& ladder_capture(std::size_t target_mb) {
  static std::map<std::size_t, LadderCapture> cache;
  auto it = cache.find(target_mb);
  if (it != cache.end()) return it->second;

  namespace fs = std::filesystem;
  const std::uint64_t target_bytes = std::uint64_t{target_mb} << 20;
  const char* dir_env = std::getenv("CCSIG_LADDER_DIR");
  const fs::path dir = dir_env ? fs::path(dir_env) : fs::temp_directory_path();
  fs::create_directories(dir);
  const fs::path path =
      dir /
      ("ccsig_ingest_ladder_" + std::to_string(target_mb) + "mb_v2.pcap");

  // Each record is 16 bytes of pcap header + a 54-byte headers-only frame.
  const std::uint64_t per_record = 16 + pcap::kFrameHeaderBytes;
  const std::uint64_t records = (target_bytes + per_record - 1) / per_record;

  std::error_code ec;
  const auto existing = fs::file_size(path, ec);
  if (ec || existing != 24 + records * per_record) {
    pcap::PcapWriter out(path.string(), pcap::kFrameHeaderBytes);
    sim::Time t = 0;
    const auto tick = [&t] { return t += sim::kMicrosecond; };
    // Freeze every flow first (see warmup() above for the transition).
    for (std::size_t f = 0; f < kLadderFlows; ++f) {
      const sim::FlowKey key = ladder_key(f);
      write_frame(out, tick(), data_pkt(key, 1));
      write_frame(out, tick(), data_pkt(key, 1449));
      write_frame(out, tick(), ack_pkt(key, 1449));
      write_frame(out, tick(), data_pkt(key, 1));  // retx closes slow start
      write_frame(out, tick(), ack_pkt(key, 2897));
      write_frame(out, tick(), data_pkt(key, 2897));
    }
    // Steady state: congestion-window bursts round-robin across the
    // flows — each turn is one RTT's worth of traffic, 8 data segments
    // followed by 4 cumulative ACKs, the way a real sender clocked by a
    // real receiver interleaves on the wire.
    std::vector<std::uint64_t> seq(kLadderFlows, 4345);
    std::size_t f = 0;
    while (out.records_written() < records) {
      const sim::FlowKey key = ladder_key(f);
      for (int i = 0; i < 8 && out.records_written() < records; ++i) {
        write_frame(out, tick(), data_pkt(key, seq[f] + i * 1448));
      }
      for (int i = 1; i <= 4 && out.records_written() < records; ++i) {
        write_frame(out, tick(), ack_pkt(key, seq[f] + i * 2 * 1448));
      }
      seq[f] += 8 * 1448;
      f = (f + 1) % kLadderFlows;
    }
    out.flush();
  }

  LadderCapture cap;
  cap.path = path.string();
  cap.file_bytes = fs::file_size(path);
  cap.packets = fs::file_size(path) > 24 ? (cap.file_bytes - 24) / per_record
                                         : 0;
  return cache.emplace(target_mb, std::move(cap)).first->second;
}

/// One untimed batched pass that populates and freezes the flow table, so
/// the measured passes run against a warm engine and the allocation probe
/// sees the steady state rather than 64 one-time flow setups.
void ladder_warm(stream::StreamEngine& engine, const LadderCapture& cap) {
  stream::BatchedIngest ingest(cap.path, pcap::CursorMode::kAuto);
  std::vector<stream::RoutedRecord> batch;
  batch.reserve(512);
  while (ingest.fill(batch, 512) > 0) {
    engine.push_batch(batch);
    batch.clear();
  }
}

stream::StreamConfig ladder_config() {
  stream::StreamConfig cfg;
  cfg.jobs = 1;
  return cfg;
}

void ladder_batched(benchmark::State& state, pcap::CursorMode mode) {
  const LadderCapture& cap = ladder_capture(state.range(0));
  const FlowAnalyzer analyzer;
  const stream::StreamConfig cfg = ladder_config();
  stream::StreamEngine engine(analyzer, cfg);
  ladder_warm(engine, cap);
  std::uint64_t allocs = 0, packets = 0, bytes = 0;
  std::vector<stream::RoutedRecord> batch;
  batch.reserve(cfg.batch_records);
  for (auto _ : state) {
    stream::BatchedIngest ingest(cap.path, mode);
    // The probe starts after the cursor and batch buffer exist: it counts
    // the steady per-record path, which must be allocation-free.
    const AllocProbe probe;
    while (ingest.fill(batch, cfg.batch_records) > 0) {
      engine.push_batch(batch);
      batch.clear();
    }
    allocs += probe.count();
    packets += ingest.records_decoded();
    bytes += cap.file_bytes;
  }
  auto reports = engine.finish();
  benchmark::DoNotOptimize(reports);
  state.counters["packets_per_second"] =
      benchmark::Counter(static_cast<double>(packets),
                         benchmark::Counter::kIsRate);
  state.counters["gbps"] = benchmark::Counter(
      static_cast<double>(bytes) * 8e-9, benchmark::Counter::kIsRate);
  state.counters["allocs_per_packet"] =
      static_cast<double>(allocs) / static_cast<double>(packets);
}

void BM_IngestStreamBatched(benchmark::State& state) {
  ladder_batched(state, pcap::CursorMode::kStream);
}
BENCHMARK(BM_IngestStreamBatched)
    ->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_IngestMmapBatched(benchmark::State& state) {
  ladder_batched(state, pcap::CursorMode::kMmap);
}
BENCHMARK(BM_IngestMmapBatched)
    ->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
