#include "stream/stream.h"

#include <algorithm>
#include <chrono>
#include <list>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "obs/rtt_samples.h"
#include "obs/trace.h"
#include "runtime/spsc_queue.h"
#include "runtime/parallel_map.h"
#include "stream/flow_state.h"

namespace ccsig::stream {
namespace {

/// Batch buffers in circulation per shard when jobs > 1: one being filled
/// by the producer, the rest queued or draining. Bounded, so a slow shard
/// backpressures the pusher instead of growing a queue; the fill fraction
/// of the fullest shard is what pressure() reports.
constexpr std::size_t kBatchesPerShard = 4;

/// flow_order_less over emitted reports.
bool flow_order_less_ready(const ReadyReport& a, const ReadyReport& b) {
  return analysis::flow_order_less(a.start, a.report.data_key, b.start,
                                   b.report.data_key);
}

/// Heterogeneous lookup key carrying the hash computed at decode time, so
/// the per-record flow-table probe never rehashes the FlowKey.
struct HashedKey {
  const sim::FlowKey& key;
  std::size_t hash;
};

struct FlowHash {
  using is_transparent = void;
  std::size_t operator()(const sim::FlowKey& k) const {
    return sim::FlowKeyHash{}(k);
  }
  std::size_t operator()(const HashedKey& h) const { return h.hash; }
};

struct FlowEq {
  using is_transparent = void;
  bool operator()(const sim::FlowKey& a, const sim::FlowKey& b) const {
    return a == b;
  }
  bool operator()(const sim::FlowKey& a, const HashedKey& b) const {
    return a == b.key;
  }
  bool operator()(const HashedKey& a, const sim::FlowKey& b) const {
    return a.key == b;
  }
};

}  // namespace

struct StreamEngine::Shard {
  // Single-writer discipline: exactly one worker thread owns this shard
  // and is the only consumer of `inbox` / producer of `recycle`; the
  // pushing thread is the only producer of `inbox` / consumer of
  // `recycle`. Both edges are therefore strictly SPSC and the flow table
  // below needs no lock at all.
  runtime::SpscQueue<std::vector<RoutedRecord>*> inbox{kBatchesPerShard};
  runtime::SpscQueue<std::vector<RoutedRecord>*> recycle{kBatchesPerShard};

  struct Entry {
    explicit Entry(const sim::FlowKey& canonical) : state(canonical) {}
    FlowState state;
    std::list<sim::FlowKey>::iterator lru_it;
    bool early_counted = false;
  };
  std::unordered_map<sim::FlowKey, Entry, FlowHash, FlowEq> flows;
  std::list<sim::FlowKey> lru;  // front = least recently seen

  // Most-recently-touched entry, a pure cache over `flows`. Real traffic
  // interleaves data and ACK records of the same flow back-to-back, so
  // about half of all probes hit here and skip both the hash-table find
  // and the (then no-op) LRU splice. Entry pointers are node-stable;
  // finalize_flow clears this on any erase.
  Entry* hot = nullptr;
  sim::FlowKey hot_key;

  StreamStats tally;
  std::size_t peak = 0;

  // Live flow-table occupancy, published by the owning worker (single
  // writer) after every open/finalize so the control thread's statusz can
  // read it without touching `flows`.
  std::atomic<std::size_t> resident{0};

  // -- Emission state -------------------------------------------------------
  // Emission position of the record currently being processed; worker-owned
  // scratch, set by process_record before any finalize it triggers.
  std::uint64_t cur_seq = 0;
  std::uint32_t cur_emit = 0;
  // Latency freight of the record currently being processed (see
  // ReadyReport): its service ingest stamp and capture timestamp.
  std::int64_t cur_ingest_ns = 0;
  sim::Time cur_time = 0;
  // seq of the last record this shard's worker finished (release-published
  // after the batch's emissions are queued, so a reader that observes the
  // watermark also observes every emission at or below it).
  std::atomic<std::uint64_t> processed{0};
  // Batches flushed to `inbox` and not yet fully processed. Incremented by
  // the control thread before the push, decremented by the worker after
  // the batch's emissions are visible; 0 therefore means "caught up with
  // everything flushed".
  std::atomic<std::size_t> inflight{0};
  // Finalized-but-undrained emissions. Finalization is orders of magnitude
  // rarer than record processing, so a mutex here stays off the hot path.
  std::mutex ready_mu;
  std::vector<ReadyReport> ready;
};

StreamEngine::StreamEngine(const FlowAnalyzer& analyzer, StreamConfig cfg)
    : analyzer_(analyzer), cfg_(cfg) {
  if (cfg_.shards > StreamConfig::kMaxShards) {
    throw std::invalid_argument("stream engine: shards > kMaxShards");
  }
  nshards_ = cfg_.shards > 0 ? cfg_.shards : StreamConfig::kDefaultShards;
  // hash % nshards is a hardware divide on the per-record path; the
  // default shard count is a power of two, where it is a mask.
  shard_mask_ = (nshards_ & (nshards_ - 1)) == 0 ? nshards_ - 1 : 0;
  if (cfg_.max_active_flows > 0) {
    per_shard_cap_ = std::max<std::size_t>(1, cfg_.max_active_flows / nshards_);
  }
  shards_.reserve(nshards_);
  for (std::size_t i = 0; i < nshards_; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }

  auto& reg = obs::MetricsRegistry::global();
  records_ctr_ = reg.counter("stream.records_total");
  opened_ctr_ = reg.counter("stream.flows_opened");
  finalized_ctr_ = reg.counter("stream.flows_finalized");
  evicted_fin_ctr_ = reg.counter("stream.evicted_fin");
  evicted_idle_ctr_ = reg.counter("stream.evicted_idle");
  evicted_lru_ctr_ = reg.counter("stream.evicted_lru");
  evicted_forced_ctr_ = reg.counter("stream.evicted_forced");
  early_ctr_ = reg.counter("stream.early_classified");
  active_g_ = reg.gauge("stream.flows_active");
  peak_g_ = reg.gauge("stream.flows_peak");
  imbalance_g_ = reg.gauge("stream.shard_imbalance");

  const unsigned jobs = cfg_.jobs == 0 ? runtime::default_jobs() : cfg_.jobs;
  if (jobs > 1) {
    pending_.resize(nshards_, nullptr);
    pending_first_seq_.resize(nshards_, 0);
    for (std::size_t i = 0; i < nshards_; ++i) {
      Shard& s = *shards_[i];
      for (std::size_t b = 0; b < kBatchesPerShard; ++b) {
        batch_pool_.push_back(std::make_unique<std::vector<RoutedRecord>>());
        batch_pool_.back()->reserve(StreamConfig::batch_records);
        if (b == 0) {
          pending_[i] = batch_pool_.back().get();
        } else {
          s.recycle.try_push(batch_pool_.back().get());
        }
      }
    }
    const unsigned nworkers =
        static_cast<unsigned>(std::min<std::size_t>(jobs, nshards_));
    workers_.reserve(nworkers);
    for (unsigned w = 0; w < nworkers; ++w) {
      workers_.emplace_back([this, w, nworkers] { worker_loop(w, nworkers); });
    }
  }
}

StreamEngine::~StreamEngine() { stop_workers(); }

void StreamEngine::stop_workers() {
  if (workers_.empty()) return;
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void StreamEngine::worker_loop(unsigned worker_id, unsigned nworkers) {
  for (;;) {
    // Order matters: read the stop flag BEFORE sweeping. Every push
    // happens-before the stop store, so a sweep that starts after
    // observing stop and still finds every owned inbox empty proves the
    // inboxes are drained for good.
    const bool stopping = stop_.load(std::memory_order_acquire);
    bool did_work = false;
    for (std::size_t idx = worker_id; idx < nshards_; idx += nworkers) {
      Shard& s = *shards_[idx];
      std::vector<RoutedRecord>* batch = nullptr;
      while (s.inbox.try_pop(batch)) {
        for (const RoutedRecord& r : *batch) process_record(s, r);
        // Release AFTER the batch's finalizations hit the ready queue: a
        // drain that acquires this watermark sees those emissions. (Only
        // non-empty batches are flushed.)
        s.processed.store(batch->back().seq, std::memory_order_release);
        batch->clear();
        s.recycle.try_push(std::move(batch));  // capacity ≥ pool, never full
        s.inflight.fetch_sub(1, std::memory_order_release);
        did_work = true;
      }
    }
    if (did_work) continue;
    if (stopping) return;
    std::this_thread::yield();
  }
}

void StreamEngine::route(RoutedRecord r) {
  r.seq = seq_next_++;
  const std::size_t idx =
      shard_mask_ != 0 ? (r.hash & shard_mask_) : (r.hash % nshards_);
  if (workers_.empty()) {
    process_record(*shards_[idx], r);
    return;
  }
  enqueue_to_shard(idx, r);
}

void StreamEngine::enqueue_to_shard(std::size_t idx, const RoutedRecord& r) {
  std::vector<RoutedRecord>* batch = pending_[idx];
  if (batch->empty()) pending_first_seq_[idx] = r.seq;
  batch->push_back(r);
  if (batch->size() >= StreamConfig::batch_records) flush_pending(idx);
}

void StreamEngine::flush_pending(std::size_t idx) {
  Shard& s = *shards_[idx];
  std::vector<RoutedRecord>* full = pending_[idx];
  // Count the batch in flight before it becomes poppable, so the worker's
  // decrement can never be observed before our increment.
  s.inflight.fetch_add(1, std::memory_order_relaxed);
  while (!s.inbox.try_push(std::move(full))) {
    std::this_thread::yield();  // shard backlog: backpressure the reader
  }
  std::vector<RoutedRecord>* fresh = nullptr;
  while (!s.recycle.try_pop(fresh)) {
    std::this_thread::yield();
  }
  fresh->clear();
  pending_[idx] = fresh;
}

std::size_t StreamEngine::push_force_evict(std::size_t shard) {
  const std::size_t idx = shard % nshards_;
  RoutedRecord cmd;
  cmd.kind = RoutedKind::kEvictOldest;
  cmd.seq = seq_next_++;
  if (workers_.empty()) {
    process_record(*shards_[idx], cmd);
  } else {
    enqueue_to_shard(idx, cmd);
  }
  return idx;
}

std::size_t StreamEngine::resident_flows() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& sp : shards_) {
    total += sp->resident.load(std::memory_order_relaxed);
  }
  return total;
}

double StreamEngine::pressure() const {
  if (workers_.empty()) return 0.0;
  std::size_t worst = 0;
  for (const std::unique_ptr<Shard>& sp : shards_) {
    worst = std::max(worst, sp->inflight.load(std::memory_order_relaxed));
  }
  return static_cast<double>(worst) / static_cast<double>(kBatchesPerShard);
}

void StreamEngine::push(const analysis::WireRecord& w) {
  records_ctr_.inc();
  route(route_record(w));
}

void StreamEngine::push_batch(std::span<const RoutedRecord> batch) {
  records_ctr_.add(batch.size());
  for (const RoutedRecord& r : batch) route(r);
}

void StreamEngine::process_record(Shard& s, const RoutedRecord& r) {
  s.cur_seq = r.seq;
  s.cur_emit = 0;
  s.cur_ingest_ns = r.kind == RoutedKind::kRecord ? r.ingest_ns : 0;
  s.cur_time = r.w.time;
  if (r.kind == RoutedKind::kEvictOldest) {
    // In-band shed command: force-finalize one resident flow at this exact
    // position in the shard's record stream (deterministic under replay).
    // An empty shard makes it a no-op — the seq is still consumed, which
    // is what keeps live and replayed emission positions aligned.
    if (!s.flows.empty()) evict_for_cap(s);
    return;
  }
  ++s.tally.records;
  const analysis::WireRecord& w = r.w;

  // Idle eviction first, in capture time, oldest first — a deterministic
  // function of the record stream.
  if (cfg_.idle_timeout > 0) {
    while (!s.lru.empty()) {
      const sim::FlowKey& oldest = s.lru.front();
      const auto it = s.flows.find(oldest);
      if (w.time - it->second.state.last_seen() <= cfg_.idle_timeout) break;
      finalize_flow(s, oldest, Evict::kIdle);
    }
  }

  Shard::Entry* entry;
  if (s.hot != nullptr && s.hot_key == r.canonical) {
    // The previous record touched this flow, so it is already at the back
    // of the LRU: the splice would be a no-op and the find redundant.
    entry = s.hot;
  } else {
    auto it = s.flows.find(HashedKey{r.canonical, r.hash});
    if (it == s.flows.end()) {
      if (per_shard_cap_ > 0 && s.flows.size() >= per_shard_cap_) {
        evict_for_cap(s);
      }
      it = s.flows.try_emplace(r.canonical, r.canonical).first;
      s.lru.push_back(r.canonical);
      it->second.lru_it = std::prev(s.lru.end());
      ++s.tally.flows_opened;
      opened_ctr_.inc();
      s.peak = std::max(s.peak, s.flows.size());
      s.resident.store(s.flows.size(), std::memory_order_relaxed);
    } else {
      s.lru.splice(s.lru.end(), s.lru, it->second.lru_it);
    }
    entry = &it->second;
    s.hot = entry;
    s.hot_key = r.canonical;
  }

  entry->state.ingest(w);
  if (entry->state.complete()) {
    finalize_flow(s, r.canonical, Evict::kFin);
  } else if (!entry->early_counted && entry->state.early_ready()) {
    entry->early_counted = true;
    ++s.tally.early_classified;
    early_ctr_.inc();
  }
}

void StreamEngine::evict_for_cap(Shard& s) {
  // Prefer the least-recently-active flow whose first slow-start period
  // has closed: its congestion signature is already frozen, so evicting it
  // early cannot change its verdict.
  for (const sim::FlowKey& key : s.lru) {
    if (s.flows.find(key)->second.state.slow_start_closed()) {
      finalize_flow(s, key, Evict::kLru);
      return;
    }
  }
  // No eligible victim: the cap is genuinely too small, drop the oldest.
  const sim::FlowKey oldest = s.lru.front();
  finalize_flow(s, oldest, Evict::kForced);
}

void StreamEngine::finalize_flow(Shard& s, const sim::FlowKey& canonical,
                                 Evict reason) {
  s.hot = nullptr;  // the erase below may invalidate the cached entry
  const auto it = s.flows.find(canonical);
  FinalizedFlow fin = it->second.state.finalize(cfg_.extract);
  if (fin.has_payload) {
    if (obs::RttSampleSink* sink = obs::RttSampleSink::global()) {
      sink->on_flow(fin.data_key, fin.start_time,
                    it->second.state.slow_start_samples());
    }
    FlowReport report =
        analyzer_.report_from_extract(fin.data_key, std::move(fin.extracted),
                                      fin.throughput_bps, fin.duration,
                                      fin.data_packets);
    std::lock_guard<std::mutex> lk(s.ready_mu);
    s.ready.push_back(ReadyReport{s.cur_seq, s.cur_emit++, fin.start_time,
                                  s.cur_ingest_ns, s.cur_time,
                                  std::move(report)});
  }
  s.lru.erase(it->second.lru_it);
  s.flows.erase(it);
  s.resident.store(s.flows.size(), std::memory_order_relaxed);
  ++s.tally.flows_finalized;
  finalized_ctr_.inc();
  switch (reason) {
    case Evict::kFin:
      ++s.tally.evicted_fin;
      evicted_fin_ctr_.inc();
      break;
    case Evict::kIdle:
      ++s.tally.evicted_idle;
      evicted_idle_ctr_.inc();
      break;
    case Evict::kLru:
      ++s.tally.evicted_lru;
      evicted_lru_ctr_.inc();
      break;
    case Evict::kForced:
      ++s.tally.evicted_forced;
      evicted_forced_ctr_.inc();
      break;
    case Evict::kEndOfCapture:
      break;
  }
}

std::vector<FlowReport> StreamEngine::finish() {
  std::vector<ReadyReport> ready;
  finish_ordered(ready);
  std::stable_sort(ready.begin(), ready.end(), flow_order_less_ready);
  std::vector<FlowReport> reports;
  reports.reserve(ready.size());
  for (ReadyReport& r : ready) reports.push_back(std::move(r.report));
  return reports;
}

std::uint64_t StreamEngine::safe_threshold() const {
  // Exclusive bound: emissions with seq < threshold are all queued, because
  // every record that could still produce one carries a larger seq. Per
  // shard, the bound is (a) the processed watermark while batches are in
  // flight, else (b) the first unflushed pending seq, else (c) everything
  // assigned — an idle shard's future emissions can only come from records
  // not yet pushed, all of which get seqs >= seq_next_.
  std::uint64_t threshold = seq_next_;
  if (workers_.empty()) return threshold;  // inline: pushes are synchronous
  for (std::size_t i = 0; i < nshards_; ++i) {
    const Shard& s = *shards_[i];
    std::uint64_t bound;
    if (s.inflight.load(std::memory_order_acquire) > 0) {
      bound = s.processed.load(std::memory_order_acquire) + 1;
    } else if (!pending_[i]->empty()) {
      bound = pending_first_seq_[i];
    } else {
      bound = seq_next_;
    }
    threshold = std::min(threshold, bound);
  }
  return threshold;
}

void StreamEngine::extract_ready(std::uint64_t threshold,
                                 std::vector<ReadyReport>& out) {
  const auto base = static_cast<std::vector<ReadyReport>::difference_type>(
      out.size());
  for (const std::unique_ptr<Shard>& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<std::mutex> lk(s.ready_mu);
    // Partition need not be stable: the extracted slice is sorted below
    // and the survivors get sorted on a later drain.
    const auto keep = std::partition(
        s.ready.begin(), s.ready.end(),
        [threshold](const ReadyReport& r) { return r.seq >= threshold; });
    for (auto it = keep; it != s.ready.end(); ++it) {
      out.push_back(std::move(*it));
    }
    s.ready.erase(keep, s.ready.end());
  }
  std::sort(out.begin() + base, out.end(),
            [](const ReadyReport& a, const ReadyReport& b) {
              return a.seq != b.seq ? a.seq < b.seq : a.emit_idx < b.emit_idx;
            });
}

void StreamEngine::drain_ready(std::vector<ReadyReport>& out) {
  extract_ready(safe_threshold(), out);
}

void StreamEngine::finish_ordered(std::vector<ReadyReport>& out) {
  obs::TraceSpan span("stream.finalize", "stream");
  if (!workers_.empty()) {
    for (std::size_t idx = 0; idx < nshards_; ++idx) {
      if (!pending_[idx]->empty()) flush_pending(idx);
    }
    stop_workers();
  }
  // Workers are gone and nothing is pending, so everything queued is final.
  extract_ready(seq_next_, out);

  // End of capture: finalize still-resident flows under the first
  // never-assigned seq (no record triggered them, so they carry no latency
  // freight), then order them with flow_order_less as the tail of the
  // emission order.
  const std::size_t eoc_base = out.size();
  StreamStats total;
  std::size_t active = 0;
  std::uint64_t max_shard_records = 0;
  for (const std::unique_ptr<Shard>& sp : shards_) {
    Shard& s = *sp;
    active += s.flows.size();
    s.cur_seq = seq_next_;
    s.cur_ingest_ns = 0;
    s.cur_time = 0;
    while (!s.lru.empty()) {
      finalize_flow(s, s.lru.front(), Evict::kEndOfCapture);
    }
    total.records += s.tally.records;
    total.flows_opened += s.tally.flows_opened;
    total.flows_finalized += s.tally.flows_finalized;
    total.evicted_fin += s.tally.evicted_fin;
    total.evicted_idle += s.tally.evicted_idle;
    total.evicted_lru += s.tally.evicted_lru;
    total.evicted_forced += s.tally.evicted_forced;
    total.early_classified += s.tally.early_classified;
    total.peak_active_flows += s.peak;
    max_shard_records = std::max(max_shard_records, s.tally.records);
  }
  extract_ready(seq_next_ + 1, out);
  const auto eoc = out.begin() + static_cast<std::ptrdiff_t>(eoc_base);
  std::sort(eoc, out.end(), flow_order_less_ready);
  std::uint32_t emit = 0;
  for (auto it = eoc; it != out.end(); ++it) it->emit_idx = emit++;

  active_g_.set(static_cast<double>(active));
  peak_g_.set(static_cast<double>(total.peak_active_flows));
  if (total.records > 0) {
    const double mean = static_cast<double>(total.records) /
                        static_cast<double>(nshards_);
    imbalance_g_.set(static_cast<double>(max_shard_records) / mean);
  }
  final_stats_ = total;
}

PcapAnalysis analyze_pcap_stream(const std::string& path,
                                 const FlowAnalyzer& analyzer,
                                 const StreamConfig& cfg,
                                 pcap::CursorMode mode) {
  PcapAnalysis out;
  StreamEngine engine(analyzer, cfg);
  obs::Counter bytes_ctr =
      obs::MetricsRegistry::global().counter("stream.bytes_ingested");
  obs::Gauge rate_g =
      obs::MetricsRegistry::global().gauge("stream.ingest_bytes_per_sec");
  std::uint64_t bytes = 0;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    obs::TraceSpan span("stream.ingest", "stream");
    BatchedIngest ingest(path, mode);
    std::vector<RoutedRecord> batch;
    batch.reserve(StreamConfig::batch_records);
    while (ingest.fill(batch, StreamConfig::batch_records) > 0) {
      engine.push_batch(batch);
      batch.clear();
    }
    if (ingest.error()) out.error = *ingest.error();
    bytes = ingest.bytes_consumed();
  } catch (const runtime::ParseException& e) {
    // A damaged file header surfaces at open: report the error, keep the
    // (empty) prefix.
    out.error = e.error();
  }
  bytes_ctr.add(bytes);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (secs > 0) rate_g.set(static_cast<double>(bytes) / secs);
  out.reports = engine.finish();
  return out;
}

}  // namespace ccsig::stream
