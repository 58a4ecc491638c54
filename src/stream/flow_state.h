// Per-flow analysis: the paper's method, one record at a time.
//
// A FlowState consumes one connection's records in capture order and, at
// finalize, reduces them to the flow's report inputs: direction, slow-start
// boundary, slow-start RTT samples, throughput scalars and features. This
// is the only implementation of the method; every caller (pcap analysis,
// live simulator traces, testbed runs, M-Lab NDT rows, the daemon) goes
// through it. Its rules:
//
//   Data direction   — the side that carried more payload bytes (ties keep
//                      the canonical direction). The majority is known only
//                      at finalize, so BOTH direction hypotheses run from
//                      the first record; the losing one is nearly free (its
//                      "data" records carry no payload, so its pending
//                      window and sample vector stay empty). A connection
//                      with no payload in either direction yields no
//                      report.
//   Slow start       — ends at the first data segment whose range ends at
//                      or below the highest byte already sent (a
//                      retransmission, partial or whole); a flow that never
//                      retransmits is in slow start until its last record.
//   RTT samples      — an ACK samples the newest outstanding segment it
//                      covers (exact boundary or the highest boundary below
//                      it), at most once per ACK; retransmitted ranges never
//                      sample (Karn's rule); duplicate ACKs, SYNs and
//                      flagless records sample nothing; only ACKs up to the
//                      slow-start end count.
//   Tie order        — a data segment and an ACK with the same timestamp
//                      are ordered data first, whatever order the capture
//                      wrote them in. Capture timestamps have finite
//                      resolution (µs in classic pcap), so the true order
//                      of same-timestamp records is unknown, and data first
//                      is the conservative choice: an ACK sharing its
//                      timestamp with a retransmission sees the range as
//                      retransmitted and, by Karn's rule, does not sample
//                      it. ACKs therefore wait in a deferred FIFO until a
//                      record with a strictly later timestamp proves no
//                      more data can tie with them, so the FIFO only ever
//                      holds ACKs from the flow's single latest timestamp.
//   Throughput       — slow-start throughput from the cumulative-ACK
//                      advance sequence (slow_start_throughput_from_
//                      advances); flow throughput is highest ACK − 1 over
//                      the flow's duration.
//
// Records must arrive in capture order. On a capture whose timestamps go
// backwards the deferred FIFO releases ACKs in arrival order, and the
// feature extractor reports kNonMonotonicTimestamps when that reorders the
// samples.
//
// Memory: O(in-flight segments + slow-start RTT samples) per flow, in flat
// vectors that grow geometrically and reuse their capacity: the pending
// window over sequence space, the deferred-ACK FIFO and the throughput
// advance window are each a vector plus a head cursor, so a slow-start
// segment costs no allocation of its own (bench_stream_ingest
// BM_StreamFlowLifecycle bounds allocs_per_flow). Once the first slow-start
// period closes and the sampler passes its cutoff, every per-record
// structure is freed and further records touch only scalar counters — the
// BM_StreamIngestHotPath allocs_per_packet=0 bound.
// The one exception is a flow that never retransmits: its slow-start
// window extends to the end of the flow, whose midpoint is unknown until
// then, so the cumulative-ACK advances of the trailing half must be kept
// (16 bytes per advance; the LRU cap bounds the total).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "analysis/slow_start.h"
#include "analysis/wire_record.h"
#include "features/extractor.h"
#include "sim/packet.h"
#include "sim/time.h"

namespace ccsig::stream {

/// Everything the engine needs to build the flow's FlowReport, produced
/// exactly once when the flow is finalized (FIN, idle, LRU, or end of
/// capture).
struct FinalizedFlow {
  bool has_payload = false;  // false: no payload either way, no report
  sim::FlowKey data_key;
  sim::Time start_time = 0;
  sim::Duration duration = 0;
  std::size_t data_packets = 0;
  double throughput_bps = 0;
  analysis::SlowStartInfo slow_start;
  features::ExtractResult extracted;
};

class FlowState {
 public:
  explicit FlowState(const sim::FlowKey& canonical) : canonical_(canonical) {
    hyp_[0].data_dir = 0;
    hyp_[1].data_dir = 1;
  }

  /// Consumes one record of this connection (either direction).
  /// `w.key` must equal the canonical key or its reverse. Inline (defined
  /// below): this is the engine's per-record hot path, and for a quiescent
  /// flow it must compile down to scalar updates with no out-of-line call.
  void ingest(const analysis::WireRecord& w);

  /// Both directions sent a FIN and both FINs are acknowledged: no more
  /// records can belong to this flow, it can be finalized immediately.
  bool complete() const { return fin_acked(0) && fin_acked(1); }

  /// The first slow-start period of the (current payload-majority) data
  /// direction has closed — the flow is eligible for LRU eviction without
  /// losing its signature.
  bool slow_start_closed() const {
    return hyp_[payload_majority_dir()].ss_closed;
  }

  /// The flow's verdict inputs are frozen (slow start closed, sampler past
  /// its cutoff, throughput window computed): it could be classified now,
  /// before the flow ends. Basis of the stream.early_classified counter.
  bool early_ready() const {
    const Hypothesis& h = hyp_[payload_majority_dir()];
    return h.stopped && h.ss_done;
  }

  sim::Time last_seen() const { return last_seen_; }

  /// Finalizes: flushes deferred ACKs, closes the slow-start window if the
  /// flow never retransmitted, and extracts features. Call at most once.
  FinalizedFlow finalize(const features::ExtractOptions& opt);

  /// The slow-start RTT samples of the payload-majority direction — after
  /// finalize(), exactly the samples its features were computed from.
  std::span<const analysis::RttSample> slow_start_samples() const {
    return hyp_[payload_majority_dir()].samples;
  }

 private:
  /// One data segment not yet covered by a processed ACK.
  struct Outstanding {
    std::uint64_t seq_end;
    sim::Time sent_at;
    bool tainted;  // retransmitted range: excluded per Karn's rule
  };

  struct DeferredAck {
    sim::Time time;
    std::uint64_t ack;
    bool ack_flag;
    bool syn;
  };

  /// One direction-assignment hypothesis: `data_dir` is the data side.
  struct Hypothesis {
    int data_dir = 0;

    // RTT sampler. `pending` is the outstanding window over sequence
    // space: sorted by seq_end, live from `pending_head` on. New data ends
    // above `highest_sent` and is appended; a retransmission is found or
    // inserted in order by binary search; an ACK retires a prefix by
    // moving the head. Its dead prefix is dropped when the window empties
    // or once it exceeds half the vector.
    std::vector<Outstanding> pending;
    std::size_t pending_head = 0;
    std::uint64_t highest_sent = 0;
    std::vector<analysis::RttSample> samples;
    // Deferred-ACK FIFO as vector + head cursor: once drained it resets to
    // reuse its capacity, so the steady state allocates nothing.
    std::vector<DeferredAck> fifo;
    std::size_t fifo_head = 0;
    bool stopped = false;  // an ACK past the slow-start end: sampling over

    // Slow-start boundary (first retransmission on the data side).
    bool ss_closed = false;
    sim::Time ss_end = 0;

    // Slow-start ACK bookkeeping (acked bytes + the throughput advance
    // window), updated on ACK *arrival*, not through the deferred FIFO:
    // the throughput window is a property of when ACKs reached the tap.
    std::uint64_t adv_max = 0;  // running max cumulative ACK
    // The advances the window midpoint may still need, live from
    // `advances_head` on (vector + head cursor, like `pending`).
    std::vector<analysis::AckAdvance> advances;
    std::size_t advances_head = 0;
    bool ss_done = false;  // ss stats computed, advances freed
    std::uint64_t ss_acked_raw = 0;
    std::optional<double> ss_throughput;

    void on_data(const analysis::TraceRecord& r);
    void on_segment(std::uint64_t seq_end, sim::Time t);
    void on_ack(const analysis::TraceRecord& r, sim::Time flow_start);
    void flush_before(sim::Time t);
    void process_deferred(const DeferredAck& a);
    void add_advance(const analysis::AckAdvance& a, sim::Time bound_end,
                     sim::Time flow_start);
    void compute_ss_stats(sim::Time flow_start, sim::Time end,
                          bool by_retransmission);
  };

  int dir_of(const sim::FlowKey& key) const {
    return key == canonical_ ? 0 : 1;
  }

  /// The data direction by payload majority so far (ties keep the
  /// canonical direction).
  int payload_majority_dir() const {
    return payload_[0] >= payload_[1] ? 0 : 1;
  }

  bool fin_acked(int dir) const {
    return fin_seen_[dir] && max_ack_[1 - dir] > fin_seq_end_[dir];
  }

  sim::Time start_time() const;
  sim::Time end_time() const;

  sim::FlowKey canonical_;
  struct DirUnwrap {
    analysis::SeqUnwrapper seq;
    analysis::SeqUnwrapper ack;
  };
  DirUnwrap unwrap_[2];

  // Per-direction accounting (dir 0 = canonical direction).
  std::uint64_t payload_[2] = {0, 0};
  std::uint64_t count_[2] = {0, 0};
  sim::Time first_time_[2] = {0, 0};
  sim::Time last_time_[2] = {0, 0};
  std::uint64_t max_ack_[2] = {0, 0};  // max r.ack among records OF dir
  bool fin_seen_[2] = {false, false};
  std::uint64_t fin_seq_end_[2] = {0, 0};
  sim::Time last_seen_ = 0;

  Hypothesis hyp_[2];
};

/// Mean downstream throughput (bits/s) over the second half of the slow-
/// start window, from the flow's cumulative-ACK advance sequence (strictly
/// increasing ack values in time order). Returns nullopt when the window
/// is empty or nothing was acknowledged in it.
std::optional<double> slow_start_throughput_from_advances(
    sim::Time start, const analysis::SlowStartInfo& ss,
    std::span<const analysis::AckAdvance> advances);

/// Mean throughput of `acked_bytes` delivered over `duration` (bits/s);
/// nullopt when either is zero.
std::optional<double> throughput_bps(std::uint64_t acked_bytes,
                                     sim::Duration duration);

/// Analyzes the one connection `data_key` of a live trace: its records,
/// both directions, go through a single FlowState in trace order, and
/// every other flow is skipped.
FinalizedFlow analyze_trace_flow(std::span<const analysis::WireRecord> trace,
                                 const sim::FlowKey& data_key,
                                 const features::ExtractOptions& opt = {});

// ---------------------------------------------------------------------------
// Hot-path definitions, inline so the streaming engine's per-record loop
// sees through them. The helpers that append to the pending window, the
// samples and the advance ledger (on_segment, process_deferred,
// add_advance) and the cold ones (compute_ss_stats, finalize) stay out of
// line in flow_state.cc: inlining those appends as well pushes ingest()
// past the compiler's inlining budget, and the quiescent path then pays an
// out-of-line call per record.
// ---------------------------------------------------------------------------

inline void FlowState::Hypothesis::flush_before(sim::Time t) {
  while (fifo_head < fifo.size() && fifo[fifo_head].time < t) {
    process_deferred(fifo[fifo_head]);
    ++fifo_head;
    if (stopped) {
      // Sampling is over: everything still queued is discarded and nothing
      // is retained for later records (process_deferred freed `pending`).
      std::vector<DeferredAck>().swap(fifo);
      fifo_head = 0;
      return;
    }
  }
  if (fifo_head == fifo.size()) {
    fifo.clear();  // keeps capacity: the steady state re-queues for free
    fifo_head = 0;
  }
}

inline void FlowState::Hypothesis::on_data(const analysis::TraceRecord& r) {
  if (stopped) return;
  flush_before(r.time);
  if (stopped) return;  // a flushed ACK passed the slow-start end
  if (r.payload_bytes == 0) return;
  on_segment(r.seq + r.payload_bytes, r.time);
}

inline void FlowState::Hypothesis::on_ack(const analysis::TraceRecord& r,
                                          sim::Time flow_start) {
  // Slow-start ACK bookkeeping runs in raw arrival order with no flag
  // filter, and stops at the first ACK-direction record past the
  // slow-start end.
  if (!ss_done) {
    if (ss_closed && r.time > ss_end) {
      compute_ss_stats(flow_start, ss_end, /*by_retransmission=*/true);
    } else if (r.ack > adv_max) {
      adv_max = r.ack;
      add_advance(analysis::AckAdvance{r.time, r.ack},
                  ss_closed ? ss_end : r.time, flow_start);
    }
  }
  // RTT sampler: this ACK may still tie with not-yet-captured data records
  // (which the tie-order rule puts first), so defer it; but any queued ACK
  // from a strictly earlier timestamp can no longer tie with future data
  // and is safe to process now.
  if (stopped) return;
  flush_before(r.time);
  if (stopped) return;
  if (!r.flags.ack || r.flags.syn) return;  // never sample
  fifo.push_back(DeferredAck{r.time, r.ack, r.flags.ack, r.flags.syn});
}

inline sim::Time FlowState::start_time() const {
  sim::Time t = std::numeric_limits<sim::Time>::max();
  if (count_[0] > 0) t = std::min(t, first_time_[0]);
  if (count_[1] > 0) t = std::min(t, first_time_[1]);
  return t == std::numeric_limits<sim::Time>::max() ? 0 : t;
}

inline sim::Time FlowState::end_time() const {
  sim::Time t = 0;
  if (count_[0] > 0) t = std::max(t, last_time_[0]);
  if (count_[1] > 0) t = std::max(t, last_time_[1]);
  return t;
}

inline void FlowState::ingest(const analysis::WireRecord& w) {
  const int dir = dir_of(w.key);
  const analysis::TraceRecord r =
      analysis::unwrap_record(w, unwrap_[dir].seq, unwrap_[dir].ack);

  if (count_[dir] == 0) first_time_[dir] = r.time;
  ++count_[dir];
  last_time_[dir] = r.time;
  payload_[dir] += r.payload_bytes;
  if (r.ack > max_ack_[dir]) max_ack_[dir] = r.ack;
  if (r.flags.fin && !fin_seen_[dir]) {
    fin_seen_[dir] = true;
    fin_seq_end_[dir] = r.seq + r.payload_bytes;
  }
  last_seen_ = r.time;

  const sim::Time start = start_time();
  if (dir == 0) {
    hyp_[0].on_data(r);
    hyp_[1].on_ack(r, start);
  } else {
    hyp_[0].on_ack(r, start);
    hyp_[1].on_data(r);
  }
}

}  // namespace ccsig::stream
