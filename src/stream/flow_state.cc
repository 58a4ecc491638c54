#include "stream/flow_state.h"

#include <algorithm>
#include <cstddef>
#include <limits>

namespace ccsig::stream {

namespace {

/// Drops the dead prefix of a vector + head-cursor queue: all of it once
/// the queue is empty (keeping the capacity), or by one move of the live
/// part once the prefix is more than half the vector, so each element is
/// moved O(1) times on average.
template <typename T>
void compact_front(std::vector<T>& v, std::size_t& head) {
  if (head == v.size()) {
    v.clear();
    head = 0;
  } else if (head > v.size() / 2) {
    v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Hypothesis: one direction assignment, run incrementally.
// ---------------------------------------------------------------------------

void FlowState::Hypothesis::on_segment(std::uint64_t seq_end, sim::Time t) {
  if (seq_end > highest_sent) {
    // New data ends above everything sent: it belongs at the window's end.
    pending.push_back(Outstanding{seq_end, t, false});
    highest_sent = seq_end;
    return;
  }
  // A retransmission: a range ending at or below the highest byte sent.
  // Its boundary may already be outstanding (same range sent again: taint
  // it and refresh the send time), or be new — inside the window, or below
  // its front when the range was already acknowledged — and is inserted in
  // sequence order, tainted.
  const auto live = pending.begin() + static_cast<std::ptrdiff_t>(pending_head);
  const auto it = std::lower_bound(
      live, pending.end(), seq_end,
      [](const Outstanding& o, std::uint64_t s) { return o.seq_end < s; });
  if (it != pending.end() && it->seq_end == seq_end) {
    it->tainted = true;
    it->sent_at = t;
  } else {
    pending.insert(it, Outstanding{seq_end, t, true});
  }
  if (!ss_closed) {
    ss_closed = true;
    ss_end = t;
  }
}

void FlowState::Hypothesis::process_deferred(const DeferredAck& a) {
  // One ACK through the sampler: sample the newest covered segment unless
  // it was retransmitted, then retire everything the ACK covers.
  if (!a.ack_flag || a.syn) return;
  if (ss_closed && a.time > ss_end) {
    // Sampling is over; the caller frees the remaining FIFO.
    stopped = true;
    std::vector<Outstanding>().swap(pending);
    pending_head = 0;
    return;
  }
  const auto live = pending.begin() + static_cast<std::ptrdiff_t>(pending_head);
  const auto it = std::upper_bound(
      live, pending.end(), a.ack,
      [](std::uint64_t ack, const Outstanding& o) { return ack < o.seq_end; });
  if (it == live) return;
  const Outstanding& newest = *(it - 1);
  if (!newest.tainted) {
    samples.push_back(
        analysis::RttSample{a.time, a.time - newest.sent_at, newest.seq_end});
  }
  pending_head = static_cast<std::size_t>(it - pending.begin());
  compact_front(pending, pending_head);
}

void FlowState::Hypothesis::add_advance(const analysis::AckAdvance& a,
                                        sim::Time bound_end,
                                        sim::Time flow_start) {
  advances.push_back(a);
  // `bound_end` is a lower bound on the final slow-start end time, so
  // `bound` is a lower bound on the final window midpoint (integer division
  // is monotone). Advances at or before the midpoint only matter through
  // their maximum, which is the last one — everything before it can go.
  const sim::Time bound = flow_start + (bound_end - flow_start) / 2;
  while (advances.size() - advances_head >= 2 &&
         advances[advances_head + 1].time <= bound) {
    ++advances_head;
  }
  compact_front(advances, advances_head);
}

void FlowState::Hypothesis::compute_ss_stats(sim::Time flow_start,
                                             sim::Time end,
                                             bool by_retransmission) {
  ss_done = true;
  ss_acked_raw = adv_max > 1 ? adv_max - 1 : 0;
  analysis::SlowStartInfo info;
  info.end_time = end;
  info.ended_by_retransmission = by_retransmission;
  info.acked_bytes = ss_acked_raw;
  ss_throughput = slow_start_throughput_from_advances(
      flow_start, info,
      std::span<const analysis::AckAdvance>(advances).subspan(advances_head));
  std::vector<analysis::AckAdvance>().swap(advances);
  advances_head = 0;
}

// ---------------------------------------------------------------------------
// FlowState
// ---------------------------------------------------------------------------

FinalizedFlow FlowState::finalize(const features::ExtractOptions& opt) {
  FinalizedFlow out;
  if (payload_[0] == 0 && payload_[1] == 0) return out;  // no data: no report
  out.has_payload = true;
  const int data_dir = payload_majority_dir();
  const int ack_dir = 1 - data_dir;
  out.data_key = data_dir == 0 ? canonical_ : canonical_.reversed();

  const sim::Time start = start_time();
  const sim::Time end = end_time();
  out.start_time = start;
  out.duration = end - start;
  out.data_packets = count_[data_dir];

  // Whole-flow goodput: highest ACK − 1 (wire sequence 0 is the SYN, so
  // payload starts at 1).
  const std::uint64_t max_ack = max_ack_[ack_dir];
  const std::uint64_t acked = max_ack > 1 ? max_ack - 1 : 0;
  const std::optional<double> flow_tput =
      throughput_bps(acked, out.duration);
  out.throughput_bps = flow_tput.value_or(0.0);

  Hypothesis& h = hyp_[data_dir];
  // Any ACKs still deferred can no longer tie with data (there is none
  // left); process them.
  h.flush_before(std::numeric_limits<sim::Time>::max());
  if (!h.ss_done) {
    // No ACK-direction record ever passed the slow-start end, so every
    // advance was retained; close the window at the retransmission, or at
    // the end of the flow when there was none.
    h.compute_ss_stats(start, h.ss_closed ? h.ss_end : end, h.ss_closed);
  }
  analysis::SlowStartInfo& ss = out.slow_start;
  ss.end_time = h.ss_closed ? h.ss_end : end;
  ss.ended_by_retransmission = h.ss_closed;
  ss.acked_bytes = h.ss_acked_raw;

  if (count_[data_dir] == 0 || count_[ack_dir] == 0) {
    out.extracted.insufficiency = features::Insufficiency::kNoData;
  } else {
    out.extracted = features::features_from_slow_start(
        h.samples, ss, h.ss_throughput, flow_tput, out.duration, opt);
  }
  return out;
}

std::optional<double> slow_start_throughput_from_advances(
    sim::Time start, const analysis::SlowStartInfo& ss,
    std::span<const analysis::AckAdvance> advances) {
  if (ss.end_time <= start || ss.acked_bytes == 0) return std::nullopt;
  // Delivery rate over the SECOND HALF of the slow-start window. The whole-
  // window mean is dragged far below link rate by the exponential ramp; by
  // the later rounds a flow that saturates its bottleneck delivers at
  // exactly the bottleneck rate, which is what capacity-threshold labeling
  // needs to compare against.
  const sim::Time mid = start + (ss.end_time - start) / 2;
  std::uint64_t ack_mid = 0;
  std::uint64_t ack_end = 0;
  sim::Time last_advance = mid;
  for (const auto& a : advances) {
    if (a.time > ss.end_time) break;
    if (a.ack > ack_end) {
      ack_end = a.ack;
      if (a.time > mid) last_advance = a.time;
    }
    if (a.time <= mid) ack_mid = std::max(ack_mid, a.ack);
  }
  // The window ends at the *last cumulative-ACK advance*: after the packet
  // loss that terminates slow start, ACKs stall for a round trip until the
  // retransmission; counting that stall would deflate the rate.
  if (ack_end <= ack_mid || last_advance <= mid) return 0.0;
  return static_cast<double>(ack_end - ack_mid) * 8.0 /
         sim::to_seconds(last_advance - mid);
}

std::optional<double> throughput_bps(std::uint64_t acked_bytes,
                                     sim::Duration duration) {
  if (duration <= 0 || acked_bytes == 0) return std::nullopt;
  return static_cast<double>(acked_bytes) * 8.0 / sim::to_seconds(duration);
}

FinalizedFlow analyze_trace_flow(std::span<const analysis::WireRecord> trace,
                                 const sim::FlowKey& data_key,
                                 const features::ExtractOptions& opt) {
  const sim::FlowKey ack_key = data_key.reversed();
  FlowState state(analysis::canonical_flow_key(data_key));
  for (const analysis::WireRecord& w : trace) {
    if (w.key == data_key || w.key == ack_key) state.ingest(w);
  }
  return state.finalize(opt);
}

}  // namespace ccsig::stream
