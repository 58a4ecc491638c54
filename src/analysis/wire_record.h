// The wire-level record every analysis input is reduced to — a decoded
// capture frame or a simulator tap observation — plus the per-direction
// 32-bit unwrapping that turns it into 64-bit stream offsets, and the flow
// identity helpers the engine keys and orders flows by.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "pcap/headers.h"
#include "sim/packet.h"
#include "sim/time.h"

namespace ccsig::analysis {

/// One TCP observation as a capture carries it: nanosecond timestamp,
/// 4-tuple and the 32-bit wire fields. Trivially copyable so the streaming
/// engine can batch these across threads.
struct WireRecord {
  sim::Time time = 0;
  sim::FlowKey key;
  std::uint32_t seq32 = 0;
  std::uint32_t ack32 = 0;
  std::uint32_t payload_bytes = 0;
  std::uint16_t window = 0;
  sim::TcpFlags flags;
};

static_assert(std::is_trivially_copyable_v<WireRecord>);

/// A live capture: wire records in tap order.
using Trace = std::vector<WireRecord>;

/// A WireRecord after unwrapping to 64-bit stream offsets. Per-record
/// scratch inside the engine, never stored.
struct TraceRecord {
  sim::Time time = 0;
  sim::FlowKey key;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint32_t payload_bytes = 0;
  sim::TcpFlags flags;
};

/// Decodes one captured frame's headers into `w` in place — the one
/// frame → WireRecord mapping. Returns false (leaving `w` partly written)
/// for frames that are not TCP/IPv4, which analysis skips. In place and
/// inline because it runs once per record on the ingest fast path, where
/// the batch slot is the destination.
inline bool decode_wire_record(sim::Time timestamp,
                               std::span<const std::uint8_t> frame,
                               WireRecord& w) {
  const auto decoded = pcap::decode_frame(frame);
  if (!decoded) return false;
  w.time = timestamp;
  w.key.src_addr = decoded->src_ip & 0x00FFFFFFu;
  w.key.dst_addr = decoded->dst_ip & 0x00FFFFFFu;
  w.key.src_port = decoded->src_port;
  w.key.dst_port = decoded->dst_port;
  w.seq32 = decoded->seq32;
  w.ack32 = decoded->ack32;
  w.payload_bytes = decoded->payload_bytes;
  w.window = decoded->window;
  w.flags.syn = decoded->syn;
  w.flags.ack = decoded->ack;
  w.flags.fin = decoded->fin;
  w.flags.rst = decoded->rst;
  return true;
}

/// decode_wire_record by value: nullopt for frames that are not TCP/IPv4.
inline std::optional<WireRecord> wire_record_from_frame(
    sim::Time timestamp, std::span<const std::uint8_t> frame) {
  WireRecord w;
  if (!decode_wire_record(timestamp, frame, w)) return std::nullopt;
  return w;
}

/// The record a capture of simulator packet `p` at time `t` would yield,
/// at full nanosecond precision: sequence and ack wrap to 32 bits and the
/// window is scaled into 16 bits as encode_frame writes them. Simulator
/// addresses are used as-is; they are small integers, which the capture
/// mask leaves unchanged.
inline WireRecord wire_record_from_packet(sim::Time t, const sim::Packet& p) {
  WireRecord w;
  w.time = t;
  w.key = p.key;
  w.seq32 = static_cast<std::uint32_t>(p.seq);
  w.ack32 = static_cast<std::uint32_t>(p.ack);
  w.payload_bytes = p.payload_bytes;
  w.window = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(p.window >> 8, 0xFFFF));
  w.flags = p.flags;
  return w;
}

/// Extends wrapped 32-bit wire values into a monotonically consistent 64-bit
/// space. Tracks the current epoch per direction; a backward jump of more
/// than half the sequence space is a wrap.
class SeqUnwrapper {
 public:
  std::uint64_t unwrap(std::uint32_t v32) {
    const std::uint64_t candidate = epoch_ + v32;
    if (!have_last_) {
      have_last_ = true;
      last_ = candidate;
      return candidate;
    }
    std::uint64_t best = candidate;
    // Consider the neighbouring epochs and pick the value closest to the
    // last one seen (handles both wraps and in-window retransmissions).
    if (candidate + (1ull << 32) >= last_ &&
        diff(candidate + (1ull << 32)) < diff(best)) {
      best = candidate + (1ull << 32);
    }
    if (candidate >= (1ull << 32) && diff(candidate - (1ull << 32)) < diff(best)) {
      best = candidate - (1ull << 32);
    }
    if (best > last_ && best - last_ < (1ull << 31)) last_ = best;
    epoch_ = best & ~0xFFFFFFFFull;
    return best;
  }

 private:
  std::uint64_t diff(std::uint64_t v) const {
    return v > last_ ? v - last_ : last_ - v;
  }
  std::uint64_t epoch_ = 0;
  std::uint64_t last_ = 0;
  bool have_last_ = false;
};

/// Converts a wire observation into the unwrapped record, advancing the
/// per-direction unwrappers. This is the single definition of the wire →
/// stream-offset mapping; the ack field means nothing without the ACK
/// flag, so it is unwrapped only when the flag is set (0 otherwise).
inline TraceRecord unwrap_record(const WireRecord& w, SeqUnwrapper& seq,
                                 SeqUnwrapper& ack) {
  TraceRecord r;
  r.time = w.time;
  r.key = w.key;
  r.seq = seq.unwrap(w.seq32);
  r.ack = w.flags.ack ? ack.unwrap(w.ack32) : 0;
  r.payload_bytes = w.payload_bytes;
  r.flags = w.flags;
  return r;
}

/// Canonicalizes the two directional keys of a connection to one value, so
/// both directions of a flow land in the same flow-table slot.
inline sim::FlowKey canonical_flow_key(const sim::FlowKey& k) {
  const sim::FlowKey rev = k.reversed();
  const bool keep = (k.src_addr != rev.src_addr) ? k.src_addr < rev.src_addr
                                                 : k.src_port <= rev.src_port;
  return keep ? k : rev;
}

/// Total order on flows: by first activity, ties broken by the data-
/// direction key so the output never depends on hash-table iteration or
/// shard order.
inline bool flow_order_less(sim::Time a_start, const sim::FlowKey& a_key,
                            sim::Time b_start, const sim::FlowKey& b_key) {
  if (a_start != b_start) return a_start < b_start;
  if (a_key.src_addr != b_key.src_addr) return a_key.src_addr < b_key.src_addr;
  if (a_key.dst_addr != b_key.dst_addr) return a_key.dst_addr < b_key.dst_addr;
  if (a_key.src_port != b_key.src_port) return a_key.src_port < b_key.src_port;
  return a_key.dst_port < b_key.dst_port;
}

}  // namespace ccsig::analysis
