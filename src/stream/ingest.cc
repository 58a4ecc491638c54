#include "stream/ingest.h"

#include <cstring>


namespace ccsig::stream {
namespace {

// Mirrors the (packed, little-endian) on-disk record header in
// pcap_file.cc / cursor.cc. Host is little-endian on every platform the
// project targets, so a memcpy is a correct decode.
struct RecordHeader {
  std::uint32_t ts_sec;
  std::uint32_t ts_usec;
  std::uint32_t incl_len;
  std::uint32_t orig_len;
};
static_assert(sizeof(RecordHeader) == 16);

}  // namespace

BatchedIngest::BatchedIngest(const std::string& path, pcap::CursorMode mode,
                             bool tail)
    : cursor_(path, mode, tail) {}

std::size_t BatchedIngest::fill(std::vector<RoutedRecord>& out,
                                std::size_t max_records) {
  if (done_) return 0;
  std::size_t appended = 0;
  try {
    // Fused fast path (kMmap): walk the mapping directly, parsing the
    // record header and frame inline — no per-record call into next(), no
    // intermediate RecordView. Only records that are provably clean and
    // complete are consumed here; at the first byte that is not, the loop
    // falls through to the canonical cursor path below with the cursor
    // position untouched, so every edge case (truncation, corruption,
    // end-of-file) is validated — and every error produced — by the same
    // code as the streamed backend. Identical offsets, identical reasons.
    const std::uint64_t max_incl = cursor_.max_record_bytes();
    const std::span<const std::uint8_t> rest = cursor_.mapped_rest();
    const std::uint8_t* p = rest.data();
    const std::uint8_t* const end = p + rest.size();
    std::uint64_t consumed_bytes = 0;
    std::uint64_t consumed_records = 0;
    while (appended < max_records) {
      if (static_cast<std::size_t>(end - p) < sizeof(RecordHeader)) break;
      RecordHeader rec;
      std::memcpy(&rec, p, sizeof(rec));
      if (rec.incl_len > max_incl ||
          static_cast<std::size_t>(end - p) - sizeof(rec) < rec.incl_len) {
        break;  // corrupt or truncated: let next() produce the error
      }
      const std::size_t total = sizeof(rec) + rec.incl_len;
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(p + total);
#endif
      const auto d = pcap::decode_frame({p + sizeof(rec), rec.incl_len});
      p += total;
      consumed_bytes += rec.incl_len;
      ++consumed_records;
      if (!d) continue;  // non-TCP/undecodable frame
      // Build the routed record in place: one write per field, no
      // WireRecord intermediary bouncing through the stack.
      RoutedRecord& r = out.emplace_back();
      r.w.time = static_cast<sim::Time>(rec.ts_sec) * sim::kSecond +
                 static_cast<sim::Time>(rec.ts_usec) * sim::kMicrosecond;
      r.w.key.src_addr = d->src_ip & 0x00FFFFFFu;
      r.w.key.dst_addr = d->dst_ip & 0x00FFFFFFu;
      r.w.key.src_port = d->src_port;
      r.w.key.dst_port = d->dst_port;
      r.w.seq32 = d->seq32;
      r.w.ack32 = d->ack32;
      r.w.payload_bytes = d->payload_bytes;
      r.w.window = d->window;
      r.w.flags.syn = d->syn;
      r.w.flags.ack = d->ack;
      r.w.flags.fin = d->fin;
      r.w.flags.rst = d->rst;
      r.canonical = analysis::canonical_flow_key(r.w.key);
      r.hash = sim::FlowKeyHash{}(r.canonical);
      ++appended;
    }
    cursor_.consume_mapped(p - rest.data());
    bytes_ += consumed_bytes;
    records_ += consumed_records;
    // Canonical path: the streamed backend always, and the mmap backend's
    // file tail / anything the fused loop refused to consume.
    while (appended < max_records) {
      const auto rec = cursor_.next();
      if (!rec) {
        // A tailed capture that runs dry has merely caught up with the
        // writer; only a non-tail cursor's nullopt is a real end.
        if (!cursor_.tail()) done_ = true;
        break;
      }
      bytes_ += rec->data.size();
      ++records_;
      // Hint the upcoming bytes: in mmap mode the next record's header is
      // a page the kernel may not have faulted in yet; in stream mode it
      // is already-hot buffer memory and the prefetch is free.
      if (!rec->data.empty()) {
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(rec->data.data() + rec->data.size());
#endif
      }
      const auto w = analysis::wire_record_from_frame(rec->timestamp,
                                                      rec->data);
      if (!w) continue;  // non-TCP/undecodable frame
      out.push_back(route_record(*w));
      ++appended;
    }
  } catch (const runtime::ParseException& e) {
    // Keep the clean prefix (the records already appended) and surface the
    // structured error.
    error_ = e.error();
    done_ = true;
  }
  return appended;
}

}  // namespace ccsig::stream
