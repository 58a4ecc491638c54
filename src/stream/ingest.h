// Batched zero-copy pcap ingest for the streaming engine.
//
// BatchedIngest decodes a whole chunk of records into a prefetch-friendly
// contiguous RoutedRecord batch, computing the canonical flow key and its
// hash once per record; the engine then routes and looks flows up with the
// precomputed hash and never rehashes.
//
// Error semantics are exactly the cursor's: on a damaged capture, fill()
// returns the records decoded before the damage and records the structured
// ParseError — the clean prefix is never lost to batching.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/wire_record.h"
#include "pcap/cursor.h"
#include "runtime/parse_error.h"
#include "sim/packet.h"

namespace ccsig::stream {

/// What a RoutedRecord carries through a shard inbox. Almost always a data
/// record; kEvictOldest is an in-band control command the service layer
/// injects under memory pressure — it tells the owning shard worker to
/// force-finalize its least-recently-touched flow at a deterministic
/// position in that shard's record stream (so a replayed session sheds the
/// exact same flows at the exact same points).
enum class RoutedKind : std::uint8_t { kRecord = 0, kEvictOldest = 1 };

/// One decoded record plus its routing precomputation: the canonical
/// (direction-independent) flow key and that key's hash, computed exactly
/// once at decode time and reused for shard routing and flow-table
/// lookup. Trivially copyable so batches cross threads as memcpys.
struct RoutedRecord {
  analysis::WireRecord w;
  sim::FlowKey canonical;
  std::size_t hash = 0;
  std::uint64_t seq = 0;  // global arrival index, stamped by the engine
  /// Wall-clock nanoseconds when the record entered the service (stamped
  /// by the ingest loop; 0 = untracked). Pure observability freight: the
  /// engine copies it into the emission that the record triggers so the
  /// service can histogram ingest->verdict latency, and it never
  /// influences routing, analysis, or emission order.
  std::int64_t ingest_ns = 0;
  RoutedKind kind = RoutedKind::kRecord;
};

static_assert(std::is_trivially_copyable_v<RoutedRecord>);

/// Computes `r`'s canonical key and hash from its wire record, in place.
inline void route_in_place(RoutedRecord& r) {
  r.canonical = analysis::canonical_flow_key(r.w.key);
  r.hash = sim::FlowKeyHash{}(r.canonical);
}

inline RoutedRecord route_record(const analysis::WireRecord& w) {
  RoutedRecord r;
  r.w = w;
  route_in_place(r);
  return r;
}

class BatchedIngest {
 public:
  /// Opens the capture. Throws runtime::ParseException on a damaged file
  /// header, same as the cursor — except in `tail` mode, where a header
  /// still being written is a retryable state, not an error (the cursor
  /// defers parsing it; see PcapCursor's tail contract).
  explicit BatchedIngest(const std::string& path,
                         pcap::CursorMode mode = pcap::CursorMode::kStream,
                         bool tail = false);

  /// Appends up to `max_records` decoded records to `out` (which is NOT
  /// cleared), skipping non-TCP/undecodable frames. Returns the number
  /// appended; 0 means end of capture or a parse error — check error().
  /// After an error, further calls return 0.
  std::size_t fill(std::vector<RoutedRecord>& out, std::size_t max_records);

  /// The structured error that stopped ingest, if any. The records
  /// decoded before the damage were all returned by fill().
  const std::optional<runtime::ParseError>& error() const { return error_; }

  /// Raw capture bytes consumed so far (record bodies).
  std::uint64_t bytes_consumed() const { return bytes_; }
  std::uint64_t records_decoded() const { return records_; }

  /// True once the capture has genuinely ended (clean EOF in non-tail
  /// mode, or a parse error in either mode). A tail-mode fill() that
  /// returns 0 with exhausted() false just caught up with the writer —
  /// call fill() again later.
  bool exhausted() const { return done_; }
  const pcap::PcapCursor& cursor() const { return cursor_; }

 private:
  pcap::PcapCursor cursor_;
  std::optional<runtime::ParseError> error_;
  std::uint64_t bytes_ = 0;
  std::uint64_t records_ = 0;
  bool done_ = false;
};

}  // namespace ccsig::stream
