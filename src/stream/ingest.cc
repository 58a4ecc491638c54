#include "stream/ingest.h"

namespace ccsig::stream {

BatchedIngest::BatchedIngest(const std::string& path, pcap::CursorMode mode,
                             bool tail)
    : cursor_(path, mode, tail) {}

std::size_t BatchedIngest::fill(std::vector<RoutedRecord>& out,
                                std::size_t max_records) {
  if (done_) return 0;
  std::size_t appended = 0;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  try {
    while (appended < max_records) {
      const auto rec = cursor_.next();
      if (!rec) {
        // A tailed capture that runs dry has merely caught up with the
        // writer; only a non-tail cursor's nullopt is a real end.
        if (!cursor_.tail()) done_ = true;
        break;
      }
      bytes += rec->data.size();
      ++records;
      // Decode straight into the batch slot: no intermediate record.
      RoutedRecord& r = out.emplace_back();
      if (!analysis::decode_wire_record(rec->timestamp, rec->data, r.w)) {
        out.pop_back();  // non-TCP/undecodable frame
        continue;
      }
      route_in_place(r);
      ++appended;
    }
  } catch (const runtime::ParseException& e) {
    // Keep the clean prefix (the records already appended) and surface the
    // structured error.
    error_ = e.error();
    done_ = true;
  }
  bytes_ += bytes;
  records_ += records;
  return appended;
}

}  // namespace ccsig::stream
