#include "pcap/pcap_file.h"

#include <algorithm>
#include <stdexcept>

namespace ccsig::pcap {

PcapWriter::PcapWriter(const std::string& path, std::uint32_t snaplen)
    : out_(path, std::ios::binary | std::ios::trunc), snaplen_(snaplen) {
  if (!out_) throw std::runtime_error("cannot open pcap for writing: " + path);
  const FileHeader hdr{kPcapMagic, 2, 4, 0, 0, snaplen_, kLinktypeEthernet};
  out_.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
}

void PcapWriter::write(sim::Time timestamp,
                       std::span<const std::uint8_t> data,
                       std::uint32_t orig_len) {
  const std::uint32_t incl =
      static_cast<std::uint32_t>(std::min<std::size_t>(data.size(), snaplen_));
  RecordHeader rec;
  rec.ts_sec = static_cast<std::uint32_t>(timestamp / sim::kSecond);
  rec.ts_usec = static_cast<std::uint32_t>((timestamp % sim::kSecond) /
                                           sim::kMicrosecond);
  rec.incl_len = incl;
  rec.orig_len = orig_len;
  out_.write(reinterpret_cast<const char*>(&rec), sizeof(rec));
  out_.write(reinterpret_cast<const char*>(data.data()), incl);
  ++records_;
}

}  // namespace ccsig::pcap
