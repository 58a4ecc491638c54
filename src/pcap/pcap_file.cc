#include "pcap/pcap_file.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace ccsig::pcap {
namespace {

// On-disk structures are little-endian; x86-64 is little-endian, so plain
// memcpy of packed fields is byte-exact. (A big-endian port would need
// byte swapping here and nowhere else.)
struct FileHeader {
  std::uint32_t magic;
  std::uint16_t version_major;
  std::uint16_t version_minor;
  std::int32_t thiszone;
  std::uint32_t sigfigs;
  std::uint32_t snaplen;
  std::uint32_t linktype;
};
static_assert(sizeof(FileHeader) == 24);

struct RecordHeader {
  std::uint32_t ts_sec;
  std::uint32_t ts_usec;
  std::uint32_t incl_len;
  std::uint32_t orig_len;
};
static_assert(sizeof(RecordHeader) == 16);

}  // namespace

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
