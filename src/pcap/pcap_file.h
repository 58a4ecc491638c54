// Classic libpcap file format (the format tcpdump writes by default).
//
// Little-endian, magic 0xa1b2c3d4, microsecond timestamps — readable by
// tcpdump/tshark/wireshark. Only what the project needs: linktype EN10MB.
// PcapWriter produces the files; pcap::PcapCursor (cursor.h) reads them.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>

#include "sim/time.h"

namespace ccsig::pcap {

inline constexpr std::uint32_t kPcapMagic = 0xa1b2c3d4;
inline constexpr std::uint32_t kLinktypeEthernet = 1;

// The on-disk structures, shared by the writer and the cursor. They are
// little-endian and every platform the project targets is too, so a plain
// memcpy of the packed fields is byte-exact. (A big-endian port would need
// byte swapping where these are copied and nowhere else.)
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

/// Streams records into a pcap file.
class PcapWriter {
 public:
  /// Opens (truncates) `path`. Throws std::runtime_error on failure.
  explicit PcapWriter(const std::string& path,
                      std::uint32_t snaplen = 65535);

  /// Writes one record; `data` is truncated to the snap length.
  void write(sim::Time timestamp, std::span<const std::uint8_t> data,
             std::uint32_t orig_len);

  void flush() { out_.flush(); }
  std::uint64_t records_written() const { return records_; }

 private:
  std::ofstream out_;
  std::uint32_t snaplen_;
  std::uint64_t records_ = 0;
};

}  // namespace ccsig::pcap
