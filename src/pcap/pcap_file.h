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
