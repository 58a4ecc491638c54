// PcapWriter → PcapCursor round trips, and the cursor's structured
// rejection of files it cannot read.
#include "pcap/cursor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "pcap/pcap_file.h"
#include "runtime/parse_error.h"

namespace ccsig::pcap {
namespace {

struct Record {
  sim::Time timestamp = 0;
  std::uint32_t orig_len = 0;
  std::vector<std::uint8_t> data;
};

class PcapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("ccsig_pcap_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + std::to_string(counter_++)))
                .string() +
            ".pcap";
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// Every record of the file, copied out of the cursor's window.
  std::vector<Record> read_all(CursorMode mode = CursorMode::kStream) const {
    std::vector<Record> out;
    PcapCursor cursor(path_, mode);
    while (const auto rec = cursor.next()) {
      out.push_back(Record{rec->timestamp, rec->orig_len,
                           {rec->data.begin(), rec->data.end()}});
    }
    return out;
  }

  /// The structured error reading the whole file raises.
  runtime::ParseError read_error(CursorMode mode = CursorMode::kStream) const {
    try {
      read_all(mode);
    } catch (const runtime::ParseException& e) {
      return e.error();
    }
    ADD_FAILURE() << "expected a ParseException";
    return {};
  }

  static int counter_;
  std::string path_;
};

int PcapFileTest::counter_ = 0;

/// Descriptors this process holds open.
std::size_t open_fds() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST_F(PcapFileTest, WriteReadRoundTrip) {
  {
    PcapWriter writer(path_);
    const std::uint8_t a[] = {1, 2, 3, 4};
    const std::uint8_t b[] = {9, 8, 7};
    writer.write(1 * sim::kSecond + 500 * sim::kMicrosecond, a, 4);
    writer.write(2 * sim::kSecond, b, 3);
    EXPECT_EQ(writer.records_written(), 2u);
  }
  for (const CursorMode mode : {CursorMode::kStream, CursorMode::kMmap}) {
    const auto records = read_all(mode);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].timestamp, 1 * sim::kSecond + 500 * sim::kMicrosecond);
    EXPECT_EQ(records[0].data, (std::vector<std::uint8_t>{1, 2, 3, 4}));
    EXPECT_EQ(records[0].orig_len, 4u);
    EXPECT_EQ(records[1].data, (std::vector<std::uint8_t>{9, 8, 7}));
  }
}

TEST_F(PcapFileTest, SnaplenTruncatesButKeepsOrigLen) {
  {
    PcapWriter writer(path_, /*snaplen=*/2);
    const std::uint8_t data[] = {1, 2, 3, 4, 5};
    writer.write(0, data, 5);
  }
  const auto records = read_all();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].data.size(), 2u);
  EXPECT_EQ(records[0].orig_len, 5u);
}

TEST_F(PcapFileTest, HeaderFieldsSurvive) {
  { PcapWriter writer(path_, 96); }
  PcapCursor cursor(path_);
  EXPECT_EQ(cursor.snaplen(), 96u);
  EXPECT_EQ(cursor.linktype(), kLinktypeEthernet);
  EXPECT_FALSE(cursor.next().has_value());  // empty file
}

TEST_F(PcapFileTest, MicrosecondPrecisionOnDisk) {
  {
    PcapWriter writer(path_);
    const std::uint8_t d[] = {0};
    // Nanoseconds below 1 µs are truncated by the classic format.
    writer.write(123 * sim::kMicrosecond + 789, d, 1);
  }
  const auto records = read_all();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].timestamp, 123 * sim::kMicrosecond);
}

TEST_F(PcapFileTest, RejectsBadMagic) {
  {
    std::ofstream out(path_, std::ios::binary);
    const char junk[32] = "not a pcap file at all";
    out.write(junk, sizeof(junk));
  }
  const std::size_t fds_before = open_fds();
  for (const CursorMode mode : {CursorMode::kStream, CursorMode::kMmap}) {
    const auto e = read_error(mode);
    EXPECT_EQ(e.file, path_);
    EXPECT_EQ(e.offset, 0u);
    EXPECT_EQ(e.reason, "not a (little-endian, µs) pcap file: bad magic");
  }
  // A constructor that throws releases what it opened.
  EXPECT_EQ(open_fds(), fds_before);
}

TEST_F(PcapFileTest, RejectsTruncatedFileHeader) {
  {
    std::ofstream out(path_, std::ios::binary);
    out.write("\xd4\xc3\xb2\xa1", 4);
  }
  EXPECT_EQ(read_error().reason,
            "truncated file header (need 24 bytes, got 4)");
}

TEST_F(PcapFileTest, RejectsTruncatedRecord) {
  {
    PcapWriter writer(path_);
    const std::uint8_t d[] = {1, 2, 3, 4};
    writer.write(0, d, 4);
  }
  // Chop the last 2 bytes off: the body is short.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 2);
  for (const CursorMode mode : {CursorMode::kStream, CursorMode::kMmap}) {
    const auto e = read_error(mode);
    EXPECT_EQ(e.offset, 24u + 16u);  // at the body, after its header
    EXPECT_EQ(e.reason, "truncated record body (need 4 bytes, got 2)");
  }
  // Chop into the record header itself.
  std::filesystem::resize_file(path_, 24 + 10);
  const auto e = read_error();
  EXPECT_EQ(e.offset, 24u);
  EXPECT_EQ(e.reason, "truncated record header (need 16 bytes, got 10)");
}

TEST_F(PcapFileTest, RejectsRecordLongerThanSnaplen) {
  {
    PcapWriter writer(path_, /*snaplen=*/100);
    const std::uint8_t d[4] = {};
    writer.write(0, d, 4);
  }
  // Patch incl_len (record header bytes 8..11) to snaplen + 65536 + 1.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24 + 8);
    const std::uint32_t incl = 100 + 65536 + 1;
    f.write(reinterpret_cast<const char*>(&incl), sizeof(incl));
  }
  EXPECT_EQ(read_error().reason,
            "corrupt record header: incl_len 65637 exceeds snaplen 100");
}

TEST_F(PcapFileTest, MissingFileThrows) {
  try {
    PcapCursor cursor("/nonexistent/dir/x.pcap");
    FAIL() << "expected a ParseException";
  } catch (const runtime::ParseException& e) {
    EXPECT_EQ(e.error().reason, "cannot open pcap for reading");
  }
  EXPECT_THROW(PcapWriter writer("/nonexistent/dir/x.pcap"),
               std::runtime_error);
}

TEST_F(PcapFileTest, ManyRecordsStress) {
  const int n = 5000;
  {
    PcapWriter writer(path_);
    std::uint8_t d[8] = {};
    for (int i = 0; i < n; ++i) {
      d[0] = static_cast<std::uint8_t>(i & 0xFF);
      writer.write(i * sim::kMicrosecond, d, 8);
    }
  }
  const auto records = read_all();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].data[0], i & 0xFF);
  }
}

}  // namespace
}  // namespace ccsig::pcap
