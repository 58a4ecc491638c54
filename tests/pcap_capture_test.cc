// Capture tap + pcap round trip: simulator packets -> pcap file -> cursor
// -> wire records, including 32-bit sequence unwrapping and the skip of
// frames that are not TCP/IPv4.
#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/wire_record.h"
#include "pcap/capture.h"
#include "pcap/cursor.h"
#include "stream/ingest.h"
#include "test_helpers.h"

namespace ccsig {
namespace {

class CaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("ccsig_capture_test_" + std::to_string(counter_++)))
                .string() +
            ".pcap";
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// Every TCP record of the capture at `path_`, decoded.
  analysis::Trace read_capture() const {
    analysis::Trace out;
    pcap::PcapCursor cursor(path_);
    while (const auto rec = cursor.next()) {
      const auto w = analysis::wire_record_from_frame(rec->timestamp,
                                                      rec->data);
      if (w) out.push_back(*w);
    }
    return out;
  }

  static int counter_;
  std::string path_;
};

int CaptureTest::counter_ = 0;

TEST_F(CaptureTest, TransferRoundTripsThroughPcap) {
  testutil::TwoNodePath path(testutil::basic_link(10e6, 10, 100));
  pcap::PcapCaptureTap tap(path_);
  path.server->add_tap(&tap);
  const auto result = testutil::run_transfer(path, 300'000);
  ASSERT_TRUE(result.completed);
  tap.flush();
  path.server->remove_tap(&tap);

  // The live tap records exactly what the capture carries.
  const analysis::Trace from_pcap = read_capture();
  const analysis::Trace& live = path.recorder.trace();
  ASSERT_EQ(from_pcap.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(from_pcap[i].key, live[i].key) << "record " << i;
    EXPECT_EQ(from_pcap[i].seq32, live[i].seq32) << "record " << i;
    EXPECT_EQ(from_pcap[i].ack32, live[i].ack32) << "record " << i;
    EXPECT_EQ(from_pcap[i].payload_bytes, live[i].payload_bytes);
    EXPECT_EQ(from_pcap[i].window, live[i].window);
    EXPECT_EQ(from_pcap[i].flags.syn, live[i].flags.syn);
    EXPECT_EQ(from_pcap[i].flags.ack, live[i].flags.ack);
    // Classic pcap stores µs; timestamps agree to within 1 µs.
    EXPECT_NEAR(static_cast<double>(from_pcap[i].time),
                static_cast<double>(live[i].time),
                static_cast<double>(sim::kMicrosecond));
  }
}

TEST_F(CaptureTest, SequenceUnwrapAcross32BitBoundary) {
  // A capture whose 32-bit sequence numbers wrap mid-flow.
  {
    pcap::PcapWriter writer(path_, pcap::kFrameHeaderBytes);
    sim::Packet p;
    p.key = sim::FlowKey{1, 2, 10, 20};
    p.flags.ack = true;
    p.payload_bytes = 1000;
    const std::uint64_t start = (1ull << 32) - 3000;
    for (int i = 0; i < 6; ++i) {
      p.seq = start + static_cast<std::uint64_t>(i) * 1000;  // crosses 2^32
      writer.write(i * sim::kMillisecond, pcap::encode_frame(p),
                   static_cast<std::uint32_t>(pcap::kFrameHeaderBytes +
                                              p.payload_bytes));
    }
  }
  const analysis::Trace trace = read_capture();
  ASSERT_EQ(trace.size(), 6u);
  EXPECT_LT(trace[3].seq32, trace[2].seq32);  // the wire value wrapped
  analysis::SeqUnwrapper seq, ack;
  std::vector<analysis::TraceRecord> unwrapped;
  for (const auto& w : trace) {
    unwrapped.push_back(analysis::unwrap_record(w, seq, ack));
  }
  for (std::size_t i = 0; i < unwrapped.size(); ++i) {
    // Unwrapped offsets must be monotone with the same spacing, modulo the
    // unknown epoch base (the first record anchors below 2^32).
    EXPECT_EQ(unwrapped[i].seq - unwrapped[0].seq, i * 1000u);
  }
}

TEST_F(CaptureTest, NonTcpRecordsSkipped) {
  {
    pcap::PcapWriter writer(path_);
    const std::vector<std::uint8_t> junk(60, 0xAA);  // not Ethernet/IPv4/TCP
    writer.write(0, junk, 60);
    sim::Packet p;
    p.key = sim::FlowKey{1, 2, 10, 20};
    p.payload_bytes = 100;
    writer.write(1, pcap::encode_frame(p), 154);
  }
  // The cursor returns both records; decoding and ingest skip the junk.
  pcap::PcapCursor cursor(path_);
  const auto first = cursor.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(
      analysis::wire_record_from_frame(first->timestamp, first->data));
  ASSERT_TRUE(cursor.next().has_value());
  EXPECT_FALSE(cursor.next().has_value());

  stream::BatchedIngest ingest(path_);
  std::vector<stream::RoutedRecord> batch;
  EXPECT_EQ(ingest.fill(batch, 16), 1u);
  EXPECT_EQ(ingest.records_decoded(), 2u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].w.payload_bytes, 100u);
}

TEST_F(CaptureTest, CapturedCountMatchesTapInvocations) {
  testutil::TwoNodePath path(testutil::basic_link(10e6, 5, 50));
  pcap::PcapCaptureTap tap(path_);
  path.server->add_tap(&tap);
  testutil::run_transfer(path, 50'000);
  path.server->remove_tap(&tap);
  tap.flush();
  EXPECT_EQ(tap.packets_captured(), path.recorder.trace().size());
}

}  // namespace
}  // namespace ccsig
