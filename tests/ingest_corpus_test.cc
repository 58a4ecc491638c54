// Corpus tests: deterministically damaged pcap captures and campaign CSVs
// must surface as structured ParseErrors (file, offset, reason) — never as
// crashes, silent misparses, or fabricated verdicts.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/wire_record.h"
#include "core/analyzer.h"
#include "mlab/dispute2014.h"
#include "mlab/tslp2017.h"
#include "pcap/capture.h"
#include "pcap/cursor.h"
#include "pcap/headers.h"
#include "pcap/pcap_file.h"
#include "runtime/fault_injection.h"
#include "runtime/parse_error.h"
#include "stream/ingest.h"
#include "stream/stream.h"
#include "test_helpers.h"
#include "testbed/sweep.h"

namespace ccsig {
namespace {

namespace fs = std::filesystem;

// Walks one cursor to exhaustion, appending every record to `records` (a
// flattened copy: timestamp, orig_len, then the body bytes). Returns the
// ParseError that stopped the walk, if any.
std::optional<runtime::ParseError> drain_cursor(
    const std::string& path, pcap::CursorMode mode,
    std::vector<std::uint64_t>* records) {
  try {
    pcap::PcapCursor cursor(path, mode);
    while (const auto rec = cursor.next()) {
      records->push_back(static_cast<std::uint64_t>(rec->timestamp));
      records->push_back(rec->orig_len);
      for (const std::uint8_t b : rec->data) records->push_back(b);
    }
  } catch (const runtime::ParseException& e) {
    return e.error();
  }
  return std::nullopt;
}

/// Record count and stopping error of one cursor walk.
struct CursorRead {
  std::size_t records = 0;
  std::optional<runtime::ParseError> error;
  bool ok() const { return !error.has_value(); }
};

CursorRead read_capture(const std::string& path) {
  CursorRead out;
  try {
    pcap::PcapCursor cursor(path);
    while (cursor.next()) ++out.records;
  } catch (const runtime::ParseException& e) {
    out.error = e.error();
  }
  return out;
}

/// Rendered report lines of an analysis.
std::vector<std::string> render_all(const PcapAnalysis& a) {
  std::vector<std::string> out;
  for (const FlowReport& r : a.reports) out.push_back(FlowAnalyzer::render(r));
  return out;
}

/// The capture analyzed through every engine configuration that must not
/// change the output — worker count and input backend — each compared with
/// analyze_pcap_checked: same structured error, same reports.
void expect_engine_invariant(const FlowAnalyzer& analyzer,
                             const std::string& path) {
  const PcapAnalysis want = analyzer.analyze_pcap_checked(path);
  for (const unsigned jobs : {1u, 4u}) {
    for (const auto mode :
         {pcap::CursorMode::kStream, pcap::CursorMode::kMmap}) {
      stream::StreamConfig cfg;
      cfg.jobs = jobs;
      cfg.max_active_flows = 0;
      const PcapAnalysis got =
          stream::analyze_pcap_stream(path, analyzer, cfg, mode);
      SCOPED_TRACE(path + " jobs " + std::to_string(jobs) +
                   (mode == pcap::CursorMode::kMmap ? " mmap" : " stream"));
      ASSERT_EQ(got.ok(), want.ok());
      if (!want.ok()) {
        EXPECT_EQ(got.error->file, want.error->file);
        EXPECT_EQ(got.error->offset, want.error->offset);
        EXPECT_EQ(got.error->reason, want.error->reason);
      }
      EXPECT_EQ(render_all(got), render_all(want));
    }
  }
}

class CorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("ccsig_corpus_" + std::to_string(counter_++)))
               .string();
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string file(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  /// Writes a healthy capture: a real buffer-limited transfer whose
  /// slow-start overshoot guarantees a retransmission, so the flow
  /// classifies end to end.
  std::string write_capture() const {
    const std::string path = file("healthy.pcap");
    testutil::TwoNodePath net(testutil::basic_link(10e6, 10, 25));
    pcap::PcapCaptureTap tap(path);
    net.server->add_tap(&tap);
    const auto result = testutil::run_transfer(net, 300'000);
    net.server->remove_tap(&tap);
    tap.flush();
    EXPECT_TRUE(result.completed);
    return path;
  }

  static int counter_;
  std::string dir_;
};

int CorpusTest::counter_ = 0;

TEST_F(CorpusTest, HealthyCaptureReadsCleanAndClassifies) {
  const std::string path = write_capture();
  const auto raw = read_capture(path);
  EXPECT_TRUE(raw.ok());
  EXPECT_GT(raw.records, 100u);

  const FlowAnalyzer analyzer;
  const auto analysis = analyzer.analyze_pcap_checked(path);
  EXPECT_TRUE(analysis.ok());
  ASSERT_EQ(analysis.reports.size(), 1u);
  EXPECT_TRUE(analysis.reports[0].classification.has_value());
  EXPECT_NE(analysis.reports[0].verdict(), Verdict::kInsufficientData);
}

TEST_F(CorpusTest, TruncatedFileHeaderIsStructuredError) {
  const std::string path = write_capture();
  runtime::truncate_file(path, 10);  // mid file header
  const auto raw = read_capture(path);
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.records, 0u);
  EXPECT_EQ(raw.error->file, path);
  EXPECT_FALSE(raw.error->reason.empty());
  // The analyzer reports the same error with no flows; its throwing form
  // raises it as an exception that is still a std::runtime_error.
  const FlowAnalyzer analyzer;
  const auto analysis = analyzer.analyze_pcap_checked(path);
  ASSERT_FALSE(analysis.ok());
  EXPECT_EQ(analysis.error->reason, raw.error->reason);
  EXPECT_TRUE(analysis.reports.empty());
  EXPECT_THROW(analyzer.analyze_pcap(path), runtime::ParseException);
  EXPECT_THROW(analyzer.analyze_pcap(path), std::runtime_error);
}

TEST_F(CorpusTest, BadMagicIsStructuredError) {
  const std::string path = file("junk.pcap");
  {
    std::ofstream out(path, std::ios::binary);
    const char junk[64] = "this is not a capture";
    out.write(junk, sizeof(junk));
  }
  const auto raw = read_capture(path);
  ASSERT_FALSE(raw.ok());
  EXPECT_NE(raw.error->reason.find("magic"), std::string::npos);
  EXPECT_NE(raw.error->to_string().find(path), std::string::npos);
}

TEST_F(CorpusTest, TruncatedRecordKeepsCleanPrefix) {
  const std::string path = write_capture();
  const auto whole = read_capture(path);
  runtime::truncate_file(path, fs::file_size(path) - 7);
  const auto raw = read_capture(path);
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.records, whole.records - 1);
  EXPECT_GT(raw.error->offset, 0u);

  // The analyzer sees the same prefix and still does not crash.
  const FlowAnalyzer analyzer;
  const auto analysis = analyzer.analyze_pcap_checked(path);
  EXPECT_FALSE(analysis.ok());
  EXPECT_EQ(analysis.reports.size(), 1u);
}

TEST_F(CorpusTest, MutatedPcapCorpusNeverCrashesReaders) {
  const std::string source = write_capture();
  const auto mutants =
      runtime::mutate_corpus(source, file("mutants"), /*seed=*/77,
                             /*count=*/14);
  ASSERT_EQ(mutants.size(), 14u);
  const FlowAnalyzer analyzer;
  int structured_errors = 0;
  for (const auto& mutant : mutants) {
    // Damaged captures must degrade into a clean prefix + structured
    // error. Any other exception (or a crash) fails the test.
    const auto raw = read_capture(mutant);
    if (!raw.ok()) {
      ++structured_errors;
      EXPECT_EQ(raw.error->file, mutant);
      EXPECT_FALSE(raw.error->reason.empty());
    }
    const auto analysis = analyzer.analyze_pcap_checked(mutant);
    EXPECT_EQ(analysis.ok(), raw.ok());
  }
  // Truncations nearly always break framing; most mutants must report
  // structured errors rather than parse silently.
  EXPECT_GE(structured_errors, 5);
}

TEST_F(CorpusTest, HealthyMultiFlowCaptureIsEngineInvariant) {
  // Seed 3 produces a multi-flow capture (asserted below so a generator
  // change can't silently weaken the test).
  const std::string path = file("multi.pcap");
  const int flows = testutil::write_random_capture(/*seed=*/3, path);
  EXPECT_GT(flows, 1);

  const FlowAnalyzer analyzer;
  const auto analysis = analyzer.analyze_pcap_checked(path);
  ASSERT_TRUE(analysis.ok());
  ASSERT_EQ(analysis.reports.size(), static_cast<std::size_t>(flows));
  expect_engine_invariant(analyzer, path);
}

TEST_F(CorpusTest, CcVariantCapturesAreEngineInvariant) {
  // One capture per newer congestion-control variant. The transport is
  // CC-agnostic, but each variant shapes different packet timing (Vegas
  // never fills the buffer, Westwood+ rides through the random drops,
  // HyStart exits slow start early) — so each one goes through the reader
  // and the engine at two worker counts and both input backends, and every
  // rendered report must match.
  for (const char* cc : {"vegas", "westwood", "cubic_hystart"}) {
    const std::string path = file(std::string(cc) + ".pcap");
    // A pinch of random loss guarantees retransmission events in the
    // capture even for the variants that avoid buffer overflow.
    testutil::TwoNodePath net(testutil::basic_link(10e6, 10, 25, 0.002));
    pcap::PcapCaptureTap tap(path);
    net.server->add_tap(&tap);
    const auto result = testutil::run_transfer(net, 300'000, cc);
    net.server->remove_tap(&tap);
    tap.flush();
    ASSERT_TRUE(result.completed) << cc;

    const FlowAnalyzer analyzer;
    const auto analysis = analyzer.analyze_pcap_checked(path);
    ASSERT_TRUE(analysis.ok()) << cc;
    ASSERT_EQ(analysis.reports.size(), 1u) << cc;
    expect_engine_invariant(analyzer, path);
  }
}

TEST_F(CorpusTest, MutatedPcapCorpusIsEngineInvariant) {
  // Damaged multi-flow captures: every mutant must yield the same clean
  // prefix, the same structured error and the same reports at any worker
  // count and on either backend — never a crash. (A flipped byte can make
  // timestamps go backwards; the engine's rules are still deterministic.)
  const std::string source = file("multi_src.pcap");
  testutil::write_random_capture(/*seed=*/3, source);
  const auto mutants =
      runtime::mutate_corpus(source, file("stream_mutants"), /*seed=*/91,
                             /*count=*/14);
  ASSERT_EQ(mutants.size(), 14u);

  const FlowAnalyzer analyzer;
  int structured_errors = 0;
  for (const auto& mutant : mutants) {
    expect_engine_invariant(analyzer, mutant);
    structured_errors += read_capture(mutant).ok() ? 0 : 1;
  }
  EXPECT_GE(structured_errors, 5);
}

/// A capture with a file header claiming `snaplen` and one record whose
/// header claims `incl_len` but whose body holds `body` bytes.
void write_snaplen_capture(const std::string& path, std::uint32_t snaplen,
                           std::uint32_t incl_len, std::size_t body) {
  std::ofstream out(path, std::ios::binary);
  const std::uint32_t hdr[6] = {pcap::kPcapMagic, 0x00040002u, 0, 0, snaplen,
                                pcap::kLinktypeEthernet};
  out.write(reinterpret_cast<const char*>(hdr), sizeof(hdr));
  const std::uint32_t rec[4] = {1, 0, incl_len, incl_len};
  out.write(reinterpret_cast<const char*>(rec), sizeof(rec));
  const std::vector<char> bytes(body, 0);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(CorpusTest, HugeHeaderSnaplenDoesNotWrapTheRecordBound) {
  // snaplen + 65536 no longer fits 32 bits: the bound must not wrap and
  // reject every record as "exceeds snaplen 4294901760".
  const std::string path = file("huge_snaplen.pcap");
  {
    pcap::PcapWriter writer(path, pcap::kFrameHeaderBytes);
    sim::Packet p;
    p.key = sim::FlowKey{1, 2, 10, 20};
    p.payload_bytes = 100;
    writer.write(0, pcap::encode_frame(p), 154);
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);  // header snaplen field
    const std::uint32_t snaplen = 0xFFFF0000u;
    f.write(reinterpret_cast<const char*>(&snaplen), sizeof(snaplen));
  }
  for (const auto mode :
       {pcap::CursorMode::kStream, pcap::CursorMode::kMmap}) {
    pcap::PcapCursor cursor(path, mode);
    EXPECT_EQ(cursor.snaplen(), pcap::kMaxSnaplen);
    const auto rec = cursor.next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->data.size(), pcap::kFrameHeaderBytes);
    EXPECT_FALSE(cursor.next().has_value());
  }
  const auto analysis = FlowAnalyzer().analyze_pcap_checked(path);
  EXPECT_TRUE(analysis.ok());
  EXPECT_EQ(analysis.reports.size(), 1u);
}

TEST_F(CorpusTest, CorruptLargeSnaplenCannotAuthorizeAHugeBuffer) {
  // A header snaplen near 4 GB once let a 3.75 GB incl_len through the
  // bound, and the buffered backend resized to it before noticing the
  // short body. Clamped to libpcap's maximum, the record is corruption.
  const std::string path = file("corrupt_snaplen.pcap");
  write_snaplen_capture(path, 0xFFFE0000u, 0xF0000000u, 64);
  const std::string want =
      "corrupt record header: incl_len 4026531840 exceeds snaplen " +
      std::to_string(pcap::kMaxSnaplen);
  for (const bool tail : {false, true}) {
    for (const auto mode :
         {pcap::CursorMode::kStream, pcap::CursorMode::kMmap}) {
      try {
        pcap::PcapCursor cursor(path, mode, tail);
        cursor.next();
        ADD_FAILURE() << "expected a ParseException";
      } catch (const runtime::ParseException& e) {
        EXPECT_EQ(e.error().offset, 24u);
        EXPECT_EQ(e.error().reason, want);
      }
    }
  }
  const auto analysis = FlowAnalyzer().analyze_pcap_checked(path);
  ASSERT_FALSE(analysis.ok());
  EXPECT_EQ(analysis.error->reason, want);

  // A record within the clamped bound but longer than the file is a
  // truncated body, not an allocation of the claimed size.
  write_snaplen_capture(path, 0xFFFE0000u, pcap::kMaxSnaplen, 64);
  pcap::PcapCursor cursor(path, pcap::CursorMode::kStream);
  try {
    cursor.next();
    ADD_FAILURE() << "expected a ParseException";
  } catch (const runtime::ParseException& e) {
    EXPECT_EQ(e.error().reason, "truncated record body (need 262144 bytes, "
                                "got 64)");
  }
}

TEST_F(CorpusTest, MmapAndStreamedCursorsAreByteAndErrorIdentical) {
  // The tentpole differential: on the healthy capture and on every mutant,
  // the mmap backend must yield the exact same RecordView sequence (every
  // byte of every body) and, on damage, the exact same structured error
  // (file, offset, reason) as the buffered-read backend. This is what lets
  // every other test in the suite speak for both backends at once.
  const std::string source = write_capture();
  std::vector<std::string> inputs{source};
  const auto mutants = runtime::mutate_corpus(
      source, file("cursor_mutants"), /*seed=*/123, /*count=*/14);
  inputs.insert(inputs.end(), mutants.begin(), mutants.end());

  int damaged = 0;
  for (const std::string& input : inputs) {
    std::vector<std::uint64_t> streamed_bytes, mmapped_bytes;
    const auto streamed_err =
        drain_cursor(input, pcap::CursorMode::kStream, &streamed_bytes);
    const auto mmapped_err =
        drain_cursor(input, pcap::CursorMode::kMmap, &mmapped_bytes);

    ASSERT_EQ(streamed_err.has_value(), mmapped_err.has_value()) << input;
    if (streamed_err) {
      ++damaged;
      EXPECT_EQ(streamed_err->file, mmapped_err->file) << input;
      EXPECT_EQ(streamed_err->offset, mmapped_err->offset) << input;
      EXPECT_EQ(streamed_err->reason, mmapped_err->reason) << input;
    }
    // The clean prefix read before any damage must match byte for byte.
    EXPECT_EQ(streamed_bytes, mmapped_bytes) << input;

    // kAuto resolves to one of the two backends, so it must match too.
    std::vector<std::uint64_t> auto_bytes;
    const auto auto_err =
        drain_cursor(input, pcap::CursorMode::kAuto, &auto_bytes);
    EXPECT_EQ(auto_err.has_value(), streamed_err.has_value()) << input;
    EXPECT_EQ(auto_bytes, streamed_bytes) << input;
  }
  EXPECT_GE(damaged, 5);
}

TEST_F(CorpusTest, BatchedIngestMatchesRecordAtATimeDecoding) {
  // BatchedIngest must be a pure batching of the cursor+decode loop: same
  // decoded records in the same order, same clean prefix, same error.
  const std::string source = file("batched_src.pcap");
  testutil::write_random_capture(/*seed=*/3, source);
  std::vector<std::string> inputs{source};
  const auto mutants = runtime::mutate_corpus(
      source, file("batched_mutants"), /*seed=*/29, /*count=*/8);
  inputs.insert(inputs.end(), mutants.begin(), mutants.end());

  for (const std::string& input : inputs) {
    // Reference: the one-record-at-a-time cursor + decode loop.
    std::vector<stream::RoutedRecord> want;
    std::optional<runtime::ParseError> want_err;
    try {
      pcap::PcapCursor cursor(input);
      while (const auto rec = cursor.next()) {
        const auto w =
            analysis::wire_record_from_frame(rec->timestamp, rec->data);
        if (w) want.push_back(stream::route_record(*w));
      }
    } catch (const runtime::ParseException& e) {
      want_err = e.error();
    }

    for (const auto mode :
         {pcap::CursorMode::kStream, pcap::CursorMode::kMmap}) {
      std::vector<stream::RoutedRecord> got;
      std::optional<runtime::ParseError> got_err;
      try {
        stream::BatchedIngest ingest(input, mode);
        // A deliberately awkward batch size to exercise partial batches.
        while (ingest.fill(got, /*max_records=*/37) > 0) {
        }
        if (ingest.error()) got_err = *ingest.error();
      } catch (const runtime::ParseException& e) {
        got_err = e.error();  // damaged file header surfaces at open
      }

      ASSERT_EQ(got_err.has_value(), want_err.has_value()) << input;
      if (want_err) {
        EXPECT_EQ(got_err->offset, want_err->offset) << input;
        EXPECT_EQ(got_err->reason, want_err->reason) << input;
      }
      ASSERT_EQ(got.size(), want.size()) << input;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].hash, want[i].hash);
        EXPECT_EQ(got[i].canonical, want[i].canonical);
        EXPECT_EQ(got[i].w.time, want[i].w.time);
        EXPECT_EQ(got[i].w.key, want[i].w.key);
      }
    }
  }
}

TEST_F(CorpusTest, SweepCsvRejectsDamagedRowsWithLineNumbers) {
  const std::string path = file("sweep.csv");
  testbed::SweepSample s;
  s.norm_diff = 0.5;
  s.scenario = 1;
  testbed::save_samples_csv(path, {s});

  // Append a row whose number carries trailing garbage — the old
  // `stream >>` loader silently read "12abc" as 12.
  {
    std::ofstream out(path, std::ios::app);
    out << "12abc,0,0,0,0,0,0,1,0,0,0,0\n";
  }
  try {
    testbed::load_samples_csv(path);
    FAIL() << "expected ParseException";
  } catch (const runtime::ParseException& e) {
    EXPECT_EQ(e.error().file, path);
    EXPECT_EQ(e.error().offset, 3u);  // header is line 1, good row line 2
    EXPECT_NE(e.error().reason.find("garbage"), std::string::npos);
  }
}

TEST_F(CorpusTest, SweepCsvRejectsMissingAndExtraFields) {
  const std::string path = file("fields.csv");
  testbed::save_samples_csv(path, {});
  {
    std::ofstream out(path, std::ios::app);
    out << "1,2,3\n";  // far too few fields
  }
  EXPECT_THROW(testbed::load_samples_csv(path), runtime::ParseException);

  testbed::save_samples_csv(path, {});
  {
    std::ofstream out(path, std::ios::app);
    out << "0,0,0,0,0,0,0,1,0,0,0,0,99\n";  // one extra field
  }
  EXPECT_THROW(testbed::load_samples_csv(path), runtime::ParseException);
}

TEST_F(CorpusTest, CampaignCsvLoadersSurviveMutatedCorpus) {
  // One healthy cache per campaign format.
  const std::string sweep_csv = file("sweep_src.csv");
  testbed::SweepSample sample;
  sample.norm_diff = 0.25;
  sample.cov = 0.125;
  sample.scenario = 1;
  testbed::save_samples_csv(sweep_csv, {sample, sample, sample});

  const std::string dispute_csv = file("dispute_src.csv");
  mlab::NdtObservation obs;
  obs.transit = "Cogent";
  obs.site = "LAX";
  obs.isp = "Comcast";
  obs.month = 2;
  obs.throughput_mbps = 8.5;
  mlab::save_observations_csv(dispute_csv, {obs, obs});

  const std::string tslp_csv = file("tslp_src.csv");
  mlab::TslpObservation slot;
  slot.day = 1;
  slot.hour = 20;
  slot.throughput_mbps = 12.5;
  mlab::save_tslp_csv(tslp_csv, {slot, slot});

  int outcomes = 0;
  for (const std::string& source : {sweep_csv, dispute_csv, tslp_csv}) {
    const auto mutants = runtime::mutate_corpus(
        source, file("csv_mutants"), /*seed=*/13, /*count=*/8);
    for (const auto& mutant : mutants) {
      try {
        if (source == sweep_csv) {
          testbed::load_samples_csv(mutant);
        } else if (source == dispute_csv) {
          mlab::load_observations_csv(mutant);
        } else {
          mlab::load_tslp_csv(mutant);
        }
      } catch (const runtime::ParseException& e) {
        // Structured rejection is a valid outcome; anything else escapes
        // and fails the test.
        EXPECT_EQ(e.error().file, mutant);
        EXPECT_FALSE(e.error().reason.empty());
      }
      ++outcomes;
    }
  }
  EXPECT_EQ(outcomes, 24);
}

TEST_F(CorpusTest, LoadOrRunSweepSelfHealsCorruptCache) {
  const std::string cache = file("cache.csv");
  {
    std::ofstream out(cache);
    out << "complete garbage\nnot,a,sweep\n";
  }
  testbed::SweepOptions opt;
  opt.access_rates_mbps.clear();  // empty grid: regeneration is free
  const auto got = testbed::load_or_run_sweep(cache, opt);
  EXPECT_TRUE(got.empty());
  // The corrupt cache was replaced by a well-formed fingerprinted one.
  std::string fp;
  EXPECT_NO_THROW(testbed::load_samples_csv(cache, &fp));
  EXPECT_EQ(fp, testbed::sweep_fingerprint(opt));
}

}  // namespace
}  // namespace ccsig
