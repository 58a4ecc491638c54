// Corpus golden: the engine's output on 200 seeded simulated captures is
// pinned line for line in tests/goldens/stream_corpus.txt — the rendered
// report, the insufficiency reason, and every FlowFeatures field at
// precision 17, at worker counts 1 and 4. The engine's incremental
// interface (drain_ready between pushes, then finish_ordered) is checked on
// the same corpus: its emission sequence is the same at 1 and 4 workers,
// and sorted by flow_order_less it is the golden. The simulated transfers
// never close, so every golden flow ends at the end of the capture; a
// second run with a one-flow table forces emissions mid-capture, through
// the drain path, and checks them the same way against finish().
//
// The corpus size defaults to 200 seeds; the CCSIG_STREAM_DIFF_COUNT
// environment variable selects a prefix (sanitized runs use a smaller
// corpus). The golden lines are keyed by seed, so any prefix checks
// against the same file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "stream/stream.h"
#include "test_helpers.h"

namespace ccsig {
namespace {

namespace fs = std::filesystem;

int corpus_size() {
  if (const char* env = std::getenv("CCSIG_STREAM_DIFF_COUNT")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

/// One golden line: "<seed> <flow> | <rendered> | <insufficiency> | <report
/// scalars> | <features>", doubles at precision 17 so any drift in the
/// arithmetic fails loudly.
std::string golden_line(int seed, std::size_t flow, const FlowReport& r) {
  std::ostringstream os;
  os.precision(17);
  os << seed << ' ' << flow << " | " << FlowAnalyzer::render(r) << " | "
     << features::to_string(r.insufficiency) << " | " << r.throughput_bps
     << ' ' << r.duration << ' ' << r.data_packets << ' '
     << r.estimated_capacity_bps << ' '
     << (r.classification ? r.classification->confidence : -1.0) << " | ";
  if (const auto& f = r.features) {
    os << f->norm_diff << ' ' << f->cov << ' ' << f->rtt_slope << ' '
       << f->rtt_iqr << ' ' << f->rtt_samples << ' ' << f->min_rtt_ms << ' '
       << f->max_rtt_ms << ' ' << f->slow_start_throughput_bps << ' '
       << f->flow_throughput_bps << ' '
       << f->slow_start_ended_by_retransmission << ' ' << f->flow_duration;
  } else {
    os << '-';
  }
  return os.str();
}

/// The capture through the incremental interface: small fills with a
/// drain_ready() after each, then finish_ordered(). Returns the emissions
/// in emission order and counts the ones drained before the finish.
std::vector<stream::ReadyReport> emit_incrementally(
    const std::string& pcap, const FlowAnalyzer& analyzer,
    const stream::StreamConfig& cfg, int& drained_early) {
  stream::StreamEngine engine(analyzer, cfg);
  stream::BatchedIngest ingest(pcap, pcap::CursorMode::kAuto);
  std::vector<stream::RoutedRecord> batch;
  std::vector<stream::ReadyReport> out;
  while (ingest.fill(batch, 16) > 0) {
    engine.push_batch(batch);
    batch.clear();
    engine.drain_ready(out);
  }
  EXPECT_FALSE(ingest.error());
  drained_early += static_cast<int>(out.size());
  engine.finish_ordered(out);
  return out;
}

/// One line per emission: its position in the emission order, the capture
/// time of the record that triggered it, and the golden line.
std::vector<std::string> emission_lines(
    int seed, const std::vector<stream::ReadyReport>& emitted) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    const stream::ReadyReport& r = emitted[i];
    lines.push_back(std::to_string(r.seq) + ' ' +
                    std::to_string(r.emit_idx) + ' ' +
                    std::to_string(r.trigger_time) + ' ' +
                    golden_line(seed, i, r.report));
  }
  return lines;
}

/// Sorts emissions the way finish() orders its reports and renders them as
/// golden lines.
std::vector<std::string> sorted_golden_lines(
    int seed, std::vector<stream::ReadyReport> emitted) {
  std::stable_sort(emitted.begin(), emitted.end(),
                   [](const stream::ReadyReport& a,
                      const stream::ReadyReport& b) {
                     return analysis::flow_order_less(
                         a.start, a.report.data_key, b.start,
                         b.report.data_key);
                   });
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    lines.push_back(golden_line(seed, i, emitted[i].report));
  }
  return lines;
}

/// Golden lines grouped by seed, in file order.
std::map<int, std::vector<std::string>> load_golden() {
  std::ifstream in(std::string(CCSIG_GOLDEN_DIR) + "/stream_corpus.txt");
  EXPECT_TRUE(in) << "missing tests/goldens/stream_corpus.txt";
  std::map<int, std::vector<std::string>> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    out[std::atoi(line.c_str())].push_back(line);
  }
  return out;
}

TEST(StreamCorpusGolden, SeededCorpusMatchesGoldenAtAnyJobs) {
  const fs::path dir =
      fs::temp_directory_path() / "ccsig_stream_corpus_golden";
  fs::create_directories(dir);
  const FlowAnalyzer analyzer;
  const auto golden = load_golden();
  const int seeds = corpus_size();
  ASSERT_GE(static_cast<int>(golden.size()), seeds);

  int multi_flow_captures = 0;
  int classified_flows = 0;
  int drained_early = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    const std::string pcap =
        (dir / ("trace_" + std::to_string(seed) + ".pcap")).string();
    const int flows = testutil::write_random_capture(
        static_cast<std::uint64_t>(seed), pcap);
    if (flows > 1) ++multi_flow_captures;
    const auto want = golden.find(seed);
    ASSERT_NE(want, golden.end()) << "seed " << seed;

    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " jobs " +
                   std::to_string(jobs));
      stream::StreamConfig cfg;
      cfg.jobs = jobs;
      cfg.max_active_flows = 0;
      const PcapAnalysis got =
          stream::analyze_pcap_stream(pcap, analyzer, cfg);
      ASSERT_TRUE(got.ok());
      std::vector<std::string> lines;
      for (std::size_t i = 0; i < got.reports.size(); ++i) {
        lines.push_back(golden_line(seed, i, got.reports[i]));
        if (jobs == 1 && got.reports[i].classification) ++classified_flows;
      }
      EXPECT_EQ(lines, want->second);
    }
    // Incremental emission: one order at any worker count, and the same
    // reports as the whole-run finish() — the golden, and under eviction
    // pressure that finish()'s output.
    stream::StreamConfig whole;
    whole.max_active_flows = 0;
    stream::StreamConfig evicting;
    evicting.shards = 1;
    evicting.max_active_flows = 1;
    for (stream::StreamConfig cfg : {whole, evicting}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " incremental, cap " +
                   std::to_string(cfg.max_active_flows));
      int early = 0;
      cfg.jobs = 1;
      const auto emitted = emit_incrementally(pcap, analyzer, cfg, early);
      cfg.jobs = 4;
      const auto emitted4 = emit_incrementally(pcap, analyzer, cfg, early);
      EXPECT_EQ(emission_lines(seed, emitted),
                emission_lines(seed, emitted4));
      drained_early += early;
      std::vector<std::string> want_lines = want->second;
      if (cfg.max_active_flows != 0) {
        const PcapAnalysis finished =
            stream::analyze_pcap_stream(pcap, analyzer, cfg);
        want_lines.clear();
        for (std::size_t i = 0; i < finished.reports.size(); ++i) {
          want_lines.push_back(golden_line(seed, i, finished.reports[i]));
        }
      }
      EXPECT_EQ(sorted_golden_lines(seed, emitted), want_lines);
    }
    // The analyzer's capture entry point is the same engine.
    const PcapAnalysis via_analyzer = analyzer.analyze_pcap_checked(pcap);
    ASSERT_EQ(via_analyzer.reports.size(), want->second.size());
    for (std::size_t i = 0; i < via_analyzer.reports.size(); ++i) {
      EXPECT_EQ(golden_line(seed, i, via_analyzer.reports[i]),
                want->second[i]);
    }
    fs::remove(pcap);
  }
  fs::remove_all(dir);

  // The corpus must actually exercise the interesting paths: concurrent
  // flows in one capture, and flows that classify end to end.
  EXPECT_GT(multi_flow_captures, seeds / 4);
  EXPECT_GT(classified_flows, seeds / 4);
  // ... and drain_ready() must hand out flows before the finish.
  EXPECT_GT(drained_early, seeds / 4);
}

}  // namespace
}  // namespace ccsig
