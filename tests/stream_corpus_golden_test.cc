// Corpus golden: the engine's output on 200 seeded simulated captures is
// pinned line for line in tests/goldens/stream_corpus.txt — the rendered
// report, the insufficiency reason, and every FlowFeatures field at
// precision 17, at worker counts 1 and 4.
//
// The corpus size defaults to 200 seeds; the CCSIG_STREAM_DIFF_COUNT
// environment variable selects a prefix (sanitized runs use a smaller
// corpus). The golden lines are keyed by seed, so any prefix checks
// against the same file.
#include <gtest/gtest.h>

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
}

}  // namespace
}  // namespace ccsig
