// End-to-end flow diagnosis: capture (live trace or pcap file) -> per-flow
// features -> congestion verdict.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/wire_record.h"
#include "core/classifier.h"
#include "features/extractor.h"
#include "runtime/parse_error.h"

namespace ccsig {

/// Everything the analyzer can say about one TCP flow in a capture.
struct FlowReport {
  sim::FlowKey data_key;  // the payload-carrying direction
  std::optional<features::FlowFeatures> features;
  std::optional<Classification> classification;  // set when features valid
  /// Why `features`/`classification` are absent (kNone when present).
  features::Insufficiency insufficiency = features::Insufficiency::kNone;
  double throughput_bps = 0;
  sim::Duration duration = 0;
  std::size_t data_packets = 0;
  /// For flows classified self-induced, the late-slow-start delivery rate
  /// is a bottleneck-capacity estimate (paper §2.3: slow-start throughput
  /// "is indicative of the capacity of the bottleneck link during a
  /// self-induced congestion event"). 0 otherwise.
  double estimated_capacity_bps = 0;

  /// Three-way verdict: a congestion label when the flow carried a valid
  /// signature, Verdict::kInsufficientData otherwise — degenerate RTT
  /// streams are never given a fabricated congestion label.
  Verdict verdict() const {
    return classification ? classification->verdict
                          : Verdict::kInsufficientData;
  }
};

/// analyze_pcap_checked: reports for the readable prefix of a (possibly
/// damaged) capture, plus the structured error that stopped reading.
struct PcapAnalysis {
  std::vector<FlowReport> reports;
  std::optional<runtime::ParseError> error;
  bool ok() const { return !error.has_value(); }
};

class FlowAnalyzer {
 public:
  /// Uses the bundled pretrained model.
  FlowAnalyzer() : classifier_(CongestionClassifier::pretrained()) {}
  explicit FlowAnalyzer(CongestionClassifier classifier)
      : classifier_(std::move(classifier)) {}

  /// Builds a FlowReport from an already-extracted feature result plus the
  /// flow-level scalars. This is the single place the classifier verdict,
  /// insufficiency bookkeeping, and capacity estimate are assembled; the
  /// engine calls it when it finalizes a flow.
  FlowReport report_from_extract(const sim::FlowKey& data_key,
                                 features::ExtractResult extracted,
                                 double throughput_bps, sim::Duration duration,
                                 std::size_t data_packets) const;

  // The entry points below run the capture through stream::StreamEngine
  // with eviction off (every flow lives until the end of its input or its
  // FIN handshake). They are defined in ccsig_stream, so callers link it.

  /// Analyzes every flow in a live trace (wire records in tap order).
  std::vector<FlowReport> analyze(const analysis::Trace& trace,
                                  const features::ExtractOptions& opt = {}) const;

  /// Reads a tcpdump-format capture and analyzes it. Malformed input
  /// raises runtime::ParseException (file, byte offset, reason).
  std::vector<FlowReport> analyze_pcap(const std::string& path,
                                       const features::ExtractOptions& opt = {}) const;

  /// Non-throwing variant for damaged captures: analyzes the longest clean
  /// record prefix and reports the error that stopped reading.
  PcapAnalysis analyze_pcap_checked(const std::string& path,
                                    const features::ExtractOptions& opt = {}) const;

  const CongestionClassifier& classifier() const { return classifier_; }

  /// One-line human-readable rendering of a report.
  static std::string render(const FlowReport& report);

 private:
  CongestionClassifier classifier_;
};

}  // namespace ccsig
