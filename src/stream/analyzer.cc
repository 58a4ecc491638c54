// FlowAnalyzer's capture and trace entry points. They live in ccsig_stream,
// not ccsig_core, because they run the stream engine — which itself uses
// FlowAnalyzer to assemble reports — and the library graph stays acyclic.
#include "core/analyzer.h"
#include "stream/stream.h"

namespace ccsig {
namespace {

/// Whole-input analysis: no LRU cap and (by default) no idle timeout, so
/// a flow ends only at its FIN handshake or at the end of the input.
stream::StreamConfig whole_input_config(const features::ExtractOptions& opt) {
  stream::StreamConfig cfg;
  cfg.max_active_flows = 0;
  cfg.extract = opt;
  return cfg;
}

}  // namespace

std::vector<FlowReport> FlowAnalyzer::analyze(
    const analysis::Trace& trace, const features::ExtractOptions& opt) const {
  stream::StreamEngine engine(*this, whole_input_config(opt));
  for (const analysis::WireRecord& w : trace) engine.push(w);
  return engine.finish();
}

PcapAnalysis FlowAnalyzer::analyze_pcap_checked(
    const std::string& path, const features::ExtractOptions& opt) const {
  return stream::analyze_pcap_stream(path, *this, whole_input_config(opt),
                                     pcap::CursorMode::kAuto);
}

std::vector<FlowReport> FlowAnalyzer::analyze_pcap(
    const std::string& path, const features::ExtractOptions& opt) const {
  PcapAnalysis analysis = analyze_pcap_checked(path, opt);
  if (analysis.error) throw runtime::ParseException(*analysis.error);
  return std::move(analysis.reports);
}

}  // namespace ccsig
