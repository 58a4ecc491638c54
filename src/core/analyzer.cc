#include "core/analyzer.h"

#include <sstream>

namespace ccsig {

FlowReport FlowAnalyzer::report_from_extract(
    const sim::FlowKey& data_key, features::ExtractResult extracted,
    double throughput_bps, sim::Duration duration,
    std::size_t data_packets) const {
  FlowReport report;
  report.data_key = data_key;
  report.duration = duration;
  report.data_packets = data_packets;
  report.throughput_bps = throughput_bps;
  report.features = std::move(extracted.features);
  report.insufficiency = extracted.insufficiency;
  if (report.features) {
    report.classification = classifier_.classify(*report.features);
    if (report.classification->verdict == Verdict::kSelfInducedCongestion) {
      report.estimated_capacity_bps =
          report.features->slow_start_throughput_bps;
    }
  }
  return report;
}

std::string FlowAnalyzer::render(const FlowReport& r) {
  std::ostringstream os;
  os.precision(3);
  os << r.data_key.src_addr << ":" << r.data_key.src_port << " -> "
     << r.data_key.dst_addr << ":" << r.data_key.dst_port << "  "
     << r.throughput_bps / 1e6 << " Mbps over "
     << sim::to_seconds(r.duration) << " s";
  if (r.classification) {
    os << "  => " << to_string(r.classification->verdict) << " (confidence "
       << r.classification->confidence << ", norm_diff "
       << r.features->norm_diff << ", cov " << r.features->cov << ")";
  } else {
    os << "  => " << to_string(Verdict::kInsufficientData) << " ("
       << features::to_string(r.insufficiency) << ")";
  }
  return os.str();
}

}  // namespace ccsig
