// ccsig_analyze — command-line flow diagnosis for pcap captures.
//
// Usage:
//   ccsig_analyze <capture.pcap> [--model FILE] [--min-samples N] [--verbose]
//                 [--metrics-out FILE] [--metrics-prom FILE]
//                 [--trace-out FILE] [--flow-telemetry FILE]
//                 [--jobs N] [--shards N] [--max-flows N]
//                 [--idle-timeout SECONDS]
//
// Prints one line per TCP flow found in the capture: throughput, the
// slow-start congestion signature, and the classifier's verdict.
//
// The capture is analyzed in a single pass with the stream engine
// (src/stream/), reading through the mmap backend where the platform
// supports it. Without --shards/--max-flows/--idle-timeout the output is
// exactly FlowAnalyzer::analyze_pcap_checked's. --jobs sets worker threads
// (output-invariant); --shards/--max-flows/--idle-timeout turn on the flow
// table's eviction policy (these CAN change the output by evicting
// long-lived flows early). Numeric flags take non-negative decimal values
// (--shards at most StreamConfig::kMaxShards, 1024) and reject anything
// else with exit 2.
//
// Observability side files (see src/obs/): --metrics-out writes the final
// metrics snapshot JSON, --metrics-prom the same snapshot in Prometheus
// text exposition format, --trace-out writes Chrome trace JSON, and
// --flow-telemetry writes one CSV row per slow-start RTT sample each
// flow's verdict was computed from (flow index, ports, ACK arrival time,
// RTT, acked offset).
//
// Exit codes: 0 success, 1 no classifiable flows, 2 usage error,
// 3 unreadable or malformed input, 4 internal error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ios>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/wire_record.h"
#include "core/ccsig.h"
#include "obs/rtt_samples.h"
#include "obs/tool_obs.h"
#include "obs/trace.h"
#include "pcap/cursor.h"
#include "runtime/atomic_file.h"
#include "runtime/cli_args.h"
#include "runtime/parse_error.h"
#include "stream/stream.h"

namespace {

/// Collects each finalized flow's slow-start RTT samples from the engine
/// (possibly from several worker threads) for the --flow-telemetry CSV.
class TelemetrySink : public ccsig::obs::RttSampleSink {
 public:
  void on_flow(const ccsig::sim::FlowKey& data_key, ccsig::sim::Time start,
               std::span<const ccsig::analysis::RttSample> samples) override {
    std::lock_guard<std::mutex> lk(mu_);
    flows_.push_back(Flow{data_key, start, {samples.begin(), samples.end()}});
  }

  std::size_t flows() const { return flows_.size(); }

  /// One CSV over every flow, indexed in report order (times and RTTs in
  /// seconds, repo-wide precision-17 convention).
  std::string csv() {
    std::sort(flows_.begin(), flows_.end(), [](const Flow& a, const Flow& b) {
      return ccsig::analysis::flow_order_less(a.start, a.key, b.start, b.key);
    });
    std::ostringstream out;
    out.precision(17);
    out << "flow,src_port,dst_port,time_s,rtt_s,acked_seq\n";
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      for (const auto& s : flows_[i].samples) {
        out << i << ',' << flows_[i].key.src_port << ','
            << flows_[i].key.dst_port << ',' << ccsig::sim::to_seconds(s.at)
            << ',' << ccsig::sim::to_seconds(s.rtt) << ',' << s.acked_seq
            << '\n';
      }
    }
    return out.str();
  }

 private:
  struct Flow {
    ccsig::sim::FlowKey key;
    ccsig::sim::Time start;
    std::vector<ccsig::analysis::RttSample> samples;
  };
  std::mutex mu_;
  std::vector<Flow> flows_;
};

}  // namespace

int main(int argc, char** argv) {
  using ccsig::runtime::parse_count;
  using ccsig::runtime::parse_seconds;
  using ccsig::stream::StreamConfig;
  std::string pcap_path;
  std::string model_path;
  std::string metrics_path;
  std::string metrics_prom_path;
  std::string trace_path;
  std::string telemetry_path;
  ccsig::features::ExtractOptions extract;
  bool verbose = false;
  // Whole-capture analysis (analyze_pcap_checked's settings) unless an
  // eviction flag says otherwise.
  StreamConfig stream_cfg;
  stream_cfg.max_active_flows = 0;

  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s <capture.pcap> [--model FILE] "
                 "[--min-samples N] [--verbose] [--metrics-out FILE] "
                 "[--metrics-prom FILE] "
                 "[--trace-out FILE] [--flow-telemetry FILE] "
                 "[--jobs N] [--shards N] [--max-flows N] "
                 "[--idle-timeout SECONDS]\n",
                 argv[0]);
    return 2;
  };

  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const bool has_value = i + 1 < argc;
    // Exit 2 naming the flag and the value just consumed.
    const auto bad = [&] {
      std::fprintf(stderr, "%s: invalid value '%s'\n", flag, argv[i]);
      return 2;
    };
    double secs = 0;
    if (std::strcmp(flag, "--model") == 0 && has_value) {
      model_path = argv[++i];
    } else if (std::strcmp(flag, "--min-samples") == 0 && has_value) {
      if (!parse_count(argv[++i], extract.min_rtt_samples)) return bad();
    } else if (std::strcmp(flag, "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(flag, "--jobs") == 0 && has_value) {
      if (!parse_count(argv[++i], stream_cfg.jobs)) return bad();
    } else if (std::strcmp(flag, "--shards") == 0 && has_value) {
      if (!parse_count(argv[++i], stream_cfg.shards, 0u,
                       StreamConfig::kMaxShards)) {
        return bad();
      }
    } else if (std::strcmp(flag, "--max-flows") == 0 && has_value) {
      if (!parse_count(argv[++i], stream_cfg.max_active_flows)) return bad();
    } else if (std::strcmp(flag, "--idle-timeout") == 0 && has_value) {
      if (!parse_seconds(argv[++i], secs)) return bad();
      stream_cfg.idle_timeout = ccsig::sim::from_seconds(secs);
    } else if (std::strcmp(flag, "--metrics-out") == 0 && has_value) {
      metrics_path = argv[++i];
    } else if (std::strcmp(flag, "--metrics-prom") == 0 && has_value) {
      metrics_prom_path = argv[++i];
    } else if (std::strcmp(flag, "--trace-out") == 0 && has_value) {
      trace_path = argv[++i];
    } else if (std::strcmp(flag, "--flow-telemetry") == 0 && has_value) {
      telemetry_path = argv[++i];
    } else if (flag[0] != '-' && pcap_path.empty()) {
      pcap_path = flag;
    } else {
      return usage();
    }
  }
  if (pcap_path.empty()) return usage();

  try {
    ccsig::obs::ToolObs tool_obs(metrics_path, trace_path, "ccsig_analyze",
                                 metrics_prom_path);
    ccsig::CongestionClassifier model;
    if (!model_path.empty()) {
      try {
        model = ccsig::CongestionClassifier::load(model_path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 3;
      }
    }
    ccsig::FlowAnalyzer analyzer = model_path.empty()
                                       ? ccsig::FlowAnalyzer()
                                       : ccsig::FlowAnalyzer(std::move(model));
    if (verbose) {
      std::printf("model decision logic:\n%s\n",
                  analyzer.classifier().describe().c_str());
    }
    stream_cfg.extract = extract;
    // Installed for the analysis pass only: the engine hands each
    // finalized flow's slow-start samples to it.
    TelemetrySink telemetry;
    if (!telemetry_path.empty()) {
      ccsig::obs::RttSampleSink::install_global(&telemetry);
    }
    const auto analysis = ccsig::stream::analyze_pcap_stream(
        pcap_path, analyzer, stream_cfg, ccsig::pcap::CursorMode::kAuto);
    if (!telemetry_path.empty()) {
      ccsig::obs::RttSampleSink::install_global(nullptr);
      ccsig::obs::TraceSpan span("analyze.flow_telemetry", "analyze");
      ccsig::runtime::write_file_atomic(telemetry_path, telemetry.csv());
      std::fprintf(stderr, "flow telemetry written to %s (%zu flows)\n",
                   telemetry_path.c_str(), telemetry.flows());
    }
    if (analysis.error) {
      std::fprintf(stderr, "error: %s\n",
                   analysis.error->to_string().c_str());
      if (analysis.reports.empty()) return 3;
      std::fprintf(stderr,
                   "analyzing the %zu flow(s) decoded before the error\n",
                   analysis.reports.size());
    }
    const auto& reports = analysis.reports;
    if (reports.empty()) {
      std::fprintf(stderr, "no TCP flows with payload found in %s\n",
                   pcap_path.c_str());
      return 1;
    }
    int classified = 0;
    for (const auto& report : reports) {
      std::printf("%s\n", ccsig::FlowAnalyzer::render(report).c_str());
      if (verbose && report.features) {
        std::printf(
            "    slow-start: %zu RTT samples, min %.1f ms, max %.1f ms, "
            "late delivery %.2f Mbps%s\n",
            report.features->rtt_samples, report.features->min_rtt_ms,
            report.features->max_rtt_ms,
            report.features->slow_start_throughput_bps / 1e6,
            report.features->slow_start_ended_by_retransmission
                ? ""
                : " (no retransmission observed)");
      }
      classified += report.classification ? 1 : 0;
    }
    if (analysis.error) return 3;
    return classified > 0 ? 0 : 1;
  } catch (const ccsig::runtime::ParseException& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const std::ios_base::failure& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 4;
  }
}
