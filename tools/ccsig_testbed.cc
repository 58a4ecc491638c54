// ccsig_testbed — run one controlled testbed experiment from the command
// line and print the flow's signature, verdict, and path statistics.
// With --reps N it runs N independent replicates of the same configuration
// (seeds derived deterministically from --seed) in parallel across --jobs
// worker threads and prints one line per replicate plus a verdict tally.
//
// Usage:
//   ccsig_testbed [--external] [--rate MBPS] [--latency MS] [--loss P]
//                 [--buffer MS] [--duration S] [--cc NAME]
//                 [--seed N] [--reps N] [--jobs N] [--pcap FILE]
//                 [--metrics-out FILE] [--trace-out FILE]
//                 [--flow-telemetry FILE] [--quiet]
//
// --cc accepts any registered congestion-control module (the registry in
// tcp/congestion_control.cc: reno, cubic, cubic_hystart, bbr_lite, vegas,
// westwood — plus aliases like newreno/bbr/westwood+). An unknown name
// exits 2 and prints the registry with one-line summaries.
//
// Observability side files (stdout/verdicts are unaffected):
//   --metrics-out     final counters/gauges/histograms snapshot (JSON)
//   --metrics-prom    the same snapshot in Prometheus text exposition
//   --trace-out       Chrome trace-event JSON (chrome://tracing, Perfetto)
//   --flow-telemetry  per-ACK cwnd/ssthresh/pipe/srtt CSV of the test flow
//                     (single run only, like --pcap)
//   --quiet           no stderr progress (daemon/script mode; verdicts on
//                     stdout are unaffected)
//
// Exit codes: 0 success, 1 signature unavailable, 2 usage error, 3 input
// or I/O error, 4 internal error.
#include <cstdio>
#include <cstring>
#include <ios>
#include <string>
#include <utility>
#include <vector>

#include "core/ccsig.h"
#include "obs/flow_telemetry.h"
#include "tcp/congestion_control.h"
#include "obs/tool_obs.h"
#include "pcap/capture.h"
#include "runtime/atomic_file.h"
#include "runtime/cli_args.h"
#include "runtime/parallel_map.h"
#include "runtime/parse_error.h"
#include "runtime/progress.h"
#include "sim/random.h"
#include "testbed/experiment.h"

namespace {

int run_tool(ccsig::testbed::TestbedConfig cfg, int reps, int jobs,
             const std::string& pcap_path, const std::string& telemetry_path,
             bool quiet);

}  // namespace

int main(int argc, char** argv) {
  using namespace ccsig;
  using runtime::parse_count;
  using runtime::parse_double;
  // Cap on --rate (Mbps), --latency and --buffer (ms): far beyond any
  // modeled access link, and small enough that derived nanosecond times
  // stay in range.
  constexpr double kMaxPath = 1e6;
  testbed::TestbedConfig cfg;
  cfg.test_duration = sim::from_seconds(8);
  cfg.warmup = sim::from_seconds(2.5);
  cfg.seed = 1;
  int reps = 1;
  int jobs = 0;  // 0 = all hardware threads
  std::string pcap_path;
  std::string metrics_path;
  std::string metrics_prom_path;
  std::string trace_path;
  std::string telemetry_path;
  bool quiet = false;

  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--external] [--rate MBPS] [--latency MS] "
                 "[--loss P] [--buffer MS] [--duration S] [--cc NAME] "
                 "[--seed N] [--reps N] [--jobs N] [--pcap FILE] "
                 "[--metrics-out FILE] [--metrics-prom FILE] "
                 "[--trace-out FILE] "
                 "[--flow-telemetry FILE] [--quiet]\n",
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
    if (std::strcmp(flag, "--external") == 0) {
      cfg.scenario = testbed::Scenario::kExternal;
    } else if (std::strcmp(flag, "--rate") == 0 && has_value) {
      if (!parse_double(argv[++i], cfg.access_rate_mbps, 0, kMaxPath,
                        /*open_lo=*/true)) {
        return bad();
      }
    } else if (std::strcmp(flag, "--latency") == 0 && has_value) {
      if (!parse_double(argv[++i], cfg.access_latency_ms, 0, kMaxPath)) {
        return bad();
      }
    } else if (std::strcmp(flag, "--loss") == 0 && has_value) {
      if (!parse_double(argv[++i], cfg.access_loss, 0, 1, /*open_lo=*/false,
                        /*open_hi=*/true)) {
        return bad();
      }
    } else if (std::strcmp(flag, "--buffer") == 0 && has_value) {
      if (!parse_double(argv[++i], cfg.access_buffer_ms, 0, kMaxPath,
                        /*open_lo=*/true)) {
        return bad();
      }
    } else if (std::strcmp(flag, "--duration") == 0 && has_value) {
      if (!parse_double(argv[++i], secs, 0, 1e9, /*open_lo=*/true)) {
        return bad();
      }
      cfg.test_duration = sim::from_seconds(secs);
    } else if (std::strcmp(flag, "--cc") == 0 && has_value) {
      cfg.congestion_control = argv[++i];
    } else if (std::strcmp(flag, "--seed") == 0 && has_value) {
      if (!parse_count(argv[++i], cfg.seed)) return bad();
    } else if (std::strcmp(flag, "--reps") == 0 && has_value) {
      if (!parse_count(argv[++i], reps, 1)) return bad();
    } else if (std::strcmp(flag, "--jobs") == 0 && has_value) {
      if (!parse_count(argv[++i], jobs)) return bad();
    } else if (std::strcmp(flag, "--pcap") == 0 && has_value) {
      pcap_path = argv[++i];
    } else if (std::strcmp(flag, "--metrics-out") == 0 && has_value) {
      metrics_path = argv[++i];
    } else if (std::strcmp(flag, "--metrics-prom") == 0 && has_value) {
      metrics_prom_path = argv[++i];
    } else if (std::strcmp(flag, "--trace-out") == 0 && has_value) {
      trace_path = argv[++i];
    } else if (std::strcmp(flag, "--flow-telemetry") == 0 && has_value) {
      telemetry_path = argv[++i];
    } else if (std::strcmp(flag, "--quiet") == 0) {
      quiet = true;
    } else {
      return usage();
    }
  }
  // Resolve --cc up front so a typo is a usage error with the full menu,
  // not an internal error mid-experiment.
  try {
    tcp::congestion_control_by_name(cfg.congestion_control);
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "unknown --cc '%s'; registered modules:\n",
                 cfg.congestion_control.c_str());
    for (const auto& info : tcp::congestion_control_registry()) {
      std::fprintf(stderr, "  %-14s %s\n", info.name, info.summary);
    }
    return 2;
  }
  if (reps > 1 && !pcap_path.empty()) {
    std::fprintf(stderr, "--pcap requires a single run (omit --reps)\n");
    return 2;
  }
  if (reps > 1 && !telemetry_path.empty()) {
    std::fprintf(stderr,
                 "--flow-telemetry requires a single run (omit --reps)\n");
    return 2;
  }

  try {
    obs::ToolObs tool_obs(metrics_path, trace_path, "ccsig_testbed",
                          metrics_prom_path);
    const int rc = run_tool(std::move(cfg), reps, jobs, pcap_path,
                            telemetry_path, quiet);
    tool_obs.finalize();
    return rc;
  } catch (const runtime::ParseException& e) {
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

namespace {

int run_tool(ccsig::testbed::TestbedConfig cfg, int reps, int jobs,
             const std::string& pcap_path, const std::string& telemetry_path,
             bool quiet) {
  using namespace ccsig;
  std::printf("testbed: %s scenario, access %.0f Mbps / %.0f ms latency / "
              "%.4f loss / %.0f ms buffer, sender %s, seed %llu\n",
              cfg.scenario == testbed::Scenario::kExternal ? "EXTERNAL"
                                                           : "SELF-INDUCED",
              cfg.access_rate_mbps, cfg.access_latency_ms, cfg.access_loss,
              cfg.access_buffer_ms, cfg.congestion_control.c_str(),
              static_cast<unsigned long long>(cfg.seed));

  if (reps > 1) {
    // Replicate mode: derive one seed per replicate from --seed, run the
    // batch on runtime::parallel_map, report in replicate order.
    std::vector<testbed::TestbedConfig> runs(static_cast<std::size_t>(reps),
                                             cfg);
    sim::Rng seeder(cfg.seed);
    for (auto& r : runs) r.seed = seeder.next_u64();
    runtime::ProgressReporterOptions ropt;
    ropt.label = "reps";
    if (quiet) ropt.mode = runtime::ProgressMode::kOff;
    runtime::ProgressReporter reporter(ropt);
    runtime::ProgressCounter progress(runs.size(), reporter.callback());
    const auto results = runtime::parallel_map(
        runs,
        [](const testbed::TestbedConfig& c) {
          return testbed::run_testbed_experiment(c);
        },
        jobs, &progress);
    reporter.finish();

    const auto& clf = CongestionClassifier::pretrained();
    int votes[2] = {0, 0};
    int no_features = 0;
    double tput_sum = 0;
    for (int i = 0; i < reps; ++i) {
      const testbed::TestResult& r = results[static_cast<std::size_t>(i)];
      tput_sum += r.receiver_throughput_bps;
      if (!r.features) {
        ++no_features;
        std::printf("rep %2d: %6.2f Mbps, signature unavailable\n", i,
                    r.receiver_throughput_bps / 1e6);
        continue;
      }
      const auto verdict = clf.classify(*r.features);
      ++votes[static_cast<int>(verdict.verdict) == 1 ? 1 : 0];
      std::printf(
          "rep %2d: %6.2f Mbps, NormDiff=%.3f CoV=%.3f -> %s (%.2f)\n", i,
          r.receiver_throughput_bps / 1e6, r.features->norm_diff,
          r.features->cov, to_string(verdict.verdict), verdict.confidence);
    }
    std::printf("\n%d reps: mean throughput %.2f Mbps, verdicts: "
                "%d self-induced / %d external / %d unavailable\n",
                reps, tput_sum / reps / 1e6, votes[1], votes[0], no_features);
    return 0;
  }

  obs::FlowTelemetryConfig tele_cfg;
  tele_cfg.cc_label = cfg.congestion_control;  // `# cc:` comment in the CSV
  obs::FlowTelemetryRecorder telemetry(tele_cfg);
  if (!telemetry_path.empty()) cfg.telemetry = &telemetry;
  testbed::TestbedExperiment experiment(cfg);
  std::unique_ptr<pcap::PcapCaptureTap> tap;
  if (!pcap_path.empty()) {
    tap = std::make_unique<pcap::PcapCaptureTap>(pcap_path);
    experiment.network().node("server1")->add_tap(tap.get());
  }
  const testbed::TestResult result = experiment.run();
  if (tap) {
    tap->flush();
    std::printf("capture written to %s (%llu frames)\n", pcap_path.c_str(),
                static_cast<unsigned long long>(tap->packets_captured()));
  }
  if (!telemetry_path.empty()) {
    runtime::write_file_atomic(telemetry_path, telemetry.to_csv());
    std::printf("flow telemetry written to %s (%zu samples, %llu recorded)\n",
                telemetry_path.c_str(), telemetry.size(),
                static_cast<unsigned long long>(telemetry.recorded()));
  }

  std::printf("\nthroughput: %.2f Mbps over %.1f s (plan %.0f Mbps)\n",
              result.receiver_throughput_bps / 1e6,
              sim::to_seconds(cfg.test_duration), cfg.access_rate_mbps);
  std::printf("web100: %llu segs sent, %llu retx (%llu fast, %llu RTO), "
              "srtt %.1f ms\n",
              static_cast<unsigned long long>(result.web100.segments_sent),
              static_cast<unsigned long long>(result.web100.retransmits),
              static_cast<unsigned long long>(result.web100.fast_retransmits),
              static_cast<unsigned long long>(result.web100.timeouts),
              sim::to_millis(result.web100.smoothed_rtt));

  if (!result.features) {
    std::printf("signature: unavailable (too few slow-start RTT samples)\n");
    return 1;
  }
  std::printf("signature: NormDiff=%.3f CoV=%.3f (%zu samples, RTT "
              "%.1f-%.1f ms)\n",
              result.features->norm_diff, result.features->cov,
              result.features->rtt_samples, result.features->min_rtt_ms,
              result.features->max_rtt_ms);
  const auto verdict =
      CongestionClassifier::pretrained().classify(*result.features);
  std::printf("verdict: %s (confidence %.2f)\n", to_string(verdict.verdict),
              verdict.confidence);
  return 0;
}

}  // namespace
