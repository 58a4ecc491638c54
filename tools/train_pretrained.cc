// Regenerates src/core/pretrained_model.inc from a controlled-testbed sweep.
//
// Usage: train_pretrained <sweep.csv> <output.inc> [threshold] [depth]
//                         [--jobs N] [--reps N] [--seed N]
//                         [--metrics-out FILE] [--trace-out FILE]
//                         [--flow-telemetry FILE]
//
// Observability side files (see src/obs/): --metrics-out writes the final
// metrics snapshot JSON, --trace-out writes Chrome trace JSON covering the
// sweep campaign, --flow-telemetry writes the per-ACK congestion-state CSV
// of the sweep's first enumerated run (only recorded when the sweep
// actually executes, i.e. <sweep.csv> was missing).
//
// The sweep CSV comes from testbed::save_samples_csv (run the fig3 bench
// once, or call testbed::run_sweep yourself). When <sweep.csv> does not
// exist, the standard sweep is run right here — across --jobs worker
// threads (default: all hardware threads) — and saved to that path first.
// The output is a C++ raw string literal included by core/classifier.cc.
//
// Exit codes: 0 success, 2 usage error, 3 input or I/O error, 4 internal
// error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ios>
#include <iostream>
#include <string>
#include <vector>

#include "ml/cv.h"
#include "ml/decision_tree.h"
#include "obs/flow_telemetry.h"
#include "obs/tool_obs.h"
#include "runtime/atomic_file.h"
#include "runtime/cli_args.h"
#include "runtime/parse_error.h"
#include "runtime/progress.h"
#include "testbed/sweep.h"

namespace {

int run_tool(const std::string& csv, const std::string& out_path,
             double threshold, int depth, int jobs, int reps,
             std::uint64_t seed, const std::string& telemetry_path);

}  // namespace

int main(int argc, char** argv) {
  using ccsig::runtime::parse_count;
  using ccsig::runtime::parse_double;
  std::vector<const char*> positional;
  int jobs = 0;  // 0 = all hardware threads
  int reps = 5;
  std::uint64_t seed = 42;
  std::string metrics_path;
  std::string trace_path;
  std::string telemetry_path;
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s <sweep.csv> <output.inc> [threshold=0.8] "
                 "[depth=4] [--jobs N] [--reps N] [--seed N] "
                 "[--metrics-out FILE] [--trace-out FILE] "
                 "[--flow-telemetry FILE]\n",
                 argv[0]);
    return 2;
  };
  // Exit 2 naming the argument and the value that failed to parse.
  const auto bad = [](const char* what, const char* value) {
    std::fprintf(stderr, "%s: invalid value '%s'\n", what, value);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(flag, "--jobs") == 0 && has_value) {
      if (!parse_count(argv[++i], jobs)) return bad(flag, argv[i]);
    } else if (std::strcmp(flag, "--reps") == 0 && has_value) {
      if (!parse_count(argv[++i], reps, 1)) return bad(flag, argv[i]);
    } else if (std::strcmp(flag, "--seed") == 0 && has_value) {
      if (!parse_count(argv[++i], seed)) return bad(flag, argv[i]);
    } else if (std::strcmp(flag, "--metrics-out") == 0 && has_value) {
      metrics_path = argv[++i];
    } else if (std::strcmp(flag, "--trace-out") == 0 && has_value) {
      trace_path = argv[++i];
    } else if (std::strcmp(flag, "--flow-telemetry") == 0 && has_value) {
      telemetry_path = argv[++i];
    } else if (flag[0] == '-' && flag[1] == '-') {
      return usage();  // unknown or valueless flag
    } else {
      positional.push_back(flag);
    }
  }
  if (positional.size() < 2 || positional.size() > 4) return usage();
  const std::string csv = positional[0];
  const std::string out_path = positional[1];
  // The labeling threshold is a fraction of the access capacity.
  double threshold = 0.8;
  int depth = 4;
  if (positional.size() > 2 &&
      !parse_double(positional[2], threshold, 0, 1, /*open_lo=*/true)) {
    return bad("threshold", positional[2]);
  }
  if (positional.size() > 3 && !parse_count(positional[3], depth, 1)) {
    return bad("depth", positional[3]);
  }

  try {
    ccsig::obs::ToolObs tool_obs(metrics_path, trace_path, "train_pretrained");
    const int rc = run_tool(csv, out_path, threshold, depth, jobs, reps, seed,
                            telemetry_path);
    tool_obs.finalize();
    return rc;
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

namespace {

int run_tool(const std::string& csv, const std::string& out_path,
             double threshold, int depth, int jobs, int reps,
             std::uint64_t seed, const std::string& telemetry_path) {
  bool telemetry_recorded = false;
  if (!std::filesystem::exists(csv)) {
    ccsig::testbed::SweepOptions sweep;
    sweep.scale = 1.0;
    sweep.reps = reps;
    sweep.seed = seed;
    sweep.jobs = jobs;
    ccsig::runtime::ProgressReporter reporter("sweep");
    sweep.progress = reporter.callback();
    ccsig::obs::FlowTelemetryRecorder telemetry;
    if (!telemetry_path.empty()) sweep.telemetry = &telemetry;
    std::fprintf(stderr, "%s missing; running the sweep (reps=%d)\n",
                 csv.c_str(), reps);
    const auto fresh = ccsig::testbed::run_sweep(sweep);
    reporter.finish();
    ccsig::testbed::save_samples_csv(csv, fresh,
                                     ccsig::testbed::sweep_fingerprint(sweep));
    if (!telemetry_path.empty()) {
      ccsig::runtime::write_file_atomic(telemetry_path, telemetry.to_csv());
      telemetry_recorded = true;
      std::fprintf(stderr, "flow telemetry written to %s (%zu samples)\n",
                   telemetry_path.c_str(), telemetry.size());
    }
  }
  if (!telemetry_path.empty() && !telemetry_recorded) {
    std::fprintf(stderr,
                 "--flow-telemetry: sweep loaded from %s, nothing simulated; "
                 "no telemetry written\n",
                 csv.c_str());
  }

  const auto samples = ccsig::testbed::load_samples_csv(csv);
  const auto data = ccsig::testbed::make_dataset(samples, threshold);
  const auto counts = data.class_counts();
  std::fprintf(stderr, "training on %zu samples (external=%zu self=%zu)\n",
               data.size(), counts.size() > 0 ? counts[0] : 0,
               counts.size() > 1 ? counts[1] : 0);

  ccsig::ml::DecisionTree tree(
      ccsig::ml::DecisionTree::Params{.max_depth = depth});
  tree.fit(data);
  std::fprintf(stderr, "tree depth %d, %zu leaves\n%s", tree.depth(),
               tree.leaf_count(),
               tree.describe({"norm_diff", "cov"}).c_str());

  // 5-fold CV sanity report, fitted across --jobs threads (the fold trees
  // are byte-identical at any jobs value; only the wall clock changes).
  const auto cv = ccsig::ml::cross_validate(
      data, ccsig::ml::DecisionTree::Params{.max_depth = depth}, /*k=*/5,
      seed, jobs);
  std::fprintf(stderr, "5-fold CV accuracy %.4f (folds:", cv.accuracy);
  for (double a : cv.fold_accuracy) std::fprintf(stderr, " %.4f", a);
  std::fprintf(stderr, ")\n");

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 3;
  }
  out << "R\"(" << tree.to_text() << ")\"\n";
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
