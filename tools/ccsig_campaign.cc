// ccsig_campaign: million-row Dispute2014 campaign driver (mlab/scale.h).
//
//   ccsig_campaign --store FILE [--rows N] [--chunk N] [--jobs N]
//                  [--seed N] [--tests-per-cell N] [--full-sim]
//                  [--max-chunks N] [--csv-out FILE] [--summary-out FILE]
//                  [--metrics-out FILE] [--trace-out FILE] [--quiet]
//
// Runs (or resumes) a scale campaign into the binary row store at --store.
// --rows sets the target row count (the grid's tests_per_cell is raised to
// cover it); memory stays O(--chunk) however large --rows is. Kill the
// process at any point and rerun the same command line: completed chunks
// are the store's committed prefix, the in-flight chunk resumes from
// `<store>.ckpt`, and the final --csv-out is byte-identical to an
// uninterrupted run at any --jobs.
//
// --csv-out exports every row through the campaign's precision-17 CSV
// formatter (byte-identical to the in-memory writer); --summary-out writes
// the O(cells) streaming aggregate. --max-chunks bounds this invocation
// (the kill/resume test hook). --full-sim runs every row through the full
// PathSim model instead of the closed-form analytic one — fidelity over
// speed (~ms/row vs ~µs/row).
//
// Exit status: 0 campaign complete, 1 stopped early (--max-chunks) or rows
// failed permanently, 2 usage error (including any malformed or
// out-of-range number), 3 unreadable/mismatched store.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "mlab/rowstore.h"
#include "mlab/scale.h"
#include "obs/tool_obs.h"
#include "runtime/atomic_file.h"
#include "runtime/cli_args.h"
#include "runtime/parse_error.h"
#include "runtime/progress.h"

int main(int argc, char** argv) {
  ccsig::mlab::ScaleOptions opt;
  std::string csv_out, summary_out, metrics_path, trace_path;
  bool quiet = false;

  using ccsig::runtime::parse_count;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto has_value = [&](const char* name) {
      return std::strcmp(flag, name) == 0 && i + 1 < argc;
    };
    // Exit 2 naming the flag and the value just consumed.
    const auto bad = [&] {
      std::fprintf(stderr, "%s: invalid value '%s'\n", flag, argv[i]);
      return 2;
    };
    if (has_value("--store")) {
      opt.store_path = argv[++i];
    } else if (has_value("--rows")) {
      // 0 = the full grid implied by --tests-per-cell.
      if (!parse_count(argv[++i], opt.total_rows)) return bad();
    } else if (has_value("--chunk")) {
      if (!parse_count(argv[++i], opt.chunk_rows, std::uint64_t{1})) {
        return bad();
      }
    } else if (has_value("--jobs")) {
      if (!parse_count(argv[++i], opt.base.jobs)) return bad();
    } else if (has_value("--seed")) {
      if (!parse_count(argv[++i], opt.base.seed)) return bad();
    } else if (has_value("--tests-per-cell")) {
      if (!parse_count(argv[++i], opt.base.tests_per_cell, 1)) return bad();
    } else if (std::strcmp(flag, "--full-sim") == 0) {
      opt.analytic = false;
    } else if (has_value("--max-chunks")) {
      if (!parse_count(argv[++i], opt.max_chunks_this_run)) return bad();
    } else if (has_value("--csv-out")) {
      csv_out = argv[++i];
    } else if (has_value("--summary-out")) {
      summary_out = argv[++i];
    } else if (has_value("--metrics-out")) {
      metrics_path = argv[++i];
    } else if (has_value("--trace-out")) {
      trace_path = argv[++i];
    } else if (std::strcmp(flag, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(
          stderr,
          "usage: %s --store FILE [--rows N] [--chunk N] [--jobs N] "
          "[--seed N] [--tests-per-cell N] [--full-sim] [--max-chunks N] "
          "[--csv-out FILE] [--summary-out FILE] [--metrics-out FILE] "
          "[--trace-out FILE] [--quiet]\n",
          argv[0]);
      return 2;
    }
  }
  if (opt.store_path.empty()) {
    std::fprintf(stderr, "error: --store is required\n");
    return 2;
  }
  ccsig::runtime::ProgressReporterOptions ropt;
  ropt.label = "campaign";
  if (quiet) ropt.mode = ccsig::runtime::ProgressMode::kOff;
  ccsig::runtime::ProgressReporter reporter(ropt);
  opt.progress = [&reporter](std::uint64_t done, std::uint64_t total) {
    reporter.update(static_cast<std::size_t>(done),
                    static_cast<std::size_t>(total));
  };

  try {
    ccsig::obs::ToolObs tool_obs(metrics_path, trace_path, "ccsig_campaign");
    const auto result = ccsig::mlab::run_scale_campaign(opt);
    if (!quiet) {
      std::fprintf(stderr,
                   "\n[campaign] total=%llu committed_before=%llu "
                   "executed=%llu chunks=%llu failed=%llu complete=%d\n",
                   static_cast<unsigned long long>(result.rows_total),
                   static_cast<unsigned long long>(
                       result.rows_committed_before),
                   static_cast<unsigned long long>(result.rows_executed),
                   static_cast<unsigned long long>(result.chunks_run),
                   static_cast<unsigned long long>(result.failed_rows),
                   result.complete ? 1 : 0);
    }
    if (!csv_out.empty()) {
      ccsig::mlab::export_rows_csv(opt.store_path, csv_out);
      if (!quiet) {
        std::fprintf(stderr, "[campaign] csv exported to %s\n",
                     csv_out.c_str());
      }
    }
    if (!summary_out.empty()) {
      const auto summary = ccsig::mlab::aggregate_scale_store(opt.store_path);
      ccsig::runtime::write_file_atomic(
          summary_out, ccsig::mlab::scale_summary_csv(summary));
      if (!quiet) {
        std::fprintf(stderr, "[campaign] summary (%zu cells) written to %s\n",
                     summary.cells.size(), summary_out.c_str());
      }
    }
    return result.complete ? 0 : 1;
  } catch (const ccsig::runtime::ParseException& e) {
    std::fprintf(stderr, "error: %s\n", e.error().to_string().c_str());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
