// Million-row campaign scaling for the Dispute2014 reconstruction.
//
// generate_dispute2014 materializes the whole plan and the whole result
// vector — fine for the paper's figures (thousands of tests), hopeless at
// millions. run_scale_campaign instead walks the identical plan through
// DisputePlanCursor in fixed-size chunks:
//
//   chunk k = plan rows [k*chunk_rows, (k+1)*chunk_rows)
//     -> runtime::run_campaign (retries, fault injection, shard checkpoint
//        at <store>.ckpt fingerprinted to this campaign AND this chunk)
//     -> one committed block appended to the binary row store
//     -> checkpoint retired
//
// Peak memory is O(chunk_rows + shards), never O(rows). A kill at any
// point resumes exactly: completed blocks are the row store's committed
// prefix, the in-flight chunk restores from its shard checkpoint, and
// because every row is a pure function of its plan slot (per-row RNG
// seeded in the deterministic pre-pass draw order), the resumed campaign's
// exported CSV is byte-identical to an uninterrupted run at any --jobs.
//
// Scale runs default to the analytic NDT model — a closed-form observation
// generator (microseconds/row) driven by the same per-row seed, modeling
// the paper's two regimes: an over-capacity interconnect collapses
// throughput with a flat-RTT/high-variance signature (external), an
// access-limited path fills its own buffer for a high norm_diff/low-cov
// signature (self-induced). Full PathSim rows (milliseconds/row) remain
// available for fidelity runs via ScaleOptions::analytic = false.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "mlab/dispute2014.h"
#include "mlab/rowstore.h"

namespace ccsig::mlab {

struct ScaleOptions {
  /// Campaign content knobs (months/hours/intensities/seed/...) and, via
  /// its CampaignOptions base, how every chunk executes (jobs, retry,
  /// faults, errors_out; progress and stats_out see one chunk at a time).
  /// Its tests_per_cell is overridden when total_rows is set; its
  /// checkpoint_path is ignored (the store location decides).
  Dispute2014Options base;
  /// Target row count. 0 = the full grid implied by base.tests_per_cell.
  /// Otherwise tests_per_cell is raised to cover it and the plan is
  /// truncated to exactly this many rows.
  std::uint64_t total_rows = 0;
  /// Rows per chunk = per checkpoint shard = per store block. Part of the
  /// fingerprint (it defines checkpoint slot meaning), so pick it once per
  /// store. Peak memory is proportional to this.
  std::uint64_t chunk_rows = 8192;
  /// Binary row store path; `<store>.ckpt` holds the in-flight chunk.
  std::string store_path;
  /// Closed-form observation model (default) vs full PathSim per row.
  bool analytic = true;
  /// Stop after this many chunks this invocation (0 = run to completion).
  /// The primary kill/resume test hook: a bounded run leaves the store in
  /// exactly the state a kill at a chunk boundary would.
  std::uint64_t max_chunks_this_run = 0;
  /// Called after every chunk with (rows_committed, rows_total).
  std::function<void(std::uint64_t, std::uint64_t)> progress;
};

struct ScaleResult {
  std::uint64_t rows_total = 0;
  std::uint64_t rows_committed_before = 0;  // restored from the store
  std::uint64_t rows_executed = 0;          // run this invocation
  std::uint64_t chunks_run = 0;
  std::uint64_t failed_rows = 0;  // permanent failures this invocation
  bool complete = false;          // store now holds all rows_total rows
};

/// Fingerprint covering everything that affects store content: the base
/// campaign fingerprint plus the scale knobs (rows, chunking, model).
std::string scale_fingerprint(const ScaleOptions& opt);

/// The effective per-grid-cell test count after total_rows adjustment.
int scale_tests_per_cell(const ScaleOptions& opt);

/// Closed-form NDT observation for one planned test; deterministic given
/// `p.pc.seed`. Shares PlannedNdt (and thus the plan RNG stream) with the
/// full simulator.
NdtObservation analytic_ndt(const PlannedNdt& p);

/// Runs (or resumes) the campaign into opt.store_path. A store whose
/// fingerprint does not match is an error (ParseException) — delete it to
/// restart. Returns accounting; complete=false means either
/// max_chunks_this_run stopped the run early or some rows failed
/// permanently this invocation (rerun to retry just those).
ScaleResult run_scale_campaign(const ScaleOptions& opt);

/// Streaming aggregate over a store: O(cells) memory however many rows.
/// Cells are keyed "transit,isp,month,peak" (peak = is_peak_hour), the
/// granularity of the paper's dispute narrative.
struct ScaleCellStats {
  std::uint64_t tests = 0;
  std::uint64_t passes_filters = 0;
  std::uint64_t has_features = 0;
  std::uint64_t truth_external = 0;
  double throughput_sum = 0;
  double norm_diff_sum = 0;
  double cov_sum = 0;
};

struct ScaleSummary {
  std::uint64_t rows = 0;
  std::string fingerprint;
  std::map<std::string, ScaleCellStats> cells;
};

ScaleSummary aggregate_scale_store(const std::string& store_path);

/// Stable CSV rendering of a summary (one line per cell, key order).
std::string scale_summary_csv(const ScaleSummary& summary);

}  // namespace ccsig::mlab
