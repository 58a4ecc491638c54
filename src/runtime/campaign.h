// The one campaign harness behind the testbed sweep (testbed/sweep.h),
// Dispute2014 (mlab/dispute2014.h), TSLP2017 (mlab/tslp2017.h) and the
// chunked scale driver (mlab/scale.h).
//
// A campaign is reduced to a Campaign value: its deterministic plan (every
// slot's seed already drawn), its per-slot run, its content fingerprint
// and its row format (runtime/csv.h). How it executes — threads, retries,
// checkpointing, fault injection, error/stats sinks — is CampaignOptions,
// which every campaign's options struct derives from and which is never
// fingerprinted.
//
// run_checkpointed is the execution core. Given the item list it
//   1. restores completed slots from a fingerprinted shard checkpoint,
//   2. runs the remaining slots on parallel_map, each through
//      run_supervised (kCampaignRetry attempts, fault injection keyed by
//      the campaign slot),
//   3. records each completed slot's serialized row back into the
//      checkpoint (atomic rewrite every `checkpoint_every` completions),
//   4. reports per-slot failures instead of aborting the campaign.
// Because checkpoint rows go through the same formatter the final CSV
// writer uses, a resumed campaign's output is byte-identical to an
// uninterrupted run.
//
// run_campaign runs a Campaign and keeps the rows that succeeded, in slot
// order; load_or_run_campaign is the one cache-or-generate path on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/checkpoint.h"
#include "runtime/csv.h"
#include "runtime/parallel_map.h"
#include "runtime/supervised.h"

namespace ccsig::runtime {

/// Per-campaign accounting filled in by run_checkpointed. Makes
/// resumed-vs-fresh runs auditable: a resumed campaign shows
/// `restored_slots > 0`, a retry storm shows `attempts >> executed_slots`.
struct CampaignStats {
  std::size_t total_slots = 0;
  std::size_t restored_slots = 0;  // satisfied from the shard checkpoint
  std::size_t executed_slots = 0;  // actually run this invocation
  std::size_t failed_slots = 0;    // still failed after retries
  std::size_t retried_slots = 0;   // needed more than one attempt
  std::size_t attempts = 0;        // total attempts across executed slots

  /// Stable single-line JSON rendering of the stats alone.
  std::string to_json() const {
    std::ostringstream out;
    out << "{\"total_slots\":" << total_slots
        << ",\"restored_slots\":" << restored_slots
        << ",\"executed_slots\":" << executed_slots
        << ",\"failed_slots\":" << failed_slots
        << ",\"retried_slots\":" << retried_slots
        << ",\"attempts\":" << attempts << '}';
    return out.str();
  }
};

/// The end-of-campaign snapshot written next to every campaign cache CSV
/// (`<cache>.metrics.json`): the campaign's fingerprint and slot
/// accounting plus the process-wide metrics registry at snapshot time.
inline std::string campaign_metrics_json(const std::string& fingerprint,
                                         const CampaignStats& stats) {
  std::ostringstream out;
  out << "{\"fingerprint\":\"" << obs::json_escape(fingerprint)
      << "\",\"campaign\":" << stats.to_json()
      << ",\"metrics\":" << obs::MetricsRegistry::global().snapshot().to_json()
      << "}\n";
  return out.str();
}

/// Every campaign slot gets this many attempts: a transient failure
/// (injected fault, I/O hiccup) is re-run once before the slot is reported
/// failed.
inline constexpr RetryPolicy kCampaignRetry = RetryPolicy::attempts(2);

/// How a campaign executes, never what it computes: none of these fields
/// is part of a fingerprint, and output is byte-identical for any value of
/// them (faults aside, which only decide which slots fail).
struct CampaignOptions {
  /// Worker threads: 0 = every hardware thread, 1 = serial. Output is
  /// identical for any value: per-slot seeds are drawn in a deterministic
  /// pre-pass and results are collected in slot order.
  int jobs = 0;
  /// Called with (done, total) as slots complete; invocations are
  /// serialized even when `jobs > 1`.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Shard-checkpoint file for kill/resume; empty disables checkpointing.
  /// load_or_run_campaign defaults it to `<cache>.ckpt`.
  std::string checkpoint_path;
  int checkpoint_every = 16;
  /// Deterministic fault injection (tests); nullptr = none.
  const FaultPlan* faults = nullptr;
  /// Receives one JobError per slot that ultimately failed (after
  /// retries); such slots are absent from the result. nullptr = discard.
  std::vector<JobError>* errors_out = nullptr;
  /// Receives the campaign's slot accounting (restored vs executed vs
  /// failed, retry counts).
  CampaignStats* stats_out = nullptr;
};

/// run_checkpointed's options: the execution settings plus what
/// run_campaign derives from the Campaign itself.
struct CheckpointedRunOptions : CampaignOptions {
  /// Content digest the shard checkpoint is keyed to.
  std::string fingerprint;
  /// Slot -> seed tag for error reports (e.g. the run's RNG seed).
  std::function<std::uint64_t(std::size_t)> seed_of;
  /// When non-null, checkpoint removal after a fully successful run is
  /// deferred: the checkpoint is flushed and kept on disk, and *commit_out
  /// receives a callback that deletes it. The caller invokes the callback
  /// only AFTER atomically writing the final artifact, so a crash between
  /// "run finished" and "artifact written" still resumes from the
  /// checkpoint instead of re-running the whole campaign. Left empty when
  /// the run had failures or checkpointing is disabled. When null, a fully
  /// successful run removes its checkpoint before returning.
  std::function<void()>* commit_out = nullptr;
};

template <typename In, typename RunFn, typename SerFn, typename DeFn>
auto run_checkpointed(const std::vector<In>& items, RunFn run, SerFn ser,
                      DeFn de, const CheckpointedRunOptions& opt)
    -> std::vector<std::optional<std::invoke_result_t<RunFn&, const In&>>> {
  using Out = std::invoke_result_t<RunFn&, const In&>;
  const std::size_t n = items.size();
  std::vector<std::optional<Out>> out(n);
  if (opt.commit_out) *opt.commit_out = nullptr;

  std::shared_ptr<ShardCheckpoint> ckpt;
  if (!opt.checkpoint_path.empty()) {
    obs::TraceSpan span("campaign.checkpoint_load", "campaign");
    ckpt = std::make_shared<ShardCheckpoint>(
        opt.checkpoint_path, opt.fingerprint, opt.checkpoint_every);
    auto restored = ShardCheckpoint::load(opt.checkpoint_path,
                                          opt.fingerprint);
    std::map<std::size_t, std::string> kept;
    for (const auto& [slot, row] : restored) {
      if (slot >= n) continue;
      try {
        out[slot] = de(row);
        kept.emplace(slot, row);
      } catch (...) {
        // Damaged row: drop it and re-run the slot.
      }
    }
    ckpt->restore(kept);
  }

  std::vector<std::size_t> pending;
  pending.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!out[i]) pending.push_back(i);
  }

  ProgressCounter progress(n, opt.progress);
  for (std::size_t i = 0; i < n - pending.size(); ++i) progress.tick();

  std::vector<JobResult<Out>> results = [&] {
    obs::TraceSpan span("campaign.run", "campaign");
    return parallel_map(
        pending,
        [&](const std::size_t& slot) {
          auto run_slot = [&](const In& item) {
            Out o = run(item);
            if (ckpt) ckpt->record(slot, ser(o), opt.faults);
            return o;
          };
          return run_supervised(items[slot], run_slot, kCampaignRetry, slot,
                                opt.seed_of ? opt.seed_of(slot) : 0,
                                opt.faults);
        },
        opt.jobs, &progress);
  }();

  CampaignStats stats;
  stats.total_slots = n;
  stats.restored_slots = n - pending.size();
  stats.executed_slots = pending.size();
  for (std::size_t k = 0; k < pending.size(); ++k) {
    JobResult<Out>& r = results[k];
    stats.attempts += static_cast<std::size_t>(r.attempts());
    if (r.attempts() > 1) ++stats.retried_slots;
    if (r.ok()) {
      out[pending[k]] = std::move(r.value());
    } else {
      ++stats.failed_slots;
      if (opt.errors_out) opt.errors_out->push_back(r.error());
    }
  }
  if (opt.stats_out) *opt.stats_out = stats;

  if (ckpt) {
    const bool all_ok = stats.failed_slots == 0;
    if (all_ok && opt.commit_out) {
      // Deferred commit: keep the checkpoint until the caller has written
      // the final artifact, then let it retire the checkpoint.
      ckpt->flush();
      *opt.commit_out = [ckpt] { ckpt->remove(); };
    } else if (all_ok) {
      ckpt->remove();  // complete run: the final CSV is the artifact now
    } else {
      ckpt->flush();  // keep partial progress for the next invocation
    }
  }
  return out;
}

/// One campaign reduced to what distinguishes it from the others.
template <typename Item, typename Row>
struct Campaign {
  /// Every slot, fully specified (seed included) in a deterministic
  /// pre-pass, so content never depends on execution order.
  std::vector<Item> plan;
  /// Runs one slot; nullopt = the slot completed but produced no row.
  std::function<std::optional<Row>(const Item&)> run_one;
  /// The slot's seed, reported with its JobError when it fails.
  std::function<std::uint64_t(const Item&)> seed_of;
  /// Digest of every option that affects content; keys checkpoint and cache.
  std::string fingerprint;
  const RowFormat<Row>* format;
};

/// Checkpoint marker for a slot that completed without a row: still done,
/// must not be re-run on resume.
inline constexpr char kNoRow[] = "-";

/// Runs `c` under `opt` and returns the rows of the slots that succeeded,
/// in slot order. `commit_out` defers checkpoint removal (see
/// CheckpointedRunOptions::commit_out).
template <typename Item, typename Row>
std::vector<Row> run_campaign(const Campaign<Item, Row>& c,
                              const CampaignOptions& opt,
                              std::function<void()>* commit_out = nullptr) {
  CheckpointedRunOptions ropt;
  static_cast<CampaignOptions&>(ropt) = opt;
  ropt.fingerprint = c.fingerprint;
  ropt.seed_of = [&c](std::size_t slot) { return c.seed_of(c.plan[slot]); };
  ropt.commit_out = commit_out;

  const RowFormat<Row>& fmt = *c.format;
  auto slots = run_checkpointed(
      c.plan, c.run_one,
      [&fmt](const std::optional<Row>& r) {
        return r ? fmt.format(*r) : std::string(kNoRow);
      },
      [&fmt, &ropt](const std::string& line) -> std::optional<Row> {
        if (line == kNoRow) return std::nullopt;
        return fmt.parse(line, ropt.checkpoint_path, 0);
      },
      ropt);

  std::vector<Row> rows;
  rows.reserve(slots.size());
  for (auto& slot : slots) {
    if (slot && *slot) rows.push_back(std::move(**slot));
  }
  return rows;
}

/// Loads `cache_path` when it exists, parses cleanly, and its embedded
/// fingerprint matches `c` (legacy caches without a fingerprint are
/// trusted as-is); otherwise runs the campaign — resuming from
/// `opt.checkpoint_path`, default `<cache_path>.ckpt`, when a matching
/// checkpoint survives a previous kill — and atomically rewrites the cache
/// with the fingerprint. A corrupt cache is treated as stale, never fatal.
/// A run with permanently failed slots returns its partial rows but is NOT
/// cached: the checkpoint is kept so the next invocation retries only the
/// failed slots. On success the checkpoint is removed only after the cache
/// CSV is safely on disk. `<cache_path>.metrics.json` receives the slot
/// accounting and a metrics snapshot either way.
template <typename Item, typename Row>
std::vector<Row> load_or_run_campaign(const std::string& cache_path,
                                      const Campaign<Item, Row>& c,
                                      const CampaignOptions& opt) {
  if (std::filesystem::exists(cache_path)) {
    try {
      std::string have;
      auto rows = load_rows_csv(cache_path, *c.format, &have);
      // Legacy caches predate fingerprinting; trust them as before. A
      // fingerprinted cache written under different options is stale.
      if (have.empty() || have == c.fingerprint) return rows;
    } catch (const ParseException&) {
      // Corrupt cache: regenerate below instead of failing the caller.
    }
  }
  CampaignOptions resumable = opt;
  if (resumable.checkpoint_path.empty()) {
    resumable.checkpoint_path = cache_path + ".ckpt";
  }
  // A partial result (some slots failed permanently) must never become a
  // fingerprinted cache hit: skip the cache write so the kept checkpoint
  // drives a retry of only the failed slots on the next invocation.
  std::vector<JobError> local_errors;
  if (!resumable.errors_out) resumable.errors_out = &local_errors;
  const std::size_t errors_before = resumable.errors_out->size();
  CampaignStats stats;
  if (!resumable.stats_out) resumable.stats_out = &stats;
  std::function<void()> commit;
  auto rows = run_campaign(c, resumable, &commit);
  if (resumable.errors_out->size() == errors_before) {
    // Cache first, checkpoint removal second: a crash between the two only
    // costs a cheap resume-with-nothing-pending, never recorded progress.
    obs::TraceSpan span("campaign.cache_commit", "campaign");
    save_rows_csv(cache_path, rows, *c.format, c.fingerprint);
    if (commit) commit();
  }
  // Auditability side artifact (never read back, never fingerprinted):
  // the slot accounting + the process metrics snapshot. Written on partial
  // failure too, so a retry storm leaves evidence.
  write_file_atomic(cache_path + ".metrics.json",
                    campaign_metrics_json(c.fingerprint,
                                          *resumable.stats_out));
  return rows;
}

}  // namespace ccsig::runtime
