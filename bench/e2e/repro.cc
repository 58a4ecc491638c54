// `repro`: the reproduction pipeline at the workload's flow length.
//
//   testbed   one template per (scenario, cc) re-simulated through
//             TestbedExperiment (the recipe's first rate and buffer); the
//             captured bytes must equal the pool's. Sets repeat until half
//             of --seconds is used (at least one); each reports simulated
//             seconds per wall second.
//   campaign  mlab::run_scale_campaign over full-PathSim Dispute2014 rows
//             with the recipe's NDT length, jobs = 1; the exported CSV's
//             digest must equal the first run's (kept beside the pool).
//             Repeats until the other half of --seconds is used (at least
//             one); each reports rows per second.
#include <cstdio>
#include <filesystem>

#include "e2e.h"
#include "mlab/rowstore.h"
#include "mlab/scale.h"
#include "obs/metrics.h"
#include "pool.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;

std::uint64_t counter(const ccsig::obs::MetricsSnapshot& s,
                      const std::string& name) {
  const auto* c = s.counter(name);
  return c ? c->value : 0;
}

}  // namespace

int cmd_repro(const std::vector<std::string>& argv) {
  const Args args(argv, {"--workload", "--inputs", "--seconds", "--workdir"},
                  {"--smoke"});
  if (!args.ok() || !args.has("--workload") || !args.has("--inputs") ||
      !args.has("--workdir")) {
    std::fprintf(stderr,
                 "usage: bench_e2e repro --workload NAME --inputs DIR "
                 "--workdir DIR --seconds S [--smoke]\n%s\n",
                 args.error().c_str());
    return 2;
  }
  const Recipe& r = recipe(args.get("--workload"));
  const double budget = args.num("--seconds", 4);
  std::vector<PoolEntry> pool;
  const std::string pool_dir = ensure_pool(r, args.get("--inputs"), pool);
  fs::create_directories(args.get("--workdir"));
  auto& reg = ccsig::obs::MetricsRegistry::global();
  reg.reset();

  // -- testbed -----------------------------------------------------------
  const std::size_t per_cc = r.rates_mbps.size() * r.buffers_ms.size();
  std::vector<const PoolEntry*> runs;
  for (std::size_t i = 0; i < pool.size(); i += per_cc) runs.push_back(&pool[i]);
  std::uint64_t failed = 0, attempted = 0, segments = 0;
  std::vector<double> speedup, self_ms, external_ms;
  const double t_testbed = now_s();
  do {
    double sim_s = 0, wall_s = 0;
    for (const PoolEntry* e : runs) {
      ccsig::testbed::TestResult res;
      const double t0 = now_s();
      const TemplateFlow flow = simulate_template(r, e->spec, e->attempt, &res);
      const double dt = now_s() - t0;
      wall_s += dt;
      sim_s += flow.simulated_s;
      (e->spec.external ? external_ms : self_ms).push_back(dt * 1e3);
      segments += res.web100.segments_sent;
      Digest d;
      d.add(flow.pcap);
      ++attempted;
      if (d.hex() != e->digest) ++failed;
    }
    speedup.push_back(sim_s / wall_s);
  } while (now_s() - t_testbed < budget / 2);
  const double testbed_wall = now_s() - t_testbed;
  const ccsig::obs::MetricsSnapshot sim_snap = reg.snapshot();

  // -- campaign ----------------------------------------------------------
  ccsig::mlab::ScaleOptions opt;
  opt.base.ndt_duration = ccsig::sim::from_seconds(r.ndt_s);
  opt.base.warmup = ccsig::sim::from_seconds(2.0);
  opt.base.jobs = 1;
  opt.total_rows =
      static_cast<std::uint64_t>(args.has("--smoke") ? kSmokeCampaignRows
                                                     : r.campaign_rows);
  opt.chunk_rows = opt.total_rows;
  opt.analytic = false;
  opt.store_path = args.get("--workdir") + "/campaign.ccrs";
  const std::string csv = args.get("--workdir") + "/campaign.csv";
  const std::string ref_path =
      pool_dir + "/campaign-" + std::to_string(opt.total_rows) + ".digest";
  std::vector<double> rows_per_s;
  std::string digest;
  const double t_campaign = now_s();
  do {
    fs::remove(opt.store_path);
    fs::remove(opt.store_path + ".ckpt");
    const double t0 = now_s();
    const ccsig::mlab::ScaleResult res = ccsig::mlab::run_scale_campaign(opt);
    const double dt = now_s() - t0;
    attempted += opt.total_rows;
    failed += res.failed_rows + (res.complete ? 0 : 1);
    rows_per_s.push_back(static_cast<double>(res.rows_executed) / dt);
    ccsig::mlab::export_rows_csv(opt.store_path, csv);
    Digest d;
    d.add(read_file(csv));
    if (!digest.empty() && d.hex() != digest) ++failed;
    digest = d.hex();
  } while (now_s() - t_campaign < budget / 2);
  if (fs::exists(ref_path)) {
    if (read_file(ref_path) != digest) ++failed;
  } else {
    write_file(ref_path, digest);
  }
  fs::remove(opt.store_path);
  fs::remove(csv);

  const ccsig::obs::MetricsSnapshot all = reg.snapshot();
  const std::uint64_t events = counter(sim_snap, "sim.events_executed");
  const std::uint64_t retries = counter(all, "runtime.retries");
  const std::uint64_t permanent = counter(all, "runtime.failures_permanent");
  failed += retries + permanent;
  Json out;
  out.integer("attempted", static_cast<std::int64_t>(attempted))
      .integer("failed", static_cast<std::int64_t>(failed))
      .str("campaign_digest", digest)
      .raw("testbed_sim_speedup", json_array(speedup))
      .raw("campaign_rows_per_s", json_array(rows_per_s))
      .num("testbed_self_run_ms", median(self_ms))
      .num("testbed_external_run_ms", median(external_ms))
      .num("mlab_row_ms", 1e3 / median(rows_per_s))
      .integer("sim_events_executed", static_cast<std::int64_t>(events))
      .num("sim_events_per_s", static_cast<double>(events) / testbed_wall)
      .integer("sim_link_packets_delivered",
               static_cast<std::int64_t>(
                   counter(sim_snap, "sim.link.packets_delivered")))
      .integer("sim_link_tail_drops",
               static_cast<std::int64_t>(counter(sim_snap, "sim.link.tail_drops")))
      .integer("tcp_segments_sent", static_cast<std::int64_t>(segments))
      .integer("runtime_retries", static_cast<std::int64_t>(retries))
      .integer("runtime_failures_permanent",
               static_cast<std::int64_t>(permanent));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace e2e
