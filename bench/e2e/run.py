#!/usr/bin/env python3
"""End-to-end benchmark of ccsig: capture -> verdict, the ccsigd daemon,
and the reproduction pipeline, on one workload per run.

A run builds what it needs (the ccsig libraries and ccsigd in the build
tree, then the bench_e2e program beside them), generates the workload's
capture from --seed, measures for about --seconds, checks every verdict,
and prints one JSON object as the last line of stdout:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones from a separate traced run (see README.md).

Usage:
  run.py --workload flows|bulk [--seed N] [--seconds S] [--trace 0|1]
         [--build DIR] [--out FILE]
  run.py --smoke [--build DIR]
  run.py --compare PARENT.jsonl CHANGE.jsonl

--out appends the run's result (with its input digest) to FILE as one
JSON line; --compare reads two such files. Exit codes: 0 ok, 1 a check
failed (or --compare found a regression), 2 usage or environment error.
"""

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent

WORKLOADS = ("flows", "bulk")

# Absolute floors below which --compare never calls a change a regression
# (timer and scheduler granularity, not the program).
FLOORS = {
    "setup_s": 0.001,
    "verdict_latency_p50_ms": 0.1,
    "verdict_latency_p99_ms": 0.25,
    "loaded_latency_p99_ms": 0.25,
}

LIB_TARGETS = ["ccsigd", "ccsig_core", "ccsig_stream", "ccsig_service",
               "ccsig_testbed", "ccsig_mlab"]

CHILD_TIMEOUT_S = 150

# Rounds per untraced run (see untraced()).
ROUNDS = 3


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def fail_env(msg):
    log(msg)
    sys.exit(2)


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def sh(cmd, **kw):
    """Runs a build step; its output goes to stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw)
    if proc.returncode != 0:
        fail_env(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build(tree):
    """Configures/builds the library targets and bench_e2e; returns the
    bench_e2e binary and ccsigd."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail_env(f"no ccsig source tree at {ROOT}")
    if not (tree / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", ROOT, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", tree, "-j", str(jobs()), "--target", *LIB_TARGETS])
    bench = tree / "bench-e2e"
    if not (bench / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", HERE, "-B", bench, f"-DCCSIG_BUILD_DIR={tree}"])
    sh(["cmake", "--build", bench, "-j", str(jobs())])
    return bench / "bench_e2e", tree / "src" / "ccsigd"


def child(cmd, out_path, timeout=CHILD_TIMEOUT_S):
    """Runs one bench_e2e subcommand in its own process group and returns its
    JSON result and peak RSS (MB). Its stdout goes to `out_path`. On a
    timeout the whole group, ccsigd included, is killed."""
    def kill_group(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(out_path, "w+b") as out:
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out,
                                start_new_session=True)
        timer = threading.Timer(timeout, kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.returncode = 0  # reaped here, not by Popen
        # A ccsigd that bench_e2e forked may not outlive it.
        kill_group(proc.pid)
        out.seek(0)
        lines = out.read().decode().strip().splitlines()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        fail_env(f"{cmd[1]} exited {code}")
    if not lines:
        fail_env(f"{cmd[1]} printed nothing")
    return json.loads(lines[-1]), rusage.ru_maxrss / 1024.0


class Run:
    def __init__(self, args):
        self.args = args
        self.tree = (ROOT / args.build).resolve()
        self.bin, self.ccsigd = build(self.tree)
        self.rates = [args.low_rate or int(pinned("--low-rate")),
                      args.high_rate or int(pinned("--high-rate"))]
        self.work = self.tree / "bench-e2e"
        self.inputs = self.work / "inputs"
        self.scratch = self.work / "run"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what, count=1):
        if not ok:
            self.failed += count
            self.problems.append(what)

    def gen(self, workload, smoke=False):
        cmd = [self.bin, "gen", "--workload", workload, "--seed",
               self.args.seed, "--inputs", self.inputs]
        if smoke:
            cmd.append("--smoke")
        res, _ = child(cmd, self.scratch / "gen.out", timeout=600)
        log(f"{workload}: capture {res['meta']['records']} records, "
            f"{res['meta']['flows']} flows, gen_s {res['gen_s']:.2f}")
        return res

    def offline(self, cap_dir, mode, seconds, min_passes):
        res, rss = child([self.bin, "offline", "--mode", mode, "--capture",
                          cap_dir, "--seconds", seconds, "--min-passes",
                          min_passes], self.scratch / f"{mode}.out")
        flows = res["flows"]
        self.attempted += flows
        self.check(res["mismatches"] == 0,
                   f"{mode}: {res['mismatches']} verdicts differ from the "
                   "templates' references", res["mismatches"])
        self.check(res["unstable_passes"] == 0,
                   f"{mode}: passes disagree", res["unstable_passes"])
        self.check(res["error"] == "", f"{mode}: capture error {res['error']}")
        return res, rss

    def daemon(self, cap_dir, saturation_reps):
        res, _ = child([self.bin, "daemon", "--ccsigd", self.ccsigd,
                        "--capture", cap_dir, "--workdir",
                        self.scratch / "daemon", "--low-rate",
                        self.rates[0], "--high-rate", self.rates[1],
                        "--saturation-reps",
                        saturation_reps], self.scratch / "daemon.out")
        self.attempted += res["verdicts"]
        self.check(res["failed"] == 0,
                   f"daemon: {res['failed']} verdicts missing, different "
                   "or shed", res["failed"])
        self.check(res["exit_codes"] == 0, "daemon: ccsigd did not drain "
                   "cleanly")
        return res

    def repro(self, workload, seconds, smoke=False):
        cmd = [self.bin, "repro", "--workload", workload, "--inputs",
               self.inputs, "--workdir", self.scratch / "repro",
               "--seconds", seconds]
        if smoke:
            cmd.append("--smoke")
        res, _ = child(cmd, self.scratch / "repro.out")
        self.attempted += res["attempted"]
        self.check(res["failed"] == 0,
                   f"repro: {res['failed']} runs or rows failed or differ",
                   res["failed"])
        return res

    def result(self, metrics, extra, kind):
        declared = {m["name"]: m["unit"] for m in load_benchmark()[kind]}
        measured = {k: u for k, (_, u) in metrics.items()}
        if declared != measured:
            fail_env(f"metrics differ from BENCHMARK.json {kind}: "
                     f"{sorted(set(declared.items()) ^ set(measured.items()))}")
        for p in self.problems:
            log(f"CHECK FAILED: {p}")
        return {
            "correct": not self.problems,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                        metrics.items()},
        }, extra


def untraced(run, workload, seconds, smoke=False):
    """The end-to-end metrics (README.md, "End-to-end metrics").

    The run is ROUNDS rounds of the same four measurements, so that every
    metric samples the whole run rather than one slice of it. Each metric
    is the run's best: the best pass for throughputs, the best round's
    percentile for latencies. Passes and rounds repeat identical work, and
    the other tenants of a shared host only ever slow one down; set-up
    time is the median over every daemon the run starts."""
    gen = run.gen(workload, smoke)
    cap = gen["capture_dir"]
    rounds = 1 if smoke else ROUNDS
    share = 0 if smoke else seconds / rounds
    samples = {k: [] for k in ("analyze", "stream", "saturation", "setup",
                               "low_p50", "low_p99", "high_p99", "testbed",
                               "campaign")}
    rss = {"analyze": 0.0, "stream": 0.0}
    digests = set()
    detail = []
    for _ in range(rounds):
        for mode, frac in (("analyze", 0.25), ("stream", 0.2)):
            res, peak = run.offline(cap, mode, frac * share, 1 if smoke else 2)
            samples[mode] += [res["records"] / t for t in res["pass_s"]]
            rss[mode] = max(rss[mode], peak)
            digests.add(res["lines_digest"])
            detail.append(res)
        dmn = run.daemon(cap, 1 if smoke else 2)
        samples["saturation"] += dmn["saturation_records_per_s"]
        samples["setup"] += dmn["setup_s"]
        samples["low_p50"].append(percentile(dmn["low_latency_ms"], 0.5))
        samples["low_p99"].append(percentile(dmn["low_latency_ms"], 0.99))
        samples["high_p99"].append(percentile(dmn["high_latency_ms"], 0.99))
        rep = run.repro(workload, 0.35 * share, smoke)
        samples["testbed"] += rep["testbed_sim_speedup"]
        samples["campaign"] += rep["campaign_rows_per_s"]
        detail += [{k: v for k, v in dmn.items() if not k.endswith(
            "latency_ms")}, rep]
    run.check(len(digests) == 1, "analyze and stream verdict multisets differ",
              gen["meta"]["flows"])
    metrics = {
        "setup_s": (statistics.median(samples["setup"]), "s"),
        "analyze_records_per_s": (max(samples["analyze"]), "1/s"),
        "stream_records_per_s": (max(samples["stream"]), "1/s"),
        "analyze_peak_rss_mb": (rss["analyze"], "MB"),
        "stream_peak_rss_mb": (rss["stream"], "MB"),
        "daemon_records_per_s": (max(samples["saturation"]), "1/s"),
        "verdict_latency_p50_ms": (min(samples["low_p50"]), "ms"),
        "verdict_latency_p99_ms": (min(samples["low_p99"]), "ms"),
        "loaded_latency_p99_ms": (min(samples["high_p99"]), "ms"),
        "testbed_sim_speedup": (max(samples["testbed"]), "1"),
        "campaign_rows_per_s": (max(samples["campaign"]), "1/s"),
    }
    extra = {"gen": gen, "samples": samples, "children": detail}
    return run.result(metrics, extra, "end_to_end")


def percentile(values, q):
    """Linear-interpolated quantile of `values` at q in [0, 1]."""
    v = sorted(values)
    rank = q * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def trace_self_times(path):
    """Self time (us) per span name of a Chrome trace: each span's duration
    minus the part its direct children cover."""
    with open(path, encoding="utf-8") as f:
        events = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    self_us = {}
    stacks = {}
    for e in events:  # sorted by ts; a parent precedes its children
        stack = stacks.setdefault(e["tid"], [])
        while stack and stack[-1][1] < e["ts"]:
            stack.pop()
        self_us[e["name"]] = self_us.get(e["name"], 0) + e["dur"]
        if stack:
            self_us[stack[-1][0]] -= e["dur"]
        stack.append((e["name"], e["ts"] + e["dur"]))
    return self_us


def traced(run, workload, seconds, smoke=False):
    """The per-layer metrics (README.md, "Per-layer metrics")."""
    gen = run.gen(workload, smoke)
    cap = gen["capture_dir"]
    meta = gen["meta"]
    trace_file = run.work / "results" / f"trace-{workload}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tr, _ = child([run.bin, "offline", "--mode", "traced", "--capture", cap,
                   "--trace-out", trace_file], run.scratch / "traced.out")
    run.attempted += tr["flows"]
    run.check(tr["mismatches"] == 0,
              f"traced: {tr['mismatches']} verdicts differ", tr["mismatches"])
    run.check(tr["lines_digest"] == tr["untraced_digest"] == tr["batch_digest"],
              "traced verdict lines differ from the untraced run",
              tr["flows"])
    run.check(tr["log_roundtrip_ok"], "verdict log replay did not round-trip")
    run.check("pcap_records_mismatch" not in tr, "cursor record count differs")
    for guard in ("evicted_idle", "evicted_lru", "evicted_forced"):
        run.check(tr[guard] == 0, f"stream.{guard} = {tr[guard]} (expected 0)")
    check = subprocess.run([sys.executable, ROOT / "tools" / "check_trace.py",
                            trace_file], stdout=sys.stderr, stderr=sys.stderr)
    run.check(check.returncode == 0, "check_trace.py rejected the trace")
    self_us = trace_self_times(trace_file)
    if not self_us:
        fail_env("the trace is empty: --trace needs a build without "
                 "CCSIG_OBS_OFF")
    total = tr["span_ns"]
    records, flows = tr["records"], tr["flows"]
    pass_ns = total["bench.stream_pass"]
    stages = ("stream.open", "stream.fill", "stream.push", "stream.finish",
              "core.render")
    stage_sum = sum(total[s] for s in stages) / pass_ns
    run.check(0.9 <= stage_sum <= 1.1,
              f"stream stages sum to {stage_sum:.3f} of the traced pass")
    dmn = run.daemon(cap, 1)
    rep = run.repro(workload, 0 if smoke else 0.35 * seconds, smoke)
    for guard in ("runtime_retries", "runtime_failures_permanent"):
        run.check(rep[guard] == 0, f"{guard} = {rep[guard]}")

    ns_per = lambda span, n: total[span] / max(1, n)
    metrics = {
        "gen.records": (meta["records"], "count"),
        "gen.mean_open_flows": (meta["mean_open_flows"], "count"),
        "gen.post_slow_start_share": (meta["post_slow_start_share"], "1"),
        "pcap.read_mmap_ns_per_record": (ns_per("pcap.read_mmap", records),
                                         "ns"),
        "pcap.read_stream_ns_per_record": (ns_per("pcap.read_stream",
                                                  records), "ns"),
        "stream.fill_ns_per_record": (ns_per("stream.fill", records), "ns"),
        "stream.push_ns_per_record": (ns_per("stream.push", records), "ns"),
        "stream.finish_ms": (total["stream.finish"] / 1e6, "ms"),
        "stream.fill_share": (total["stream.fill"] / pass_ns, "1"),
        "stream.push_share": (total["stream.push"] / pass_ns, "1"),
        "stream.stage_sum_ratio": (stage_sum, "1"),
        "stream.allocs_per_record": (tr["allocs"] / records, "count"),
        "stream.allocs_per_flow": (tr["allocs"] / flows, "count"),
        "stream.flows_opened": (tr["flows_opened"], "count"),
        "stream.evicted_fin": (tr["evicted_fin"], "count"),
        "stream.early_classified": (tr["early_classified"], "count"),
        "stream.peak_active_flows": (tr["peak_active_flows"], "count"),
        "trace.overhead_pct": (100.0 * (tr["traced_s"] - tr["untraced_s"])
                               / tr["untraced_s"], "%"),
        "core.analyze_pass_s": (total["core.analyze_pass"] / 1e9, "s"),
        "core.classify_ns_per_flow": (ns_per("core.classify",
                                             tr["classified"]), "ns"),
        "core.render_ns_per_flow": (ns_per("core.render", flows), "ns"),
        "service.log_append_ns_per_verdict": (ns_per("service.log_append",
                                                     flows), "ns"),
        "service.records_ingested": (dmn["records_ingested"], "count"),
        "service.verdicts_emitted": (dmn["verdicts_emitted"], "count"),
        "service.ingest_to_verdict_p50_ms": (dmn["inside_p50_ms"], "ms"),
        "service.ingest_to_verdict_p99_ms": (dmn["inside_p99_ms"], "ms"),
        "daemon.outside_minus_inside_p50_ms": (
            percentile(dmn["low_latency_ms"], 0.5) - dmn["inside_p50_ms"],
            "ms"),
        "daemon.peak_rss_mb": (dmn["peak_rss_mb"], "MB"),
        "gen.lag_p99_ms": (dmn["gen_lag_p99_ms"], "ms"),
        "gen.write_blocked_s": (statistics.median(dmn["write_blocked_s"]),
                                "s"),
        "testbed.self_run_ms": (rep["testbed_self_run_ms"], "ms"),
        "testbed.external_run_ms": (rep["testbed_external_run_ms"], "ms"),
        "sim.events_executed": (rep["sim_events_executed"], "count"),
        "sim.events_per_s": (rep["sim_events_per_s"], "1/s"),
        "sim.link.packets_delivered": (rep["sim_link_packets_delivered"],
                                       "count"),
        "sim.link.tail_drops": (rep["sim_link_tail_drops"], "count"),
        "tcp.segments_sent": (rep["tcp_segments_sent"], "count"),
        "mlab.row_ms": (rep["mlab_row_ms"], "ms"),
    }
    dmn = {k: v for k, v in dmn.items() if not k.endswith("latency_ms")}
    extra = {"gen": gen, "traced": tr, "daemon": dmn, "repro": rep,
             "trace_file": str(trace_file), "span_self_us": self_us}
    return run.result(metrics, extra, "per_layer")


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def pinned(flag):
    """A value BENCHMARK.json's command pins, e.g. --low-rate."""
    cmd = load_benchmark()["command"]
    return cmd[cmd.index(flag) + 1]


def compare(parent_file, change_file):
    """Paired comparison of two result files, one row per workload and
    metric (README.md, "Comparing two commits")."""
    def load(path):
        runs = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    r = json.loads(line)
                    if r["trace"] == 0:
                        runs.setdefault(r["workload"], []).append(r)
        return runs

    bench = load_benchmark()
    parent, change = load(parent_file), load(change_file)
    pairs = {}
    for w in sorted(set(parent) | set(change)):
        a_runs, b_runs = parent.get(w, []), change.get(w, [])
        n = min(len(a_runs), len(b_runs))
        if n < 10:
            fail_env(f"{w}: {n} pairs; the comparison needs at least 10")
        for i in range(n):
            if a_runs[i]["inputs_digest"] != b_runs[i]["inputs_digest"]:
                fail_env(f"{w}: pair {i} ran on different inputs "
                         f"({a_runs[i]['inputs_digest']} vs "
                         f"{b_runs[i]['inputs_digest']}); refusing to compare")
        pairs[w] = (a_runs[:n], b_runs[:n])
    regressions = 0
    print(f"{'workload':8} {'metric':24} {'parent median [q1,q3]':>34} "
          f"{'change median':>14} {'delta':>8} {'wins':>6} {'bound':>6}  "
          "verdict")
    for w, (a_runs, b_runs) in pairs.items():
        n = len(a_runs)
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            qa1, ma, qa3 = statistics.quantiles(a, n=4)
            qb1, mb, qb3 = statistics.quantiles(b, n=4)
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            wins = sum(1 for x, y in zip(a, b) if better(y, x))
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
            floor = FLOORS.get(name, 0.0)
            if wins >= 0.9 * n and abs(mb - ma) > (qa3 - qa1) and \
                    better(mb, ma):
                verdict = "GAIN"
            elif spread > bound:
                all_better = all(better(y, x) for x in a for y in b)
                verdict = "better (every run)" if all_better else "unresolved"
            elif worse > bound and abs(mb - ma) > floor:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "unchanged"
            print(f"{w:8} {name:24} {ma:>12.6g} [{qa1:.4g},{qa3:.4g}] "
                  f"{mb:>14.6g} {100 * (mb - ma) / ma:>7.2f}% "
                  f"{wins:>3}/{n:<2} {bound:>6}  {verdict}")
    return 1 if regressions else 0


def smoke(args):
    """Tiny inputs from the same recipes, one pass each, every check."""
    t0 = time.monotonic()
    run = Run(args)
    for w in WORKLOADS:
        res, _ = untraced(run, w, 0, smoke=True)
        log(f"smoke {w} untraced: {json.dumps(res['metrics'])}")
        res, _ = traced(run, w, 0, smoke=True)
        log(f"smoke {w} traced: {len(res['metrics'])} per-layer metrics")
    ok = not run.problems
    print(json.dumps({"smoke": "ok" if ok else "failed",
                      "attempted": run.attempted, "failed": run.failed,
                      "seconds": round(time.monotonic() - t0, 1)}))
    return 0 if ok else 1


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measurement budget (default: BENCHMARK.json "
                   "run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--build", default=".bench_build",
                   help="ccsig build tree, relative to the repo root")
    p.add_argument("--low-rate", type=int,
                   help="open-loop daemon rate, records/s (default: pinned "
                   "in BENCHMARK.json)")
    p.add_argument("--high-rate", type=int,
                   help="loaded open-loop daemon rate (default: pinned)")
    p.add_argument("--out", help="append the result as a JSON line here")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke(args)
    if not args.workload:
        p.error("--workload is required")
    run = Run(args)
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    measure = traced if args.trace else untraced
    res, extra = measure(run, args.workload, args.seconds)
    results = run.work / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"last-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump({"result": res, "detail": extra}, f, indent=1)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace,
                                "inputs_digest": extra["gen"]["meta"]["digest"],
                                **res, "samples": extra.get("samples")})
                    + "\n")
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
