#!/usr/bin/env python3
"""Repository benchmark: host speed of the VIP simulator and its fleet.

    python3 perfbench/run.py --workload sim-vip-w4 --seed 1 --seconds 30 --trace 0

Builds vip_sim, vip_fleet, vip_stats_diff and the benchmark's own probe
from source (perfbench/CMakeLists.txt) into --build-dir, runs one
workload for --seconds of host time, checks every output, prints a
table of every metric and, as the last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
per-layer legs instead and writes their spans to
.perfbench/trace-<workload>-s<seed>.json.  All timings are host time;
simulated quantities carry "sim" in their name.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))

# Simulated seconds per vip_sim run of the sim-* batches and per job of
# the fleet sweeps: short jobs, so supervisor phases matter in the fleet.
RUN_SECONDS = 0.2
SETUP_RUNS = 31          # --seconds 0 launches per sim-* run
FLEET_SETUP_TRIALS = 6   # vip_fleet starts stopped at first launch, per pair
PROBE_PAIRS = 3          # untraced/traced Simulation pairs (sim-*)
OBS_PAIRS = 7            # observer off/on vip_sim pairs (sim-*)
REF_EVENTS = 400000      # perfbench_ref events per host-speed sample
REF_NOMINAL_S = 0.05     # reference wall time on a host of nominal speed

WORKLOADS = {
    # VIP moves frames IP-to-IP: the event kernel, ip and sa do almost
    # all the work, mem almost none.
    "sim-vip-w4": {"kind": "sim", "config": "vip", "workload": "W4"},
    # Baseline pushes every frame through DRAM: mem dominates, ip small.
    "sim-baseline-w7": {"kind": "sim", "config": "baseline",
                        "workload": "W7"},
    # Short jobs with every fleet observer on: supervisor phases and
    # observer writes are a large share of wall time.
    "fleet-sweep": {"kind": "fleet", "configs": ["baseline", "vip"],
                    "workloads": ["A1", "W1", "W4", "W7"]},
}

# Event kinds charged to each src/ module in the layer split.
LAYER_OF_PREFIX = {"ip.": "ip", "sa.": "sa", "dram.": "mem", "cpu.": "cpu"}

END_TO_END = [
    ("sim_ms_per_wall_s", "ms/s"),
    ("jobs_per_min", "1/min"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_bytes_per_job", "bytes"),
]

PER_LAYER = [
    ("sim.events_per_sim_ms", "1/ms"),
    ("sim.allocs_per_event", "count"),
    ("sim.kernel_ns_per_event.d16", "ns"),
    ("sim.kernel_ns_per_event.d1024", "ns"),
    ("sim.loop_pct", "%"),
    ("sim.max_pending", "count"),
    ("sim.run_pct", "%"),
    ("ip.unit_events_per_sim_ms", "1/ms"),
    ("ip.unit_ns_per_event", "ns"),
    ("ip.gen_ns_per_event", "ns"),
    ("ip.run_pct", "%"),
    ("sa.transfer_events_per_sim_ms", "1/ms"),
    ("sa.transfer_ns_per_event", "ns"),
    ("sa.run_pct", "%"),
    ("mem.burst_events_per_sim_ms", "1/ms"),
    ("mem.burst_ns_per_event", "ns"),
    ("mem.access_ns_per_req", "ns"),
    ("mem.run_pct", "%"),
    ("cpu.task_events_per_sim_ms", "1/ms"),
    ("cpu.task_ns_per_event", "ns"),
    ("cpu.run_pct", "%"),
    ("core.build_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.other_run_pct", "%"),
    ("obs.stats_json_ms", "ms"),
    ("obs.stats_json_bytes", "bytes"),
    ("obs.series_json_ms", "ms"),
    ("obs.series_json_bytes", "bytes"),
    ("obs.checkpoint_ms", "ms"),
    ("obs.checkpoint_bytes", "bytes"),
    ("obs.metrics_csv_bytes", "bytes"),
    ("obs.ts_overhead_pct", "%"),
    ("obs.prof_overhead_pct", "%"),
    ("fleet.launch_to_heartbeat_ms", "ms"),
    ("fleet.job_wall_ms.p50", "ms"),
    ("fleet.job_wall_ms.p90", "ms"),
    ("fleet.slot_idle_ms", "ms"),
    ("fleet.tail_ms", "ms"),
    ("fleet.heartbeats_per_job", "count"),
    ("fleet.retries", "count"),
    ("fleet.floor_s", "s"),
    ("fleet.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
]


class BenchError(Exception):
    """A failure that makes the run unusable (no result is printed)."""


def median(xs):
    return statistics.median(xs)


def pct(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


class Ledger:
    """Operations attempted and failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def check(self, ok, what):
        """A correctness check that is not an operation of its own."""
        if not ok:
            self.errors.append(what)
        return ok


class Spans:
    """Spans (name, start, end, parent) kept in memory, written at exit."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []

    def open(self, name, parent=None):
        if not self.enabled:
            return None
        self.spans.append({"id": len(self.spans), "name": name,
                           "start_ns": time.monotonic_ns(), "end_ns": 0,
                           "parent": parent})
        return len(self.spans) - 1

    def close(self, idx):
        if idx is not None:
            self.spans[idx]["end_ns"] = time.monotonic_ns()

    def adopt(self, child_spans, parent):
        """Nest spans a probe process recorded under its process span."""
        if not self.enabled:
            return
        base = len(self.spans)
        for i, s in enumerate(child_spans):
            p = s["parent"]
            self.spans.append({"id": base + i, "name": s["name"],
                               "start_ns": s["start_ns"],
                               "end_ns": s["end_ns"],
                               "parent": parent if p < 0 else base + p})

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"clock": "CLOCK_MONOTONIC", "spans": self.spans}, f)
            f.write("\n")


class Proc:
    """Result of one measured child process."""

    def __init__(self, rc, wall_s, maxrss_kb, out, extra, span):
        self.rc = rc
        self.wall_s = wall_s
        self.maxrss_kb = maxrss_kb
        self.out = out
        self.extra = extra  # what on_start returned
        self.span = span


def run_proc(argv, env=None, stdout_path=None, spans=None, span_name=None,
             span_parent=None, on_start=None):
    """Run argv to completion; wall time and peak RSS of its process tree.

    wait4() reports the largest resident set of the child and of every
    descendant it waited for."""
    sp = spans.open(span_name, span_parent) if spans else None
    out_f = open(stdout_path, "wb") if stdout_path else subprocess.PIPE
    p = None
    try:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, env=env, stdout=out_f,
                             stderr=subprocess.DEVNULL)
        extra = on_start(p, t0) if on_start else None
        out = b"" if stdout_path else p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out_f.close()
        elif p is not None:
            p.stdout.close()
    if spans:
        spans.close(sp)
    return Proc(p.returncode, wall, ru.ru_maxrss, out, extra, sp)


class HostSpeed:
    """Scales wall times to a host of nominal speed.

    The shared host's speed drifts by tens of percent within minutes, so
    the end-to-end timings are normalised: perfbench_ref runs before the
    first measured item and after each one, as `width` parallel copies
    when the measured work is parallel (their mean time then stands for
    the host's aggregate speed), and an item's wall time is multiplied by
    REF_NOMINAL_S over the mean of the reference times just before and
    after it."""

    def __init__(self, ctx, width=1):
        self.argv = [ctx.bins["ref"], str(REF_EVENTS)]
        self.width = width
        self.samples = []
        self.last = self.sample()

    def sample(self):
        """Mean of the copies' own timings of their work."""
        procs = [subprocess.Popen(self.argv, stdout=subprocess.PIPE)
                 for _ in range(self.width)]
        times = []
        for p in procs:
            out, _ = p.communicate()
            if p.returncode != 0:
                raise BenchError("perfbench_ref failed")
            times.append(float(out.split()[0]))
        self.samples.append(statistics.fmean(times))
        return self.samples[-1]

    def scale(self):
        """Call after a measured item; its wall-time factor."""
        before, self.last = self.last, self.sample()
        return REF_NOMINAL_S / ((before + self.last) / 2.0)

    def index(self):
        """Median host speed relative to nominal (1.0 = nominal)."""
        return REF_NOMINAL_S / median(self.samples)


# --------------------------------------------------------------- build --

def build(src, build_dir, work):
    """Configure and (re)build the targets; logs go to work/."""
    log = os.path.join(work, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
              "-DVIP_SOURCE_DIR=" + src]]
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "vip_sim_cli", "vip_fleet_cli", "vip_stats_diff",
                  "perfbench_probe", "perfbench_ref",
                  "perfbench_malloc_count"])
    with open(log, "ab") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                raise BenchError("build failed: %s (see %s)"
                                 % (" ".join(cmd), log))
    tools = os.path.join(build_dir, "vip", "tools")
    bins = {
        "vip_sim": os.path.join(tools, "vip_sim"),
        "vip_fleet": os.path.join(tools, "vip_fleet"),
        "vip_stats_diff": os.path.join(tools, "vip_stats_diff"),
        "probe": os.path.join(build_dir, "perfbench_probe"),
        "ref": os.path.join(build_dir, "perfbench_ref"),
        "malloc_count": os.path.join(build_dir,
                                     "libperfbench_malloc_count.so"),
    }
    for b in bins.values():
        if not os.path.exists(b):
            raise BenchError("missing build output " + b)
    return bins


# -------------------------------------------------------------- checks --

def baseline_gate(ctx):
    """Regenerate the checked-in bench/baseline W4 cells and gate them."""
    base = os.path.join(ctx.src, "bench", "baseline")
    cells = sorted(f for f in os.listdir(base) if f.endswith("-W4.stats.json"))
    ctx.ledger.check(len(cells) == 5, "expected 5 baseline cells in " + base)
    out = os.path.join(ctx.work, "gate")
    os.makedirs(out, exist_ok=True)
    for cell in cells:
        config = cell[:-len("-W4.stats.json")]
        cand = os.path.join(out, cell)
        r = run_proc([ctx.bins["vip_sim"], "--config", config, "--workload",
                      "W4", "--seconds", "0.1", "--stats-out", cand])
        d = run_proc([ctx.bins["vip_stats_diff"], os.path.join(base, cell),
                      cand])
        ctx.ledger.op(r.rc == 0 and d.rc == 0,
                      "baseline gate %s: vip_sim rc %d, vip_stats_diff rc %d"
                      % (cell, r.rc, d.rc))


def stats_of(path):
    with open(path) as f:
        doc = json.load(f)
    return {s["path"]: s["value"] for s in doc["stats"]}


# ----------------------------------------------------------- sim-* e2e --

def sim_argv(ctx, seed, seconds):
    w = ctx.wl
    return [ctx.bins["vip_sim"], "--config", w["config"], "--workload",
            w["workload"], "--seed", str(seed), "--seconds", str(seconds)]


def sim_e2e(ctx):
    seed = ctx.seeds[0]
    argv = sim_argv(ctx, seed, RUN_SECONDS)
    first = run_proc(argv)
    ctx.ledger.op(first.rc == 0 and first.out.startswith(b"==== "),
                  "first run failed (rc %d)" % first.rc)
    other = run_proc(sim_argv(ctx, ctx.seeds[1], RUN_SECONDS))
    ctx.ledger.op(other.rc == 0, "second-seed run failed")
    ctx.ledger.check(other.out != first.out,
                     "report does not depend on the seed")

    walls, raw, setups, rss = [], [], [], [first.maxrss_kb]
    speed = HostSpeed(ctx)
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline or len(walls) < 3:
        r = run_proc(argv)
        s = run_proc(sim_argv(ctx, seed, 0)) if len(setups) < SETUP_RUNS else None
        k = speed.scale()
        if ctx.ledger.op(r.rc == 0 and r.out == first.out,
                         "run %d: rc %d or report differs from the first"
                         % (len(walls), r.rc)):
            walls.append(r.wall_s * k)
            raw.append(r.wall_s)
            rss.append(r.maxrss_kb)
        if s and ctx.ledger.op(s.rc == 0, "--seconds 0 run failed"):
            setups.append(s.wall_s * k)
    if not walls or not setups:
        raise BenchError("no successful runs")
    sim_ms = RUN_SECONDS * 1000.0
    ctx.info["runs / setup runs"] = "%d / %d" % (len(walls), len(setups))
    ctx.info["run wall ms p50/p90 (raw)"] = "%.1f / %.1f" % (
        1e3 * median(raw), 1e3 * pct(raw, 90))
    ctx.info["sim_ms_per_wall_s (raw)"] = "%.4f" % median(
        [sim_ms / w for w in raw])
    ctx.info["host speed index"] = "%.4f" % speed.index()
    return {
        "sim_ms_per_wall_s": median([sim_ms / w for w in walls]),
        "jobs_per_min": 60.0 / median(walls),
        "setup_s": median(setups),
        "peak_rss_mb": max(rss) / 1024.0,
        "artifact_bytes_per_job": float(len(first.out)),
    }


# ---------------------------------------------------------- fleet legs --

def fleet_slots():
    """At most nproc worker slots; one core stays with the supervisor."""
    return max(1, (os.cpu_count() or 1) - 1)


def fleet_axes(ctx):
    """Sweep axes: the fleet workload's, or a sim-* workload's cell x 4 seeds."""
    w = ctx.wl
    if w["kind"] == "fleet":
        return w["configs"], w["workloads"], ctx.seeds[:2]
    return [w["config"]], [w["workload"]], ctx.seeds[:4]


def fleet_jobs(ctx):
    """The sweep's jobs as (id, config, workload, seed), in spec order."""
    configs, workloads, seeds = fleet_axes(ctx)
    return [("%s-%s-s%d" % (c, wl, s), c, wl, s)
            for c in configs for wl in workloads for s in seeds]


def fleet_spec(ctx, path):
    configs, workloads, seeds = fleet_axes(ctx)
    with open(path, "w") as f:
        json.dump({"name": "perfbench", "seconds": RUN_SECONDS,
                   "configs": configs, "workloads": workloads, "seeds": seeds,
                   "fleet": {"workers": fleet_slots(), "timeseries": True}}, f)


def num(v):
    """Format a number the way the supervisor's workerArgs() does (%.17g)."""
    return "%.17g" % v


def worker_args(job):
    """Mirror of fleet::workerArgs() for the spec fleet_spec() writes
    (default policy: 1 ms heartbeat CSV, 25 ms checkpoint ring)."""
    _, config, workload, seed = job
    return ["--workload", workload, "--config", config, "--seed", str(seed),
            "--seconds", num(RUN_SECONDS),
            "--metrics-out", "metrics.csv", "--metrics-interval-ms", num(1.0),
            "--ts", "--ts-out", "series.json",
            "--stats-out", "stats.json", "--postmortem-dir", "pm",
            "--checkpoint-every-ms", num(25.0)]


def watch_first_launch(journal):
    """on_start hook: poll the journal until its first launch record."""
    def hook(p, t0):
        while True:
            try:
                with open(journal, "rb") as f:
                    if b'"type": "launch"' in f.read():
                        return time.perf_counter() - t0
            except OSError:
                pass
            # Exited without launching? (WNOWAIT leaves it to be reaped.)
            if os.waitid(os.P_PID, p.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None:
                return None
            time.sleep(0.0002)
    return hook


def run_fleet(ctx, tag, env=None, parent=None):
    out = os.path.join(ctx.work, "fleet-" + tag)
    shutil.rmtree(out, ignore_errors=True)
    spec = os.path.join(ctx.work, "spec.json")
    r = run_proc([ctx.bins["vip_fleet"], "--spec", spec, "--out", out,
                  "--vip-sim", ctx.bins["vip_sim"]],
                 env=env, stdout_path=os.path.join(ctx.work, "fleet.log"),
                 spans=ctx.spans, span_name="vip_fleet", span_parent=parent,
                 on_start=watch_first_launch(os.path.join(out, "journal.jsonl")))
    r.dir = out
    return r


def fleet_setup_trial(ctx):
    """vip_fleet start to its first launch record, then a graceful stop:
    SIGTERM makes the supervisor interrupt and wait for its workers.  One
    worker slot keeps the drain short: in the fleet-sweep spec the single
    running job is an A1 job, quiescent every few milliseconds."""
    out = os.path.join(ctx.work, "fleet-setup")
    shutil.rmtree(out, ignore_errors=True)
    argv = [ctx.bins["vip_fleet"], "--spec", os.path.join(ctx.work, "spec.json"),
            "--out", out, "--vip-sim", ctx.bins["vip_sim"], "--workers", "1"]
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    setup = watch_first_launch(os.path.join(out, "journal.jsonl"))(p, t0)
    if p.poll() is None:
        p.send_signal(signal.SIGTERM)
    try:
        p.wait(timeout=30)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        raise BenchError("vip_fleet ignored SIGTERM")
    return setup


def run_floor(ctx, tag, parent=None):
    """The same jobs through xargs -P<slots> vip_sim, same worker flags."""
    out = os.path.join(ctx.work, "floor-" + tag)
    shutil.rmtree(out, ignore_errors=True)
    lines = []
    for job in fleet_jobs(ctx):
        d = os.path.join(out, job[0])
        os.makedirs(d)
        lines.append(" ".join([d, ctx.bins["vip_sim"]] + worker_args(job)))
    listing = os.path.join(out, "jobs.txt")
    with open(listing, "w") as f:
        f.write("\n".join(lines) + "\n")
    r = run_proc(["xargs", "-P", str(fleet_slots()), "-L", "1", "-a", listing,
                  "sh", "-c", 'cd "$0" && exec "$@" >log.txt 2>&1'],
                 spans=ctx.spans, span_name="xargs vip_sim", span_parent=parent)
    r.dir = out
    for job in fleet_jobs(ctx):
        ctx.ledger.op(r.rc == 0 and os.path.exists(
            os.path.join(out, job[0], "stats.json")),
            "floor job %s failed" % job[0])
    return r


def committed_bytes(shard):
    """Bytes committed for one job: its shard files, not attempt dirs."""
    total = 0
    for name in os.listdir(shard):
        p = os.path.join(shard, name)
        if os.path.isfile(p):
            total += os.path.getsize(p)
        elif name == "pm":
            total += sum(os.path.getsize(os.path.join(p, f))
                         for f in os.listdir(p))
    return total


def check_fleet(ctx, fleet, floor):
    """Fleet jobs done first try, stats equal to the floor's; bytes/job.
    A job whose floor run failed fails here too."""
    jobs = fleet_jobs(ctx)
    report = {}
    try:
        with open(os.path.join(fleet.dir, "report.json")) as f:
            report = json.load(f)
    except (OSError, ValueError):
        pass
    states = {j["id"]: j for j in report.get("jobs", [])}
    nbytes = 0
    for job in jobs:
        jid = job[0]
        st = states.get(jid, {})
        fl_stats = os.path.join(floor.dir, jid, "stats.json")
        ok = (fleet.rc == 0 and st.get("state") == "done"
              and st.get("attempts") == 1 and os.path.exists(fl_stats))
        if ok:
            shard = os.path.join(fleet.dir, "shards", jid)
            ok = stats_of(os.path.join(shard, "stats.json")) == stats_of(fl_stats)
            nbytes += committed_bytes(shard)
        ctx.ledger.op(ok, "fleet job %s: not done first try or stats differ "
                      "from the floor" % jid)
    return nbytes / len(jobs)


def journal(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def fleet_phases(recs):
    """Per-job phase split and slot reuse from journal.jsonl records.

    A slot is idle, as far as simulation goes, from its job's last
    heartbeat (the worker then writes its outputs and exits, and the
    supervisor notices, fetches, verifies and commits) until the next
    launch on it.  The commit-to-launch part alone is zero in a
    supervisor that launches in the loop pass that committed."""
    launch, first_beat, last_beat, beats = {}, {}, {}, 0
    walls, idle, freed, commits = [], [], [], []
    end = 0.0
    for r in recs:
        t, typ = r["wall_ms"], r["type"]
        if typ == "launch":
            launch[r["job"]] = t
            if freed:
                idle.append(t - freed.pop(0))
        elif typ == "heartbeat":
            beats += 1
            first_beat.setdefault(r["job"], t)
            last_beat[r["job"]] = t
        elif typ in ("commit", "job_fail"):
            freed.append(last_beat.get(r["job"], t))
            commits.append(t)
            if typ == "commit":
                walls.append(r["job_wall_ms"])
        elif typ == "sweep_end":
            end = t
    last_launch = max(launch.values())
    first_idle = min([c for c in commits if c >= last_launch] or [end])
    return {
        "fleet.launch_to_heartbeat_ms": median(
            [first_beat[j] - launch[j] for j in first_beat]),
        "fleet.job_wall_ms.p50": median(walls),
        "fleet.job_wall_ms.p90": pct(walls, 90),
        "fleet.slot_idle_ms": median(idle) if idle else 0.0,
        "fleet.tail_ms": end - first_idle,
        "fleet.heartbeats_per_job": beats / float(len(launch)),
    }


def fleet_sweeps(ctx, deadline, min_sweeps, floors, parent=None):
    """Fleet sweeps until the deadline; the first `floors` of them are
    paired with an xargs floor run, alternating which goes first.

    Every sweep's stats are checked against the latest floor run.  Walls
    are raw; "scale" holds each sweep's HostSpeed factor and the setup
    times are already scaled."""
    fleet_spec(ctx, os.path.join(ctx.work, "spec.json"))
    res = {"fleet": [], "floor": [], "scale": [], "setup": [], "rss": [],
           "bytes": set(), "phases": [], "retries": 0}
    speed = HostSpeed(ctx, fleet_slots())
    floor = None
    i = 0
    while i < max(min_sweeps, floors) or time.perf_counter() < deadline:
        tag = str(i % 2)
        for side in (["fleet", "floor"] if i % 2 == 0 else ["floor", "fleet"]):
            if side == "fleet":
                f = run_fleet(ctx, tag, parent=parent)
                res["scale"].append(speed.scale())
            elif i < floors:
                floor = run_floor(ctx, tag, parent)
                res["floor"].append(floor.wall_s)
                speed.scale()
        res["bytes"].add(check_fleet(ctx, f, floor))
        res["fleet"].append(f.wall_s)
        res["rss"].append(f.maxrss_kb)
        if f.extra is not None:
            res["setup"].append(f.extra * res["scale"][-1])
        jpath = os.path.join(f.dir, "journal.jsonl")
        if os.path.exists(jpath):
            recs = journal(jpath)
            res["phases"].append(fleet_phases(recs))
            end = [r for r in recs if r["type"] == "sweep_end"]
            res["retries"] += end[0]["retries"] if end else 0
        setups = [fleet_setup_trial(ctx) for _ in range(FLEET_SETUP_TRIALS)]
        k = speed.scale()
        for s in setups:
            if ctx.ledger.op(s is not None, "vip_fleet never launched a job"):
                res["setup"].append(s * k)
        i += 1
    res["speed"] = speed.index()
    ctx.ledger.check(len(res["bytes"]) == 1,
                     "committed bytes per job differ across sweeps: %s"
                     % sorted(res["bytes"]))
    for _ in range(res["retries"]):
        ctx.ledger.op(False, "fleet retried a job")
    return res


def fleet_e2e(ctx):
    res = fleet_sweeps(ctx, time.perf_counter() + ctx.seconds, 2, 1)
    n = len(fleet_jobs(ctx))
    sim_ms = n * RUN_SECONDS * 1000.0
    walls = [w * k for w, k in zip(res["fleet"], res["scale"])]
    floor_s = median(res["floor"])
    ctx.info["sweeps"] = len(walls)
    ctx.info["fleet wall s (raw)"] = "%.4f" % median(res["fleet"])
    ctx.info["fleet.floor_s (raw)"] = "%.4f" % floor_s
    ctx.info["fleet.overhead_s (raw)"] = "%.4f" % (median(res["fleet"]) - floor_s)
    ctx.info["host speed index"] = "%.4f" % res["speed"]
    return {
        "sim_ms_per_wall_s": median([sim_ms / w for w in walls]),
        "jobs_per_min": median([60.0 * n / w for w in walls]),
        "setup_s": median(res["setup"]),
        "peak_rss_mb": max(res["rss"]) / 1024.0,
        "artifact_bytes_per_job": float(min(res["bytes"])),
    }


# ---------------------------------------------------------- layer legs --

def probe(ctx, args, parent):
    r = run_proc([ctx.bins["probe"]] + [str(a) for a in args],
                 spans=ctx.spans, span_name="perfbench_probe " + args[0],
                 span_parent=parent)
    if not ctx.ledger.op(r.rc == 0, "probe %s failed" % " ".join(map(str, args))):
        raise BenchError("probe failed: %s" % " ".join(map(str, args)))
    doc = json.loads(r.out)
    if "spans" in doc:
        ctx.spans.adopt(doc["spans"], r.span)
    return doc


def layer_of(kind):
    for prefix, layer in LAYER_OF_PREFIX.items():
        if kind.startswith(prefix):
            return layer
    return "core"


def cell_layers(ctx, config, workload, seed, pairs, parent):
    """One cell's probe: per-kind counts and ns, layer ms, obs costs."""
    d = os.path.join(ctx.work, "probe-%s-%s" % (config, workload))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    doc = probe(ctx, ["sim", config, workload, seed, RUN_SECONDS,
                      pairs, d], parent)
    spans = doc["spans"]
    tops = [(i, s) for i, s in enumerate(spans) if s["parent"] < 0]

    def child(top, name):
        for s in spans:
            if s["parent"] == top and s["name"] == name:
                return (s["end_ns"] - s["start_ns"]) / 1e6
        raise BenchError("probe span %s missing" % name)

    cell = {"build_ms": [], "run_ms": {"untraced": [], "traced": []},
            "obs_ms": {"writeStatsJson": [], "writeSeriesJson": [],
                       "saveCheckpoint": []},
            "profs": [], "bytes": set(), "events": set()}
    for (i, top), run in zip(tops, doc["runs"]):
        mode = run["mode"]
        cell["run_ms"].setdefault(mode, []).append(child(i, "run()"))
        if mode == "untraced":
            cell["build_ms"].append(child(i, "Simulation()"))
            cell["events"].add(run["events"])
        elif mode == "traced":
            with open(os.path.join(d, "prof-%d.json" % run["pair"])) as f:
                cell["profs"].append(json.load(f))
        else:
            for k in ("writeStatsJson", "writeSeriesJson"):
                cell["obs_ms"][k].append(child(i, k))
            if run["checkpoint_bytes"]:
                cell["obs_ms"]["saveCheckpoint"].append(
                    child(i, "saveCheckpoint"))
            cell["bytes"].add((run["stats_json_bytes"], run["series_json_bytes"],
                               run["checkpoint_bytes"], run["metrics_csv_bytes"]))
    counts = {tuple(sorted((k["kind"], k["count"]) for k in p["kinds"]))
              for p in cell["profs"]}
    ctx.ledger.check(len(counts) == 1 and len(cell["events"]) == 1
                     and len(cell["bytes"]) == 1,
                     "%s/%s: exact counts differ between repetitions"
                     % (config, workload))
    ctx.ledger.check(sum(c for _, c in next(iter(counts)))
                     == next(iter(cell["events"])),
                     "%s/%s: profiled kinds do not add up to the events "
                     "serviced" % (config, workload))
    ctx.ledger.check(ctx.wl["kind"] == "fleet"
                     or cell["obs_ms"]["saveCheckpoint"],
                     "%s/%s: no quiescent point to checkpoint at"
                     % (config, workload))
    return cell


def aggregate_layers(ctx, cells):
    """Per-layer metrics over one or more probed cells (sums, medians)."""
    sim_ms = 1000.0 * RUN_SECONDS * len(cells)
    count, est = {}, {}
    loop_ms = loop_pct = run_ms = untraced_ms = build_ms = 0.0
    max_pending = 0
    for c in cells:
        # Median pair by traced run() time stands for the cell.
        profs = sorted(zip(c["run_ms"]["traced"], c["profs"]),
                       key=lambda x: x[0])
        rms, prof = profs[len(profs) // 2]
        run_ms += rms
        untraced_ms += median(c["run_ms"]["untraced"])
        build_ms += median(c["build_ms"])
        loop_ms += prof["wall_ms"] - prof["est_callback_ms"]
        loop_pct += 1.0 - prof["est_callback_ms"] / prof["wall_ms"]
        max_pending = max(max_pending, prof["eventq"]["max_pending"])
        for k in prof["kinds"]:
            count[k["kind"]] = count.get(k["kind"], 0) + k["count"]
            est[k["kind"]] = est.get(k["kind"], 0.0) + k["est_total_ns"]
    layer_ms = {"ip": 0.0, "sa": 0.0, "mem": 0.0, "cpu": 0.0, "core": 0.0}
    for kind, ns in est.items():
        layer_ms[layer_of(kind)] += ns / 1e6
    events = sum(count.values())

    def ns_per(kind):
        return est.get(kind, 0.0) / count[kind] if count.get(kind) else 0.0

    def per_ms(kind):
        return count.get(kind, 0) / sim_ms

    m = {
        "sim.events_per_sim_ms": events / sim_ms,
        "sim.loop_pct": 100.0 * loop_pct / len(cells),
        "sim.max_pending": float(max_pending),
        "sim.run_pct": 100.0 * loop_ms / run_ms,
        "ip.unit_events_per_sim_ms": per_ms("ip.unit"),
        "ip.unit_ns_per_event": ns_per("ip.unit"),
        # Frame generation: the source IP's ip.gen in chained configs;
        # Baseline has none and generates from the flow runtime instead.
        "ip.gen_ns_per_event": ns_per("ip.gen" if count.get("ip.gen")
                                      else "flow.gen"),
        "sa.transfer_events_per_sim_ms": per_ms("sa.transfer"),
        "sa.transfer_ns_per_event": ns_per("sa.transfer"),
        "mem.burst_events_per_sim_ms": per_ms("dram.burst"),
        "mem.burst_ns_per_event": ns_per("dram.burst"),
        "cpu.task_events_per_sim_ms": per_ms("cpu.task"),
        "cpu.task_ns_per_event": ns_per("cpu.task"),
        "core.build_ms": build_ms / len(cells),
        "core.run_ms": run_ms / len(cells),
        "trace.overhead_pct": 100.0 * (run_ms / untraced_ms - 1.0),
    }
    for layer in ("ip", "sa", "mem", "cpu"):
        m[layer + ".run_pct"] = 100.0 * layer_ms[layer] / run_ms
    m["core.other_run_pct"] = 100.0 - sum(
        m[l + ".run_pct"] for l in ("sim", "ip", "sa", "mem", "cpu"))
    # Observer writes: per-cell medians, then the mean over cells.
    # A cell with no quiescent point writes no checkpoint.
    for key, span in (("obs.stats_json_ms", "writeStatsJson"),
                      ("obs.series_json_ms", "writeSeriesJson"),
                      ("obs.checkpoint_ms", "saveCheckpoint")):
        m[key] = statistics.fmean(median(c["obs_ms"][span]) for c in cells
                                  if c["obs_ms"][span])
    for i, key in enumerate(("obs.stats_json_bytes", "obs.series_json_bytes",
                             "obs.checkpoint_bytes", "obs.metrics_csv_bytes")):
        m[key] = statistics.fmean(next(iter(c["bytes"]))[i] for c in cells)
    return m, events


def kernel_and_mem(ctx, parent):
    m = {}
    for depth in (16, 1024):
        doc = probe(ctx, ["kernel", depth, 400000, ctx.seeds[0], 5], parent)
        m["sim.kernel_ns_per_event.d%d" % depth] = median(doc["ns_per_event"])
    doc = probe(ctx, ["mem", 4096, ctx.seeds[0], 7], parent)
    m["mem.access_ns_per_req"] = median(doc["ns_per_req"])
    return m


def count_allocs(ctx, parent, events):
    """sim.allocs_per_event from the LD_PRELOAD counter, twice, exact."""
    totals = []
    for i in range(2):
        out = os.path.join(ctx.work, "allocs-%d.txt" % i)
        if os.path.exists(out):
            os.remove(out)
        env = dict(os.environ, LD_PRELOAD=ctx.bins["malloc_count"],
                   PERFBENCH_ALLOC_OUT=out, PERFBENCH_ALLOC_PROG="vip_sim")
        if ctx.wl["kind"] == "fleet":
            r = run_fleet(ctx, "allocs", env=env, parent=parent)
        else:
            r = run_proc(sim_argv(ctx, ctx.seeds[0], RUN_SECONDS), env=env,
                         spans=ctx.spans, span_name="vip_sim allocs",
                         span_parent=parent)
        ctx.ledger.op(r.rc == 0, "allocation-count run failed")
        with open(out) as f:
            totals.append(sum(int(line.split()[2]) for line in f))
    ctx.ledger.check(totals[0] == totals[1],
                     "allocation counts differ between repetitions: %s" % totals)
    return totals[0] / float(events)


def fleet_events(ctx):
    """Events serviced by the fleet's workers (their committed stats)."""
    d = os.path.join(ctx.work, "fleet-0", "shards")
    return sum(stats_of(os.path.join(d, j[0], "stats.json"))["sim.events_serviced"]
               for j in fleet_jobs(ctx))


def observer_overheads(ctx, parent):
    """Interleaved observer-off/on vip_sim pairs: --ts and --prof cost."""
    if ctx.wl["kind"] == "fleet":
        cells = [j[1:] for j in fleet_jobs(ctx) if j[3] == ctx.seeds[0]]
    else:
        cells = [(ctx.wl["config"], ctx.wl["workload"], ctx.seeds[0])] * OBS_PAIRS
    prof_out = os.path.join(ctx.work, "overhead-prof.json")
    res = {"ts": {}, "prof": {}}
    for i, (config, workload, seed) in enumerate(cells):
        argv = [ctx.bins["vip_sim"], "--config", config, "--workload",
                workload, "--seed", str(seed), "--seconds", str(RUN_SECONDS)]
        for obs, flags in (("ts", ["--ts"]), ("prof", ["--prof=" + prof_out])):
            sides = [("off", []), ("on", flags)]
            if i % 2:
                sides.reverse()
            for side, extra in sides:
                r = run_proc(argv + extra, spans=ctx.spans,
                             span_name="vip_sim %s %s" % (obs, side),
                             span_parent=parent)
                ctx.ledger.op(r.rc == 0, "observer run failed")
                res[obs].setdefault(side, []).append(r.wall_s)
    return {"obs.%s_overhead_pct" % obs: 100.0 * (
        median(w["on"]) / median(w["off"]) - 1.0) for obs, w in res.items()}


def layers(ctx):
    root = ctx.spans.open("per-layer " + ctx.name)
    if ctx.wl["kind"] == "fleet":
        cells = [cell_layers(ctx, j[1], j[2], j[3], 1, root)
                 for j in fleet_jobs(ctx) if j[3] == ctx.seeds[0]]
    else:
        cells = [cell_layers(ctx, ctx.wl["config"], ctx.wl["workload"],
                             ctx.seeds[0], PROBE_PAIRS, root)]
    m, events = aggregate_layers(ctx, cells)
    m.update(kernel_and_mem(ctx, root))
    m.update(observer_overheads(ctx, root))
    res = fleet_sweeps(ctx, 0, 2, 2, parent=root)
    phases = res["phases"]
    for key in phases[0]:
        m[key] = median([p[key] for p in phases])
    m["fleet.retries"] = float(res["retries"])
    m["fleet.floor_s"] = median(res["floor"])
    m["fleet.overhead_s"] = median(res["fleet"]) - m["fleet.floor_s"]
    if ctx.wl["kind"] == "fleet":
        events = fleet_events(ctx)
    else:
        # The allocation count is of the vip_sim process; its events must
        # be the in-process run's.
        st = os.path.join(ctx.work, "events.stats.json")
        r = run_proc(sim_argv(ctx, ctx.seeds[0], RUN_SECONDS)
                     + ["--stats-out", st], spans=ctx.spans,
                     span_name="vip_sim events", span_parent=root)
        ctx.ledger.op(r.rc == 0 and stats_of(st)["sim.events_serviced"]
                      == events, "vip_sim serviced other events than the "
                      "in-process run")
    m["sim.allocs_per_event"] = count_allocs(ctx, root, events)
    ctx.spans.close(root)
    return m


# ---------------------------------------------------------------- main --

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", default=os.path.dirname(HERE),
                    help="simulator source tree (default: this checkout)")
    ap.add_argument("--build-dir", default=None,
                    help="build directory (default: <src>/.bench_build)")
    a = ap.parse_args()

    src = os.path.abspath(a.src)
    if not os.path.exists(os.path.join(src, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources under %s" % src, file=sys.stderr)
        return 2
    ctx = types.SimpleNamespace()
    ctx.src = src
    ctx.name = a.workload
    ctx.wl = WORKLOADS[a.workload]
    ctx.seconds = a.seconds
    ctx.work = os.path.join(src, ".perfbench")
    # Compiler and child temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(ctx.work, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    ctx.bins = build(src, os.path.abspath(a.build_dir or
                                          os.path.join(src, ".bench_build")),
                     ctx.work)
    # The program sees only seeds generated from --seed.
    rng = random.Random(a.seed)
    ctx.seeds = [rng.randrange(1, 1 << 31) for _ in range(4)]
    ctx.ledger = Ledger()
    ctx.spans = Spans(a.trace == 1)
    ctx.info = {}

    baseline_gate(ctx)
    if a.trace:
        metrics, names = layers(ctx), PER_LAYER
    else:
        e2e = sim_e2e if ctx.wl["kind"] == "sim" else fleet_e2e
        metrics, names = e2e(ctx), END_TO_END
    if a.trace:
        path = os.path.join(ctx.work, "trace-%s-s%d.json" % (a.workload, a.seed))
        ctx.spans.write(path)
        ctx.info["spans"] = "%d written to %s" % (len(ctx.spans.spans), path)

    led = ctx.ledger
    print("perfbench %s seed %d (%s; host time unless named sim)"
          % (a.workload, a.seed, "traced per-layer run" if a.trace
             else "end-to-end, untraced"))
    for k, v in ctx.info.items():
        print("  %-32s %s" % (k, v))
    for name, unit in names:
        print("  %-32s %16.4f %s" % (name, metrics[name], unit))
    print("  %-32s %16.4f (failed %d / attempted %d)"
          % ("error_rate", led.failed / float(led.attempted), led.failed,
             led.attempted))
    for e in led.errors:
        print("  ERROR: " + e)
    print(json.dumps({
        "correct": not led.errors,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        sys.exit(1)
