#!/usr/bin/env python3
"""The repository benchmark: what every performance or simplicity change to
this simulator is measured with.

Run from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare PARENT_RESULTS CHANGE_RESULTS
    python3 perfbench/run.py capture

Workloads (the reasons are in BENCHMARK.json and perfbench/RATIONALE.md):

  sim-base       all 32 kernels at Scale::Eval under LoopFrogConfig::baseline(),
                 simulated in-process, one at a time (perfbench/simbench)
  sim-loopfrog   the same kernels under LoopFrogConfig::default()
  campaign-warm  `lf-bench run --all --scale smoke -j 2` on a cache that
                 set-up filled with the same command on an empty cache

A run builds the `lf-bench` binary and the `lf-simbench` package (a no-op
once built; CARGO_TARGET_DIR defaults to .bench_build), sets up, measures
for --seconds, checks every output, and prints a summary followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
the run adds one traced unit of work and prints the per-layer metrics.

Wall time is also counted in rounds of a fixed calibration loop
(`wall_cal`), timed next to the work: the host's speed drifts, and the
loop drifts with it (see RATIONALE.md).

Operations and the correctness gate. An operation is one simulation
(sim-*), one functional-tier run (traced sim-*), one campaign, one
campaign trace read, or the tree check. A wrong output fails its
operation; it never aborts the run:
  - a simulation must halt cleanly, match the golden emulator's checksum,
    and match the (cycles, committed_insts, checksum) digest captured at
    the seed commit in perfbench/reference/digests.json;
  - every pass of a run must repeat every work count exactly;
  - a campaign must exit 0, report no failed run, and print all 16
    committed tables (perfbench/reference/tables) verbatim; the cold fill
    must never hit the cache, and a warm campaign must simulate nothing
    and hit the cache for every unique run;
  - the run must leave every file outside its own work directories
    unchanged (checked by content hash, so it needs no git).

`--seed` permutes the order in which sim-* kernels are simulated; every
per-kernel digest is seed-independent. Kernel input data are seeded by
kernel name inside lf-workloads, and campaign inputs do not depend on the
seed.

Every run writes a full result record (all metrics, the detail behind
them, and a host fingerprint) under .bench_work/results/. `compare` reads
two sets of such records and refuses to compare them if their host
fingerprints differ.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_work"
TARGET = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
if not TARGET.is_absolute():
    TARGET = ROOT / TARGET
LF_BENCH = TARGET / "release" / "lf-bench"
SIMBENCH = TARGET / "release" / "lf-simbench"

WORKLOADS = ("sim-base", "sim-loopfrog", "campaign-warm")
SIM_CONFIG = {"sim-base": "base", "sim-loopfrog": "loopfrog"}
SIM_SETUP_REPS = 15
CAL_ROUNDS = 30
JOBS = min(2, os.cpu_count() or 1)
CAMPAIGN_ARGS = ["run", "--all", "--scale", "smoke", "-j", str(JOBS)]
# A run must end within 180 s of its build; children still running at
# the deadline are killed and their operations fail.
RUN_LIMIT_S = 165
deadline = None  # set when the build ends
# Directories a run may write; the tree check ignores them.
SKIP_DIRS = {".git", "target", ".bench_build", ".bench_work"}
STAGES = ("fetch", "rename", "issue", "writeback", "commit", "spawn_service")
SIM_COUNTS = ("cycles", "committed_insts", "fetched_insts", "renamed_insts", "issued_insts",
              "branch_mispredicts", "spawns", "squashes")
UARCH_COUNTS = ("l1d_misses", "l2_accesses", "l2_misses", "dram_accesses", "l1d_mshr_full")
ENGINE_PHASES = ("plan", "prepare", "cache", "simulate", "render")
ENGINE_COUNTS = ("requests", "unique_runs", "disk_cache_hits", "simulated", "prepared_kernels")


class BenchError(Exception):
    """The benchmark could not run at all (no result is printed)."""


# ---------------------------------------------------------------- helpers

def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(sorted_values, pct):
    """The pct-th percentile by nearest rank."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values):
    """The highest whole percentile with at least ten samples beyond it, as
    (value, percentile); (max, 100) when there are too few samples."""
    v = sorted(values)
    n = len(v)
    for pct in range(99, 49, -1):
        if n - math.ceil(pct / 100 * n) >= 10:
            return nearest_rank(v, pct), pct
    return (v[-1] if v else 0.0), 100


def hist_p50(hists):
    """Median of the merged occupancy histograms, resolved like
    lf_stats::Histogram::percentile (upper bucket edge; the open last
    bucket reports the observed max)."""
    hists = [h for h in hists if h.get("buckets")]
    if not hists:
        return 0
    width = hists[0]["width"]
    buckets = [sum(col) for col in zip(*(h["buckets"] for h in hists))]
    count = sum(buckets)
    if count == 0:
        return 0
    rank = max(1, math.ceil(0.5 * count))
    seen = 0
    for i, n in enumerate(buckets):
        seen += n
        if seen >= rank:
            return max(h["max"] for h in hists) if i == len(buckets) - 1 else (i + 1) * width
    return max(h["max"] for h in hists)


def ratio(a, b):
    return a / b if b else 0.0


class Child:
    """A subprocess whose stdout goes to a file, killed at the run's
    deadline. `wait` reaps it with wait4 so its own peak RSS is known."""

    def __init__(self, argv, stdout_path):
        self.stdout_path = stdout_path
        with open(stdout_path, "wb") as out:
            self.start = time.perf_counter()
            self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=subprocess.PIPE)
        self.timed_out = False
        self.stderr = b""

    def wait(self):
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), self._kill)
        timer.start()
        try:
            self.stderr = self.proc.stderr.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): never leave the child behind.
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            timer.cancel()
        self.wall_s = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stderr.close()
        self.rss_mb = usage.ru_maxrss / 1024
        return self.proc.returncode

    def _kill(self):
        self.timed_out = True
        self.proc.kill()

    def stdout(self):
        return Path(self.stdout_path).read_text()


# ------------------------------------------------------------- the tree

def tree_manifest():
    """Content hash of every file outside the run's own work directories."""
    manifest = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if d not in SKIP_DIRS and Path(dirpath, d) != TARGET)
        for name in sorted(filenames):
            path = Path(dirpath, name)
            if path.is_symlink() or not path.is_file():
                continue
            manifest[str(path.relative_to(ROOT))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return manifest


def fingerprint(manifest):
    """Host identity (what `compare` insists on) and code identity."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    source = hashlib.sha256(json.dumps(sorted(manifest.items())).encode()).hexdigest()
    return {
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu, "kernel": platform.release(),
                 "rustc": rustc},
        "git_commit": commit,
        "source_digest": source,
    }


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(TARGET))
    for argv in (
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "lf-bench", "--bin", "lf-bench"],
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", str(BENCH / "simbench" / "Cargo.toml")],
    ):
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(argv))
    global deadline
    deadline = time.monotonic() + RUN_LIMIT_S


# ------------------------------------------------------- sim-* workloads

class Gate:
    """Counts operations and the failed ones, keeping the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append("; ".join(problems))


def check_sim(sim, golden, digest, gate):
    k = sim["kernel"]
    problems = []
    if "error" in sim:
        problems.append(f"{k}: simulation error: {sim['error']}")
    else:
        if sim["stop"] != "halted":
            problems.append(f"{k}: stopped with {sim['stop']}, not a clean halt")
        if sim["checksum"] != golden[k]:
            problems.append(f"{k}: checksum {sim['checksum']} != golden {golden[k]}")
        got = [sim["counts"]["cycles"], sim["counts"]["committed_insts"], sim["checksum"]]
        want = digest.get(k)
        if got != want:
            problems.append(f"{k}: digest {got} != reference {want}")
    gate.op(problems)


def sim_workload(workload, seed, seconds, trace, gate):
    config = SIM_CONFIG[workload]
    digests = json.loads((REFERENCE / "digests.json").read_text())[config]
    out_path = WORK / workload / "simbench.json"
    child = Child([str(SIMBENCH), "--config", config, "--seed", str(seed),
                   "--seconds", str(seconds), "--setup-reps", str(SIM_SETUP_REPS),
                   "--trace", "1" if trace else "0"], out_path)
    if child.wait() != 0:
        raise BenchError(f"lf-simbench exited {child.proc.returncode}"
                         f"{' (timed out)' if child.timed_out else ''}: "
                         f"{child.stderr.decode(errors='replace').strip()}")
    raw = json.loads(child.stdout())

    golden = {k["name"]: k["golden_checksum"] for k in raw["kernels"]}
    if sorted(golden) != sorted(digests):
        gate.op([f"kernel set {sorted(golden)} != reference {sorted(digests)}"])
    passes = raw["passes"]
    traced = raw["traced"]
    for sims in [p["sims"] for p in passes] + ([traced["sims"]] if traced else []):
        for sim in sims:
            check_sim(sim, golden, digests, gate)
    for f in traced["fast"] if traced else []:
        problems = []
        if "error" in f:
            problems.append(f"{f['kernel']}: functional tier error: {f['error']}")
        elif not f["halted"]:
            problems.append(f"{f['kernel']}: functional tier did not halt")
        elif f["checksum"] != golden[f["kernel"]]:
            problems.append(f"{f['kernel']}: functional tier checksum {f['checksum']} "
                            f"!= golden {golden[f['kernel']]}")
        gate.op(problems)

    # Work counts must repeat exactly across passes (and the traced pass).
    def counts_of(sims):
        return {s["kernel"]: (s.get("counts"), s.get("iq_occupancy"), s.get("rob_occupancy"))
                for s in sims}
    first = counts_of(passes[0]["sims"])
    for sims in [p["sims"] for p in passes[1:]] + ([traced["sims"]] if traced else []):
        if counts_of(sims) != first:
            gate.op(["work counts differ between passes of one run"])

    # End to end. wall_s is one pass over all kernels, taken per kernel as
    # the median simulate time across the run's passes.
    per_kernel = {}
    for p in passes:
        for s in p["sims"]:
            per_kernel.setdefault(s["kernel"], []).append(s["host_ns"] / 1e9)
    wall_s = sum(median(v) for v in per_kernel.values())
    # The same pass counted in calibration rounds: each pass's summed
    # simulate time over its mean round time, median over passes.
    wall_cal = median([sum(s["host_ns"] for s in p["sims"])
                       / statistics.mean(s["cal_ns"] for s in p["sims"]) for p in passes])
    sim_ms = [s["host_ns"] / 1e6 for p in passes for s in p["sims"]]
    ok_sims = [s for s in passes[0]["sims"] if "counts" in s]
    pass_cycles = sum(s["counts"]["cycles"] for s in ok_sims)
    tail_ms, tail_pct = tail(sim_ms)
    e2e = {
        "setup_s": (median(raw["setup"]), "s"),
        "wall_cal": (wall_cal, "rounds"),
        "peak_rss_mb": (child.rss_mb, "MB"),
    }
    extra = {
        "wall_s": (wall_s, "s"),
        "sim_kcycles_per_s": (pass_cycles / 1e3 / wall_s if wall_s else 0.0, "kcycles/s"),
        "sim_ms_p50": (median(sim_ms), "ms"),
        "sim_ms_tail": (tail_ms, "ms"),
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "sim_samples": len(sim_ms),
        "sim_ms_tail_percentile": tail_pct,
        "setup_s_reps": raw["setup"],
        "kernel_order_first_pass": [s["kernel"] for s in passes[0]["sims"]],
    }

    # Exact counts, summed over one pass.
    counts = {}
    for name in SIM_COUNTS:
        counts[f"core.{name}"] = sum(s["counts"][name] for s in ok_sims)
    for name in UARCH_COUNTS:
        counts[f"uarch.{name}"] = sum(s["counts"][name] for s in ok_sims)
    counts["compiler.loops_selected"] = sum(k["loops_selected"] for k in raw["kernels"])
    counts["core.iq_occupancy_p50"] = hist_p50([s["iq_occupancy"] for s in ok_sims])
    counts["core.rob_occupancy_p50"] = hist_p50([s["rob_occupancy"] for s in ok_sims])
    spec_ok = sum(s["counts"]["commits_spec_success"] for s in ok_sims)
    spec_bad = sum(s["counts"]["commits_spec_failed"] for s in ok_sims)

    layers = {}
    if traced:
        detail["spans"] = traced["spans"]
        detail["self_ms"] = self_ms(traced["spans"])
        layers = sim_layers(raw, counts, wall_s)
        layers["core.issue_useful_ratio"] = (
            ratio(counts["core.committed_insts"], counts["core.issued_insts"]), "ratio")
        layers["core.spec_useful_ratio"] = (ratio(spec_ok, spec_ok + spec_bad), "ratio")
        layers["core.sim_kcycles_per_s"] = extra["sim_kcycles_per_s"]
        layers["core.sim_ms_p50"] = extra["sim_ms_p50"]
        layers["core.sim_ms_tail"] = extra["sim_ms_tail"]
        layers["core.sim_ms_tail_pct"] = (tail_pct, "pct")
        layers["core.sim_samples"] = (len(sim_ms), "count")
    return e2e, extra, counts, layers, detail


def span_ns(span):
    return span["end_ns"] - span["start_ns"]


def self_ms(spans):
    """Self time per span name: each span's duration minus its children's."""
    own = [span_ns(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= span_ns(s)
    totals = {}
    for s, ns in zip(spans, own):
        totals[s["name"]] = totals.get(s["name"], 0) + ns / 1e6
    return totals


def sim_layers(raw, counts, untraced_wall_s):
    """Per-layer metrics of the traced unit: one set-up, one pass and one
    functional-tier run, each a root span over the layer calls it made."""
    traced = raw["traced"]
    spans = traced["spans"]
    roots = {s["name"]: i for i, s in enumerate(spans) if s["parent"] is None}
    by_name = {}
    for s in spans:
        if s["parent"] is not None:
            by_name[s["name"]] = by_name.get(s["name"], 0) + span_ns(s)
    golden_insts = sum(k["golden_insts"] for k in raw["kernels"])
    fast_insts = sum(f.get("insts", 0) for f in traced["fast"])
    sim_ns = by_name.get("core.simulate", 0)
    stage_ns = traced["stage_sampled_ns"]
    stage_total = sum(stage_ns.values())
    pass_ns = span_ns(spans[roots["pass"]])
    covered = sum(span_ns(s) for s in spans if s["parent"] == roots["pass"])
    layers = {
        "workloads.build_ms": (by_name.get("workloads.all", 0) / 1e6, "ms"),
        "isa.golden_ms": (by_name.get("isa.golden", 0) / 1e6, "ms"),
        "isa.golden_minsts_per_s": (ratio(golden_insts * 1e3, by_name.get("isa.golden", 0)), "Minst/s"),
        "compiler.annotate_ms": (by_name.get("compiler.annotate", 0) / 1e6, "ms"),
        "core.simulate_ms": (sim_ns / 1e6, "ms"),
        "core.host_ns_per_cycle": (ratio(sim_ns, counts["core.cycles"]), "ns"),
        "isa.fast_minsts_per_s": (ratio(fast_insts * 1e3, by_name.get("isa.fast", 0)), "Minst/s"),
        "bench.traced_wall_s": (pass_ns / 1e9, "s"),
        "bench.trace_overhead_s": (pass_ns / 1e9 - untraced_wall_s, "s"),
        "bench.span_coverage": (ratio(covered, pass_ns), "share"),
    }
    for stage in STAGES:
        layers[f"core.stage_share.{stage}"] = (ratio(stage_ns.get(stage, 0), stage_total), "share")
    return layers


# ----------------------------------------------- the campaign-warm workload

def expected_tables():
    tables = sorted((REFERENCE / "tables").glob("*.txt"))
    if len(tables) != 16:
        raise BenchError(f"expected 16 reference tables, found {len(tables)}")
    return {t.stem: t.read_text() for t in tables}


def campaign(workdir, tag, cache_dir, trace_out=None):
    """One `lf-bench run --all` invocation with its own fresh JSON dir."""
    json_dir = workdir / f"json-{tag}"
    shutil.rmtree(json_dir, ignore_errors=True)
    argv = [str(LF_BENCH), *CAMPAIGN_ARGS, "--cache-dir", str(cache_dir), "--json", str(json_dir)]
    if trace_out:
        argv += ["--trace-out", str(trace_out)]
    child = Child(argv, workdir / f"stdout-{tag}.txt")
    child.wait()
    return child, json_dir


def check_campaign(child, json_dir, tables, warm, gate):
    problems = []
    if child.timed_out:
        problems.append("campaign killed at the run's deadline")
    if child.proc.returncode != 0:
        problems.append(f"campaign exited {child.proc.returncode}: "
                        f"{child.stderr.decode(errors='replace').strip()[-500:]}")
    stdout = child.stdout()
    missing = [name for name, text in tables.items() if text not in stdout]
    if missing:
        problems.append(f"stdout lacks committed tables: {missing}")
    planner = {}
    try:
        planner = json.loads((json_dir / "planner.json").read_text())
        failures = json.loads((json_dir / "failures.json").read_text())["failures"]
        if planner["faults"]["failed_runs"] or failures:
            problems.append(f"campaign reported {planner['faults']['failed_runs']} failed runs, "
                            f"{len(failures)} failure records")
        if warm and (planner["simulated"] != 0
                     or planner["disk_cache_hits"] != planner["unique_runs"]):
            problems.append(f"warm campaign simulated {planner['simulated']} runs and hit the "
                            f"cache {planner['disk_cache_hits']} of {planner['unique_runs']} times")
        if not warm and planner["disk_cache_hits"] != 0:
            problems.append(f"cold campaign hit the cache {planner['disk_cache_hits']} times")
    except (OSError, KeyError, ValueError) as e:
        problems.append(f"campaign reports unreadable: {e!r}")
    gate.op(problems)
    return planner


def calibration_ns(workdir):
    """Median round time of the calibration loop (lf-simbench --calibrate)."""
    child = Child([str(SIMBENCH), "--calibrate", str(CAL_ROUNDS)], workdir / "cal.json")
    if child.wait() != 0:
        raise BenchError(f"lf-simbench --calibrate exited {child.proc.returncode}")
    return median(json.loads(child.stdout())["cal_ns"])


def dir_bytes(path):
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def read_trace(path, gate):
    """The engine's own spans from a campaign's --trace-out file."""
    try:
        events = json.loads(path.read_text())["traceEvents"]
    except (OSError, KeyError, ValueError) as e:
        gate.op([f"campaign trace unreadable: {e!r}"])
        return [], {p: 0.0 for p in ENGINE_PHASES}
    gate.op([])
    phase_ms = {p: 0.0 for p in ENGINE_PHASES}
    for e in events:
        if e.get("cat") == "phase" and e.get("name") in phase_ms:
            phase_ms[e["name"]] += e["dur"] / 1e3
    return events, phase_ms


def campaign_workload(seconds, trace, gate):
    workdir = WORK / "campaign-warm"
    cache_dir = workdir / "cache"
    tables = expected_tables()

    # Set-up: fill the cache with one cold campaign. It costs a whole
    # campaign, so it runs once per run. A traced run traces it too: it is
    # the cold side of the engine cache, the pool and the run spans.
    fill_trace = workdir / "fill-trace.json"
    child, json_dir = campaign(workdir, "fill", cache_dir, fill_trace if trace else None)
    check_campaign(child, json_dir, tables, False, gate)
    fill = child

    # Calibration rounds run between campaigns; each campaign's wall time
    # is counted in the mean of the round times just before and after it.
    walls, cal_walls, rss, artifact_bytes = [], [], [], []
    start = time.perf_counter()
    cal_before = calibration_ns(workdir)
    while True:
        child, json_dir = campaign(workdir, f"run{len(walls)}", cache_dir)
        planner = check_campaign(child, json_dir, tables, True, gate)
        cal_after = calibration_ns(workdir)
        walls.append(child.wall_s)
        cal_walls.append(child.wall_s * 1e9 / statistics.mean([cal_before, cal_after]))
        cal_before = cal_after
        rss.append(child.rss_mb)
        artifact_bytes.append(dir_bytes(json_dir))
        artifact_files = sum(1 for f in json_dir.iterdir() if f.is_file())
        shutil.rmtree(json_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            break

    e2e = {
        "setup_s": (fill.wall_s, "s"),
        "wall_cal": (median(cal_walls), "rounds"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    extra = {"wall_s": (median(walls), "s"), "artifact_bytes": (median(artifact_bytes), "bytes")}
    detail = {"campaigns": len(walls), "campaign_wall_s": walls,
              "artifact_bytes_per_campaign": artifact_bytes}
    counts = {f"engine.{k}": planner.get(k, 0) for k in ENGINE_COUNTS}
    counts["engine.failed_runs"] = planner.get("faults", {}).get("failed_runs", 0)
    counts["engine.artifacts_written"] = artifact_files

    layers = {}
    if trace:
        events, phase_ms = read_trace(fill_trace, gate)
        runs = sorted(e["dur"] / 1e3 for e in events if e.get("cat") == "run")
        layers["engine.fill_simulate_ms"] = (phase_ms["simulate"], "ms")
        layers["engine.run_ms_p50"] = (nearest_rank(runs, 50) if runs else 0.0, "ms")
        layers["engine.run_ms_p98"] = (nearest_rank(runs, 98) if runs else 0.0, "ms")
        layers["engine.pool_busy_frac"] = (ratio(sum(runs), JOBS * phase_ms["simulate"]), "share")

        # The benchmark's span around one warm child, and the engine's
        # phase spans inside it.
        trace_path = workdir / "trace.json"
        child, json_dir = campaign(workdir, "traced", cache_dir, trace_path)
        check_campaign(child, json_dir, tables, True, gate)
        events, phase_ms = read_trace(trace_path, gate)
        wall_ms = child.wall_s * 1e3
        detail["spans"] = [{"name": "lf-bench", "dur_ms": wall_ms}] + [
            {"name": e["name"], "dur_ms": e["dur"] / 1e3} for e in events if e.get("cat") == "phase"]
        layers.update({f"engine.{p}_ms": (ms, "ms") for p, ms in phase_ms.items()})
        layers["engine.unattributed_ms"] = (wall_ms - sum(phase_ms.values()), "ms")
        layers["engine.artifact_bytes"] = extra["artifact_bytes"]
        layers["bench.traced_wall_s"] = (child.wall_s, "s")
        layers["bench.trace_overhead_s"] = (child.wall_s - extra["wall_s"][0], "s")
        layers["bench.span_coverage"] = (ratio(sum(phase_ms.values()), wall_ms), "share")
    return e2e, extra, counts, layers, detail


# ---------------------------------------------------------------- a run

def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError("run from the root of the repository (Cargo.toml and crates/ not found)")
    spec = load_spec()
    before = tree_manifest()
    build()
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    (WORK / args.workload).mkdir(parents=True)

    gate = Gate()
    try:
        if args.workload in SIM_CONFIG:
            e2e, extra, counts, layers, detail = sim_workload(
                args.workload, args.seed, args.seconds, args.trace, gate)
        else:
            e2e, extra, counts, layers, detail = campaign_workload(args.seconds, args.trace, gate)
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)

    after = tree_manifest()
    changed = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    gate.op([f"run changed files outside its work directories: {changed[:10]}"] if changed else [])

    # Every per-layer metric is printed on every workload; a layer the
    # workload does not reach reads 0.
    layer_metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            name = m["name"]
            value = layers.get(name, (counts.get(name, 0), m["unit"]))[0]
            layer_metrics[name] = {"value": value, "unit": m["unit"]}
    e2e_metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    metrics = layer_metrics if args.trace else e2e_metrics

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "fingerprint": fingerprint(before),
        "correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
        "failed_frac": gate.failed / gate.attempted, "failures": gate.reasons,
        "end_to_end": e2e_metrics,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "counts": counts,
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "detail": detail,
    }
    results = WORK / "results" / args.workload
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{stamp}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"host {record['fingerprint']['host']}")
    for k, (v, u) in {**e2e, **extra}.items():
        print(f"  {k:<24} {v:>14.6g} {u}")
    print(f"  {'failed_frac':<24} {record['failed_frac']:>14.6g} ({gate.failed}/{gate.attempted})")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for k in sorted({**counts, **layers}):
        v, u = layers.get(k, (counts.get(k), units.get(k, "count")))
        print(f"  {k:<36} {v:>14.6g} {u}")
    for reason in gate.reasons:
        print(f"  FAILED: {reason}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))


# ------------------------------------------------------------- compare

def load_records(path):
    p = Path(path)
    files = sorted(p.rglob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent_path, change_path):
    """Medians and quartiles per workload and end-to-end metric, judged
    against BENCHMARK.json's bounds; exact counts must be identical."""
    spec = load_spec()
    parent = [r for r in load_records(parent_path) if not r["trace"]]
    change = [r for r in load_records(change_path) if not r["trace"]]
    if not parent or not change:
        raise BenchError("both sides need untraced result records")
    hosts = {json.dumps(r["fingerprint"]["host"], sort_keys=True) for r in parent + change}
    if len(hosts) != 1:
        raise BenchError("refusing to compare results from different hosts:\n  "
                         + "\n  ".join(sorted(hosts)))
    worse = False
    for workload in WORKLOADS:
        a = [r for r in parent if r["workload"] == workload]
        b = [r for r in change if r["workload"] == workload]
        if not a or not b:
            continue
        print(f"{workload}: {len(a)} parent runs, {len(b)} change runs")
        def row(name, key):
            va = [r[key][name]["value"] for r in a]
            vb = [r[key][name]["value"] for r in b]
            qa, qb = quartiles(va), quartiles(vb)
            change_frac = ratio(qb[1] - qa[1], qa[1])
            print(f"  {name:<18} parent {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  change "
                  f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {change_frac:+.1%}", end="")
            return va, vb, qa, change_frac

        for m in spec["end_to_end"]:
            bound, lower = m["bound"], m["better"] == "lower"
            va, vb, qa, change_frac = row(m["name"], "end_to_end")
            if (change_frac if lower else -change_frac) > bound:
                verdict, worse = "WORSE than bound", True
            elif (qa[2] - qa[0]) / qa[1] > bound:
                all_better = max(vb) < min(va) if lower else min(vb) > max(va)
                verdict = "better in every run" if all_better else "unresolved (spread > bound)"
            else:
                verdict = "within bound"
            print(f" (bound {bound:.0%}): {verdict}")
        for name in sorted(set.intersection(*(set(r["extra"]) for r in a + b))):
            row(name, "extra")
            print(" (no bound)")
        counts = {json.dumps(r["counts"], sort_keys=True) for r in a + b}
        print(f"  exact work counts: {'identical' if len(counts) == 1 else 'DIFFER'}")
        failed = sum(r["failed"] for r in b) - sum(r["failed"] for r in a)
        print(f"  failed operations: parent {sum(r['failed'] for r in a)}, "
              f"change {sum(r['failed'] for r in b)}")
        worse |= failed > 0
    return 1 if worse else 0


# ------------------------------------------------------------- capture

def capture():
    """Writes the reference digests and tables from the current tree. Run
    it only at a commit whose simulated results are known good."""
    if not (ROOT / "results").is_dir():
        raise BenchError("capture needs the committed results/ tables")
    build()
    digests = {}
    for config in ("base", "loopfrog"):
        out = WORK / f"capture-{config}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        child = Child([str(SIMBENCH), "--config", config, "--seed", "0", "--seconds", "0",
                       "--trace", "0"], out)
        if child.wait() != 0:
            raise BenchError(f"lf-simbench exited {child.proc.returncode}")
        raw = json.loads(child.stdout())
        golden = {k["name"]: k["golden_checksum"] for k in raw["kernels"]}
        digests[config] = {}
        for s in raw["passes"][0]["sims"]:
            if s.get("stop") != "halted" or s["checksum"] != golden[s["kernel"]]:
                raise BenchError(f"{config} {s['kernel']}: not a clean, correct run: {s}")
            digests[config][s["kernel"]] = [s["counts"]["cycles"], s["counts"]["committed_insts"],
                                            s["checksum"]]
        digests[config] = dict(sorted(digests[config].items()))
    lines = []
    for config, kernels in digests.items():
        rows = ",\n".join(f'    "{k}": {json.dumps(v)}' for k, v in kernels.items())
        lines.append(f'  "{config}": {{\n{rows}\n  }}')
    (REFERENCE / "digests.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    tables = REFERENCE / "tables"
    shutil.rmtree(tables, ignore_errors=True)
    tables.mkdir(parents=True)
    for t in sorted((ROOT / "results").glob("*.txt")):
        shutil.copyfile(t, tables / t.name)
    print(f"wrote {REFERENCE / 'digests.json'} and {len(list(tables.iterdir()))} tables")


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("compare", "capture"):
        cmd = argparse.ArgumentParser(prog="run.py")
        sub = cmd.add_subparsers(dest="cmd", required=True)
        c = sub.add_parser("compare")
        c.add_argument("parent")
        c.add_argument("change")
        sub.add_parser("capture")
        args = cmd.parse_args()
    else:
        cmd = argparse.ArgumentParser(prog="run.py")
        cmd.add_argument("--workload", required=True)
        cmd.add_argument("--seed", type=int, required=True)
        cmd.add_argument("--seconds", type=int, required=True)
        cmd.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = cmd.parse_args()
        args.cmd = "run"
    # A terminated benchmark still reaps its children (Child.wait).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.cmd == "compare":
            return compare(args.parent, args.change)
        if args.cmd == "capture":
            return capture()
        run(args)
        return 0
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
