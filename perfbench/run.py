#!/usr/bin/env python3
"""Repository benchmark: one workload at one seed, metrics as one JSON line.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the program and the
harness from source into .bench_build/ (see attach.cmake); later runs reuse
that build. Workloads (BENCHMARK.json says why each was chosen, METRICS.md
which layer metric should move which end-to-end metric):

  run_50flow  run_scenario_guarded on a 25 CUBIC + 25 BBR Fig. 9 cell
  ne_fig09    bench_fig09_nash_same_rtt --fidelity quick --jobs 4
  oracle_mix  an in-process PayoffOracle answering a seeded query mix

--trace 0 prints every end-to-end metric of BENCHMARK.json. --trace 1 runs
untraced and traced halves, writes the traced spans to
.bench_build/traces/, prints each layer's self time and the tracing
overhead, and reports every per-layer metric (0 for a layer the workload
does not exercise). Outputs are checked against perfbench/reference/ when
the seed has a recorded reference, and against in-run invariants
(repetitions bit-identical, the driver's NE table equal to direct library
calls, oracle exact hits bit-identical to the written cells) always.

End-to-end times and rates are scaled to a reference host speed by a host
probe timed next to the work, and the single-threaded workloads run pinned
to one CPU (METRICS.md, "Timing on a shared host").

Developer flags: --size tiny (small inputs, for selftest.py) and --record
(write the reference file for this workload and seed).
"""

import argparse
import fcntl
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
HARNESS = CMAKE_DIR / "perfbench" / "perfbench_harness"
HARNESS_TRACED = CMAKE_DIR / "perfbench" / "perfbench_harness_traced"
FIG09 = CMAKE_DIR / "bench" / "bench_fig09_nash_same_rtt"
REFERENCE = HERE / "reference"
SPEC_PATH = ROOT / "BENCHMARK.json"

NE_JOBS = 4          # the driver's --jobs
NE_SEED_STRIDE = 16  # driver seeds reserved per run seed on ne_fig09
SETUP_LAUNCHES = 11  # start-ups timed before, and again after, the work
PROBE_REF_S = 0.01   # host-probe walk time that defines the reference speed
NE_PROBE_S = 0.05    # host-probe seconds per CPU before each figure on ne_fig09
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure, crash)."""


# --- build ------------------------------------------------------------------

def build():
    for need in ("CMakeLists.txt", "src/CMakeLists.txt",
                 "bench/bench_fig09_nash_same_rtt.cpp"):
        if not (ROOT / need).exists():
            raise BenchError(f"{need} is missing: run from a full checkout")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD / "build.lock", "w") as lock, open(log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (CMAKE_DIR / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(ROOT), "-B", str(CMAKE_DIR), *gen,
                          "-DCMAKE_BUILD_TYPE=Release",
                          f"-DCMAKE_PROJECT_INCLUDE={HERE / 'attach.cmake'}"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs, "--target",
                      "perfbench_harness", "perfbench_harness_traced",
                      "bench_fig09_nash_same_rtt"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                tail = log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


# --- processes --------------------------------------------------------------

def spawn(argv):
    """Runs argv to completion: (stdout text, wall seconds, rusage)."""
    argv = [str(a) for a in argv]
    rd, wr = os.pipe()
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, wr, 1), (os.POSIX_SPAWN_CLOSE, rd)])
    os.close(wr)
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        with os.fdopen(rd, "rb") as f:
            out = f.read().decode()
        _, status, ru = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise BenchError(f"{Path(argv[0]).name} exited with {code}")
    return out, wall, ru


def harness(args, traced=False):
    exe = HARNESS_TRACED if traced else HARNESS
    out, wall, ru = spawn([exe, *args])
    return json.loads(out.strip().splitlines()[-1]), wall, ru


def start_up_times(launch):
    """SETUP_LAUNCHES timings of launch(). A run takes them before its
    measured work and again after it, and reports the median of both sets,
    so set-up is sampled across the run like the work is."""
    return [launch() for _ in range(SETUP_LAUNCHES)]


def time_to_first_line(argv):
    """Seconds from spawning argv to its first line of output; the process
    is then killed. Its stdout is a terminal, so the C library flushes each
    line as it is printed."""
    argv = [str(a) for a in argv]
    master, slave = os.openpty()
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, slave, 1), (os.POSIX_SPAWN_CLOSE, master)])
    os.close(slave)
    text = b""
    try:
        while b"\n" not in text:
            ready, _, _ = select.select([master], [], [], CHILD_TIMEOUT_S)
            chunk = os.read(master, 4096) if ready else b""
            if not chunk:
                raise BenchError(f"{Path(argv[0]).name} printed no line")
            text += chunk
        return time.perf_counter() - t0
    except OSError as e:  # EIO: the process exited before printing a line
        raise BenchError(f"{Path(argv[0]).name} printed no line: {e}") from e
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(master)


# --- statistics -------------------------------------------------------------

def host_scale(probes):
    """The factor that scales times measured next to these host-probe walks
    to the reference host speed, at which a walk takes PROBE_REF_S.

    The host this benchmark runs on is shared and its speed drifts by tens
    of percent from one minute to the next; the probe (HostProbe in
    harness.cpp) runs none of the program's code, so its time follows the
    host and not the program. Rates are divided by the factor."""
    probe = statistics.median(probes)
    print(f"# host probe: median walk {1e3 * probe:.3f} ms over {len(probes)}; "
          f"times scaled by {PROBE_REF_S / probe:.4f} to the reference speed")
    return PROBE_REF_S / probe


def pin_to_one_cpu():
    """Keeps this process and its children on one CPU, so a single-threaded
    workload runs where its host probe runs instead of migrating between
    virtual CPUs whose speeds differ."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def tail_percentile(samples, cap=0.99):
    """Highest percentile (at most `cap`) with ten samples beyond it,
    interpolated linearly between ranks like bbrnash::percentile."""
    n = len(samples)
    q = min(cap, 1.0 - 10.0 / n)
    if q <= 0.5:
        return statistics.median(samples)
    xs = sorted(samples)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def per_layer_self_ms(spans, units):
    """Self time per layer, in ms per workload unit.

    A span's self time is its duration minus its children's; its layer is
    its name without the last component, and every bench.* span counts as
    the harness's own layer "bench".
    """
    child = {}
    for s in spans:
        if s["parent"]:
            child[s["parent"]] = child.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    layers = {}
    for s in spans:
        layer = s["name"].rsplit(".", 1)[0]
        if layer.startswith("bench"):
            layer = "bench"
        self_ns = s["end_ns"] - s["start_ns"] - child.get(s["id"], 0)
        layers[layer] = layers.get(layer, 0) + self_ns
    return {k: v / 1e6 / max(1, units) for k, v in layers.items()}


def span_durations(spans, name, tag=None):
    return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans
            if s["name"] == name and (tag is None or s["tag"] == tag)]


def median0(xs):
    return statistics.median(xs) if xs else 0.0


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# --- references ---------------------------------------------------------------

def reference_path(workload, seed):
    return REFERENCE / f"{workload}.seed{seed}.json"


def check_reference(workload, seed, observed, opts):
    """Problems found comparing `observed` with the recorded reference, or
    none after recording it with --record.

    Only keys present on both sides are compared, so a reference can hold
    entries (such as per-driver-seed NE tables) a shorter run does not reach;
    a run that reaches none of a recorded reference's keys fails.
    """
    path = reference_path(workload, seed)
    expected = json.loads(path.read_text()) if path.exists() else {}
    if opts.record:
        REFERENCE.mkdir(exist_ok=True)
        expected.update(observed)
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        return []
    if expected and not expected.keys() & observed.keys():
        return [f"{path.name} has none of the keys this run produced"]
    return [f"reference mismatch on {key}" for key, want in expected.items()
            if key in observed and observed[key] != want]


# --- workloads ----------------------------------------------------------------

class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}

    def fail(self, what, count=1):
        self.problems.append(what)
        self.failed += count


def run_50flow(opts, res):
    pin_to_one_cpu()
    common = ["--seed", opts.seed, "--size", opts.size]
    traced_half = opts.trace == 1
    seconds = opts.seconds / 2 if traced_half else opts.seconds

    def start_up():  # exec, static init, the scenario
        return spawn([HARNESS, "run_50flow", *common, "--setup-only"])[1]

    setup = [] if traced_half else start_up_times(start_up)
    out, _, ru = harness(["run_50flow", *common, "--seconds", seconds])
    check_fifty_flow(out, opts, res)
    walls = [r["wall_s"] for r in out["reps"]]
    wall = statistics.median(walls)
    if not traced_half:
        setup += start_up_times(start_up)
        k = host_scale([r["probe_s"] for r in out["reps"]])
        print(f"# as measured: wall_s {wall:.6f}, setup_s {statistics.median(setup):.6f}")
        res.metrics.update(
            setup_s=k * statistics.median(setup), wall_s=k * wall,
            cpu_s=k * statistics.median(r["cpu_s"] for r in out["reps"]),
            peak_rss_mb=ru.ru_maxrss / 1024,
            sim_s_per_wall_s=out["sim_s"] / (k * wall),
            queries_per_s=1.0 / (k * wall),
            query_p50_us=1e6 * k * wall,
            query_p99_us=1e6 * k * tail_percentile(walls),
            miss_p50_ms=1e3 * k * wall)
        return
    spans_path = trace_path("run_50flow", opts)
    tr, _, _ = harness(["run_50flow", *common, "--seconds", seconds,
                        "--trace-out", spans_path], traced=True)
    check_fifty_flow(tr, opts, res)
    spans = read_spans(spans_path)
    events = tr["events"]
    res.metrics.update({
        "sim.events": events,
        "sim.ns_per_event": 1e9 * wall / events,
        "net.drops": tr["drops"],
        "net.avg_queue_delay_ms": tr["avg_queue_delay_ms"],
        "flow.retransmits": tr["retransmits"],
        "flow.rtos": tr["rtos"],
        "exp.scenario_runner.run_s": median0(
            span_durations(spans, "exp.scenario_runner.run_scenario_guarded")),
        "util.alloc.allocs_per_event":
            statistics.median(r["allocs"] for r in tr["reps"]) / events,
    })
    traced_wall = statistics.median(r["wall_s"] for r in tr["reps"])
    finish_trace(res, spans, len(tr["reps"]), wall, traced_wall)


def check_fifty_flow(out, opts, res):
    res.attempted += len(out["reps"])
    bad = sum(not r["ok"] for r in out["reps"])
    if bad or out["status"] != "ok" or out["attempts"] != 1:
        res.fail("run_scenario_guarded did not return ok on its first attempt",
                 max(1, bad))
    if out["mismatched_reps"]:
        res.fail("repetitions of the same scenario differ", out["mismatched_reps"])
    total = sum(out["goodput_bps"]) * 8
    if not (out["events"] > 0 and 0.5 * out["capacity_bps"] < total <= out["capacity_bps"]):
        res.fail("goodput outside (0.5, 1] x capacity")
    if opts.size == "full":
        observed = {k: out[k] for k in ("events", "goodput_bps", "drops",
                                        "avg_queue_delay_ms", "retransmits", "rtos")}
        problems = check_reference("run_50flow", opts.seed, observed, opts)
        if problems:
            res.fail("; ".join(problems), len(out["reps"]))


def parse_fig09_tables(text):
    """{panel: [row, ...]} from the driver's --csv or aligned output."""
    tables, panel, rows = {}, None, None
    for line in text.splitlines():
        if line.startswith("-- panel: "):
            panel = line[len("-- panel: "):].rstrip(" -")
        elif line.startswith("buffer_bdp"):
            rows = tables.setdefault(panel or f"csv{len(tables)}", [])
            panel = None
        elif rows is not None and line.strip() and not line.startswith(("-", "#", "note")):
            rows.append(line.split(",") if "," in line else line.split())
        elif not line.strip():
            rows = None
    return tables


def ne_driver_seeds(opts):
    """The driver seeds one run covers: a block of consecutive seeds per run
    seed, about five seconds of figures each. The block is the workload's
    unit (one query), so the work a single seed's NE searches happen to
    take averages out within the run. Blocks start at a fixed stride, so a
    run of any length at one seed begins with the same driver seeds."""
    count = max(1, min(NE_SEED_STRIDE, round(opts.seconds / 5)))
    return [NE_SEED_STRIDE * opts.seed + i for i in range(count)]


def run_ne_fig09(opts, res):
    seeds = ne_driver_seeds(opts)
    scratch = scratch_dir("ne_fig09", opts)

    def direct_pass(jobs, run_seeds, traced=False):
        args = ["ne_cells", "--seeds", ",".join(map(str, run_seeds)), "--size",
                opts.size, "--jobs", jobs, "--scratch", scratch]
        if traced:
            args += ["--trace-out", trace_path("ne_fig09", opts)]
        out = harness(args, traced=traced)[0]
        rows = {}
        for c in out["cells"]:
            rows.setdefault(c["seed"], []).append(c["row"])
        return out, rows

    def driver(seed, csv):
        return spawn([FIG09, "--fidelity", "quick", "--jobs", NE_JOBS, "--seed", seed,
                      *(["--csv"] if csv else [])])

    def check(text, expected):
        rows = [r for t in parse_fig09_tables(text).values() for r in t]
        res.attempted += len(expected)
        wrong = sum(a != b for a, b in zip(rows, expected)) + abs(len(rows) - len(expected))
        if wrong:
            res.fail("driver NE table differs from find_ne_crossing", wrong)
        return rows

    if opts.trace == 0:
        # Set-up is the driver's own start-up: exec, static initialisation,
        # option parsing, up to its banner line.
        def start_up():
            return time_to_first_line([FIG09, "--fidelity", "quick", "--jobs",
                                       NE_JOBS, "--seed", seeds[0]])

        def probe():  # the figure runs on every CPU: probe each in turn
            cpus, times = os.sched_getaffinity(0), []
            try:
                for cpu in sorted(cpus):
                    os.sched_setaffinity(0, {cpu})
                    times += harness(["probe", "--seconds", NE_PROBE_S])[0]["probe_s"]
            finally:
                os.sched_setaffinity(0, cpus)
            return times

        setup = start_up_times(start_up)
        figures, tables, probes = [], {}, []
        for seed in seeds:
            probes += probe()
            text, wall, ru = driver(seed, csv=True)
            tables[seed] = text
            figures.append((wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024))
        probes += probe()
        setup += start_up_times(start_up)
        direct, expected = direct_pass(NE_JOBS, seeds)
        observed = {f"rows.{seed}": [",".join(r) for r in check(tables[seed], expected[seed])]
                    for seed in seeds}
        problems = check_reference("ne_fig09", opts.seed, observed, opts)
        if problems:
            res.fail("; ".join(problems), len(direct["cells"]))
        wall = sum(f[0] for f in figures)
        sim_s = (sum(c["distributions"] for c in direct["cells"])
                 * direct["trials"] * direct["trial_sim_s"])
        k = host_scale(probes)
        print(f"# as measured: wall_s {wall:.6f}, setup_s {statistics.median(setup):.6f}")
        res.metrics.update(
            setup_s=k * statistics.median(setup), wall_s=k * wall,
            cpu_s=k * sum(f[1] for f in figures),
            peak_rss_mb=max(f[2] for f in figures),
            sim_s_per_wall_s=sim_s / (k * wall),
            queries_per_s=1.0 / (k * wall),
            query_p50_us=1e6 * k * wall,
            query_p99_us=1e6 * k * wall,
            miss_p50_ms=1e3 * k * wall)
        return

    # Traced: the first seed's figure once for its parallel footer, then its
    # cells serially through the untraced and the traced harness.
    seed = seeds[0]
    serial, expected = direct_pass(1, [seed])
    text = driver(seed, csv=False)[0]
    check(text, expected[seed])
    footer = next((l for l in text.splitlines() if l.startswith("### parallel:")), "")
    nums = [float(x.rstrip("s,")) for x in footer.replace("<=", "").split()
            if x.rstrip("s,").replace(".", "", 1).isdigit()]
    if len(nums) != 9:
        raise BenchError(f"unexpected parallel footer: {footer!r}")
    _, regions, workers, steals, retried, failed, busy, _, pwall = nums
    traced, traced_rows = direct_pass(1, [seed], traced=True)
    if traced_rows != expected:
        res.fail("traced find_ne_crossing differs from the untraced pass", len(expected[seed]))
    spans = read_spans(trace_path("ne_fig09", opts))
    cell_s = span_durations(spans, "exp.nash_search.find_ne_crossing")
    res.metrics.update({
        "exp.parallel.regions": regions,
        "exp.parallel.steals": steals,
        "exp.parallel.busy_s": busy,
        "exp.parallel.idle_frac": 1.0 - busy / (workers * pwall) if pwall else 0.0,
        "exp.nash_search.cell_s_p50": median0(cell_s),
        "exp.nash_search.cell_s_max": max(cell_s),
        "exp.nash_search.distributions_probed":
            sum(c["distributions"] for c in traced["cells"]),
        "exp.sweeps.trials_retried": retried,
        "exp.sweeps.trials_failed": failed,
        "model.nash_region_us": 1e6 * median0(span_durations(spans, "model.predict_nash_region")),
    })
    finish_trace(res, spans, 1, serial["wall_s"], traced["wall_s"])


def run_oracle_mix(opts, res):
    pin_to_one_cpu()
    common = ["--seed", opts.seed, "--size", opts.size,
              "--scratch", scratch_dir("oracle_mix", opts)]
    traced_half = opts.trace == 1
    seconds = opts.seconds / 2 if traced_half else opts.seconds
    out, _, ru = harness(["oracle_mix", *common, "--seconds", seconds])
    check_oracle(out, opts, res)
    passes = out["passes"]
    wall = statistics.median(p["wall_s"] for p in passes)
    if not traced_half:
        misses = passes[0]["misses"]
        k = host_scale([p["probe_s"] for p in passes])

        def scaled(key):
            return k * statistics.median(p[key] for p in passes)

        print(f"# as measured: wall_s {wall:.6f}, setup_s "
              f"{statistics.median(p['hydrate_s'] for p in passes):.6f}")
        res.metrics.update(
            setup_s=scaled("hydrate_s"),
            wall_s=k * wall,
            cpu_s=scaled("cpu_s"),
            peak_rss_mb=ru.ru_maxrss / 1024,
            sim_s_per_wall_s=misses * out["trials"] * out["trial_sim_s"] / (k * wall),
            queries_per_s=out["queries_per_pass"] / (k * wall),
            query_p50_us=scaled("cheap_p50_us"),
            query_p99_us=scaled("cheap_p99_us"),
            miss_p50_ms=scaled("miss_p50_ms"))
        print(f"# samples: {len(passes)} passes of {out['cheap_per_pass']} cheap "
              f"answers; {out['miss_samples']} misses")
        return
    # Twenty thousand spans a pass: a few seconds of passes are plenty.
    spans_path = trace_path("oracle_mix", opts)
    tr, _, _ = harness(["oracle_mix", *common, "--seconds", min(seconds, 5.0),
                        "--trace-out", spans_path], traced=True)
    check_oracle(tr, opts, res)
    spans = read_spans(spans_path)
    st = tr["stats"]
    answered = sum(tr["tags"].values())
    cheap = st["exact_hits"] + st["interpolated"] + st["model_only"]

    def tier_us(tag):
        return 1e6 * median0(span_durations(spans, "bench.oracle_mix.request", tag))

    res.metrics.update({
        "exp.oracle.exact_hits": st["exact_hits"],
        "exp.oracle.interpolated": st["interpolated"],
        "exp.oracle.model_only": st["model_only"],
        "exp.oracle.computed": st["computed"],
        "exp.oracle.interp_band_rejected": st["interp_band_rejected"],
        "exp.oracle.interp_no_bounds": st["interp_no_bounds"],
        "exp.oracle.cheap_answer_ratio": cheap / answered,
        "exp.oracle.exact_us_p50": tier_us("exact"),
        "exp.oracle.interp_us_p50": tier_us("interpolated"),
        "exp.oracle.model_us_p50": tier_us("model-only"),
        "exp.oracle.hydrated_cells": st["hydrated_cells"],
        "exp.checkpoint.cache_bytes": tr["cache_bytes"],
        "exp.checkpoint.flush_s": median0(span_durations(spans, "exp.checkpoint.flush")),
        "exp.sweeps.mix_trials_ms": tr["mix_trials_p50_ms"],
    })
    traced_wall = statistics.median(p["wall_s"] for p in tr["passes"])
    finish_trace(res, spans, len(tr["passes"]), wall, traced_wall)


def check_oracle(out, opts, res):
    queries = out["queries_per_pass"] * len(out["passes"])
    res.attempted += queries + out["lattice_cells"]
    if out["failed"]:
        res.fail(f"wrong answers: {out['errors']}", out["failed"])
    if out["write_failed"]:
        res.fail("lattice cells failed to compute", out["write_failed"])
    if out["digest_mismatches"]:
        res.fail("passes over the same cache answered differently",
                 out["digest_mismatches"] * out["queries_per_pass"])
    st = out["stats"]
    if st["pending"] or st["failed"]:
        res.fail("oracle reported pending or failed answers", st["pending"] + st["failed"])
    for tag in ("exact", "interpolated", "model-only", "computed"):
        if not out["tags"].get(tag):
            res.fail(f"no {tag} answers: the mix does not exercise that tier")
    if opts.size == "full":
        observed = {k: out[k] for k in ("write_digest", "answer_digest", "tags",
                                        "cache_bytes")}
        observed["stats"] = st
        problems = check_reference("oracle_mix", opts.seed, observed, opts)
        if problems:
            res.fail("; ".join(problems), out["queries_per_pass"])


def finish_trace(res, spans, units, untraced_wall, traced_wall):
    overhead = traced_wall / untraced_wall - 1.0
    self_ms = per_layer_self_ms(spans, units)
    print(f"# {len(spans)} spans; self time per unit (ms):")
    for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:24s} {ms:12.4f}")
    print(f"# tracing overhead: {100 * overhead:+.2f}% "
          f"(traced median {traced_wall:.6f}s vs untraced {untraced_wall:.6f}s)")
    res.metrics["trace.overhead_frac"] = overhead
    for layer, ms in self_ms.items():
        res.metrics[f"self_ms.{layer}"] = ms


# --- scratch ------------------------------------------------------------------

def scratch_dir(workload, opts):
    path = BUILD / "scratch" / f"{workload}-{opts.seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    opts.cleanup.append(path)
    return path


def trace_path(workload, opts):
    path = BUILD / "traces"
    path.mkdir(parents=True, exist_ok=True)
    return path / f"{workload}-seed{opts.seed}.spans.jsonl"


WORKLOADS = {"run_50flow": run_50flow, "ne_fig09": run_ne_fig09,
             "oracle_mix": run_oracle_mix}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--record", action="store_true")
    opts = ap.parse_args()
    opts.cleanup = []
    res = Result()
    try:
        spec = json.loads(SPEC_PATH.read_text())
        build()
        WORKLOADS[opts.workload](opts, res)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    finally:
        for path in opts.cleanup:
            shutil.rmtree(path, ignore_errors=True)

    failed = min(res.failed, res.attempted)
    res.metrics["ok_frac"] = 1.0 - failed / res.attempted
    res.metrics["failed_frac"] = failed / res.attempted
    section = "per_layer" if opts.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(res.metrics.get(m["name"], 0)), "unit": m["unit"]}
               for m in spec[section]}
    for p in res.problems:
        print(f"# check failed: {p}", file=sys.stderr)
    correct = not res.problems and all(math.isfinite(v["value"]) for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
