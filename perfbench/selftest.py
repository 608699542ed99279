#!/usr/bin/env python3
"""Self-test of the benchmark.

usage: python3 perfbench/selftest.py    (from the root of a checkout)

Checks BENCHMARK.json against the benchmark's schema, runs every workload
at a tiny size untraced and traced, and checks what run.py prints: one JSON
object on the last line with exactly the keys correct/attempted/failed/
metrics, every metric of the matching BENCHMARK.json section with its unit,
finite values, and non-zero end-to-end values. It also checks that run.py
exits non-zero, without printing a result, in a directory holding only
BENCHMARK.json and perfbench/. Exits 0 when everything holds.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")
    return ok


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int),
           "run_seconds is a whole number in [1, 60]")
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    expect(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    expect(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "names are unique")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and NAME.match(w["name"])
               and len(w["why"]) <= 200 and "\n" not in w["why"], f"workload {w}")
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
               f"end-to-end metric {m['name']}")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per-layer metric {m['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(NAME.match(m["name"]) and UNIT.match(m["unit"])
               and m["better"] in ("lower", "higher"), f"metric {m['name']} format")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s in seconds, lower is better, with the largest bound")


def run(cwd, workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_output(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if not expect(proc.returncode == 0, f"{label} exits 0 ({proc.stderr[-400:]})"):
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} keys")
    expect(result["correct"] is True, f"{label} correct ({proc.stderr[-400:]})")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{label} attempted >= 1")
    expect(result["failed"] == 0, f"{label} failed == 0")
    section = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in section}, f"{label} metric names")
    for m in section:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        expect(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
               f"{label} {m['name']} unit")
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label} {m['name']} is a finite number")
        if not trace:
            expect(value != 0, f"{label} {m['name']} is non-zero")
    print(f"ok   {label}: {len(metrics)} metrics, attempted {result['attempted']}")


def check_refuses_without_sources():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    proc = run(bare, "run_50flow", 0)
    printed = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0 and not any(l.startswith("{") for l in printed),
           "run.py fails without printing a result when the sources are absent")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok   refuses to run without the repository's sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_refuses_without_sources()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_output(spec, w["name"], trace)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
