#!/usr/bin/env python3
"""The repository benchmark: one command that builds, runs and checks.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace [0|1]] [--smoke]

Builds benchmark/ (the simulator library in Release plus the qip-benchmark
program) under .bench_build/, then runs each requested workload.  A run is a
sequence of reps, one process each; a rep runs one of the workload's
independent instances, whose seeds derive from --seed.  An instance
simulates identically every time it runs, so its sim_digest must repeat.
A metric is the median over an instance's reps, averaged over the instances
after dropping the highest and lowest fifth.

--trace 0 (default) runs every instance once untraced, then repeats
instances until --seconds (default: run_seconds of BENCHMARK.json) is spent,
at least one repeat, the determinism gate; it reports the end-to-end
metrics of BENCHMARK.json.  --trace 1 runs a fixed set, instances 0-2 each
untraced then traced, whatever --seconds says, and reports the per-layer
metrics from the traced reps plus the tracing overhead; each traced rep
writes its spans to .bench_build/traces/<workload>-seed<N>-i<I>.json
(Chrome trace_event).  --smoke runs every workload in both modes at 1/50
size.

The last line of stdout is one JSON object: correct, attempted (reps run),
failed (reps whose checks failed) and metrics ({name: {value, unit}}).
Exit status is 0 only when every check passed; a failed build exits 1
without printing a result.  Standard library only.
"""

import argparse
import json
import math
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "qip-benchmark"
INSTANCES = 10
TRACED_PAIRS = 3
SMOKE_SCALE = 0.02
SMOKE_INSTANCES = 2
# A run must end within 180 s; the build before the first one is not counted.
RUN_DEADLINE_S = 170.0
MIN_SPAN_COVERAGE = 0.95


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds qip-benchmark; exits 1 on failure."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    cmake_dir = BINARY.parent
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B",
                      str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                   "qip-benchmark", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = f"{type(e).__name__}: {e}"
            if rc != 0:
                tail = log.read_text().splitlines()[-25:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed ({rc}): {' '.join(cmd)}; "
                     f"log in {log}")


def child_env():
    # QIP_* knobs (grace windows, trace files, scheduler) would change what
    # is measured; reps always run with the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("QIP_")}


def run_rep(workload, seed, instance, scale, trace_path, timeout):
    """One rep in a fresh process.  Returns (result dict, error or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--instance", str(instance), "--scale", repr(scale)]
    if trace_path is not None:
        cmd += ["--trace-out", str(trace_path)]
    spawned = time.monotonic()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(timeout, 1.0), env=child_env())
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if p.returncode != 0:
        return None, f"exit {p.returncode}: {p.stderr.strip()[-500:]}"
    try:
        rep = json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "unparseable qip-benchmark output"
    # Set-up: process start to the first timed step (both CLOCK_MONOTONIC).
    rep["metrics"]["setup_s"] = {
        "value": rep["timed_start_mono_s"] - spawned, "unit": "s"}
    return rep, None


def check_rep(rep, digest, trace_path):
    """Output checks on one rep; returns a list of problems."""
    m = rep["metrics"]
    problems = []
    if rep["sim_digest"] != digest:
        problems.append(f"sim_digest {rep['sim_digest']} != {digest}: an "
                        "instance must simulate identically every time")
    for name, v in m.items():
        if not math.isfinite(v["value"]) or v["value"] < 0:
            problems.append(f"{name} = {v['value']}")
    if m["sim.events"]["value"] <= 0 or m["wall_s"]["value"] <= 0:
        problems.append("no simulated work was timed")
    if trace_path is not None:
        coverage = m["obs.span_coverage_frac"]["value"]
        if coverage < MIN_SPAN_COVERAGE:
            problems.append(f"spans cover only {coverage:.3f} of wall_s")
        try:
            if len(json.loads(trace_path.read_text())["traceEvents"]) < 2:
                problems.append(f"{trace_path} holds no spans")
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"bad trace file {trace_path}: {e}")
    return problems


def schedule(trace, instances):
    """The reps of a run in order, as (instance, traced), and how many of
    them are required.  A traced run is a fixed set of untraced/traced
    pairs, so its per-layer numbers always cover the same instances.  An
    untraced run repeats instances after the first pass, stopping once
    --seconds is spent."""
    if trace:
        reps = [(i, t) for i in range(min(TRACED_PAIRS, instances))
                for t in (False, True)]
        return reps, len(reps)
    return [(i, False) for i in range(instances)] * 2, instances + 1


def measure(workload, seed, seconds, trace, scale, instances):
    """Runs one workload's reps; returns a result dict."""
    start = time.monotonic()
    result = {"reps": [], "attempted": 0, "failed": 0, "problems": []}
    digests = {}
    plan, required = schedule(trace, instances)
    rep_start = start
    for n, (i, traced) in enumerate(plan):
        now = time.monotonic()
        if n >= required and (now - start) + (now - rep_start) > seconds:
            break
        rep_start = now
        trace_path = None
        if traced:
            (BUILD / "traces").mkdir(exist_ok=True)
            trace_path = BUILD / "traces" / f"{workload}-seed{seed}-i{i}.json"
        left = start + RUN_DEADLINE_S - time.monotonic()
        rep, err = run_rep(workload, seed, i, scale, trace_path, left)
        result["attempted"] += 1
        if err is not None:
            result["failed"] += 1
            result["problems"].append(f"instance {i}: {err}")
            break
        rep["traced"] = traced
        bad = check_rep(rep, digests.setdefault(i, rep["sim_digest"]),
                        trace_path)
        if bad:
            result["failed"] += 1
            result["problems"] += [f"instance {i}: {b}" for b in bad]
        result["reps"].append(rep)
    return result


def trimmed_mean(values):
    """Mean after dropping the lowest and the highest fifth."""
    values = sorted(values)
    k = len(values) // 5
    return statistics.fmean(values[k:len(values) - k])


def aggregate(reps):
    """Median over each instance's reps, then the trimmed mean over
    instances, so one pathological instance does not swing a run."""
    by_instance = {}
    for r in reps:
        by_instance.setdefault(r["instance"], []).append(r["metrics"])
    per_instance = []
    for ms in by_instance.values():
        per_instance.append({name: statistics.median(m[name]["value"]
                                                     for m in ms)
                             for name in ms[0]})
    units = {name: v["unit"] for name, v in reps[0]["metrics"].items()}
    return {name: {"value": trimmed_mean(p[name] for p in per_instance),
                   "unit": unit} for name, unit in units.items()}


def select(result, spec, trace):
    """The metrics a run reports, checked against BENCHMARK.json."""
    plain = [r for r in result["reps"] if not r["traced"]]
    traced = [r for r in result["reps"] if r["traced"]]
    source = traced if trace else plain
    if not source:
        return {}
    measured = aggregate(source)
    if trace and plain:
        untraced_wall = aggregate(plain)["wall_s"]["value"]
        measured["obs.trace_overhead_frac"] = {
            "value": measured["wall_s"]["value"] / untraced_wall - 1.0,
            "unit": "ratio"}
    out = {}
    for d in spec["per_layer"] if trace else spec["end_to_end"]:
        got = measured.get(d["name"])
        if got is None:
            result["problems"].append(f"metric {d['name']} not measured")
        elif got["unit"] != d["unit"]:
            result["problems"].append(
                f"metric {d['name']} measured in {got['unit']}, "
                f"declared {d['unit']}")
        else:
            out[d["name"]] = got
    declared = {d["name"] for d in spec["end_to_end"] + spec["per_layer"]}
    extra = sorted(set(measured) - declared)
    if extra:
        result["problems"].append(f"undeclared metrics: {', '.join(extra)}")
    return out


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def reference_loop_s():
    """Host time of a fixed pure-Python loop.  Other tenants of a shared
    host slow every process alike without raising the load average; this
    number moves with them, so a slowed run can be told from a slow change."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i
    return time.perf_counter() - start


def context(seed, load1, reference_s, reps):
    first = reps[0] if reps else {}
    return {"host": socket.gethostname(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "compiler": first.get("compiler"),
            "build_type": first.get("build_type"),
            "git_revision": git_revision(), "seed": seed,
            "loadavg_1m_at_start": load1, "reference_loop_s": reference_s}


def report(workload, result, metrics):
    for name, v in metrics.items():
        print(f"{workload:13s} {name:34s} {v['value']:>16.6g} {v['unit']}")
    for key, what in (("first_violation", "first audit violation"),
                      ("first_discard", "first discarded world")):
        found = [r[key] for r in result["reps"] if r[key]]
        if found:
            print(f"{workload:13s} {what}: {found[0]}")
    for p in result["problems"]:
        print(f"{workload:13s} CHECK FAILED: {p}", file=sys.stderr)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="how long an untraced run measures")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--smoke", action="store_true",
                    help="every workload, both modes, at 1/50 size")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    load1 = os.getloadavg()[0]
    build()
    reference_s = reference_loop_s()

    if args.smoke:
        runs = [(w, t) for w in names for t in (0, 1)]
        seconds, scale, instances = 0.0, SMOKE_SCALE, SMOKE_INSTANCES
    else:
        runs = [(w, args.trace) for w in ([args.workload] if args.workload
                                          else names)]
        seconds, scale, instances = args.seconds, 1.0, INSTANCES

    correct, attempted, failed, metrics, all_reps = True, 0, 0, {}, []
    for workload, trace in runs:
        result = measure(workload, args.seed, seconds, trace, scale, instances)
        selected = select(result, spec, trace)
        report(workload, result, selected)
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and not result["problems"] and bool(selected)
        all_reps += result["reps"]
        if len(runs) == 1:
            metrics = selected
        else:
            for name, v in selected.items():
                metrics[f"{workload}.{name}"] = v
    print(json.dumps({"context": context(args.seed, load1, reference_s,
                                         all_reps)}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
