#!/usr/bin/env python3
"""Build and run the NASD performance benchmark.

    python3 perfbench/run.py --workload mining_scan|mixed_ops|active_scan|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository. The script
builds perfbench/ (which compiles the simulator libraries from src/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, runs one
workload, prints the workload's report, cross-checks the modelled
bandwidth against the repository's checked-in figures at seed 42, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
declares; with --trace 1 they are its per-layer metrics, and the span
trace is written to <build dir>/perfbench-trace-<workload>.json.
--workload all runs every workload in turn and ends with one combined
line whose metric names are prefixed with the workload.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["mining_scan", "mixed_ops", "active_scan"]
RUN_TIMEOUT_S = 170
# Seed of the repository's figures (bench/baselines, EXPERIMENTS.md).
FIGURE_SEED = 42
ACTIVE_DISKS_MBPS = "34.9"  # EXPERIMENTS.md, Section 6


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    steps = [["cmake", "--build", str(build_dir), "--target",
              "nasd_perfbench", "-j", "4"]]
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir, build_dir / "nasd_perfbench"


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def fig9_baseline_mbps():
    baseline = json.loads((ROOT / "bench" / "baselines" / "fig9.json")
                          .read_text())
    return baseline["metrics"]["gauges"]["fig9/nasd/8_disks_mbps"]


def cross_check(result, seed):
    """Verdicts tying the modelled bandwidth to the repository's figures."""
    mbps = result["modelled"].get("model_mbps")
    workload = result["workload"]
    if workload == "mining_scan":
        anchor = fig9_baseline_mbps()
        same = mbps == anchor
        line = (f"model_mbps {mbps!r} vs fig9/nasd/8_disks_mbps {anchor!r} "
                f"in bench/baselines/fig9.json (paper: 45 MB/s)")
    elif workload == "active_scan":
        same = f"{mbps:.1f}" == ACTIVE_DISKS_MBPS
        line = (f"model_mbps {mbps:.4f} vs bench/active_disks' "
                f"{ACTIVE_DISKS_MBPS} MB/s (paper: 45 MB/s)")
    else:
        return True, "no paper anchor: the mixed_ops model is unvalidated"
    if seed != FIGURE_SEED:
        return True, line + f" [informational: checked at seed {FIGURE_SEED}]"
    return same, line + (" [match]" if same else " [MISMATCH]")


def run_one(binary, build_dir, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(build_dir / f"perfbench-trace-{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    ok, verdict = cross_check(result, args.seed)
    result["correct"] = result["correct"] and ok
    for line in lines[:-1]:
        print(line)
    print(f"cross-check: {verdict}")
    return result


def metrics_of(result, names, trace):
    section = result["per_layer" if trace else "end_to_end"]
    missing = [n for n in names if n not in section]
    if missing:
        fail(f"{result['workload']} did not report {', '.join(missing)}")
    return {n: {"value": section[n]["value"], "unit": section[n]["unit"]}
            for n in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=FIGURE_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir, binary = build()
    e2e, per_layer = declared_metrics()
    names = per_layer if args.trace else e2e
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_one(binary, build_dir, workload, args)
        metrics = metrics_of(result, names, args.trace)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        summary["metrics"].update({prefix + n: v for n, v in metrics.items()})
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
