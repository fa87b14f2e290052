#!/usr/bin/env python3
"""Runs one workload of the gridvm end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the benchmark binary
from source (`cargo build --release --offline`) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the workload in a fresh process of
its own, so that `peak_rss_mib` is that workload's own high-water mark.

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json:
`wall_s` as the mean over the run's measured passes (the host's speed
drifts in phases that span several passes, so every pass counts), and
`setup_s` as their median. With `--trace 1` it runs the workload
twice, untraced and then traced, each for half of `--seconds`,
and reports the per-layer metrics of the traced run's passes on the
artifacts' default seed, plus the tracing overhead (traced minus
untraced `wall_s`). Spans of the traced run are
written to `<target dir>/perfbench-spans/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is
non-zero, and no result is printed, when the build or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 900
DEFAULT_SEED = 20030517
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds the benchmark binary and returns its path."""
    target = target_dir()
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def run_child(binary, workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns its parsed report."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = os.path.join(target_dir(), "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-seed{seed}.tsv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    if done.returncode != 0:
        fail(f"{workload}: benchmark exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: benchmark printed nothing")
    return json.loads(lines[-1])


def spread(values):
    """(q1, median, q3) of a list of numbers."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pass_median(report, key):
    return spread([p[key] for p in report["passes"]])[1]


def pass_mean(report, key):
    return statistics.fmean(p[key] for p in report["passes"])


def totals(report):
    """Units attempted and failed, the untimed warm-up pass included."""
    passes = [report["warmup"]] + report["passes"]
    return sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes)


def end_to_end(report):
    attempted, failed = totals(report)
    return {
        "wall_s": pass_mean(report, "wall_s"),
        "setup_s": pass_median(report, "setup_s"),
        "peak_rss_mib": report["peak_rss_mib"],
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(untraced, traced):
    # Counts depend on the inputs, so they come from the passes on the
    # artifacts' default seed only; every run makes at least one.
    passes = [p for p in traced["passes"] if p["master"] == DEFAULT_SEED]
    if not passes:
        fail(f"{traced['workload']}: no traced pass on seed {DEFAULT_SEED}")
    names = sorted({k for p in passes for k in p["layer"]})
    out = {k: spread([p["layer"][k] for p in passes])[1] for k in names}
    out["trace.wall_s"] = pass_mean(traced, "wall_s")
    out["trace.untraced_wall_s"] = pass_mean(untraced, "wall_s")
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def show(report, label):
    n = len(report["passes"])
    warm = report["warmup"]["elapsed_s"]
    print(f"{report['workload']} {label}: warm-up {warm:.2f} s, then {n} measured passes")
    for key in ("wall_s", "setup_s", "elapsed_s"):
        q1, med, q3 = spread([p[key] for p in report["passes"]])
        mean = pass_mean(report, key)
        print(f"  {key:<10} mean {mean:.4f}  median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}")
    for why in report["failures"][:10]:
        print(f"  FAILED {why}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"reading BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    binary = build()
    # A traced invocation runs two children in the time of one.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_child(binary, args.workload, args.seed, seconds, False)
    show(untraced, "untraced")
    reports = [untraced]
    if args.trace:
        traced = run_child(binary, args.workload, args.seed, seconds, True)
        show(traced, "traced")
        reports.append(traced)
        values, wanted = per_layer(untraced, traced), spec["per_layer"]
    else:
        values, wanted = end_to_end(untraced), spec["end_to_end"]

    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"{args.workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<44} {values[m['name']]:.6g} {m['unit']}")

    attempted = sum(totals(r)[0] for r in reports)
    failed = sum(totals(r)[1] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
