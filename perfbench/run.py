#!/usr/bin/env python3
"""The vcpusim benchmark: build, run one workload, check it, report it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-digests 1,2,3

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the library plus the runner, optimized) into
.bench_build/perfbench; later calls only rebuild what changed. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
RUN_TIMEOUT_S = 170
# Every workload the runner knows; BENCHMARK.json gates paper_grid and
# trace_jsonl only (see README.md).
WORKLOADS = ["paper_grid", "scale_256", "crn_parallel", "trace_jsonl"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build():
    """Configure once, then build the runner; returns the binary path."""
    out = build_dir()
    log = sys.stderr
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=log, stderr=log)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "vcpusim_perfbench", "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return out / "vcpusim_perfbench"


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                               "--dirty", "--tags"], env=env, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(binary, workload, seed, seconds, trace, toy=False):
    """Run vcpusim_perfbench once and return its parsed last line."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if toy:
        cmd.append("--toy")
    if trace:
        cmd += ["--spans", str(build_dir() / f"spans-{workload}-{seed}.jsonl")]
    done = subprocess.run(cmd, text=True, capture_output=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: runner exited {done.returncode}")
    return json.loads(lines[-1])


def load_digests():
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def result_line(raw, trace):
    """The benchmark's result: digest check, success rate, metric subset."""
    failed = raw["failed"]
    problems = list(raw["problems"])
    recorded = load_digests().get(raw["workload"], {}).get(str(raw["seed"]))
    if recorded is not None and not raw["toy"] and raw["digest"] != recorded:
        problems.append(f"digest {raw['digest']} != recorded {recorded}")
        failed += 1
    attempted = max(raw["attempted"], failed, 1)
    metrics = dict(raw["metrics"])
    if not trace:
        metrics["success_rate"] = {"value": 1.0 - failed / attempted,
                                   "unit": "ratio"}
    return problems, {"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}


def benchmark(args):
    binary = build()
    raw = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    problems, result = result_line(raw, args.trace)
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>22.10g} {m['unit']}")
    for p in problems:
        print(f"problem: {p}")
    provenance = dict(raw["provenance"], workload=args.workload,
                      seed=args.seed, trace=args.trace,
                      git_describe=git_describe(), digest=raw["digest"])
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


def self_check(_args):
    """Every workload at toy size, both modes; names and units must be
    exactly BENCHMARK.json's."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            raw = run_once(binary, workload, 1, 0, trace, toy=True)
            problems, result = result_line(raw, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"metrics differ: missing "
                                f"{sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}, units "
                                f"{[k for k in want if k in got and want[k] != got[k]]}")
            if not all(math.isfinite(v["value"])
                       for v in result["metrics"].values()):
                problems.append("a metric is not a finite number")
            ok = ok and result["correct"] and not problems
            status = "ok" if result["correct"] and not problems else "FAIL"
            print(f"{status:4s} {workload} trace={trace} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for p in problems:
                print(f"     {p}")
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def record_digests(args):
    """Store the untraced result digest of every workload for each seed."""
    binary = build()
    digests = load_digests()
    for seed in [int(s) for s in args.record_digests.split(",")]:
        for workload in WORKLOADS:
            raw = run_once(binary, workload, seed, 0, 0)
            if raw["failed"] or raw["problems"]:
                print(f"{workload} seed {seed}: not recorded: {raw['problems']}")
                return 1
            digests.setdefault(workload, {})[str(seed)] = raw["digest"]
            print(f"{workload} seed {seed}: {raw['digest']}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-digests", metavar="SEEDS")
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check(args)
        if args.record_digests:
            return record_digests(args)
        if not args.workload:
            parser.error("--workload is required")
        return benchmark(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
