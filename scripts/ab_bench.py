#!/usr/bin/env python3
"""In-process A/B timing of two library versions on perfbench workloads.

    python3 scripts/ab_bench.py [--base REV] [--rounds N] [--build-dir DIR]

Side A is the library (src/) and perfbench/workloads.cpp of git revision
REV (default HEAD~1), taken with `git archive`; side B is the working
tree's. Both are compiled optimized (-O3 -DNDEBUG, as perfbench builds)
into one binary, with their namespaces renamed by the preprocessor
(-Dvcpusim=vcpusim_a / vcpusim_b, likewise perfbench), so the two copies
link side by side. The binary runs every point of the paper_grid and
trace_jsonl workloads (seed 1) on A and on B, alternating which side goes
first, for N rounds, and prints for each workload:

  * the sum over points of each side's fastest run, and B/A of the sums,
  * the median and range of the per-round B/A ratios,
  * B/A of the set-up time of all the workload's systems (build, lint,
    compile: what perfbench's setup_s counts), of minima and of medians,
  * whether both sides produced identical results and equal trace byte
    counts. Only the counts are compared: perfbench's trace sink counts
    bytes and keeps none, so byte identity is checked elsewhere (the
    golden traces, `cmp` of `vcpusim trace` output).

Two processes timed minutes apart on a shared machine can differ by more
than the change being measured; two copies timed point by point in one
process see the same machine state. This is a sizing aid, not a gate:
the exit status is 1 only when the sides' results differ.

Objects are cached under DIR (default .ab_build); a rebuild recompiles
only sources whose dependencies changed, at most four at a time.
"""

import argparse
import concurrent.futures
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "scripts" / "ab_bench"
FLAGS = ["-std=c++20", "-O3", "-DNDEBUG", "-pthread"]
COMPILE_JOBS = min(4, os.cpu_count() or 1)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract_base(rev, dest, objects):
    """Unpack src/ and perfbench/ of `rev` into dest (cached by tree id).

    A new tree also drops side A's objects: the archive stamps files with
    the commit time, which can be older than objects of another tree."""
    tree = git("rev-parse", f"{rev}^{{tree}}")
    stamp = dest / "TREE"
    if stamp.exists() and stamp.read_text() == tree:
        return
    for stale_dir in (dest, objects):
        if stale_dir.exists():
            shutil.rmtree(stale_dir)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src",
                              "perfbench"], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)
    stamp.write_text(tree)


def sources(tree):
    """Library sources (the CLI excluded) plus perfbench's workload runner."""
    files = [p for p in sorted((tree / "src").rglob("*.cpp"))
             if "cli" not in p.relative_to(tree / "src").parts]
    return files + [tree / "perfbench" / "workloads.cpp"]


def stale(obj, dep):
    """True when obj is missing or older than a dependency make listed."""
    if not obj.exists() or not dep.exists():
        return True
    text = dep.read_text().replace("\\\n", " ")
    _, _, deps = text.partition(":")
    mtime = obj.stat().st_mtime
    for name in deps.split():
        path = Path(name)
        if not path.exists() or path.stat().st_mtime > mtime:
            return True
    return False


def compile_side(side, tree, out, pool):
    """Compile one side's objects; returns their paths."""
    defines = [f"-Dvcpusim=vcpusim_{side}", f"-Dperfbench=perfbench_{side}",
               f"-DAB_SIDE=ab_{side}"]
    includes = [f"-I{tree / 'src'}", f"-I{tree / 'perfbench'}", f"-I{HARNESS}"]
    jobs = []
    for src in sources(tree) + [HARNESS / "side.cpp"]:
        rel = (src.relative_to(tree) if src.is_relative_to(tree)
               else Path("harness") / src.name)
        obj = out / side / rel.with_suffix(".o")
        dep = obj.with_suffix(".d")
        if not stale(obj, dep):
            jobs.append((obj, None))
            continue
        obj.parent.mkdir(parents=True, exist_ok=True)
        cmd = ["g++", *FLAGS, *defines, *includes, "-MMD", "-MF", str(dep),
               "-c", str(src), "-o", str(obj)]
        jobs.append((obj, pool.submit(subprocess.run, cmd, check=True)))
    for _, future in jobs:
        if future is not None:
            future.result()
    return [obj for obj, _ in jobs]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", default="HEAD~1",
                        help="git revision of side A (default HEAD~1)")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--build-dir", type=Path, default=ROOT / ".ab_build")
    args = parser.parse_args()

    out = args.build_dir.resolve()
    base = out / "base"
    extract_base(args.base, base, out / "a")
    print(f"A = {args.base} ({git('rev-parse', '--short', args.base)}), "
          f"B = working tree", flush=True)
    with concurrent.futures.ThreadPoolExecutor(COMPILE_JOBS) as pool:
        objects = compile_side("a", base, out, pool)
        objects += compile_side("b", ROOT, out, pool)
        driver = out / "main.o"
        subprocess.run(["g++", *FLAGS, f"-I{HARNESS}", "-c",
                        str(HARNESS / "main.cpp"), "-o", str(driver)],
                       check=True)
    binary = out / "ab_bench"
    subprocess.run(["g++", *FLAGS, str(driver), *map(str, objects), "-o",
                    str(binary)], check=True)
    done = subprocess.run([str(binary), "--rounds", str(args.rounds)])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
