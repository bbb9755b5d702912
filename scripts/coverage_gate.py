#!/usr/bin/env python3
"""Line-coverage gate for the kernel, scheduler, experiment and trace layers.

Runs gcov (JSON intermediate format) over every .gcda file in a
--coverage build tree, aggregates executed/executable line counts per
first-party source file, and fails if line coverage of src/san,
src/sched, src/exp or src/trace drops below the per-layer floor.

Usage:
    python3 scripts/coverage_gate.py BUILD_DIR [--min-san PCT]
        [--min-sched PCT] [--report]

The floors default to levels measured when the gate was introduced
(post observability PR); they are tripwires against coverage erosion,
not targets. Raise them when real coverage rises.
"""

import argparse
import gzip
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

# Layers gated, with their minimum acceptable line coverage (percent).
# Measured at introduction: src/san 96.0%, src/sched 97.5% (gcc 12);
# src/exp 97.3% and src/trace 97.4% when each joined the gate (gcc 12).
# The floors leave ~2 points of slack for toolchain variation; src/exp
# and src/trace have no flag of their own, edit their floors here.
DEFAULT_FLOORS = {
    "src/san": 94.0,
    "src/sched": 95.0,
    "src/exp": 95.3,
    "src/trace": 95.4,
}


def run_gcov(data_files: list[pathlib.Path],
             scratch: pathlib.Path) -> list[dict]:
    """Invoke gcov in JSON mode on `data_files` and parse the reports.

    Pass .gcda files to read the units that ran, or .gcno files to also
    report units no binary executed (gcov counts them as never run).
    Reports are named by a hash of the object path, so units with the
    same basename (src/stats/metrics.cpp, src/vm/metrics.cpp) do not
    overwrite each other.
    """
    if not data_files:
        sys.exit("no gcov data files — build with -DVCPUSIM_COVERAGE=ON "
                 "and run it first")
    gcov = shutil.which("gcov")
    if gcov is None:
        sys.exit("gcov not found on PATH")
    subprocess.run(
        [gcov, "--json-format", "--hash-filenames", *map(str, data_files)],
        cwd=scratch,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    reports = []
    for path in scratch.glob("*.gcov.json.gz"):
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return reports


def repo_relative(file: str, repo_root: pathlib.Path) -> str | None:
    """A gcov source path relative to the repo, or None outside it."""
    source = pathlib.Path(file)
    if not source.is_absolute():
        source = repo_root / source
    try:
        return str(source.resolve().relative_to(repo_root))
    except ValueError:
        return None


def aggregate(reports: list[dict], repo_root: pathlib.Path) -> dict:
    """Per-source-file (executed, executable) line sets.

    gcov emits one report per translation unit; a header or template
    can appear in many reports, so lines are OR-ed across reports —
    a line counts as covered if any unit executed it.
    """
    files: dict[str, dict[int, bool]] = {}
    for report in reports:
        for entry in report.get("files", []):
            rel = repo_relative(entry["file"], repo_root)
            if rel is None:
                continue  # system / third-party header
            lines = files.setdefault(rel, {})
            for line in entry.get("lines", []):
                number = line["line_number"]
                lines[number] = lines.get(number, False) or line["count"] > 0
    return files


def layer_coverage(files: dict, layer: str) -> tuple[int, int]:
    executed = executable = 0
    for rel, lines in files.items():
        if not rel.startswith(layer + "/"):
            continue
        executable += len(lines)
        executed += sum(1 for covered in lines.values() if covered)
    return executed, executable


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("build_dir", type=pathlib.Path)
    parser.add_argument("--min-san", type=float,
                        default=DEFAULT_FLOORS["src/san"])
    parser.add_argument("--min-sched", type=float,
                        default=DEFAULT_FLOORS["src/sched"])
    parser.add_argument("--report", action="store_true",
                        help="also print per-file coverage of gated layers")
    args = parser.parse_args()

    repo_root = pathlib.Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as scratch:
        reports = run_gcov(sorted(args.build_dir.resolve().rglob("*.gcda")),
                           pathlib.Path(scratch))
    files = aggregate(reports, repo_root)

    floors = dict(DEFAULT_FLOORS)
    floors.update({"src/san": args.min_san, "src/sched": args.min_sched})
    failed = False
    for layer, floor in floors.items():
        executed, executable = layer_coverage(files, layer)
        if executable == 0:
            print(f"{layer}: no instrumented lines found")
            failed = True
            continue
        pct = 100.0 * executed / executable
        status = "ok" if pct >= floor else "FAIL"
        print(f"{layer}: {pct:.1f}% line coverage "
              f"({executed}/{executable} lines, floor {floor:.1f}%) {status}")
        if pct < floor:
            failed = True
        if args.report:
            for rel in sorted(files):
                if not rel.startswith(layer + "/"):
                    continue
                lines = files[rel]
                if not lines:
                    continue
                covered = sum(1 for c in lines.values() if c)
                print(f"  {rel}: {100.0 * covered / len(lines):5.1f}% "
                      f"({covered}/{len(lines)})")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
