#!/usr/bin/env python3
"""Reachability gate: every library function is reached from a user
surface or is named in docs/TESTING.md.

Drives the user surfaces of a coverage build (every vcpusim verb, the
examples and the bench/ binaries; no gtest binary), then runs gcov over
every .gcno of the library, bench and example units, so translation
units no surface links still show up. Functions defined under src/
with zero hits are merged per source function (template instantiations
and constructor/destructor variants fold together, and a lambda or
local class counts toward its enclosing function) and printed.

The gate fails if a zero-hit function is missing from the "Reached only
by tests" table of docs/TESTING.md, or if a table entry is stale (the
function is now reached, or gone). A '*' in a table entry matches any
text, so one row can name every member of a class.

Usage:
    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DVCPUSIM_COVERAGE=ON
    cmake --build build-cov -j
    python3 scripts/reachability.py build-cov

The script deletes the build's .gcda counters before it drives the
surfaces, so run it before ctest when both share one tree.
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys
import tempfile

from coverage_gate import repo_relative, run_gcov

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TESTING_MD = REPO_ROOT / "docs" / "TESTING.md"
SECTION = "## Reached only by tests"
REASONS = (
    "test oracle",
    "error path on bad input",
    "supported input that no shipped surface exercises",
    "used by perfbench",
    "kept by decision",
)

EXAMPLES = ("quickstart", "custom_scheduler", "consolidation_study",
            "paired_comparison", "san_petri", "timeline_demo")
FIGURES = ("fig8_availability", "fig9_pcpu_utilization",
           "fig10_vcpu_utilization", "table1_vm_join_places",
           "table2_system_join_places", "ablation_timeslice",
           "ablation_skew_threshold", "ablation_workload_dist",
           "ablation_extended_schedulers", "ablation_sync_mode",
           "ablation_xen_schedulers", "ablation_spinlock")


def surfaces(build: pathlib.Path, out: pathlib.Path) -> list[list[str]]:
    """The user-surface commands, run from the repo root. Each must exit
    0. Runs are kept small: reachability needs a hit, not a result."""
    cli = str(build / "src/cli/vcpusim")
    scn = "examples/scenarios/cloud.scn"
    small = ["--pcpus", "2", "--vm", "2", "--vm", "1", "--end-time", "200",
             "--warmup", "20", "--max-replications", "3",
             "--half-width", "0.2"]
    metrics = ["--metric", "availability", "--metric", "availability[1]",
               "--metric", "vcpu_utilization",
               "--metric", "vcpu_utilization[0]",
               "--metric", "busy_fraction", "--metric", "busy_fraction[1]",
               "--metric", "pcpu_utilization",
               "--metric", "blocked_fraction[0]", "--metric", "throughput",
               "--metric", "spin_fraction",
               "--metric", "effective_utilization"]
    commands = [
        [cli, "--help"],
        [cli, "run", *small],
        [cli, *small, "--compare", *metrics],
        [cli, *small, "--algorithm", "dvfs-cc", "--dvfs", "--profile",
         "--jobs", "2", "--controller", "adaptive",
         "--metrics-out", str(out / "metrics.json")],
        [cli, *small, "--verify-footprints", "--csv",
         "--controller", "antithetic"],
        [cli, "--scenario", scn, "--end-time", "300", "--warmup", "30",
         "--max-replications", "3"],
        [cli, "--scenario", scn, "--end-time", "300", "--warmup", "30",
         "--max-replications", "3", "--compare", "--csv"],
        [cli, "compare", *small, "--algorithms", "rrs,scs,rcs",
         "--baseline", "rcs"],
        [cli, "compare", scn, "--end-time", "300", "--warmup", "30",
         "--min-replications", "3", "--max-replications", "3", "--json"],
        [cli, "trace", *small, "--out", str(out / "trace.jsonl")],
        [cli, "trace", *small, "--jobs", "2", "--sink", "chrome",
         "--out", str(out / "trace.chrome.json")],
        [cli, "trace", *small, "--categories", "fire,sched",
         "--out", str(out / "trace-filtered.jsonl")],
        [cli, "algorithms"],
        [cli, "algorithms", "--json"],
        [cli, "--list-algorithms"],
        [cli, "lint", "--prove"],
        [cli, "lint", "--all-algorithms", "--strict", "--json"],
        [cli, "lint", scn, "--prove", "--json"],
        [cli, "lint", "--list-checks"],
        [cli, "lint", "--list-checks", "--json"],
    ]
    commands += [[str(build / "examples" / name)] for name in EXAMPLES]
    commands += [[str(build / "bench" / name)] for name in FIGURES]
    commands += [
        [str(build / "bench/ablation_dvfs"), str(out / "dvfs.json")],
        [str(build / "bench/perf_kernel"), "--benchmark_min_time=0.001"],
        [str(build / "bench/perf_variance"), "--benchmark_min_time=0.001"],
    ]
    return commands


def drive(build: pathlib.Path) -> None:
    for gcda in build.rglob("*.gcda"):
        gcda.unlink()
    env = dict(os.environ, VCPUSIM_QUALITY="fast")
    env.pop("VCPUSIM_JOBS", None)
    with tempfile.TemporaryDirectory() as out:
        for command in surfaces(build, pathlib.Path(out)):
            if not pathlib.Path(command[0]).exists():
                sys.exit(f"missing {command[0]} — configure the coverage "
                         "build with bench and examples on")
            run = subprocess.run(command, cwd=REPO_ROOT, env=env,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True)
            if run.returncode != 0:
                sys.exit(f"surface failed (exit {run.returncode}): "
                         f"{' '.join(command)}\n{run.stderr[-2000:]}")


def strip_templates(name: str) -> str:
    """Drop every <...> argument list (operator< and friends kept)."""
    out = []
    depth = 0
    i = 0
    while i < len(name):
        c = name[i]
        if depth == 0 and "".join(out).endswith("operator") and c in "<>":
            while i < len(name) and name[i] in "<>=":
                out.append(name[i])
                i += 1
            continue
        if c == "<":
            depth += 1
        elif c == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    return "".join(out)


def params_span(name: str) -> tuple[int, int]:
    """(open paren, index past the close paren) of the outermost
    function's parameter list, or (-1, -1)."""
    start = 0
    while True:
        open_at = name.find("(", start)
        if open_at < 0:
            return -1, -1
        if name.endswith("operator", 0, open_at) and \
                name.startswith("()", open_at):
            start = open_at + 2
            continue
        depth = 0
        for j in range(open_at, len(name)):
            if name[j] == "(":
                depth += 1
            elif name[j] == ")":
                depth -= 1
                if depth == 0:
                    return open_at, j + 1
        return -1, -1


def source_function(demangled: str) -> str | None:
    """The source-level function a gcov entry belongs to: templates
    stripped, a lambda or local-class member folded into its enclosing
    function, return type dropped. None for compiler-made entries."""
    name = strip_templates(demangled.replace("[abi:cxx11]", "")
                           .replace("(anonymous namespace)", "{anon}"))
    open_at, end = params_span(name)
    if open_at < 0:
        return None
    qualifiers = re.match(r"(?: const| volatile| &&| &| noexcept)*",
                          name[end:])
    end += qualifiers.end()
    if name.startswith("::", end):  # lambda or local class: fold
        name = name[:end]
    # Drop the return type template functions demangle with.
    head = name[:open_at]
    op = head.find("operator")
    name = name[head.rfind(" ", 0, op if op >= 0 else len(head)) + 1:]
    name = name.replace("std::__cxx11::basic_string", "std::string")
    name = name.replace("vcpusim::", "")
    if name.startswith(("_GLOBAL__", "__static_initialization")):
        return None
    return name


def zero_hit(reports: list[dict]) -> dict[tuple[str, str], int]:
    """(file, function) -> first line, for src/ functions no surface ran."""
    hits: dict[tuple[str, str], int] = {}
    lines: dict[tuple[str, str], int] = {}
    for report in reports:
        for entry in report.get("files", []):
            rel = repo_relative(entry["file"], REPO_ROOT)
            if rel is None or not rel.startswith("src/"):
                continue
            for fn in entry.get("functions", []):
                name = source_function(fn["demangled_name"])
                if name is None:
                    continue
                key = (rel, name)
                hits[key] = hits.get(key, 0) + fn["execution_count"]
                lines[key] = min(lines.get(key, fn["start_line"]),
                                 fn["start_line"])
    return {key: lines[key] for key, count in hits.items() if count == 0}


def listed_entries() -> tuple[dict[tuple[str, str], str], list[str]]:
    """The docs/TESTING.md table: (file, function) -> reason, plus
    malformed-row complaints. A '*' in either column matches any text
    (e.g. `vm::InvariantChecker::*` names every member)."""
    text = TESTING_MD.read_text(encoding="utf-8")
    if SECTION not in text:
        return {}, [f"{TESTING_MD}: no '{SECTION}' section"]
    body = text.split(SECTION, 1)[1].split("\n## ", 1)[0]
    entries: dict[tuple[str, str], str] = {}
    problems = []
    row = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*`([^`]+)`\s*\|\s*(.*?)\s*\|$")
    for line in body.splitlines():
        match = row.match(line.strip())
        if match is None:
            continue
        file, function, reason = match.groups()
        label = reason.strip("*").split("*", 1)[0].strip()
        if label not in REASONS:
            problems.append(f"{file}: {function}: reason '{reason}' does "
                            f"not start with one of {', '.join(REASONS)}")
        entries[(file, function)] = reason
    return entries, problems


def matches(pattern: str, function: str) -> bool:
    regex = ".*".join(re.escape(part) for part in pattern.split("*"))
    return re.fullmatch(regex, function) is not None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("build_dir", type=pathlib.Path)
    args = parser.parse_args()
    build = args.build_dir.resolve()

    drive(build)
    data = sorted(p for sub in ("src", "bench", "examples")
                  for p in (build / sub).rglob("*.gcno"))
    with tempfile.TemporaryDirectory() as scratch:
        reports = run_gcov(data, pathlib.Path(scratch))
    dead = zero_hit(reports)
    entries, problems = listed_entries()

    def listed(file: str, function: str) -> bool:
        return any(matches(f, file) and matches(pattern, function)
                   for f, pattern in entries)

    print(f"{len(dead)} library functions no user surface reaches:")
    for (file, function), line in sorted(dead.items()):
        mark = "listed" if listed(file, function) else "UNLISTED"
        print(f"  {mark:8} {file}:{line}: {function}")
    for file, function in sorted(dead):
        if not listed(file, function):
            problems.append(
                f"{file}: {function}: reached by no user surface and not "
                "named in docs/TESTING.md — delete it, give it a surface, "
                "or list it with a reason")
    for file, pattern in sorted(entries):
        if not any(matches(file, f) and matches(pattern, function)
                   for f, function in dead):
            problems.append(f"{file}: {pattern}: stale docs/TESTING.md "
                            "entry (now reached, or no longer exists)")
    for problem in problems:
        print(f"FAIL {problem}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
