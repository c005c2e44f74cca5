#!/usr/bin/env python3
"""Diff a CI artifact against the previous run's copy.

Usage:
    artifact_delta.py bench [--fail-threshold PCT] PREVIOUS CURRENT
    artifact_delta.py stability PREVIOUS CURRENT
    artifact_delta.py classify PREVIOUS CURRENT

PREVIOUS is a directory (searched recursively for the artifact's file
pattern) or a single file; a missing PREVIOUS is fine (first run). CURRENT
is the file this run produced. Each subcommand writes a GitHub-flavoured
markdown table to stdout (pipe it into ``$GITHUB_STEP_SUMMARY``) and
workflow annotations to stderr.

``bench`` diffs the vendored criterion's JSON lines
(``{"name": ..., "median_ns": ...}`` in ``BENCH_*.json``). A median that
regressed by more than REGRESSION_PCT is an advisory ``::warning``. With
``--fail-threshold PCT``, benchmarks on the gated allowlist
(GATED_PREFIXES, the engine hot paths whose seconds-long medians are
stable even on shared runners) escalate to ``::error`` and a nonzero exit
when they regress past PCT. A malformed line is a hard error, so a
corrupt artifact never masquerades as "no benchmarks ran".

``stability`` diffs the saturation point of every curve in a
``stability_sweep`` report (``stability*.json``). ``classify`` diffs the
equivalence-class partition of a ``classify_sweep`` report
(``classification*.json``) and rolls the verdicts up per family. Both are
warn-only: a moved knee or a changed partition may be an intentional grid
change rather than a regression, so they always exit 0.
"""

import argparse
import json
import math
import pathlib
import sys

REGRESSION_PCT = 25.0

# Benchmarks (by group-name prefix) that hard-fail under --fail-threshold:
# the simulation-engine hot paths this repository's perf work targets.
# Micro-benches over sub-microsecond kernels stay advisory; their medians
# jitter far more than any real regression on shared runners.
GATED_PREFIXES = ("lane_engine_", "simulator_")


class MalformedInput(Exception):
    """A benchmark-median file held a line the parser cannot use."""


def artifact_files(path: pathlib.Path, pattern: str) -> list:
    """The file itself, or every file matching pattern under a directory."""
    return sorted(path.rglob(pattern)) if path.is_dir() else [path]


def load_first(path: pathlib.Path, pattern: str, parse) -> dict:
    """parse() of the first readable, well-formed report; {} if none."""
    for f in artifact_files(path, pattern):
        try:
            return parse(json.loads(f.read_text()))
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            continue
    return {}


def annotate(level: str, title: str, message: str) -> None:
    print(f"::{level} title={title}::{message}", file=sys.stderr)


def render(title: str, what: str, previous: dict, current: dict, show, change) -> None:
    """Markdown diff of two keyed artifacts.

    show(value) renders one side; change(key, prev, cur) renders the change
    column for a key present on both sides.
    """
    print(f"## {title}\n")
    if not current:
        print(f"_No {what} was produced by this run._")
        return
    if not previous:
        print(f"_No previous-run artifact available; showing current {what} only._\n")
        print(f"| {what} | current |")
        print("|---|---:|")
        for key in sorted(current):
            print(f"| `{key}` | {show(current[key])} |")
        return
    print(f"| {what} | previous | current | change |")
    print("|---|---:|---:|---|")
    for key in sorted(set(current) | set(previous)):
        if key not in previous:
            print(f"| `{key}` | — | {show(current[key])} | new |")
        elif key not in current:
            print(f"| `{key}` | {show(previous[key])} | — | removed |")
        else:
            prev, cur = previous[key], current[key]
            print(f"| `{key}` | {show(prev)} | {show(cur)} | {change(key, prev, cur)} |")


# --- bench ----------------------------------------------------------------


def load_medians(path: pathlib.Path) -> dict:
    """name -> median_ns from one file or every BENCH_*.json under a dir.

    Raises MalformedInput on the first unparsable or key-incomplete line.
    """
    medians = {}
    for f in artifact_files(path, "BENCH_*.json"):
        try:
            lines = f.read_text().splitlines()
        except OSError:
            continue
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                name = row["name"]
                median = float(row["median_ns"])
            except (ValueError, KeyError, TypeError) as exc:
                raise MalformedInput(f"{f}:{lineno}: {exc}: {line[:120]!r}") from exc
            # Non-finite or non-positive medians cannot participate in a
            # delta; drop them so no division below can blow up.
            if median > 0.0 and math.isfinite(median):
                medians[name] = median
    return medians


def fmt_ns(ns: float) -> str:
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("µs", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.2f} {unit}"
    return f"{ns:.0f} ns"


def bench(args) -> int:
    try:
        previous = load_medians(args.previous)
        current = load_medians(args.current)
    except MalformedInput as exc:
        print(f"error: malformed benchmark medians: {exc}", file=sys.stderr)
        return 1
    failures = []

    def change(name, prev, cur):
        delta = (cur - prev) / prev * 100.0
        gated = args.fail_threshold is not None and name.startswith(GATED_PREFIXES)
        if gated and delta > args.fail_threshold:
            failures.append(name)
            annotate("error", "Bench regression",
                     f"{name} median regressed {delta:+.1f}% vs. the previous run "
                     f"(gated fail threshold {args.fail_threshold:.0f}%)")
            return f"{delta:+.1f}% ❌"
        if delta > REGRESSION_PCT:
            annotate("warning", "Bench regression",
                     f"{name} median regressed {delta:+.1f}% vs. the previous run "
                     f"(threshold {REGRESSION_PCT:.0f}%)")
            return f"{delta:+.1f}% ⚠️"
        return f"{delta:+.1f}%"

    render("Bench medians vs. previous run", "benchmark", previous, current, fmt_ns, change)
    return 1 if failures else 0


# --- stability ------------------------------------------------------------


def saturation_points(report: dict) -> dict:
    """curve key -> saturation load (None = never saturated)."""
    return {
        f"{c['network']}/n={c['stages']} {c['traffic']} {c['buffers']}": c["saturation_load"]
        for c in report["curves"]
    }


def show_load(load) -> str:
    return "never" if load is None else f"{load:.2f}"


def stability(args) -> int:
    previous = load_first(args.previous, "stability*.json", saturation_points)
    current = load_first(args.current, "stability*.json", saturation_points)

    def change(key, prev, cur):
        if prev == cur:
            return "unchanged"
        annotate("warning", "Saturation change",
                 f"`{key}` saturation moved {show_load(prev)} -> {show_load(cur)}")
        return "moved"

    render("Saturation points vs. previous run", "curve", previous, current, show_load, change)
    return 0


# --- classify -------------------------------------------------------------


def partition(report: dict) -> dict:
    """class key -> sorted member names."""
    subjects = report["subjects"]
    return {
        cls["key"]: sorted(
            f"{subjects[i]['family']}/n={subjects[i]['stages']}#{subjects[i]['replication']}"
            for i in cls["members"]
        )
        for cls in report["classes"]
    }


def verdicts(report: dict) -> dict:
    """family -> (equivalent subjects, subjects)."""
    families = {}
    for s in report["subjects"]:
        eq, total = families.get(s["family"], (0, 0))
        families[s["family"]] = (eq + bool(s["equivalent"]), total + 1)
    return families


def classify(args) -> int:
    previous = load_first(args.previous, "classification*.json", partition)
    current = load_first(args.current, "classification*.json", partition)

    def change(key, prev, cur):
        if prev == cur:
            return "unchanged"
        joined = sorted(set(cur) - set(prev))
        left = sorted(set(prev) - set(cur))
        annotate("warning", "Partition change",
                 f"membership of `{key}` changed (+{len(joined)}/-{len(left)})")
        detail = [f"{label}: " + ", ".join(f"`{m}`" for m in members)
                  for label, members in (("joined", joined), ("left", left)) if members]
        return "; ".join(detail)

    render("Equivalence-class partition vs. previous run", "class",
           previous, current, len, change)
    # With Benes, its variant and rewritten catalog members in the grid the
    # raw partition mixes verdicts, so a per-family rollup follows.
    families = load_first(args.current, "classification*.json", verdicts)
    if families:
        print("\n### Verdicts by family\n")
        print("| family | equivalent | subjects | verdict |")
        print("|---|---:|---:|---|")
        for family, (eq, total) in sorted(families.items()):
            verdict = ("all Baseline-equivalent" if eq == total
                       else "none Baseline-equivalent" if eq == 0 else "mixed")
            print(f"| `{family}` | {eq} | {total} | {verdict} |")
    if previous and current:
        for key in sorted(set(current) - set(previous)):
            annotate("warning", "Partition change", f"new equivalence class `{key}`")
        for key in sorted(set(previous) - set(current)):
            annotate("warning", "Partition change", f"equivalence class `{key}` disappeared")
    return 0


def positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    kinds = parser.add_subparsers(dest="kind", required=True)
    for name, run in (("bench", bench), ("stability", stability), ("classify", classify)):
        sub = kinds.add_parser(name)
        if name == "bench":
            sub.add_argument("--fail-threshold", type=positive, metavar="PCT")
        sub.add_argument("previous", type=pathlib.Path)
        sub.add_argument("current", type=pathlib.Path)
        sub.set_defaults(run=run)
    args = parser.parse_args()
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
