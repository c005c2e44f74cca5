#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <stability|saturation|classify|serve> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark binary and the example binaries it times (`stability_sweep`,
`saturation_curve`, `classify_sweep`) are built from source in release mode
(into `$CARGO_TARGET_DIR`, default `.bench_build`) with the repository's own
cargo configuration; then the benchmark runs with the same arguments. Its
last line of standard output is the result: one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A traced run (`--trace 1`) also writes
its spans to `<target>/perfbench/spans-<workload>-<seed>.jsonl`.

The exit code is the benchmark's: 0 when every output matched its oracle,
nonzero on a mismatch, a failed build or a bad argument.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ("stability", "saturation", "classify", "serve")
EXAMPLES = ("stability_sweep", "saturation_curve", "classify_sweep")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    examples = [arg for name in EXAMPLES for arg in ("--example", name)]
    for build in (
        ["--manifest-path", str(MANIFEST)],
        ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "baseline-equivalence", *examples],
    ):
        # The build output goes to stderr so that the result stays the last
        # line of standard output.
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *build],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return done.returncode or 1

    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--build-dir", str(target),
    ]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
