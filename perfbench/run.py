#!/usr/bin/env python3
"""Build the benchmark harness and `advocatd` from source, run one workload,
and check its result line.

Run from the repository root:

    python3 perfbench/run.py --workload prove-free --seed 1 --seconds 30 --trace 0

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build`).  The harness
prints every metric by name and unit; the last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones.  A wrong verdict makes the run exit non-zero.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("prove-free", "find-deadlock", "compose-8x8", "service-http")
# The harness must finish well inside the 180 s a run may take.
HARNESS_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, bench, env):
    common = ["cargo", "build", "--release", "--offline", "--quiet"]
    steps = [
        common + ["--manifest-path", str(root / "Cargo.toml"),
                  "-p", "advocat-frontend", "--bin", "advocatd"],
        common + ["--manifest-path", str(bench / "Cargo.toml")],
    ]
    for step in steps:
        if subprocess.run(step, env=env, cwd=root, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(step)}")


def run_harness(command, root):
    """Runs the harness in its own process group, so a timeout also stops
    the `advocatd` it may have started."""
    process = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s", 1)
    return process.returncode, stdout


def expected_metrics(root, trace):
    spec = root / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    bench = Path(__file__).resolve().parent
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "frontend").is_dir():
        fail("run from the repository root: Cargo.toml and crates/ are missing")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build(root, bench, dict(os.environ, CARGO_TARGET_DIR=str(target)))

    code, stdout = run_harness([
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--advocatd", str(target / "release" / "advocatd"),
        "--state-dir", str(root / ".perfbench_state"),
    ], root)
    lines = stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"harness exited with code {code} without a result line", 1)
    if code != 0 or not result["correct"]:
        print(lines[-1])
        fail(f"exit code {code}: {result['failed']} of {result['attempted']} answers failed", 1)

    expected = expected_metrics(root, args.trace)
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and reported != expected:
        fail(f"metrics differ from BENCHMARK.json: reported {reported}, expected {expected}", 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
