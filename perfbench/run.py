#!/usr/bin/env python3
"""Sum-Euler on four runtimes: the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds perfbench/bench.exe with
dune from the sources in that tree, runs the workload in its own
process and prints the result as the last line of stdout: one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  Each run also writes its samples (and,
traced, its spans and ledger) to perfbench/out/.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXE = ROOT / "_build" / "default" / "perfbench" / "bench.exe"
OUT = ROOT / "perfbench" / "out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_group(argv, timeout, **kw):
    """Run argv in its own process group; kill the whole group (the
    farm's PEs included) if it outlives timeout.  Returns (code, stdout);
    code is None on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True, text=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The parsed result, or an error message."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None, "result keys are not %s" % sorted(RESULT_KEYS)
    if result["attempted"] < 1:
        return None, "no solve attempted"
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        missing = sorted(want - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - want)
        return None, "metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra)
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return None, "metric %s has no numeric value" % name
    return result, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="checked by bench.exe")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    # The dune cache lives outside the tree; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code, _ = run_group(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            BUILD_TIMEOUT_S,
            env=env,
            stdout=sys.stderr,
        )
    except OSError as e:
        print("perfbench: cannot run dune: %s" % e, file=sys.stderr)
        return 2
    if code != 0 or not EXE.is_file():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    argv = [
        str(EXE),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(OUT),
    ]
    # A no-op rebuild counts against the run's time limit; a first full
    # build does not.
    build_s = time.monotonic() - t0
    budget = RUN_TIMEOUT_S - build_s if build_s < 60 else RUN_TIMEOUT_S
    code, out = run_group(argv, budget, stdout=subprocess.PIPE)
    if code is None:
        print("perfbench: run timed out after %.0f s" % budget, file=sys.stderr)
        return 3
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        print("perfbench: bench.exe exited with %s" % code, file=sys.stderr)
        return code or 4
    result, err = check_result(lines[-1], args.trace)
    if err:
        sys.stderr.write(out)
        print("perfbench: %s" % err, file=sys.stderr)
        return 5
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
