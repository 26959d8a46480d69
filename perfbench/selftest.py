#!/usr/bin/env python3
"""Self-test of the AliDrone benchmark.

    python3 perfbench/selftest.py [--workload NAME ...] [--seconds S]

For each workload, in the short --quick mode (small fleet, one setup):

  * two untraced runs with the same seed must pass every output check and
    print the same digest of their deterministic outputs;
  * the untraced run must emit every end_to_end metric of BENCHMARK.json
    with its unit and a non-zero value;
  * a traced run must emit every per_layer metric with its unit and pass
    its checks, including the per-layer accounting of the timed wall time.

run.py itself rejects a result whose metric names or units differ from
BENCHMARK.json, so a run that exits 0 has the declared metrics. Exit code
0 when every workload passes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split()[-1] for l in lines if l.startswith("# digest ")), None)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result, digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    failures = []
    for workload in workloads:
        digests = []
        for attempt in range(2):
            proc, result, digest = run(workload, 7, args.seconds, 0)
            if proc.returncode != 0 or not result or not result["correct"]:
                failures.append("%s: untraced run %d failed (exit %d)\n%s%s" % (
                    workload, attempt, proc.returncode, proc.stdout[-2000:],
                    proc.stderr[-2000:]))
                break
            zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
            if zero:
                failures.append("%s: end-to-end metrics read 0: %s" % (workload, zero))
            digests.append(digest)
        if len(digests) == 2 and (digests[0] is None or digests[0] != digests[1]):
            failures.append("%s: same seed, different digests %s" % (workload, digests))

        proc, result, _ = run(workload, 7, args.seconds, 1)
        if proc.returncode != 0 or not result or not result["correct"]:
            failures.append("%s: traced run failed (exit %d)\n%s%s" % (
                workload, proc.returncode, proc.stdout[-2000:], proc.stderr[-2000:]))
        print("%-14s %s" % (workload, "ok" if not any(
            f.startswith(workload + ":") for f in failures) else "FAILED"), flush=True)

    for f in failures:
        print(f, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
