#!/usr/bin/env python3
"""AliDrone end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the AliDrone libraries from src/) into
.bench_build/ under the checkout (or $CARGO_TARGET_DIR), runs one
workload, checks its outputs, and prints the result as the last stdout
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

The submit_open schedule (nominal rate, rate ladder, p99 latency limit) is
read from that workload's entry in BENCHMARK.json, so it cannot drift from
what the file declares. Exit code 0 only when every check passed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def submit_schedule(spec):
    """(nominal rate, ladder rates, p99 limit ms) from submit_open's why."""
    why = next((w["why"] for w in spec["workloads"] if w["name"] == "submit_open"), "")
    nominal = re.search(r"nominal (\d+)/s", why)
    ladder = re.search(r"ladder ([\d/]+)/s", why)
    limit = re.search(r"p99 limit (\d+) ms", why)
    if not (nominal and ladder and limit):
        fail("BENCHMARK.json: submit_open's why must state 'nominal R/s', "
             "'ladder R1/R2/.../s' and 'p99 limit L ms'")
    return nominal.group(1), ladder.group(1).replace("/", ","), limit.group(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then an incremental build; serialized by a lock."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir, "-G", "Unix Makefiles",
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(os.cpu_count() or 1, 4))
        steps.append(["cmake", "--build", out_dir, "-j", jobs,
                      "--target", "alidrone_perfbench"])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
                fail("build failed")
    return os.path.join(out_dir, "alidrone_perfbench")


def source_digest():
    """Content hash of the sources measured, for builds outside git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small fleet and one setup: the self-test mode")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (BENCHMARK.json has %s)" % (args.workload, names))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.relpath(out_dir, ROOT)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_dir, "trace_%s.tsv" % args.workload)]
    if args.quick:
        cmd.append("--quick")
    if args.workload == "submit_open":
        nominal, ladder, limit = submit_schedule(spec)
        cmd += ["--nominal-rate", nominal, "--ladder", ladder, "--limit-ms", limit]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload %s printed nothing (exit %d)" % (args.workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("workload %s did not end with a JSON result" % args.workload)

    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if emitted != wanted:
        sys.stderr.write(proc.stdout)
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(wanted.items()) - set(emitted.items())),
            sorted(set(emitted.items()) - set(wanted.items()))))

    for line in lines[:-1]:
        print(line)
    print("# stamp source=%s git=%s build_type=Release nproc=%d" % (
        source_digest(), git_commit(), os.cpu_count() or 0))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
