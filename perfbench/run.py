#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, every verdict checked.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test      # build, then run the generator tests

Run from the root of a checkout.  It builds selin, selin_check,
selin_ingestd and the perfbench program from the checkout's sources in
Release, in a build tree of its own ($CARGO_TARGET_DIR or .bench_build,
then perfbench/), so compile time is never part of a measurement.  Then it
runs perfbench for one workload, prints every metric it measured, one
`env` line of environment tags, and as the last line one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  Workloads, metrics and the layers each one
stresses are described in perfbench/NOTES.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # a run must end within 180 s; the build is not counted


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the Release tree; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                with open(log) as r:
                    sys.stderr.write(r.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 1)
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            fail("the build tree is not a Release build; refusing to measure")
    return out


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not be
    a git repository, so this identifies the code under test)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--test", action="store_true",
                    help="build and run the generator tests instead")
    args = ap.parse_args()

    for need in ("src/selin/selin.hpp", "tools/selin_check.cpp",
                 "tools/selin_ingestd.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a selin checkout (missing %s)" % need)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    out = build()
    if args.test:
        sys.exit(subprocess.run(["ctest", "--output-on-failure"], cwd=out).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(names)))

    work = os.path.relpath(os.path.join(build_dir(), "work"), ROOT)
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    trace_out = os.path.join(work, "spans-%s.jsonl" % args.workload)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--bin-dir", out, "--work-dir", work,
           "--trace-out", trace_out]
    started = time.monotonic()
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_LIMIT_S, 1)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail("perfbench exited with %d" % r.returncode, 1)
    result = json.loads(lines[-1])
    built = json.loads(next(l for l in lines if l.startswith("build "))[6:])

    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "compiler": built["compiler"], "build_type": built["build_type"],
        "commit": commit(), "source_sha256": source_digest(),
        "run_s": round(time.monotonic() - started, 3),
    }
    if args.trace:
        env["spans"] = trace_out
    for line in lines[:-1]:
        if line.startswith("metric "):
            print(line)
    print("env " + json.dumps(env, sort_keys=True))

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    missing = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if missing:
        fail("perfbench did not measure: " + ", ".join(missing), 1)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
