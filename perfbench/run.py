#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark program and the serve worker
from source, runs one workload, checks its outputs, and prints one JSON
result object as the last line of standard output.

    python3 perfbench/run.py --workload tricount|stream|tiled-spill \
        --seed N --seconds S --trace 0|1

Run it from the repository root. Build products, run scratch space, traces
and per-run result files go under $CARGO_TARGET_DIR (default .bench_build)
/perfbench. With --trace 0 the result holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, and a Chrome trace-event file is
written to traces/. See perfbench/README.md for the metric definitions.

The script sets no OMP_* or MSP_* variable; any that are set are recorded.
Exit status is non-zero, with no result printed, when the build fails, the
workload cannot run, or it does not finish in time.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tricount", "stream", "tiled-spill")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def out_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure and build incrementally; True on success."""
    os.makedirs(bdir, exist_ok=True)
    logf = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", jobs]]
    with open(logf, "a") as lf:
        for cmd in steps:
            if subprocess.call(cmd, stdout=lf, stderr=subprocess.STDOUT) != 0:
                with open(logf) as f:
                    sys.stderr.write(f.read()[-4000:])
                return False
    return True


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
        return out.stdout.splitlines()[0].strip() if out.stdout else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            level, kind, size = (read(os.path.join(d, n))
                                 for n in ("level", "type", "size"))
            if level and kind != "Instruction":
                sizes[f"L{level}"] = size
    return sizes


def source_digest():
    """Content hash of the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def environment(bdir):
    cpu = ""
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cxx = ""
    for line in read(os.path.join(bdir, "CMakeCache.txt")).splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            cxx = line.split("=", 1)[1]
    rev = first_line(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"])
    return {
        "git_rev": rev or "unavailable",
        "source_digest": source_digest(),
        "compiler": first_line([cxx, "--version"]) if cxx else "",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": cache_sizes(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("OMP_", "MSP_", "GOMP_"))},
    }


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(bdir, args):
    """Run mspbench in a scratch directory inside the build tree; the serve
    coordinator and the shard store put their sockets and spill files in
    TMPDIR, which is pointed there (relative, to keep socket paths short)."""
    rundir = os.path.join(bdir, "run")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    trace_out = os.path.join(bdir, "traces",
                             f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [os.path.join(bdir, "mspbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--worker-bin", os.path.join(bdir, "mspgemm-serve"),
           "--trace-out", trace_out]
    env = dict(os.environ, TMPDIR=".")
    proc = subprocess.Popen(cmd, cwd=rundir, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{args.workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    finally:
        # Worker processes share the process group; none may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(rundir, ignore_errors=True)
    if proc.returncode != 0:
        log(f"{args.workload}: mspbench exited with {proc.returncode}")
        return None
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]), (trace_out if args.trace else None)
    except (IndexError, ValueError):
        log(f"{args.workload}: unreadable mspbench output")
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = out_dir()
    t0 = time.time()
    if not build(bdir):
        log("build failed")
        return 1
    log(f"build ready in {time.time() - t0:.1f} s")
    got = run_workload(bdir, args)
    if got is None:
        return 1
    res, trace_file = got

    # Every declared metric is printed. A per-layer metric whose layer is not
    # on this workload's path was not measured: it reads 0 and is listed.
    measured = res["metrics"]
    correct = bool(res["correct"])
    metrics = {}
    not_on_path = []
    for name, unit in declared_metrics(args.trace):
        m = measured.get(name)
        if m is None:
            if not args.trace:
                log(f"missing metric: {name}")
                correct = False
            not_on_path.append(name)
            m = {"value": 0.0, "unit": unit}
        elif m["unit"] != unit or not math.isfinite(m["value"]):
            log(f"bad metric: {name} {m}")
            correct = False
        metrics[name] = m
    for err in res.get("errors", []):
        log(f"error: {err}")

    env = environment(bdir)
    notes = res.get("notes", {})
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "notes": notes, "not_on_path": not_on_path,
              "errors": res.get("errors", []), "trace_file": trace_file,
              "result": {"correct": correct, "attempted": res["attempted"],
                         "failed": res["failed"], "metrics": metrics}}
    rdir = os.path.join(bdir, "results")
    os.makedirs(rdir, exist_ok=True)
    with open(os.path.join(rdir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print("environment: " + json.dumps(env, sort_keys=True))
    ws = notes.get("working_set_bytes")
    if ws is not None:
        print(f"working set: {ws / 2**20:.1f} MiB vs caches {env['caches']}")
    if "op_tail_percentile" in notes:
        print(f"op_tail_ms is the median over {notes['op_tail_blocks']:g} "
              f"blocks of consecutive ops of each block's "
              f"p{notes['op_tail_percentile']:g}, with at least "
              f"{notes['op_tail_samples_beyond']:g} samples beyond it in "
              f"every block ({notes['op_samples']:g} samples); ops_per_s is "
              f"the median over {notes['op_rate_blocks']:g} blocks")
    if not_on_path:
        print("not on this workload's path (reported as 0): "
              + " ".join(not_on_path))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
