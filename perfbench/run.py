#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds
perfbench/ (the icsim libraries, the workload driver and bench_simcore)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls rebuild incrementally.  Build output goes to stderr.

stdout ends with one JSON line: correct, attempted, failed and metrics.
The line before it is `report_digest <workload> <seed> <hex>`.  With
--trace 1 the per-layer metrics also carry unit costs parsed from
`bench_simcore --benchmark_format=json`.  Exit status is non-zero, with
no result line, when the sources are missing, the build fails or the
workload yields no result.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170  # the driver binary must finish well inside 180 s

# Per-layer unit costs: metric name -> bench_simcore benchmark.
SIMCORE_COSTS = {
    "sim.post_ns": "BM_EventPost",
    "sim.dispatch_ns": "BM_EventDispatch",
    "sim.switch_ns": "BM_FiberSwitch",
    "net.chunk_ns": "BM_FabricChunk",
    "ib.reg_hit_ns": "BM_RegCacheHit",
}
MATCHER = "BM_MatcherArrivePosted"  # one run per posted-queue depth


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (Path.cwd() / base / "perfbench").resolve()


def child_env():
    """The environment without ICSIM_* overrides."""
    return {k: v for k, v in os.environ.items() if not k.startswith("ICSIM_")}


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"icsim sources not found under {ROOT}; run from a full checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "perfbench", "bench_simcore"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=child_env()).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def ns_per_item(bench):
    """Host ns per item processed, or per iteration when items are not set."""
    if bench.get("items_per_second"):
        return 1e9 / bench["items_per_second"]
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[bench["time_unit"]]
    return bench["real_time"] * scale


def nearest_depth(depths, depth):
    """The probed queue depth nearest the workload's (on a log scale)."""
    return min(depths, key=lambda d: abs(math.log2(d) - math.log2(max(depth, 1))))


def simcore_metrics(doc, max_unexpected_depth):
    """Per-layer unit costs from bench_simcore's JSON output."""
    by_name = {b["name"]: b for b in doc["benchmarks"]
               if b.get("run_type", "iteration") == "iteration"}
    metrics = {m: ns_per_item(by_name[b]) for m, b in SIMCORE_COSTS.items()}
    matcher = {int(n.split("/")[1]): b for n, b in by_name.items()
               if n.startswith(MATCHER + "/")}
    depth = nearest_depth(sorted(matcher), max_unexpected_depth)
    metrics["mpi.match_ns"] = ns_per_item(matcher[depth])
    return {name: {"value": v, "unit": "ns"} for name, v in metrics.items()}


def run_simcore(out):
    names = "|".join(list(SIMCORE_COSTS.values()) + [MATCHER])
    proc = subprocess.run(
        [str(out / "bench_simcore"), "--benchmark_format=json",
         f"--benchmark_filter=^({names})(/|$)", "--benchmark_min_time=0.2"],
        capture_output=True, text=True, env=child_env(),
        timeout=RUN_TIMEOUT_S)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("bench_simcore failed")
    return json.loads(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out = build_dir()
    if not build(out):
        return 1
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    try:
        proc = subprocess.run(
            [str(out / "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--tmp", str(tmp)],
            stdout=subprocess.PIPE, text=True, env=child_env(),
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode:
        return proc.returncode
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = result.pop("report_digest")
    if args.trace:
        depth = result["metrics"]["mpi.max_unexpected_depth"]["value"]
        result["metrics"].update(simcore_metrics(run_simcore(out), depth))
    print(f"report_digest {args.workload} {args.seed} {digest}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
