#!/usr/bin/env python3
"""Build and run the ActiveRMT benchmark.

    python3 perfbench/run.py --workload kv_multiget|kv_sharded|churn|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later runs rebuild only what changed. The benchmark's report is
passed through as it runs; the last line is the JSON result, whose metrics
are the ones BENCHMARK.json lists (end_to_end untraced, per_layer traced;
a layer a workload does not exercise reads 0). A traced run also writes
its span dump to <build dir>/spans/<workload>.jsonl (the latest traced run
of each workload). Exits nonzero without a result when the sources are
missing, the build fails or the benchmark crashes.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ActiveRMT sources under {ROOT}/src; cannot build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "artmt_perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "artmt_perfbench")


def result_line(lines, trace, code):
    """The JSON result from the benchmark's `metric` and `result` lines."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace == "1" else "end_to_end"]
    values = {}
    results = []
    for line in lines:
        fields = line.split()
        if fields[:1] == ["metric"] and len(fields) == 6:
            values[(fields[1], fields[2])] = float(fields[3])
        elif fields[:1] == ["result"] and len(fields) == 8:
            results.append((fields[1], fields[3] == "1", int(fields[5]),
                            int(fields[7])))
    if not results:
        return None
    correct = code == 0 and all(ok for _, ok, _, _ in results)
    metrics = {}
    for workload, _, _, _ in results:
        prefix = f"{workload}." if len(results) > 1 else ""
        for metric in declared:
            value = values.get((workload, metric["name"]))
            if value is None:
                if trace == "0":
                    correct = False  # an end-to-end metric went missing
                value = 0.0
            metrics[prefix + metric["name"]] = {"value": value,
                                                "unit": metric["unit"]}
    return json.dumps({
        "correct": correct,
        "attempted": sum(r[2] for r in results),
        "failed": sum(r[3] for r in results),
        "metrics": metrics,
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["kv_multiget", "kv_sharded", "churn", "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--span-dump", spans]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    lines = []
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
    if code < 0:
        fail(f"benchmark killed by signal {-code}", code=3)
    result = result_line(lines, args.trace, code)
    if result is None:
        fail("benchmark printed no result", code=code or 3)
    print(result, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
