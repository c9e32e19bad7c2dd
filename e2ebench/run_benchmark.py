#!/usr/bin/env python3
"""One command for ftdag's end-to-end benchmark (bench_e2e).

Run from the root of the repository. It configures and builds bench_e2e
in Release under .bench_build/, then either

  * runs one workload once, when --workload is given:
        python3 e2ebench/run_benchmark.py --workload clean --seed 3 \\
            --seconds 25 --trace 0
    The last line of stdout is the run's JSON result; the exit code is the
    benchmark's own (0 = every job and self-check passed).

  * or runs the suite: every workload in a fresh process, --runs rounds of
    --sets interleaved sets (per workload A1 B1 A2 B2 ..., so host drift
    hits every set alike), and prints each end-to-end metric's median and
    quartiles per workload and set:
        python3 e2ebench/run_benchmark.py --sets 2 --runs 5 --agree --trace
    --agree exits nonzero when two sets' medians differ by more than the
    metric's bound in BENCHMARK.json. --trace adds one traced run per
    workload and prints the per-layer table; the Chrome traces land in
    .bench_build/bench_trace_<workload>.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
BINARY = os.path.join(BUILD, "bench_e2e")
CONFIG = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_e2e; False when either fails."""
    try:
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ("build.ninja", "Makefile")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
        subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                        "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return False
    return True


def run(workload, seed, seconds, trace):
    """Runs bench_e2e once; returns (exit code, stdout lines)."""
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}",
           f"--work-dir={WORK}"]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, []
    return p.returncode, p.stdout.splitlines()


def parse_result(lines):
    try:
        result = json.loads(lines[-1])
        return result if "metrics" in result else None
    except (IndexError, ValueError):
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def single(args):
    code, lines = run(args.workload, args.seed, args.seconds, args.trace)
    if parse_result(lines) is None:
        log("bench_e2e printed no result")
        return code or 1
    print("\n".join(lines), flush=True)
    return code


def suite(args, config):
    workloads = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m for m in config["end_to_end"]}
    # samples[workload][set][metric] -> values
    samples = {w: [{} for _ in range(args.sets)] for w in workloads}
    provenance = None
    failures = 0
    for r in range(args.runs):
        for w in workloads:
            for s in range(args.sets):
                seed = args.seed + r
                code, lines = run(w, seed, args.seconds, False)
                result = parse_result(lines)
                if provenance is None:
                    provenance = next((l for l in lines
                                       if l.startswith('{"provenance"')), None)
                if code != 0 or result is None or not result["correct"]:
                    failures += 1
                    log(f"{w} set {s + 1} seed {seed}: FAILED (exit {code})")
                    continue
                for name, m in result["metrics"].items():
                    samples[w][s].setdefault(name, []).append(m["value"])
                log(f"{w} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()))
    if provenance:
        print(provenance)

    print(f"\nend-to-end metrics: {args.runs} runs per set, "
          f"{args.seconds} s windows; spread = (q3 - q1) / median")
    print(f"{'workload':<9} {'metric':<13} {'unit':<8} {'set':>3} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    disagree = []
    for w in workloads:
        for name, spec in bounds.items():
            medians = []
            for s in range(args.sets):
                values = samples[w][s].get(name)
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                medians.append(med)
                print(f"{w:<9} {name:<13} {spec['unit']:<8} {s + 1:>3} "
                      f"{med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                      f"{(q3 - q1) / med if med else 0:>7.3f} "
                      f"{spec['bound']:>6.2f}")
            for a in range(len(medians)):
                for b in range(a + 1, len(medians)):
                    diff = abs(medians[b] - medians[a]) / medians[a]
                    if diff > spec["bound"]:
                        disagree.append(f"{w} {name}: sets {a + 1} and "
                                        f"{b + 1} differ by {diff:.3f} > "
                                        f"{spec['bound']}")

    if args.trace:
        layers = {}
        for w in workloads:
            code, lines = run(w, args.seed, args.seconds, True)
            result = parse_result(lines)
            if code != 0 or result is None or not result["correct"]:
                failures += 1
                log(f"{w} traced run: FAILED (exit {code})")
                continue
            layers[w] = result["metrics"]
        names = [m["name"] for m in config["per_layer"]]
        print("\nper-layer metrics (traced runs, seed "
              f"{args.seed}; traces in {WORK}/bench_trace_<workload>.json)")
        print(f"{'metric':<32} {'unit':<9}" +
              "".join(f" {w:>12}" for w in layers))
        for name in names:
            unit = next((m[name]["unit"] for m in layers.values()
                         if name in m), "")
            print(f"{name:<32} {unit:<9}" + "".join(
                f" {layers[w][name]['value']:>12.4f}" if name in layers[w]
                else f" {'-':>12}" for w in layers))

    for line in disagree:
        print(f"DISAGREE {line}")
    if failures:
        print(f"{failures} runs failed")
    if failures or (args.agree and disagree):
        return 1
    return 0


def main():
    config = json.load(open(CONFIG))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload once",
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="0/1 with --workload; bare flag in suite mode")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--runs", type=int, default=5,
                        help="rounds per set (suite mode)")
    parser.add_argument("--agree", action="store_true")
    args = parser.parse_args()
    if args.sets < 1 or args.runs < 1 or args.seconds < 1:
        parser.error("--sets, --runs and --seconds must be >= 1")
    if args.agree and args.sets < 2:
        parser.error("--agree needs --sets >= 2")
    if not build():
        return 1
    return single(args) if args.workload else suite(args, config)


if __name__ == "__main__":
    sys.exit(main())
