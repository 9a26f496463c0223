#!/usr/bin/env python3
"""End-to-end benchmark for liquidd (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload eval_exact --seed 1 --seconds 15 --trace 0

Builds the benchmark and the `liquidd` binary from source into
.bench_build/perfbench (a no-op once built), runs one workload, and passes
the benchmark's output through; its last line is the JSON result.

Other modes:

    python3 perfbench/run.py --self-test            tiny-size checks of the benchmark
    python3 perfbench/run.py --compare A.json B.json  compare two result files
    python3 perfbench/run.py --steadiness 10 [--workload W] [--first-seed S]
        run each workload on 2 interleaved sets of 10 seeds and print each
        end-to-end metric's medians, quartile spreads and the shift of the
        second set's median, against its bound
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ("eval_exact", "sweep_sparse", "serve_mixed")
RUN_TIMEOUT_S = 175


def build():
    """Configure and build; output goes to stderr so stdout stays clean."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   cwd=ROOT, stdout=sys.stderr, check=True)


def bench_command(workload, seed, seconds, trace, extra=()):
    return [os.path.join(BUILD, "liquidd_perfbench"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
            "--references", os.path.join(os.path.relpath(HERE, ROOT), "references.json"),
            "--out-dir", OUT, "--server", os.path.join(BUILD, "liquidd"), *extra]


def run_bench(args, capture=False):
    return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False,
                          stdout=subprocess.PIPE if capture else None, text=True)


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


def self_test():
    """Tiny sizes: every metric printed once with its unit, the trace parses
    (the benchmark itself counts badly nested spans and negative self times
    as failures, so a traced run must report none), and an injected bad
    response raises the failure count."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(bench_command(workload, 7, 2, trace, ["--tiny"]), capture=True)
            if proc.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}")
                continue
            result = last_json(proc.stdout)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload} trace={trace}: failed checks")
            for m in names:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{workload} trace={trace}: metric {m['name']} "
                                    f"missing or with the wrong unit")
            if len(result["metrics"]) != len(names):
                problems.append(f"{workload} trace={trace}: extra metrics printed")
            for line in proc.stdout.splitlines():
                if line.startswith("# ") and line.count(" = ") == 1 and \
                        line.split(" = ")[0][2:] in result["metrics"]:
                    name = line.split(" = ")[0][2:]
                    if proc.stdout.count(f"# {name} = ") != 1:
                        problems.append(f"{workload}: metric {name} printed twice")
            if trace:
                problems += check_trace(workload)
        proc = run_bench(bench_command(workload, 7, 2, 0, ["--tiny", "--inject-bad"]),
                         capture=True)
        result = last_json(proc.stdout) if proc.returncode == 0 else None
        if not result or result["failed"] == 0 or result["correct"]:
            problems.append(f"{workload}: an injected bad response was not counted")
    for p in problems:
        print("self-test:", p)
    print("self-test:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def check_trace(workload):
    """The written trace parses, is non-empty and every parent id resolves.
    Nesting and self times are checked by the benchmark itself, on the
    same spans, and feed its `failed` count."""
    path = os.path.join(ROOT, OUT, f"trace-{workload}-seed7.jsonl")
    with open(path) as f:
        spans = {s["id"]: s for s in map(json.loads, f)}
    if not spans:
        return [f"{workload}: empty trace"]
    orphans = [s["name"] for s in spans.values() if s["parent"] and s["parent"] not in spans]
    return [f"{workload}: span {name} has no parent" for name in orphans[:5]]


STAMP_KEYS = ("cores", "simd_tier", "build_type")


def compare(paths):
    """Compare two result files metric by metric; refuse different hosts."""
    docs = []
    for p in paths:
        with open(p) as f:
            docs.append(json.load(f))
    a, b = docs
    for key in STAMP_KEYS:
        if a["host"].get(key) != b["host"].get(key):
            print(f"compare: refusing: {key} differs ({a['host'].get(key)} vs "
                  f"{b['host'].get(key)})")
            return 2
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        print("compare: refusing: different workload or pass")
        return 2
    for name, m in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        delta = (other["value"] - m["value"]) / m["value"] if m["value"] else 0.0
        print(f"{name:28s} {m['value']:14.6g} {other['value']:14.6g} {delta:+8.1%} {m['unit']}")
    return 0


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def steadiness(runs, workloads, first_seed, seconds, sets=2):
    """Run each workload on `sets` interleaved sets of `runs` seeds (set j
    uses seeds first_seed + j*runs ...).  Per end-to-end metric: each set's
    spread = IQR / median, and how far each later set's median moved from
    the first set's in the metric's worse direction."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = seconds or spec["run_seconds"]
    worst_spread = worst_shift = 0.0
    for workload in workloads:
        values = [{} for _ in range(sets)]
        for i in range(runs):
            for j in range(sets):
                seed = first_seed + j * runs + i
                proc = run_bench(bench_command(workload, seed, seconds, 0), capture=True)
                result = last_json(proc.stdout) if proc.returncode == 0 else None
                if not result or not result["correct"]:
                    print(f"{workload} seed {seed}: failed")
                    return 1
                for name, m in result["metrics"].items():
                    values[j].setdefault(name, []).append(m["value"])
        for m in spec["end_to_end"]:
            per_set = [v[m["name"]] for v in values]
            spreads = [spread(v) for v in per_set]
            medians = [statistics.median(v) for v in per_set]
            sign = 1.0 if m["better"] == "lower" else -1.0
            shifts = [sign * (med - medians[0]) / medians[0] for med in medians[1:]]
            worst_spread = max(worst_spread, max(spreads) / m["bound"])
            worst_shift = max([worst_shift] + [s / m["bound"] for s in shifts])
            print(f"{workload:13s} {m['name']:12s} "
                  f"median {' '.join(f'{x:10.5g}' for x in medians)}  "
                  f"spread {' '.join(f'{x:6.3f}' for x in spreads)}  "
                  f"worse by {' '.join(f'{x:+6.3f}' for x in shifts) or '-'}  "
                  f"(bound {m['bound']}, bound/3 {m['bound'] / 3:.3f})")
    print(f"worst spread / bound: {worst_spread:.2f}   "
          f"worst median shift / bound: {worst_shift:.2f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per run "
                        "(default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    parser.add_argument("--make-reference", action="store_true",
                        help="print fresh stored references for --workload")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()

    if args.compare:
        return compare(args.compare)
    build()
    if args.self_test:
        return self_test()
    if args.steadiness:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return steadiness(args.steadiness, workloads, args.first_seed, args.seconds)
    if not args.workload:
        parser.error("--workload is required")
    extra = []
    if args.tiny:
        extra.append("--tiny")
    if args.make_reference:
        extra.append("--make-reference")
    seconds = args.seconds or run_seconds()
    seconds = int(seconds) if float(seconds).is_integer() else seconds
    return run_bench(bench_command(args.workload, args.seed, seconds, args.trace, extra)).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
