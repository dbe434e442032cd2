#!/usr/bin/env python3
"""Host-wall benchmark of the repository: build, run, check, summarise.

One run of one workload (what BENCHMARK.json's "command" invokes):

    python3 perfbench/run.py --workload shl_train --seed 1 --seconds 20 --trace 0

builds the repository's libraries and the perfbench binary from source into
.bench_build/ (or $CARGO_TARGET_DIR), runs the workload as one process, and
prints its report. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The metric names and units
are checked against BENCHMARK.json.

Steadiness mode runs every workload on several seeds and reports, per
end-to-end metric, the median and the interquartile spread as a share of the
median against the metric's bound:

    python3 perfbench/run.py --steady 10 --first-seed 101 --save a.json
    python3 perfbench/run.py --steady 10 --first-seed 201 --baseline a.json

With --baseline it also compares each median against a saved summary and
flags any that got worse by more than the bound.

--tiny shrinks every workload to a smoke-test size (perfbench/test_smoke.py).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def manifest():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no repository sources under {ROOT / 'src'}")
    bdir = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return bdir / "perfbench"


def check_metrics(result, expected):
    """Every expected metric, with its unit, and nothing else."""
    got = result["metrics"]
    missing = [m["name"] for m in expected if m["name"] not in got]
    extra = sorted(set(got) - {m["name"] for m in expected})
    wrong_unit = [m["name"] for m in expected
                  if m["name"] in got and got[m["name"]]["unit"] != m["unit"]]
    problems = []
    if missing:
        problems.append(f"missing metrics {missing}")
    if extra:
        problems.append(f"unexpected metrics {extra}")
    if wrong_unit:
        problems.append(f"wrong units for {wrong_unit}")
    return problems


def run_once(binary, workload, seed, seconds, trace, tiny=False, echo=True):
    """Runs one workload process; returns its parsed result line."""
    out_dir = build_dir() / "out"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(out_dir)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    kind = "per_layer" if trace else "end_to_end"
    problems = check_metrics(result, manifest()[kind])
    if problems:
        sys.exit(f"perfbench: {workload}: " + "; ".join(problems))
    return lines[-1], result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(binary, args):
    m = manifest()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in m["workloads"]]
    seconds = args.seconds if args.seconds else m["run_seconds"]
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    summary, ok = {}, True
    for w in workloads:
        values = {e["name"]: [] for e in m["end_to_end"]}
        for i in range(args.steady):
            seed = args.first_seed + i
            _, res = run_once(binary, w, seed, seconds, False, args.tiny,
                              echo=False)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: {res['failed']} of "
                      f"{res['attempted']} checks failed")
                ok = False
            for name, v in res["metrics"].items():
                values[name].append(v["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
        summary[w] = {}
        print(f"\n{w}: {args.steady} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.steady - 1}, {seconds} s each")
        print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for e in m["end_to_end"]:
            name, bound = e["name"], e["bound"]
            q1, med, q3 = quartiles(values[name])
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok"
            if spread > bound and name != "setup_s":
                verdict, ok = "SPREAD > BOUND", False
            elif spread > bound / 3 and name != "setup_s":
                verdict = "spread > bound/3"
            base = baseline.get(w, {}).get(name)
            if base is not None:
                change = (med - base["median"]) / base["median"]
                worse = change if e["better"] == "lower" else -change
                verdict += f"; median {change:+.1%} vs baseline"
                if worse > bound:
                    verdict, ok = verdict + " WORSE THAN BOUND", False
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "values": values[name]}
            print(f"  {name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.3f} {bound:>6.2f}  {verdict}")
        print(flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (not for measurement)")
    p.add_argument("--steady", type=int, metavar="N",
                   help="run every workload on N seeds and report spreads")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated subset for --steady")
    p.add_argument("--baseline", help="summary JSON saved by an earlier --steady")
    p.add_argument("--save", help="write the --steady summary JSON here")
    args = p.parse_args()

    binary = build()
    if args.steady:
        return steady(binary, args)
    names = [w["name"] for w in manifest()["workloads"]]
    if args.workload not in names:
        p.error(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds else manifest()["run_seconds"]
    line, _ = run_once(binary, args.workload, args.seed, seconds,
                       bool(args.trace), args.tiny)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
