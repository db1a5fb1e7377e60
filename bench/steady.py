"""Steadiness and tracing-overhead check for the benchmark.

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --overhead --runs 3

Every run lasts BENCHMARK.json's run_seconds.  The first form runs every
workload in BENCHMARK.json --runs times, a new seed each time,
alternating the order of the workloads from one pass to the next, and
prints for every end-to-end metric its median, quartiles and spread (the
distance between the quartiles as a share of the median) against the
metric's bound from BENCHMARK.json, and the share of failed operations.

The second form runs every workload --runs times untraced and traced with
the same seed, alternating which goes first, and prints the median ratio of
the traced run's end-to-end metrics to the untraced one's.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steadiness(spec: dict, runs: int, first_seed: int):
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    values = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            t = time.perf_counter()
            values[w].append(run_once(w, first_seed + i, seconds, 0))
            print(f"run {i + 1}/{runs} {w} seed {first_seed + i}: {time.perf_counter() - t:.1f} s", file=sys.stderr)
    print(f"{runs} runs per workload, seeds {first_seed}..{first_seed + runs - 1}, {seconds:g} s each")
    for w in workloads:
        results = values[w]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"\n{w}: correct={correct} failed share={shares} attempted={[r['attempted'] for r in results]}")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} {'spr/bnd':>7}")
        for m in spec["end_to_end"]:
            xs = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            print(f"  {m['name']:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {m['bound']:6.2f} "
                  f"{spread / m['bound']:7.2f}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{int(time.time())}.json").write_text(json.dumps(values, indent=1))


def overhead(spec: dict, pairs: int, first_seed: int):
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    print(f"tracing overhead: median over {pairs} pairs of traced / untraced end-to-end value, "
          f"same seed within a pair, {seconds:g} s per run")
    for w in workloads:
        ratios = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(pairs):
            seed = first_seed + i
            # alternate which run of the pair goes first
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                run_once(w, seed, seconds, trace)
            plain = json.loads((OUT / f"result-{w}-seed{seed}-trace0.json").read_text())["end_to_end"]
            traced = json.loads((OUT / f"result-{w}-seed{seed}-trace1.json").read_text())["end_to_end"]
            for name, values in ratios.items():
                values.append(traced[name] / plain[name])
        print(f"{w}: " + " ".join(f"{name}={statistics.median(v):.3f}" for name, v in ratios.items()))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload, or pairs with --overhead")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--overhead", action="store_true", help="measure tracing overhead instead")
    args = parser.parse_args(argv)
    if args.overhead:
        overhead(spec, args.runs, args.first_seed)
    else:
        steadiness(spec, args.runs, args.first_seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
