"""Steadiness mode: run every workload many times and report the spread.

Usage, from the root of the repository::

    python3 perfbench/steady.py --runs 10 --sets 2

Each run is a fresh ``perfbench/run.py`` process with its own seed.
Runs of the sets and workloads are interleaved, alternating the
workload order from one pass to the next, so slow drift of the host
lands on every workload and set alike.  For every end-to-end metric the
report gives each set's median and quartiles, the spread
``(q3 - q1) / median`` against the metric's bound from
``BENCHMARK.json``, and how far the later set's median moved from the
first set's in the metric's worse direction.  ``--traced`` adds one
traced run per workload and prints its per-layer metrics.

Set ``s`` (from 0) uses seeds ``1 + s * runs`` to ``(s + 1) * runs``;
the traced runs use seed 1.  Exits 1 when a run fails or reports wrong
output, when a spread exceeds its bound, when a later set is worse than
the first by more than the bound, or when the share of failed
operations differs between sets.  Raw results go to
``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = elapsed
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def report(workloads, metrics, results, sets: int) -> bool:
    """Print median, quartiles, spread and shift per metric; False when
    a spread or a shift exceeds its bound."""
    ok = True
    print()
    print(f"{'workload':14s} {'metric':16s} set {'median':>11s} "
          f"{'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s} "
          f"{'moved':>7s}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for s in range(sets):
                vals = [r["metrics"][name]["value"] for r in results[(s, w)]]
                med, q1, q3, spr = spread(vals)
                moved = ""
                if first is None:
                    first = med
                else:
                    worse = (med / first - 1.0) if m["better"] == "lower" \
                        else (first / med - 1.0)
                    moved = f"{100 * worse:+6.1f}%"
                    if worse > bound:
                        ok = False
                        moved += " !"
                flag = ""
                if spr > bound:
                    ok = False
                    flag = " !"
                elif spr > bound / 3:
                    flag = " ~"
                print(f"{w:14s} {name:16s} {s:3d} {med:11.5g} {q1:11.5g} "
                      f"{q3:11.5g} {100 * spr:6.2f}% {100 * bound:5.1f}% "
                      f"{moved}{flag}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10,
                   help="runs per set (quartiles need at least 2)")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = {(s, w): [] for s in range(args.sets) for w in workloads}
    for i in range(args.runs):
        for s in range(args.sets):
            order = workloads if (i + s) % 2 == 0 else workloads[::-1]
            for w in order:
                seed = 1 + s * args.runs + i
                r = run_once(w, seed, seconds, 0)
                results[(s, w)].append(r)
                print(f"set {s} run {i} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}"
                                 for k, v in r["metrics"].items())
                      + f" attempted={r['attempted']} failed={r['failed']}"
                      f" correct={r['correct']} wall={r['wall_s']:.1f}s",
                      flush=True)

    ok = True
    if args.runs > 1:
        ok = report(workloads, metrics, results, args.sets)
    for w in workloads:
        shares = set()
        for s in range(args.sets):
            runs = results[(s, w)]
            bad = [r for r in runs if not r["correct"]]
            if bad:
                ok = False
                print(f"{w}: {len(bad)} run(s) of set {s} reported wrong "
                      f"output")
            shares.add(tuple(sorted({r["failed"] / r["attempted"]
                                     for r in runs})))
        if len(shares) > 1:
            ok = False
            print(f"{w}: failed-operation share differs between sets: "
                  f"{sorted(shares)}")

    if args.traced:
        for w in workloads:
            r = run_once(w, 1, seconds, 1)
            print(f"\ntraced {w} (seed 1): attempted "
                  f"{r['attempted']} failed {r['failed']} correct "
                  f"{r['correct']}")
            for name, v in r["metrics"].items():
                print(f"  {name:32s} {v['value']:14.6g} {v['unit']}")

    out = HERE / ".work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(
        {f"{s}:{w}": rs for (s, w), rs in results.items()}, indent=1))
    print(f"\nraw results -> {out}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
