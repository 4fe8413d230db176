"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sketch_philox --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics derived from
the traced rounds' spans, and writes the spans to
``perfbench/.work/spans-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK = HERE.parent / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- process accounting read from the OS -------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def children() -> dict[int, float]:
    """CPU seconds of each live child process of this one."""
    me = os.getpid()
    out = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me:
            out[int(entry.name)] = (int(fields[11]) + int(fields[12])) / _TICK
    return out


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class CpuClock:
    """CPU seconds of this process and its children since construction."""

    def __init__(self) -> None:
        self.own0 = time.process_time()
        self.kids0 = children()

    def read(self) -> tuple[float, float]:
        own = time.process_time() - self.own0
        kids = sum(cpu - self.kids0.get(pid, 0.0)
                   for pid, cpu in children().items())
        return own, kids


def stop_resource_tracker() -> None:
    """End the shared-memory resource tracker that multiprocessing starts
    for the process pool, and wait for it, so the run leaves no process."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# -- the run -----------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not SRC.is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    # BENCHMARK.json names every metric a run prints, and its unit.
    bench = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    os.environ.pop("REPRO_MATRIX_DIR", None)   # always the surrogates

    def log(msg: str) -> None:
        print(f"[{args.workload}] {msg}", file=sys.stderr)

    tracer = Tracer()
    cls = WORKLOADS[args.workload]
    setups, wl = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
            t0 = time.perf_counter()
            wl = cls(args.seed, workdir, tracer)
            setups.append(time.perf_counter() - t0)
        probe = layers.Probe(tracer, wl, children) if args.trace else None

        counters0 = wl.counters() if hasattr(wl, "counters") else {}
        clock = CpuClock()
        ops, traced_flags = [], []
        start = time.perf_counter()
        rounds = 0
        while True:
            # A traced run alternates untraced and traced rounds, so the
            # tracing overhead is measured inside one run.
            traced = bool(args.trace) and rounds % 2 == 1
            if probe is not None:
                probe.begin_round(traced)
            batch = wl.round()
            if probe is not None:
                probe.end_round(traced)
            ops.extend(batch)
            traced_flags.extend([traced] * len(batch))
            rounds += 1
            if time.perf_counter() - start >= args.seconds \
                    and (not args.trace or rounds % 2 == 0):
                break
        wall = time.perf_counter() - start
        own_cpu, kid_cpu = clock.read()
        worker_rss = max((peak_rss_mb(p) for p in children()), default=0.0)
        rss = peak_rss_mb() + worker_rss

        wrong = wl.verify(log)
        for i in wrong:
            ops[i].ok = False
        health = {k: v - counters0[k] for k, v in wl.counters().items()} \
            if counters0 else {}
    finally:
        tracer.enabled = False
        tracer.unwrap()
        if wl is not None:
            wl.close()
        stop_resource_tracker()

    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    done = [op.seconds for op in ops if op.ok] or [float("nan")]
    lines = [f"workload {args.workload}  seed {args.seed}  trace "
             f"{args.trace}  rounds {rounds}  ops {attempted}  failed "
             f"{failed}  timed {wall:.3f} s"]
    if health:
        lines.append("health " + " ".join(f"{k}={v}" for k, v in
                                           sorted(health.items())))
    if args.trace:
        untraced = [op for op, t in zip(ops, traced_flags) if not t]
        traced_ops = [op for op, t in zip(ops, traced_flags) if t]
        values = probe.metrics(untraced, traced_ops, worker_rss, health)
        path = workdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        lines.append(f"spans {len(tracer.spans)} -> {path}")
    else:
        values = {
            "latency_p50_ms": 1e3 * statistics.median(done),
            "throughput_ops": (attempted - failed) / wall,
            "cpu_ms_per_op": 1e3 * (own_cpu + kid_cpu) / attempted,
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setups),
        }
        if len(done) >= 100:
            lines.append(f"latency_p90_ms "
                         f"{1e3 * statistics.quantiles(done, n=10)[-1]:.4f}"
                         f" ms over {len(done)} operations")
        lines.append("setups " + " ".join(f"{s:.3f}" for s in setups))
    if set(values) != set(units):
        print(f"error: computed metrics {sorted(values)} differ from "
              f"{BENCHMARK.name}'s {sorted(units)}", file=sys.stderr)
        return 2
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for name, m in metrics.items():
        lines.append(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
