"""Per-layer metrics of a traced run.

:class:`Probe` wraps the public calls into each layer (see
:mod:`tracing`), listens to the service's event bus, takes OS counters
around every traced round, and turns the spans into the per-layer
metrics listed in ``BENCHMARK.json``.  A layer a workload never reaches
reads 0 there (no serve spans in ``lsq_sap``, for instance).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.sketch import SketchOperator
from repro.lsq.lsqr import CscOperator
from repro.parallel.procpool import ProcessPoolSupervisor
from repro.plan.events import REQUEST_ADMITTED, REQUEST_DONE
from repro.plan.planner import Planner
from repro.plan.runtime import Runtime
import repro.serve.service as service_module

from tracing import self_times

#: Default ``panel_nnz`` of Algorithm 3's NumPy kernel: it draws one
#: ``b_d x (column group nnz)`` panel per group of at most this many
#: nonzeros.
ALGO3_PANEL_NNZ = 8192


def _run_attrs(result) -> dict:
    stats = result.stats
    return {"total": stats.total_seconds, "sample": stats.sample_seconds,
            "compute": stats.compute_seconds,
            "samples": stats.samples_generated, "flops": stats.flops,
            "kernel": result.plan.kernel, "b_d": result.plan.b_d,
            "b_n": result.plan.b_n, "batch": result.plan.problem.batch}


def _pool_attrs(result) -> dict:
    _, stats = result
    return {"sample": stats.sample_seconds, "compute": stats.compute_seconds,
            "workers": stats.extra.get("workers", 1)}


def panel_mb(span: dict, A) -> float:
    """Largest sample panel one block task of the run draws at once, as
    modelled from the plan's geometry and the row pattern of *A*.

    No figure here comes from the program: Algorithm 4's batched tier
    is modelled as drawing ``k x b_d x (non-empty rows of the column
    block)`` entries per block, Algorithm 3 as ``k x b_d x (column group
    nnz)`` with groups capped at ``ALGO3_PANEL_NNZ``.  A kernel change
    that draws the panel in smaller pieces leaves this figure alone
    unless the model is changed with it.
    """
    n = A.shape[1]
    widest = 0
    for j0 in range(0, n, span["b_n"]):
        rows = A.indices[A.indptr[j0]:A.indptr[min(j0 + span["b_n"], n)]]
        if span["kernel"] == "algo4":
            widest = max(widest, np.unique(rows).size)
        else:
            widest = max(widest, min(rows.size, ALGO3_PANEL_NNZ))
    return span["batch"] * span["b_d"] * widest * 8 / 2**20


class Probe:
    """Wraps the layers for a traced run and derives their metrics."""

    def __init__(self, tracer, workload, children) -> None:
        self.tracer = tracer
        self.wl = workload
        self._cpu_of_children = children
        tracer.wrap(Planner, "compile", "plan.compile")
        tracer.wrap(Runtime, "run", "plan.run", _run_attrs)
        tracer.wrap(SketchOperator, "apply", "core.apply")
        tracer.wrap(ProcessPoolSupervisor, "execute", "parallel.execute",
                    _pool_attrs)
        tracer.wrap(CscOperator, "matvec", "sparse.matvec")
        tracer.wrap(CscOperator, "rmatvec", "sparse.matvec")
        tracer.wrap(service_module, "encode_result", "serve.encode")
        self.events: list[tuple] = []
        service = getattr(workload, "service", None)
        if service is not None:
            for name in (REQUEST_ADMITTED, REQUEST_DONE):
                service.bus.subscribe_observer(name, self._on_event)
        self.cache_hits = self.cache_misses = 0
        self.kid_cpu = 0.0
        self._round = 0

    def _on_event(self, event) -> None:
        if self.tracer.enabled:
            self.events.append((event.name, time.perf_counter(),
                                dict(event.payload)))

    def _cache_totals(self) -> tuple[int, int]:
        cache = self.wl.cache
        return (0, 0) if cache is None else (cache.hit_total(),
                                             cache.miss_total())

    def begin_round(self, traced: bool) -> None:
        self._round += 1
        self.tracer.op = self._round
        if traced:
            self._hits0, self._misses0 = self._cache_totals()
            self._kids0 = self._cpu_of_children()
        self.tracer.enabled = traced

    def end_round(self, traced: bool) -> None:
        self.tracer.enabled = False
        if traced:
            hits, misses = self._cache_totals()
            self.cache_hits += hits - self._hits0
            self.cache_misses += misses - self._misses0
            kids = self._cpu_of_children()
            self.kid_cpu += sum(cpu - self._kids0.get(pid, 0.0)
                                for pid, cpu in kids.items())

    def metrics(self, untraced, traced, worker_rss_mb: float,
                health: dict) -> dict:
        """Per-layer metrics; *health* holds the workload's counters
        over the timed phase."""
        spans = self.tracer.spans
        n = max(1, len(traced))

        def named(name):
            return [s for s in spans if s["name"] == name]

        def total(name):
            return sum(s["end"] - s["start"] for s in named(name))

        runs = named("plan.run")
        sample = sum(s["sample"] for s in runs)
        compute = sum(s["compute"] for s in runs)
        samples = sum(s["samples"] for s in runs)
        pools = named("parallel.execute")
        dispatch = [(s["end"] - s["start"])
                    - (s["sample"] + s["compute"]) / s["workers"]
                    for s in pools]
        # The executor emits REQUEST_DONE for every member of a batch
        # in a row, each with the batch's service time, so the events
        # sharing one ``seconds`` value are one executor batch: a solo
        # run makes a batch of 1.  Its start is done time minus service
        # time, and a request's queue wait runs from admission to there.
        admitted, waits, batches = {}, [], {}
        for name, t, payload in self.events:
            if name == REQUEST_ADMITTED:
                admitted[payload["request_id"]] = t
            elif name == REQUEST_DONE:
                rid, seconds = payload["request_id"], payload["seconds"]
                batches[seconds] = batches.get(seconds, 0) + 1
                if rid in admitted:
                    waits.append(t - seconds - admitted[rid])

        def mean_layer(key):
            vals = [op.layers[key] for op in traced if key in op.layers]
            return statistics.fmean(vals) if vals else 0.0

        ok_untraced = [op.seconds for op in untraced if op.ok]
        ok_traced = [op.seconds for op in traced if op.ok]
        overhead = 0.0
        if ok_untraced and ok_traced:
            overhead = 100.0 * (statistics.median(ok_traced)
                                / statistics.median(ok_untraced) - 1.0)
        values = {
            "rng.sample_ms_per_op": 1e3 * sample / n,
            "rng.samples_per_s": samples / sample if sample else 0.0,
            "rng.samples_per_op": samples / n,
            "rng.panel_mb": (panel_mb(runs[-1], self.wl.input_matrix())
                             if runs else 0.0),
            "kernels.compute_ms_per_op": 1e3 * compute / n,
            "kernels.gflops": (sum(s["flops"] for s in runs) / compute / 1e9
                               if compute else 0.0),
            "plan.compile_ms": 1e3 * total("plan.compile") / n,
            "plan.run_overhead_ms": 1e3 * sum(
                (s["end"] - s["start"]) - s["total"] for s in runs) / n,
            "cache.hits_per_op": self.cache_hits / n,
            "cache.misses_per_op": self.cache_misses / n,
            "parallel.dispatch_ms_per_batch": (
                1e3 * statistics.fmean(dispatch) if dispatch else 0.0),
            "parallel.worker_cpu_ms_per_op": 1e3 * self.kid_cpu / n,
            "parallel.worker_peak_rss_mb": worker_rss_mb,
            "parallel.workers_lost": health.get("workers_lost", 0),
            "parallel.tasks_requeued": health.get("tasks_requeued", 0),
            "serve.queue_wait_ms": (1e3 * statistics.fmean(waits)
                                    if waits else 0.0),
            "serve.batch_size": (statistics.fmean(batches.values())
                                 if batches else 0.0),
            "serve.batch_service_ms": (1e3 * statistics.fmean(batches)
                                       if batches else 0.0),
            "serve.encode_ms": 1e3 * total("serve.encode") / n,
            "serve.shed": health.get("shed", 0),
            "serve.deadline_missed": health.get("deadline_missed", 0),
            "serve.recovered": health.get("recovered", 0),
            "lsq.sketch_ms": mean_layer("lsq.sketch_ms"),
            "lsq.factor_ms": mean_layer("lsq.factor_ms"),
            "lsq.solve_ms": mean_layer("lsq.solve_ms"),
            "lsq.iterations": mean_layer("lsq.iterations"),
            "lsq.error": mean_layer("lsq.error"),
            "sparse.matvec_ms": 1e3 * total("sparse.matvec") / n,
            "core.overhead_ms": 1e3 * self_times(spans).get("core", 0.0) / n,
            "trace.overhead_pct": overhead,
        }
        return values
