"""The benchmark's workloads: their inputs, one round of operations, and
the checks of what the operations returned.

Constructing a workload is its set-up: it generates the input from the
run's seed, fills the artifact cache, starts any service, and runs one
untimed warm-up round.  :meth:`round` then runs one round of timed
operations and returns an :class:`Op` per operation; :meth:`verify`
checks the kept outputs after the timed phase.

Every operation draws its own sketch seed from the run's seed, so two
runs with the same ``--seed`` issue identical operations.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.plan.events import TASK_REQUEUED, WORKER_LOST
from repro.serve.config import ServeConfig
from repro.serve.protocol import parse_request, sketch_digest
from repro.serve.service import SketchService
from repro.workloads import LSQ_SUITE, SPMM_SUITE, build_matrix

import checks


@dataclass
class Op:
    """One timed operation: its latency, whether it succeeded, and any
    per-operation layer figures the program reported."""

    seconds: float
    ok: bool
    layers: dict = field(default_factory=dict)


def _op_seeds(seed: int) -> np.random.Generator:
    """The stream of per-operation sketch seeds for run seed *seed*."""
    return np.random.default_rng([seed, 1])


class SketchPhilox:
    """Closed loop of ``repro.sketch(A, gamma=3)`` on the mk-12 surrogate."""

    name = "sketch_philox"
    #: Keep every CHECK_EVERY-th sketch for :meth:`verify`.
    CHECK_EVERY = 16

    def __init__(self, seed: int, workdir, tracer) -> None:
        self.tracer = tracer
        self.A = build_matrix(
            dataclasses.replace(SPMM_SUITE["mk-12"], seed=seed), "small")
        self.d = int(np.ceil(3 * self.A.shape[1]))
        cache_dir = workdir / f"cache-{self.name}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.cache = repro.ArtifactCache(
            repro.CachePolicy(cache_dir=str(cache_dir)))
        self._seeds = _op_seeds(seed)
        self._n = 0
        self.kept: list[tuple] = []
        self.samples: list[tuple] = []
        self.round()
        self._n = 0
        self.kept.clear()
        self.samples.clear()

    def input_matrix(self):
        return self.A

    @staticmethod
    def config(seed: int) -> repro.SketchConfig:
        return repro.SketchConfig(rng_kind="philox", distribution="uniform",
                                  kernel="auto", seed=seed)

    def round(self) -> list[Op]:
        seed = int(self._seeds.integers(2**31))
        cfg = self.config(seed)
        t0 = time.perf_counter()
        try:
            with self.tracer.span("core.sketch", root=True):
                res = repro.sketch(self.A, gamma=3, config=cfg,
                                   cache=self.cache)
        except repro.ReproError:
            self._n += 1
            return [Op(time.perf_counter() - t0, False)]
        seconds = time.perf_counter() - t0
        if self._n % self.CHECK_EVERY == 0:
            self.kept.append((self._n, seed, res.sketch))
        self.samples.append((self._n, res.kernel_used,
                             res.stats.samples_generated))
        self._n += 1
        return [Op(seconds, True)]

    def verify(self, log) -> set:
        failed = set()
        nnz = self.A.nnz
        for i, kernel, samples in self.samples:
            if kernel == "algo3" and samples != self.d * nnz:
                log(f"op {i}: Algorithm 3 drew {samples} samples, "
                    f"expected d*nnz = {self.d * nnz}")
                failed.add(i)
        A_dense = self.A.to_dense()
        R = np.linalg.qr(A_dense, mode="r")
        for i, seed, Ahat in self.kept:
            op = repro.SketchOperator(self.d, self.A.shape[0],
                                      config=self.config(seed))
            S = op.materialize()
            problems = (checks.sketch_columns(Ahat, S, A_dense)
                        + checks.uniform_entries(S)
                        + checks.subspace_embedding(Ahat, R, self.d,
                                                    1.0 / 3.0))
            for p in problems:
                log(f"op {i} (seed {seed}): {p}")
            if problems:
                failed.add(i)
        return failed

    def close(self) -> None:
        pass


class LsqSap:
    """Closed loop of ``repro.solve_sap`` on the rail582 surrogate."""

    name = "lsq_sap"
    cache = None

    def __init__(self, seed: int, workdir, tracer) -> None:
        self.tracer = tracer
        self.A = build_matrix(
            dataclasses.replace(LSQ_SUITE["rail582"], seed=seed), "small")
        self.b = np.random.default_rng([seed, 2]).standard_normal(
            self.A.shape[0])
        self._seeds = _op_seeds(seed)
        self._n = 0
        self.kept: list[tuple] = []
        self.round()
        self._n = 0
        self.kept.clear()

    def input_matrix(self):
        return self.A

    def round(self) -> list[Op]:
        seed = int(self._seeds.integers(2**31))
        cfg = repro.SketchConfig(gamma=2, seed=seed, threads=2)
        t0 = time.perf_counter()
        try:
            with self.tracer.span("lsq.solve_sap", root=True):
                sol = repro.solve_sap(self.A, self.b, gamma=2, method="qr",
                                      config=cfg, atol=1e-14)
        except repro.ReproError:
            self._n += 1
            return [Op(time.perf_counter() - t0, False)]
        seconds = time.perf_counter() - t0
        # A direct-QR fallback or an unconverged run is not the
        # sketch-and-precondition solve this workload measures.
        ok = sol.converged and "fallback" not in sol.details
        self.kept.append((self._n, seed, sol.x))
        self._n += 1
        return [Op(seconds, ok, {
            "lsq.sketch_ms": 1e3 * sol.sketch_seconds,
            "lsq.factor_ms": 1e3 * sol.factor_seconds,
            "lsq.solve_ms": 1e3 * sol.solve_seconds,
            "lsq.iterations": sol.iterations,
            "lsq.error": sol.error,
        })]

    def verify(self, log) -> set:
        A_dense = self.A.to_dense()
        x_ref = np.linalg.lstsq(A_dense, self.b, rcond=None)[0]
        failed = set()
        for i, seed, x in self.kept:
            problems = checks.lsq_solution(x, x_ref, A_dense, self.b)
            for p in problems:
                log(f"op {i} (seed {seed}): {p}")
            if problems:
                failed.add(i)
        return failed

    def close(self) -> None:
        pass


class ServeBatched:
    """Bursts of eight requests into an in-process, coalescing service."""

    name = "serve_batched"
    #: Requests per burst, and the service's ``max_batch``.
    BURST = 8
    SHAPE = (6000, 150, 0.01)
    D = 450
    #: Two row blocks by two column blocks: four equal block tasks, two
    #: per pool worker.
    BLOCKING = {"b_d": 225, "b_n": 75}
    WORKERS = 2

    def __init__(self, seed: int, workdir, tracer) -> None:
        self.tracer = tracer
        m, n, density = self.SHAPE
        self.matrix = {"random": [m, n, density], "seed": seed}
        cache_dir = workdir / f"cache-{self.name}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.service = SketchService(ServeConfig(
            max_batch=self.BURST, queue_capacity=2 * self.BURST,
            cache_dir=str(cache_dir))).start()
        self.cache = self.service.cache
        self.pool_health = {"workers_lost": 0, "tasks_requeued": 0}
        self.service.bus.subscribe_observer(WORKER_LOST, self._worker_lost)
        self.service.bus.subscribe_observer(TASK_REQUEUED,
                                            self._task_requeued)
        self._seeds = _op_seeds(seed)
        self.kept: list[tuple] = []
        self.round()
        self.kept.clear()

    def input_matrix(self):
        """The matrix the service builds from the request's spec."""
        return repro.random_sparse(*self.SHAPE, seed=self.matrix["seed"])

    def config(self, seed: int) -> dict:
        return {"kernel": "algo4", "gamma": 3, "seed": seed,
                "driver": "process", "workers": self.WORKERS,
                **self.BLOCKING}

    def round(self) -> list[Op]:
        seeds = [int(s) for s in self._seeds.integers(2**31,
                                                      size=self.BURST)]
        requests = [parse_request({"matrix": self.matrix,
                                   "config": self.config(s),
                                   "output": "digest"}) for s in seeds]
        ops = []
        with self.tracer.span("serve.burst", root=True):
            sent, tickets = [], []
            for req in requests:
                sent.append(time.perf_counter())
                try:
                    tickets.append(self.service.submit(req))
                except repro.ReproError:
                    tickets.append(None)
            for t0, seed, ticket in zip(sent, seeds, tickets):
                ok, digest = False, None
                if ticket is not None:
                    try:
                        doc = ticket.wait(timeout=120.0)
                        digest = doc["sketch"]["digest"]
                        ok = (doc["status"] == "ok" and doc["sketch"]["shape"]
                              == [self.D, self.SHAPE[1]])
                    except repro.ReproError:
                        pass
                ops.append(Op(time.perf_counter() - t0, ok))
                self.kept.append((seed, digest))
        return ops

    def verify(self, log) -> set:
        """Check the first and last request of the first and last burst
        against solo serial runs, and each solo run against ``S @ A``."""
        A = self.input_matrix()
        A_dense = A.to_dense()
        k, n = self.BURST, len(self.kept)   # whole rounds only
        failed = set()
        for i in sorted({0, k - 1, n - k, n - 1}):
            seed, digest = self.kept[i]
            if digest is None:
                continue
            cfg = repro.SketchConfig(kernel="algo4", seed=seed,
                                     **self.BLOCKING)
            plan = repro.Planner().compile(A, cfg, gamma=3, driver="serial")
            solo = repro.Runtime().run(plan, A)
            S = repro.SketchOperator(self.D, A.shape[0],
                                     config=cfg).materialize()
            problems = (checks.same_digest(digest, sketch_digest(solo.sketch))
                        + checks.sketch_columns(solo.sketch, S, A_dense))
            for p in problems:
                log(f"request {i} (seed {seed}): {p}")
            if problems:
                failed.add(i)
        return failed

    def _worker_lost(self, event) -> None:
        if event.payload.get("reason") != "shutdown":
            self.pool_health["workers_lost"] += 1

    def _task_requeued(self, event) -> None:
        self.pool_health["tasks_requeued"] += 1

    def counters(self) -> dict:
        """The service's request counters and the pool's health counts."""
        return {**self.service.counters, **self.pool_health}

    def close(self) -> None:
        self.service.drain()


WORKLOADS = {cls.name: cls for cls in (SketchPhilox, LsqSap, ServeBatched)}
