"""The benchmark's checks accept right answers and reject wrong ones.

Run from the root of the repository::

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro.serve.protocol import sketch_digest  # noqa: E402

import checks  # noqa: E402


def philox(seed: int) -> repro.SketchConfig:
    return repro.SketchConfig(rng_kind="philox", seed=seed)


@pytest.fixture(scope="module")
def sketched():
    A = repro.sparse.fixed_col_nnz_sparse(400, 30, 8, seed=3, values="pm1")
    d = 90
    res = repro.sketch(A, d=d, config=philox(11))
    S = repro.SketchOperator(d, A.shape[0], config=philox(11)).materialize()
    A_dense = A.to_dense()
    R = np.linalg.qr(A_dense, mode="r")
    return A, A_dense, R, d, res.sketch, S


def test_sketch_columns_accepts_the_program_output(sketched):
    _, A_dense, _, _, Ahat, S = sketched
    assert checks.sketch_columns(Ahat, S, A_dense) == []


def test_sketch_columns_rejects_one_perturbed_entry(sketched):
    _, A_dense, _, _, Ahat, S = sketched
    bad = Ahat.copy()
    bad[17, 5] *= 1 + 1e-7
    assert checks.sketch_columns(bad, S, A_dense)


def test_sketch_columns_rejects_a_wrong_seed(sketched):
    A, A_dense, _, d, _, S = sketched
    other = repro.sketch(A, d=d, config=philox(12)).sketch
    assert checks.sketch_columns(other, S, A_dense)


def test_uniform_entries(sketched):
    *_, S = sketched
    assert checks.uniform_entries(S) == []
    out_of_range = S.copy()
    out_of_range[0, 0] = 1.5
    assert checks.uniform_entries(out_of_range)
    assert checks.uniform_entries(np.sqrt(3.0) * S)   # variance 1
    assert checks.uniform_entries(np.abs(S))          # mean 1/2


def test_subspace_embedding(sketched):
    _, _, R, d, Ahat, _ = sketched
    assert checks.subspace_embedding(Ahat, R, d, 1.0 / 3.0) == []
    # A sketch three times too large stretches range(A) past 2.
    assert checks.subspace_embedding(3.0 * Ahat, R, d, 1.0 / 3.0)


@pytest.fixture(scope="module")
def lsq_problem():
    from repro.workloads import LSQ_SUITE, build_matrix

    A = build_matrix(LSQ_SUITE["rail582"], "ci")
    b = np.random.default_rng(5).standard_normal(A.shape[0])
    A_dense = A.to_dense()
    x_ref = np.linalg.lstsq(A_dense, b, rcond=None)[0]
    return A, b, A_dense, x_ref


def test_lsq_solution_accepts_a_converged_solve(lsq_problem):
    A, b, A_dense, x_ref = lsq_problem
    sol = repro.solve_sap(A, b, gamma=2, config=repro.SketchConfig(
        gamma=2, seed=4))
    assert checks.lsq_solution(sol.x, x_ref, A_dense, b) == []


def test_lsq_solution_rejects_a_solve_stopped_early(lsq_problem):
    A, b, A_dense, x_ref = lsq_problem
    sol = repro.solve_sap(A, b, gamma=2, max_iter=10, config=repro.SketchConfig(
        gamma=2, seed=4))
    assert checks.lsq_solution(sol.x, x_ref, A_dense, b)


def test_lsq_solution_rejects_one_perturbed_entry(lsq_problem):
    _, b, A_dense, x_ref = lsq_problem
    x = x_ref.copy()
    x[3] += 1e-6 * np.linalg.norm(x_ref)
    assert checks.lsq_solution(x, x_ref, A_dense, b)


def test_error_metric_matches_the_program(lsq_problem):
    A, b, A_dense, x_ref = lsq_problem
    x = x_ref + 1e-3
    assert checks.error_metric(A_dense, x, b) == pytest.approx(
        repro.error_metric(A, x, b), rel=1e-9)


def test_same_digest_detects_a_wrong_seed_and_a_perturbed_entry():
    A = repro.random_sparse(600, 20, 0.05, seed=2)

    def solo(seed):
        cfg = repro.SketchConfig(kernel="algo4", seed=seed, b_d=30, b_n=10)
        plan = repro.Planner().compile(A, cfg, gamma=3, driver="serial")
        return repro.Runtime().run(plan, A).sketch

    want = sketch_digest(solo(7))
    assert checks.same_digest(sketch_digest(solo(7)), want) == []
    assert checks.same_digest(sketch_digest(solo(8)), want)
    bad = solo(7)
    bad[1, 1] = np.nextafter(bad[1, 1], np.inf)
    assert checks.same_digest(sketch_digest(bad), want)
