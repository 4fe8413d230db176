"""Independent correctness checks for the benchmark's operations.

Every check takes plain NumPy arrays and recomputes what the program
should have produced without calling the program: dense products,
a NumPy QR, a NumPy least-squares solve.  Each returns a list of
human-readable problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

#: Largest entry-wise gap allowed between a sketch column and the dense
#: product ``S @ A[:, j]``, relative to the column's largest entry.  The
#: kernels sum in another order than BLAS, so agreement is to rounding,
#: far below any wrong entry.
SKETCH_RTOL = 1e-10

#: Relative forward error ``||x - x_ref|| / ||x_ref||`` a least-squares
#: solve may show against NumPy's dense ``lstsq``.  The surrogate has
#: cond(A) near 150, so a 1e-14 backward error bounds the forward error
#: near 1e-12; the bound leaves room for cond(A) to be ten times larger.
LSQ_X_RTOL = 1e-9

#: Ceiling on the paper's ``Error(x) = ||A^T r|| / (||A||_F ||r||)``,
#: recomputed in NumPy.  LSQR stops on its own estimate reaching 1e-14;
#: the recomputed value lands in [3e-15, 3e-14] over 48 solves on eight
#: input seeds, while stopping after 40 of the ~47 iterations leaves
#: 3e-13 and stopping after 30 leaves 7e-10.
LSQ_ERROR_TOL = 1e-13


def sketch_columns(Ahat: np.ndarray, S: np.ndarray, A_dense: np.ndarray,
                   cols=None) -> list[str]:
    """Columns *cols* of ``Ahat`` equal ``S @ A_dense[:, cols]``."""
    cols = np.arange(A_dense.shape[1]) if cols is None else np.asarray(cols)
    if Ahat.shape != (S.shape[0], A_dense.shape[1]):
        return [f"sketch shape {Ahat.shape} != "
                f"{(S.shape[0], A_dense.shape[1])}"]
    ref = S @ A_dense[:, cols]
    got = Ahat[:, cols]
    scale = np.maximum(np.abs(ref).max(axis=0), 1.0)
    gap = (np.abs(got - ref) / scale).max(axis=0)
    bad = np.flatnonzero(~(gap <= SKETCH_RTOL))
    if bad.size:
        return [f"{bad.size} of {cols.size} sampled columns differ from "
                f"S @ A (worst relative gap {gap[bad].max():.3g} in column "
                f"{int(cols[bad[np.argmax(gap[bad])]])})"]
    return []


def uniform_entries(S: np.ndarray) -> list[str]:
    """Entries of ``S`` lie in [-1, 1] with mean ~0 and variance ~1/3."""
    problems = []
    lo, hi = float(S.min()), float(S.max())
    if lo < -1.0 or hi > 1.0:
        problems.append(f"entries outside [-1, 1]: min {lo:.6g}, "
                        f"max {hi:.6g}")
    n = S.size
    mean = float(S.mean())
    var = float(S.var())
    # Six standard errors of the sample mean and variance of U(-1, 1):
    # Var(x) = 1/3, Var(x^2) = 1/5 - 1/9 = 4/45.
    if abs(mean) > 6.0 * np.sqrt(1.0 / 3.0 / n):
        problems.append(f"entry mean {mean:.3g} is not ~0 over {n} entries")
    if abs(var - 1.0 / 3.0) > 6.0 * np.sqrt(4.0 / 45.0 / n):
        problems.append(f"entry variance {var:.6g} is not ~1/3 over {n} "
                        f"entries")
    return problems


def subspace_embedding(Ahat: np.ndarray, R: np.ndarray, d: int,
                       var: float) -> list[str]:
    """Singular values of ``Ahat R^-1 / sqrt(d var)`` lie in (0, 2).

    With ``A = QR``, ``Ahat R^-1 = S Q``: a subspace embedding keeps
    every singular value of the normalized ``S Q`` near 1 (between
    ``1 -+ 1/sqrt(gamma)`` for Gaussian sketches).
    """
    X = np.linalg.solve(R.T, Ahat.T).T / np.sqrt(d * var)
    sv = np.linalg.svd(X, compute_uv=False)
    if not (sv.min() > 0.0 and sv.max() < 2.0):
        return [f"normalized sketch of range(A) has singular values in "
                f"[{sv.min():.4g}, {sv.max():.4g}], outside (0, 2)"]
    return []


def error_metric(A_dense: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """The paper's ``Error(x)`` computed densely in NumPy."""
    r = A_dense @ x - b
    rnorm = np.linalg.norm(r)
    if rnorm == 0.0:
        return 0.0
    return float(np.linalg.norm(A_dense.T @ r)
                 / (np.linalg.norm(A_dense, "fro") * rnorm))


def lsq_solution(x: np.ndarray, x_ref: np.ndarray, A_dense: np.ndarray,
                 b: np.ndarray) -> list[str]:
    """``x`` matches the dense reference and meets the Error(x) ceiling."""
    problems = []
    rel = float(np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))
    if not rel <= LSQ_X_RTOL:
        problems.append(f"relative distance to numpy lstsq {rel:.3g} > "
                        f"{LSQ_X_RTOL:g}")
    err = error_metric(A_dense, x, b)
    if not err <= LSQ_ERROR_TOL:
        problems.append(f"Error(x) = {err:.3g} > {LSQ_ERROR_TOL:g}")
    return problems


def same_digest(got: str, want: str) -> list[str]:
    """A served digest equals the digest of an independent solo run."""
    if got != want:
        return [f"served digest {got} != solo-run digest {want}"]
    return []
