"""Reference implementations that the tests check the library against.

Each one computes a quantity the library also computes, by a slower or
more direct route: finite differences for the Feynman-Hellmann sums, a
dense solve for the suitability norm, a variational minimization for the
lowest positive block eigenvalue, explicit 2x2 element reads and block
embeddings for the exact identities.  None of them runs in an experiment.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from blocklab import lattice
from blocklab.disorder import FieldSample
from blocklab.inequalities import PreconditionError
from blocklab.operators import assemble_block, build_h, component_indices
from blocklab.spectral import eigensolve

# -- block matrices ------------------------------------------------------------


def embed_block(sub: np.ndarray, sub_sites, ambient_sites) -> np.ndarray:
    """Zero-extend a block matrix on a sub-region to the ambient block space."""
    rows = component_indices(ambient_sites, sub_sites)
    n = len(ambient_sites)
    out = np.zeros((2 * n, 2 * n))
    out[np.ix_(rows, rows)] = sub
    return out


def dump_matrix(op, path) -> None:
    """Write an operator matrix as text: one row per line, space-separated.

    A leading comment line documents the canonical site order (and the
    upper/lower component split for block operators).
    """
    sites_str = " ".join("(" + ",".join(str(c) for c in s) + ")"
                         for s in op.sites)
    layout = ""
    if op.matrix.shape[0] == 2 * len(op.sites):
        layout = (" | block layout: first half upper component,"
                  " second half lower component")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# site order: {sites_str}{layout}\n")
        for row in op.matrix:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


@dataclass(frozen=True)
class Block2x2:
    """2x2-matrix-valued matrix element of a block operator at a site pair."""

    entries: np.ndarray
    pair: tuple


def block_element(matrix: np.ndarray, sites, n, m) -> Block2x2:
    """Read the 2x2 element at (n, m) from a block-space matrix."""
    n, m = tuple(n), tuple(m)
    i, j = lattice.site_index(sites, (n, m), strict=True).tolist()
    nn = len(sites)
    e = np.array([[matrix[i, j], matrix[i, j + nn]],
                  [matrix[i + nn, j], matrix[i + nn, j + nn]]])
    return Block2x2(e, (n, m))


def block_norm(b: Block2x2, kind: str = "frobenius") -> float:
    if kind == "frobenius":
        return float(np.linalg.norm(b.entries, "fro"))
    if kind == "operator":
        return float(np.linalg.norm(b.entries, 2))
    if kind == "max":
        return float(np.max(np.abs(b.entries)))
    raise ValueError(f"unknown 2x2 norm {kind!r}")


# -- Feynman-Hellmann by finite differences --------------------------------------


def _block_eigs_shifted(region, field: FieldSample, k, family, delta):
    """Block spectrum with the field value of the cube's k-th site shifted."""
    v, b = field.V.copy(), field.B.copy()
    (v if family == "V" else b)[k] += delta
    f = FieldSample(field.cube, v, b, field.realization_index)
    return eigensolve(assemble_block(build_h(region, "simple", f), f)).eigenvalues


def fh_derivative_sums_fd(region, field: FieldSample,
                          step: float = 1e-5) -> np.ndarray:
    """Central-difference sum_n (d/dV_n + d/dB_n) E_j for every eigenvalue rank j.

    Eigenvalues are tracked by sort order, which is stable for perturbations
    much smaller than the level spacing.  Costs 4N + 1 eigensolves.
    """
    h = build_h(region, "simple", field)
    sums = np.zeros(2 * h.n)
    for k in lattice.site_index(field.cube, h.sites, strict=True).tolist():
        for family in ("V", "B"):
            up = _block_eigs_shifted(region, field, k, family, +step)
            dn = _block_eigs_shifted(region, field, k, family, -step)
            sums += (up - dn) / (2.0 * step)
    return sums


# -- suitability by a dense solve --------------------------------------------------


def dense_suitability_norm(op_matrix, energy, rows, cols) -> float:
    """Norm of the resolvent block [rows, cols] from a full dense inverse."""
    dim = op_matrix.shape[0]
    g = np.linalg.solve(op_matrix - energy * np.eye(dim), np.eye(dim))
    return float(np.linalg.norm(g[np.ix_(rows, cols)], 2))


# -- min-max-max principle ---------------------------------------------------------


def _outer_objective(f: np.ndarray, A: np.ndarray, B: np.ndarray, D: np.ndarray,
                     work: np.ndarray) -> float:
    # inner maximization over g is exact: the largest eigenvalue of the
    # compression [[<f,Af>, (Bf)^T], [Bf, -D]]
    f = f / np.linalg.norm(f)
    bf = B @ f
    work[0, 0] = f @ A @ f
    work[0, 1:] = bf
    work[1:, 0] = bf
    return float(np.linalg.eigvalsh(work)[-1])


def minmaxmax_lambda1(A, B, D, budget: int = 40000, seed: int = 0,
                      stable_starts: int = 3, tol: float = 1e-9) -> float:
    """Smallest positive-branch block eigenvalue by variational minimization.

    The maximization over the lower component is carried out exactly (an
    eigenproblem one dimension larger), the minimization over the upper
    component by repeated local descent from random starts.  Converges when
    `stable_starts` independent starts agree with the best value within
    `tol`; raises if the evaluation budget runs out first.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    D = np.asarray(D, dtype=float)
    n = A.shape[0]
    if n > 8:
        raise PreconditionError(f"matrix size {n} exceeds the supported maximum 8")
    if float(np.linalg.eigvalsh(A + D)[0]) <= 0.0:
        raise PreconditionError("variational principle needs A > -D")
    work = np.empty((1 + n, 1 + n))
    work[1:, 1:] = -D
    if n == 1:
        # objective is constant over the unit sphere {-1, 1}
        return _outer_objective(np.ones(1), A, B, D, work)

    rng = np.random.default_rng(seed)
    spent = 0
    best = np.inf
    agreeing = 0
    scale = max(1.0, float(np.linalg.norm(A, 2)) + float(np.linalg.norm(D, 2)))
    # cap each descent so a stalled start cannot eat the whole budget
    per_start = min(4000, budget)
    while agreeing < stable_starts:
        if spent >= budget:
            raise RuntimeError(
                f"optimization budget {budget} exhausted before {stable_starts} "
                f"starts agreed to {tol:g}")
        f0 = rng.standard_normal(n)
        f0 /= np.linalg.norm(f0)
        res = minimize(_outer_objective, f0, args=(A, B, D, work),
                       method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14,
                                "maxfev": min(per_start, budget - spent)})
        spent += res.nfev
        if res.fun < best - tol * scale:
            best = res.fun
            agreeing = 1
        elif res.fun <= best + tol * scale:
            agreeing += 1
    return float(best)
