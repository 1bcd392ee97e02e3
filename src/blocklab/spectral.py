"""Eigensolves, counting functions and Monte Carlo spectral statistics.

The normalized eigenvalue counting function of a block operator is
N(E) = #{eigenvalues <= E} / (2 |region|); its ensemble mean over
realizations estimates the integrated density of states, and the ensemble
eigenvalue histogram estimates the density of states directly.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .disorder import DisorderConfig, SiteMeasure, sample_field
from .lattice import CubeSpec
from .operators import BlockOperator, assemble_block, build_h

EIG_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues (optionally with orthonormal eigenvectors)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues))) if self.dim else 0.0


def eigensolve(op, want_vectors: bool = False) -> Spectrum:
    """Full spectrum of a block or scalar operator, ascending with multiplicity."""
    m = op.matrix
    if not np.all(np.isfinite(m)):
        raise ValueError("operator matrix has non-finite entries")
    if want_vectors:
        ev, vec = np.linalg.eigh(m)
        scale = max(np.max(np.abs(ev)), 1e-300)
        resid = np.max(np.linalg.norm(m @ vec - vec * ev, axis=0))
        if resid > EIG_RESIDUAL_RTOL * scale:
            raise ArithmeticError(f"eigenpair residual {resid:.2e} exceeds contract")
    else:
        ev, vec = np.linalg.eigvalsh(m), None
    return Spectrum(ev, vec)


def count_leq(s: Spectrum, energy: float) -> int:
    """Number of eigenvalues in ]-inf, energy], with multiplicity."""
    return int(np.searchsorted(s.eigenvalues, energy, side="right"))


def counting(s: Spectrum, energy: float) -> float:
    """Normalized counting function of a block spectrum, value in [0, 1]."""
    return count_leq(s, energy) / s.dim


def count_window(s: Spectrum, lo: float, hi: float) -> int:
    """Number of eigenvalues in the half-open window [lo, hi[."""
    e = s.eigenvalues
    return int(np.searchsorted(e, hi, side="left") - np.searchsorted(e, lo, side="left"))


def spectral_gap(s: Spectrum) -> tuple[float, float]:
    """(largest negative, smallest positive) eigenvalue around 0."""
    e = s.eigenvalues
    neg = e[e < 0.0]
    pos = e[e > 0.0]
    g_minus = float(neg[-1]) if len(neg) else -np.inf
    g_plus = float(pos[0]) if len(pos) else np.inf
    return g_minus, g_plus


@dataclass(frozen=True)
class StructuralCheck:
    name: str
    value: float
    threshold: float
    passed: bool


def symmetry_check(s: Spectrum, rtol: float = 1e-9) -> StructuralCheck:
    """Spectrum symmetry around 0: max_j |E_j + E_(dim+1-j)| small."""
    e = s.eigenvalues
    defect = float(np.max(np.abs(e + e[::-1]))) if s.dim else 0.0
    thr = rtol * max(s.norm, 1e-300)
    return StructuralCheck("symmetry", defect, thr, defect <= thr)


def nondegeneracy_check(s: Spectrum, min_spacing: float = 1e-12) -> StructuralCheck:
    """All eigenvalues simple (continuous-density disorder, a.s.)."""
    spacing = float(np.min(np.diff(s.eigenvalues))) if s.dim > 1 else np.inf
    return StructuralCheck("nondegeneracy", spacing, min_spacing, spacing > min_spacing)


def radius_check(s: Spectrum, r: float) -> StructuralCheck:
    """All eigenvalues inside the deterministic radius [-r, r]."""
    top = s.norm
    return StructuralCheck("radius", top, r, top <= r + 1e-12 * max(r, 1.0))


def deterministic_radius(d: int, mu_V: SiteMeasure, mu_B: SiteMeasure) -> float:
    """Finite-volume radius bound 4d + max|supp mu_V| + max|supp mu_B|."""
    def extent(m):
        lo, hi = m.support
        return max(abs(lo), abs(hi))
    return 4.0 * d + extent(mu_V) + extent(mu_B)


# -- ensembles -------------------------------------------------------------


def plain_block(cube: CubeSpec, config: DisorderConfig, r: int) -> BlockOperator:
    """Realization r of the plain block operator on the cube (simple BC)."""
    f = sample_field(cube, config, r)
    return assemble_block(build_h(cube, "simple", f), f)


def _counting_row(r: int, cube, config, grid):
    s = eigensolve(plain_block(cube, config, r))
    return np.array([counting(s, e) for e in grid])


def _eigenvalue_row(r: int, cube, config):
    return eigensolve(plain_block(cube, config, r)).eigenvalues


def run_realizations(kernel, R: int, mapper=None) -> list:
    """Evaluate kernel(r) for r = 0..R-1, preserving realization order.

    `mapper` may be a pool map; results are consumed in index order either
    way, so aggregates do not depend on the degree of parallelism.
    """
    if mapper is None:
        return [kernel(r) for r in range(R)]
    return list(mapper(kernel, range(R)))


@dataclass(frozen=True)
class IdsEstimate:
    """Monte Carlo estimate of the integrated density of states on a grid."""

    grid: np.ndarray
    mean_N: np.ndarray
    stderr_N: np.ndarray
    realizations: int


def ids_monte_carlo(config: DisorderConfig, cube: CubeSpec, grid, R: int,
                    mapper=None) -> IdsEstimate:
    """Mean and standard error of the counting function over R realizations."""
    if R < 1:
        raise ValueError("need at least one realization")
    grid = np.asarray(grid, dtype=float)
    rows = run_realizations(partial(_counting_row, cube=cube, config=config,
                                    grid=grid), R, mapper)
    data = np.vstack(rows)
    mean = data.mean(axis=0)
    stderr = (data.std(axis=0, ddof=1) / np.sqrt(R) if R > 1
              else np.zeros_like(mean))
    return IdsEstimate(grid, mean, stderr, R)


@dataclass(frozen=True)
class DosHistogram:
    """Histogram estimate of the density of states with per-bin standard errors."""

    edges: np.ndarray
    density: np.ndarray
    stderr: np.ndarray
    realizations: int
    cube: CubeSpec = None
    config: DisorderConfig = None

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)


def dos_histogram(config: DisorderConfig, cube: CubeSpec, edges, R: int,
                  mapper=None) -> DosHistogram:
    """Density-of-states estimate: counted eigenvalues per bin / (2N * width)."""
    edges = np.asarray(edges, dtype=float)
    if np.any(np.diff(edges) <= 0.0):
        raise ValueError("bin edges must be strictly increasing")
    rows = run_realizations(partial(_eigenvalue_row, cube=cube, config=config),
                            R, mapper)
    dim = 2 * cube.site_count
    widths = np.diff(edges)
    counts = np.vstack([np.histogram(ev, bins=edges)[0] for ev in rows])
    scale = 1.0 / (dim * widths)
    density = counts.mean(axis=0) * scale
    stderr = (counts.std(axis=0, ddof=1) / np.sqrt(R)) * scale if R > 1 \
        else np.zeros_like(density)
    return DosHistogram(edges, density, stderr, R, cube, config)
