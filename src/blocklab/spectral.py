"""Eigensolves, eigenvalue counts and Monte Carlo spectral statistics.

The normalized eigenvalue counting function of a block operator is
N(E) = #{eigenvalues <= E} / (2 |region|); its ensemble mean over
realizations estimates the integrated density of states, and differenced
counts at bin edges estimate the density of states.

Eigenvalue counts need no spectrum: `count_below` reads them off the
inertia of (H_hat - E) for a whole block of realizations at once, and
`ensemble_counts` maps it over an ensemble for every count-only kind.

Every ensemble runs through `run_realizations`, the one code that samples
fields: one sampler per call, which mixes the cube's site keys once, and
one draw per block of REALIZATION_BLOCK realizations.  That block
and the row chunks of the d = 1 chain recursions in `schur` are two
rules, not one byte budget: larger blocks speed up the small-N count
kinds but raise the peak memory, and the chain chunks' row floor pays
for their Python loop over the sites, O(N) steps per chunk.  One budget
cannot keep both time and memory flat until that loop takes O(sqrt N)
steps (README, "Realization blocks").
"""

from dataclasses import dataclass

import numpy as np

from . import schur
from .disorder import FieldSample, sample_fields
from .model import CubeSpec, DisorderConfig
from .operators import assemble_plain

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


def eigensolve(m: np.ndarray, want_vectors: bool = False) -> Spectrum:
    """Full spectrum of a real symmetric matrix, ascending with multiplicity."""
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


# -- counting by inertia ---------------------------------------------------


def count_below(cube: CubeSpec, V: np.ndarray, B: np.ndarray, energies,
                side: str = "left") -> np.ndarray:
    """Eigenvalue counts of the plain blocks (H  B; B  -H) of a block of
    realizations on the cube, H = H0 + V under the simple condition.

    Row i of the (R, N) arrays V and B is one realization's field in
    canonical site order.  Entry (i, k) of the (R, len(energies)) integer
    result is the number of eigenvalues of realization i, with
    multiplicity, strictly below energies[k] (side "left": lambda < E) or
    at or below it (side "right": lambda <= E), as np.searchsorted counts
    them on the ascending spectrum.  `side` is one side for every energy
    or an array of sides that broadcasts against `energies`; each count
    is the one a call with that energy's side alone returns.

    At d = 1 `schur.chain_counts` reads them off the inertia of
    (H_hat - E), under the pivot policy of `schur`.  An energy beyond
    r = 5 + max|V| + max|B|, past every eigenvalue (Gershgorin), is
    counted at +-r.

    At d >= 2 each realization is diagonalized densely.
    """
    sides = np.asarray(side)
    if not np.isin(sides, ("left", "right")).all():
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    V = np.asarray(V, dtype=float)
    B = np.asarray(B, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if not all(np.all(np.isfinite(x)) for x in (V, B, energies)):
        raise ValueError("fields or energies have non-finite entries")
    right = np.broadcast_to(sides == "right", energies.shape)
    if cube.d == 1:
        r = 5.0 + np.abs(V).max(initial=0.0) + np.abs(B).max(initial=0.0)
        return schur.chain_counts(cube, V, B, np.clip(energies, -r, r), right)
    counts = []
    for v, b in zip(V, B):
        ev = eigensolve(assemble_plain(cube, v, b)).eigenvalues
        counts.append(np.where(right, np.searchsorted(ev, energies, "right"),
                               np.searchsorted(ev, energies, "left")))
    return np.array(counts, dtype=np.int64).reshape(len(V), len(energies))


def spectral_gap(s: Spectrum) -> tuple[float, float]:
    """(largest negative, smallest positive) eigenvalue around 0."""
    e = s.eigenvalues
    neg = e[e < 0.0]
    pos = e[e > 0.0]
    g_minus = float(neg[-1]) if len(neg) else -np.inf
    g_plus = float(pos[0]) if len(pos) else np.inf
    return g_minus, g_plus


# -- ensembles -------------------------------------------------------------


def plain_block(field: FieldSample, cube=None) -> np.ndarray:
    """The plain block operator (simple BC) of a field on its cube or `cube`
    in it: on its own cube it reads field.V and field.B as they are."""
    if cube is None or cube == field.cube:
        return assemble_plain(field.cube, field.V, field.B)
    return assemble_plain(cube, *field.at(cube))


# realizations per call of a block kernel
REALIZATION_BLOCK = 256


def run_realizations(kernel, cube: CubeSpec, config: DisorderConfig, R: int) -> list:
    """One row per realization r = 0..R-1, in realization order, from a
    block kernel: kernel(rs, V, B) takes a range of consecutive realization
    indices and their fields on the cube, the (len(rs), N) arrays that the
    sampler of `disorder.sample_fields` draws, and returns one row per
    index, in order.  `per_field` lifts a kernel of one realization's field.

    This is the one place a run samples: one sampler per call, so the
    cube's site keys are mixed once, and each block of REALIZATION_BLOCK
    realizations, the last one the rest, is drawn once; the blocks run in
    this process one after another.  A kernel's row for r may not depend
    on the block r sits in, so aggregates do not depend on the block size.
    """
    draw = sample_fields(cube, config)
    rows = []
    for lo in range(0, R, REALIZATION_BLOCK):
        rs = range(lo, min(lo + REALIZATION_BLOCK, R))
        rows.extend(kernel(rs, *draw(rs)))
    return rows


def per_field(kernel, cube: CubeSpec):
    """The block kernel of a kernel of one realization's field:
    kernel(field) for each row of the block in turn, its FieldSample on
    the cube."""
    def block(rs, V, B):
        return [kernel(FieldSample(cube, v, b, r)) for r, v, b in zip(rs, V, B)]
    return block


def ensemble_counts(config: DisorderConfig, cube: CubeSpec, energies, R: int,
                    side: str) -> np.ndarray:
    """The (R, len(energies)) count_below of realizations 0..R-1 on the
    cube at every energy, with the side given, one count_below call per
    block; the count-only kinds (ids, dos, wegner, tails) differ only in
    how they reduce this."""
    energies = np.asarray(energies, dtype=float)
    rows = run_realizations(lambda rs, V, B: count_below(cube, V, B, energies, side),
                            cube, config, R)
    return np.array(rows, dtype=np.int64).reshape(R, len(energies))


def ensemble_mean(samples: np.ndarray):
    """Mean over axis 0 of R per-realization samples and its standard error
    std(ddof=1)/sqrt(R), 0 when R = 1.  The last bits depend on the layout:
    numpy sums a 1-D array pairwise, axis 0 of a 2-D one row by row."""
    R = len(samples)
    mean = samples.mean(axis=0)
    spread = samples.std(axis=0, ddof=1) if R > 1 else np.zeros_like(mean)
    return mean, spread / np.sqrt(R)


@dataclass(frozen=True)
class IdsEstimate:
    """Monte Carlo estimate of the integrated density of states on a grid."""

    grid: np.ndarray
    mean_N: np.ndarray
    stderr_N: np.ndarray
    realizations: int


def ids_monte_carlo(config: DisorderConfig, cube: CubeSpec, grid, R: int) -> IdsEstimate:
    """Mean and standard error of the counting function over R realizations:
    the eigenvalues at or below each grid energy (<=), over 2 |cube|."""
    if R < 1:
        raise ValueError("need at least one realization")
    grid = np.asarray(grid, dtype=float)
    mean, stderr = ensemble_mean(ensemble_counts(config, cube, grid, R, "right")
                                 / (2 * cube.site_count))
    return IdsEstimate(grid, mean, stderr, R)


@dataclass(frozen=True)
class DosHistogram:
    """Histogram estimate of the density of states with per-bin standard errors."""

    edges: np.ndarray
    density: np.ndarray
    stderr: np.ndarray
    realizations: int
    config: DisorderConfig = None

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def dos_histogram(config: DisorderConfig, cube: CubeSpec, edges, R: int) -> DosHistogram:
    """Density-of-states estimate: eigenvalues per bin / (2N * width).

    Every bin is half-open, [lo, hi[, the last one too: the strict counts
    below its two edges, differenced, as the Wegner windows count.
    """
    edges = np.asarray(edges, dtype=float)
    if np.any(np.diff(edges) <= 0.0):
        raise ValueError("bin edges must be strictly increasing")
    mean, stderr = ensemble_mean(
        np.diff(ensemble_counts(config, cube, edges, R, "left"), axis=1))
    scale = 1.0 / (2 * cube.site_count * np.diff(edges))
    return DosHistogram(edges, mean * scale, stderr * scale, R, config)
