"""Eigensolves, eigenvalue counts and Monte Carlo spectral statistics.

The normalized eigenvalue counting function of a block operator is
N(E) = #{eigenvalues <= E} / (2 |region|); its ensemble mean over
realizations estimates the integrated density of states, and differenced
counts at bin edges estimate the density of states.

Eigenvalue counts need no spectrum: `count_below` reads them off the
inertia of (H_hat - E) for a whole block of realizations at once, and
`ensemble_counts` maps it over an ensemble for every count-only kind.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .disorder import DisorderConfig, FieldSample, SiteMeasure, sample_fields
from .lattice import CubeSpec
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
    them on the ascending spectrum.

    At d = 1, by Sylvester's law of inertia the count below E is the
    number of negative eigenvalues of (H_hat - E), and with the two
    components of each site put together that matrix is block tridiagonal
    with 2x2 blocks.  Haynsworth's additivity sums the negative
    eigenvalues of the Schur complements
    S_n = A_n - E - C S_(n-1)^-1 C, C = diag(-1, 1), over the sites.  The
    recursion runs elementwise over realizations and energies and builds
    no matrix, so a realization's counts do not depend on the block it
    sits in.

    A Schur complement that is exactly singular (a zero pivot: E is an
    eigenvalue of the leading section of the chain that ends there) is
    resolved exactly, as the limit s -> 0 of the counts of
    (H_hat - E + s), with s > 0 for side "left" and s < 0 for "right".
    A zero pivot inside the chain is no eigenvalue and does not bias the
    count, and one at the last site is an eigenvalue at E, counted as the
    side says; where the recursion's arithmetic is exact, as on constant
    half-integer fields, the counts are the exact ones.  Otherwise it
    rounds like any eigensolver: a count can differ from one read off a
    computed spectrum when an eigenvalue of the operator, or of one of its
    leading sections, lies within rounding of E.  An energy beyond
    r = 5 + max|V| + max|B|, past every eigenvalue (Gershgorin), is
    counted at +-r; fields that drive the recursion out of the
    floating-point range raise ArithmeticError.

    At d >= 2 each realization is diagonalized densely.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    V = np.asarray(V, dtype=float)
    B = np.asarray(B, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if not all(np.all(np.isfinite(x)) for x in (V, B, energies)):
        raise ValueError("fields or energies have non-finite entries")
    if cube.d == 1:
        r = 5.0 + np.abs(V).max(initial=0.0) + np.abs(B).max(initial=0.0)
        # a product that overflows loses to the other form of det S, or
        # the recursion raises
        with np.errstate(over="ignore"):
            return _schur_counts(V, B, np.clip(energies, -r, r), side == "right")
    counts = [np.searchsorted(eigensolve(assemble_plain(cube, v, b)).eigenvalues,
                              energies, side=side) for v, b in zip(V, B)]
    return np.array(counts, dtype=np.int64).reshape(len(V), len(energies))


def _schur_counts(V, B, energies, right):
    """count_below at d = 1: the 2x2 Schur recursion over the sites, on
    (realizations x energies) arrays.  S = (a b; b c) is the current
    Schur complement, G = C S^-1 C = (c b; b a) / det S the term it
    passes to the next site, and det G = 1 / det S."""
    E = energies[None, :]
    shape = (len(V), len(energies))
    neg = np.zeros(shape, dtype=np.int64)
    g11 = g12 = g22 = gdet = 0.0
    ties = None
    for n in range(V.shape[1]):
        v = V[:, n, None]
        a0 = 2.0 + v - E
        c0 = -2.0 - v - E
        b0 = np.broadcast_to(B[:, n, None], shape)
        a, b, c = a0 - g11, b0 - g12, c0 - g22
        # det S two ways, each where its rounding bound is the smaller:
        # a c - b^2, exact where the entries make S exactly singular, and
        # det(A - G) = det A - tr(adj(A) G) + det G, which multiplies no two
        # entries of G, large after a small pivot
        t1, t2, t3 = c0 * g11, b0 * g12, a0 * g22
        d = np.where(np.abs(a * c) + b * b <= np.abs(a0 * c0) + b0 * b0 + np.abs(t1)
                     + 2.0 * np.abs(t2) + np.abs(t3) + np.abs(gdet),
                     a * c - b * b, a0 * c0 - b0 * b0 - (t1 - 2.0 * t2 + t3) + gdet)
        if not np.all(np.isfinite(d)):
            raise ArithmeticError("Schur recursion left the floating-point range")
        if ties is None and np.all(d):
            # det S < 0: one negative eigenvalue; det S > 0: two when a + c < 0
            neg += (d < 0.0) + 2 * ((d > 0.0) & (a + c < 0.0))
            g11, g12, g22, gdet = c / d, b / d, a / d, 1.0 / d
            continue
        inc, (g11, g12, g22, gdet), ties = _tie_site(a0, b0, c0, a, b, c, d,
                                                     ties, right)
        neg += inc
    return neg


def _tie_site(a0, b0, c0, a, b, c, d, ties, right):
    """One site of _schur_counts where a pivot, this site's or the previous
    one's, is exactly singular, resolved as the limit s -> 0 of
    (H_hat - E + s), s < 0 when `right` and s > 0 otherwise.

    A singular S = (a b; b c) has eigenvalues 0 and t = a + c, and the
    shift gives the zero one the sign of s.  C S^-1 C is then of order 1/s
    along C u, u the null vector of S, so the next Schur complement has one
    eigenvalue of the sign of -s, and its other one tends to
    rho = tr(A X) - o, X the projector orthogonal to C u and o = 1/t the
    finite part of C S^-1 C there.  A nonzero rho passes G = C X C / rho on;
    rho = 0 repeats the pair with X -> I - C X C and o = 0.  When S = 0 the
    next Schur complement has both eigenvalues of the sign of -s and passes
    G = 0 on.  `ties` holds, per element, 1 (a rank-one tie pending),
    2 (S = 0 pending) or 0, with X and o; it is None when none is pending.
    """
    shape = d.shape
    if ties is None:
        ties = (np.zeros(shape, dtype=np.int8),) + (np.zeros(shape),) * 4
    mode, x11, x12, x22, o = ties
    r = int(right)                 # 1 when s < 0
    regular = (mode == 0) & (d != 0.0)
    fresh = (mode == 0) & (d == 0.0)
    t = a + c
    rho = a0 * x11 + 2.0 * b0 * x12 + c0 * x22 - o
    settled = (mode == 1) & (rho != 0.0)
    nested = (mode == 1) & (rho == 0.0)
    inc = (regular * ((d < 0.0) + 2 * ((d > 0.0) & (t < 0.0)))
           + fresh * ((t < 0.0) + r * (1 + (t == 0.0)))
           + settled * ((1 - r) + (rho < 0.0))
           + nested
           + (mode == 2) * 2 * (1 - r))
    dd = np.where(regular, d, 1.0)
    rr = np.where(settled, rho, 1.0)
    g = (np.where(regular, c / dd, np.where(settled, x11 / rr, 0.0)),
         np.where(regular, b / dd, np.where(settled, -x12 / rr, 0.0)),
         np.where(regular, a / dd, np.where(settled, x22 / rr, 0.0)),
         np.where(regular, 1.0 / dd, 0.0))
    rank1 = fresh & (t != 0.0)
    mode = np.where(rank1 | nested, 1, np.where(fresh, 2, 0)).astype(np.int8)
    if not mode.any():
        return inc, g, None
    tt = np.where(rank1, t, 1.0)
    # X = C S C / t on a fresh tie, I - C X C on a nested one
    ties = (mode,
            np.where(rank1, a / tt, np.where(nested, 1.0 - x11, 0.0)),
            np.where(rank1, -b / tt, np.where(nested, x12, 0.0)),
            np.where(rank1, c / tt, np.where(nested, 1.0 - x22, 0.0)),
            np.where(rank1, 1.0 / tt, 0.0))
    return inc, g, ties


def spectral_gap(s: Spectrum) -> tuple[float, float]:
    """(largest negative, smallest positive) eigenvalue around 0."""
    e = s.eigenvalues
    neg = e[e < 0.0]
    pos = e[e > 0.0]
    g_minus = float(neg[-1]) if len(neg) else -np.inf
    g_plus = float(pos[0]) if len(pos) else np.inf
    return g_minus, g_plus


def deterministic_radius(d: int, mu_V: SiteMeasure, mu_B: SiteMeasure) -> float:
    """Finite-volume radius bound 4d + max|supp mu_V| + max|supp mu_B|."""
    def extent(m):
        lo, hi = m.support
        return max(abs(lo), abs(hi))
    return 4.0 * d + extent(mu_V) + extent(mu_B)


# -- ensembles -------------------------------------------------------------


def plain_block(field: FieldSample, cube=None) -> np.ndarray:
    """The plain block operator (simple BC) of a field on its cube or `cube` in it."""
    cube = field.cube if cube is None else cube
    return assemble_plain(cube, *field.at(cube))


# realizations per block kernel call run inline (a pool may cut smaller ones)
REALIZATION_BLOCK = 256


def realization_blocks(start: int, stop: int, size: int) -> list[range]:
    """Consecutive ranges of at most `size` realization indices that cover
    start..stop-1."""
    return [range(lo, min(lo + size, stop)) for lo in range(start, stop, size)]


def run_realizations(kernel, R: int, mapper=None) -> list:
    """One row per realization r = 0..R-1, in realization order, from a
    block kernel: kernel(rs) takes a range of consecutive realization
    indices and returns one row per index, in order.  `per_realization`
    lifts a kernel of one realization's field.

    Inline, blocks hold REALIZATION_BLOCK realizations.  A `mapper`
    (harness.PoolMap) takes the kernel and R, cuts its own blocks and
    returns their rows in order.  A kernel's row for r may not depend on
    the block r sits in, so aggregates depend neither on the degree of
    parallelism nor on the block size.
    """
    results = (map(kernel, realization_blocks(0, R, REALIZATION_BLOCK))
               if mapper is None else mapper(kernel, R))
    return [row for rows in results for row in rows]


def per_realization(kernel, cube: CubeSpec, config: DisorderConfig):
    """The block kernel of a kernel of one realization's field.

    Each block of realizations is sampled once on the cube
    (`disorder.sample_fields`), and kernel(field) gets the FieldSample of
    each row in turn.
    """
    return partial(_each_realization, kernel, cube, config)


def _each_realization(kernel, cube, config, rs):
    V, B = sample_fields(cube, config, rs)
    return [kernel(FieldSample(cube, v, b, r)) for r, v, b in zip(rs, V, B)]


def ensemble_counts(config: DisorderConfig, cube: CubeSpec, energies, R: int,
                    side: str, mapper=None) -> np.ndarray:
    """The (R, len(energies)) count_below of realizations 0..R-1 on the
    cube at every energy, with the side given.  Each block of realizations
    is sampled once and counted by one count_below call; the count-only
    kinds (ids, dos, wegner, tails) differ only in how they reduce this."""
    energies = np.asarray(energies, dtype=float)
    rows = run_realizations(partial(_block_counts, cube=cube, config=config,
                                    energies=energies, side=side), R, mapper)
    return np.array(rows, dtype=np.int64).reshape(R, len(energies))


def _block_counts(rs, cube, config, energies, side):
    return count_below(cube, *sample_fields(cube, config, rs), energies, side)


@dataclass(frozen=True)
class IdsEstimate:
    """Monte Carlo estimate of the integrated density of states on a grid."""

    grid: np.ndarray
    mean_N: np.ndarray
    stderr_N: np.ndarray
    realizations: int


def ids_monte_carlo(config: DisorderConfig, cube: CubeSpec, grid, R: int,
                    mapper=None) -> IdsEstimate:
    """Mean and standard error of the counting function over R realizations:
    the eigenvalues at or below each grid energy (<=), over 2 |cube|."""
    if R < 1:
        raise ValueError("need at least one realization")
    grid = np.asarray(grid, dtype=float)
    data = (ensemble_counts(config, cube, grid, R, "right", mapper)
            / (2 * cube.site_count))
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
    config: DisorderConfig = None

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def dos_histogram(config: DisorderConfig, cube: CubeSpec, edges, R: int,
                  mapper=None) -> DosHistogram:
    """Density-of-states estimate: eigenvalues per bin / (2N * width).

    Every bin is half-open, [lo, hi[, the last one too: the strict counts
    below its two edges, differenced, as the Wegner windows count.
    """
    edges = np.asarray(edges, dtype=float)
    if np.any(np.diff(edges) <= 0.0):
        raise ValueError("bin edges must be strictly increasing")
    counts = np.diff(ensemble_counts(config, cube, edges, R, "left", mapper), axis=1)
    scale = 1.0 / (2 * cube.site_count * np.diff(edges))
    density = counts.mean(axis=0) * scale
    stderr = (counts.std(axis=0, ddof=1) / np.sqrt(R)) * scale if R > 1 \
        else np.zeros_like(density)
    return DosHistogram(edges, density, stderr, R, config)
