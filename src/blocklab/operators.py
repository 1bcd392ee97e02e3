"""Finite-volume operator assembly.

Builds the discrete Laplacian on a region under simple, Dirichlet or
Neumann conditions, its random-potential perturbation, the 2x2-block
operator with multiplication off-diagonal coupling, the constant-coupling
reference block, the Dirichlet/Neumann bracketing block and boundary
operators.

Block layout is fixed throughout the package: with N region sites in
canonical (lexicographic) order, indices 0..N-1 address the upper
component and N..2N-1 the lower one.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lattice
from .disorder import FieldSample
from .lattice import Site

BOUNDARY_CONDITIONS = ("simple", "dirichlet", "neumann")

# dense-eigensolve budget: full spectra need O(dim^3) work
MAX_BLOCK_DIM = 4096


@dataclass(frozen=True)
class ScalarOperator:
    """Real symmetric matrix on a region of Z^d, in canonical site order."""

    sites: tuple[Site, ...]
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class BlockOperator:
    """2N x 2N real symmetric block operator (upper | lower components)."""

    sites: tuple[Site, ...]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * len(self.sites)


def build_h0(region, bc: str = "simple") -> ScalarOperator:
    """Discrete Laplacian on a region under the given boundary condition.

    All variants have -1 on neighbour pairs inside the region.  Diagonals:
    simple 2d everywhere (plain truncation of the full-lattice matrix),
    neumann = number of neighbours kept inside, dirichlet = 2d + number of
    neighbours lost to the outside.  This pins the quadratic-form bracketing
    H^N <= H0 <= H^D.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    region_sites = lattice.sites(region)
    points = lattice.site_array(region)
    n, d = points.shape
    m = np.zeros((n, n))
    # canonical index of the +1 neighbour along each axis, -1 outside
    shifted = points + np.eye(d, dtype=np.int64)[:, None]      # (d, n, d)
    up = lattice.site_index(region, shifted.reshape(-1, d)).reshape(d, n)
    for j in up:
        i = np.flatnonzero(j >= 0)
        m[i, j[i]] = m[j[i], i] = -1.0
    deg = np.count_nonzero(m, axis=1).astype(float)   # neighbours inside
    if bc == "simple":
        m[np.diag_indices(n)] = 2.0 * d
    elif bc == "neumann":
        m[np.diag_indices(n)] = deg
    else:
        m[np.diag_indices(n)] = 4.0 * d - deg
    return ScalarOperator(region_sites, m)


def template(region, bc: str = "simple") -> ScalarOperator:
    """The operator template of a region: H0 under the boundary condition,
    built once per (region, bc) and shared, so its matrix is read-only.

    An operator of one realization copies the matrix and writes only its
    diagonal; the positions of the region's sites in a field cube are
    cached beside the field (`FieldSample.at`).  `region` is a CubeSpec or
    a tuple of sites (the cache key); any other iterable of sites is made
    canonical first.  `harness.run` clears the cache.
    """
    if not isinstance(region, (lattice.CubeSpec, tuple)):
        region = lattice.sites(region)
    return _template(region, bc)


@lru_cache(maxsize=32)
def _template(region, bc):
    h0 = build_h0(region, bc)
    h0.matrix.flags.writeable = False
    return h0


def build_h(region, bc: str, field: FieldSample) -> ScalarOperator:
    """Random Schroedinger operator H = H0 + V on the region."""
    h0 = template(region, bc)
    m = h0.matrix.copy()
    m[np.diag_indices(h0.n)] += field.at(h0.sites)[0]
    return ScalarOperator(h0.sites, m)


def _block(sites, upper: np.ndarray, coupling,
           lower: np.ndarray) -> BlockOperator:
    """The block layout (upper  C; C  -lower) over the sites: C is an n x n
    coupling matrix, or 0.0 for a direct sum."""
    n = len(sites)
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = upper
    m[n:, n:] = -lower
    m[:n, n:] = coupling
    m[n:, :n] = coupling
    return BlockOperator(sites, m)


def assemble_plain(h0: ScalarOperator, V: np.ndarray,
                   B: np.ndarray) -> BlockOperator:
    """Plain block (H  B; B  -H) with H = H0 + V, for V and B given at the
    sites of h0, in its order: the matrix that
    assemble_block(build_h(region, bc, field), field) writes."""
    m = h0.matrix.copy()
    m[np.diag_indices(h0.n)] += V
    return _block(h0.sites, m, np.diag(B), m)


def assemble_block(h: ScalarOperator, field: FieldSample) -> BlockOperator:
    """Block operator (H  B; B  -H) with diagonal coupling B from the field."""
    return _block(h.sites, h.matrix, np.diag(field.at(h.sites)[1]), h.matrix)


def assemble_beta_reference(h: ScalarOperator, beta: float) -> BlockOperator:
    """Constant-coupling reference block (H  beta*1; beta*1  -H)."""
    return _block(h.sites, h.matrix, beta * np.eye(h.n), h.matrix)


def assemble_bracketing(region, field: FieldSample) -> BlockOperator:
    """Bracketing block (H^D  B; B  -H^N) with Dirichlet/Neumann diagonal blocks."""
    hd = build_h(region, "dirichlet", field)
    hn = build_h(region, "neumann", field)
    return _block(hd.sites, hd.matrix, np.diag(field.at(hd.sites)[1]), hn.matrix)


@dataclass(frozen=True)
class BoundaryOperator:
    """Boundary hopping operator of an inner region, on an ambient region.

    gamma is the scalar matrix with entries -1 on the boundary edge pairs of
    the inner region; lifted is its block version gamma (+) (-gamma).
    """

    ambient_sites: tuple[Site, ...]
    gamma: np.ndarray
    lifted: np.ndarray

    @property
    def norm(self) -> float:
        """Operator norm; equals the scalar norm by the direct-sum structure."""
        return float(np.linalg.norm(self.gamma, 2))


def build_gamma(inner, ambient) -> BoundaryOperator:
    """Boundary operator of `inner` acting on l2(ambient), lifted to blocks."""
    if not lattice.strictly_inside(inner, ambient):
        raise ValueError("inner region is not strictly inside the ambient region")
    ambient_sites = lattice.sites(ambient)
    n = len(ambient_sites)
    ends = np.array(lattice.boundary(inner).pairs)      # (pairs, 2, d)
    g = np.zeros((n, n))
    g[lattice.site_index(ambient_sites, ends[:, 0], strict=True),
      lattice.site_index(ambient_sites, ends[:, 1], strict=True)] = -1.0
    lifted = _block(ambient_sites, g, 0.0, g).matrix
    return BoundaryOperator(ambient_sites, g, lifted)


def component_indices(ambient, subset) -> np.ndarray:
    """Row/column indices of subset sites (in their order) in both block
    components of the ambient region (a cube or a canonical site tuple)."""
    base = lattice.site_index(ambient, subset, strict=True)
    n = ambient.site_count if isinstance(ambient, lattice.CubeSpec) else len(ambient)
    return np.concatenate([base, base + n])


@lru_cache(maxsize=8)
def rim_indices(cube) -> np.ndarray:
    """Indices of a cube's inner boundary in it, in both components, built
    once per cube and shared, so read-only.  `harness.run` clears the
    cache."""
    rim = component_indices(cube, lattice.inner_boundary(cube))
    rim.flags.writeable = False
    return rim
