"""Finite-volume operator assembly.

Builds the discrete Laplacian on a region under simple, Dirichlet or
Neumann conditions, its random-potential perturbation on a cube, the
2x2-block layout with multiplication off-diagonal coupling, the plain and
the Dirichlet/Neumann bracketing blocks of a field on a cube, and the
boundary hopping operator.

Every operator is a float matrix; the block layout's are `BlockMatrix`
arrays.  Block layout is fixed throughout
the package: with N region sites in canonical (lexicographic) order,
indices 0..N-1 address the upper component and N..2N-1 the lower one.
"""

from functools import lru_cache

import numpy as np

from . import lattice

BOUNDARY_CONDITIONS = ("simple", "dirichlet", "neumann")

# dense-eigensolve budget: full spectra need O(dim^3) work
MAX_BLOCK_DIM = 4096


def build_h0(region, bc: str = "simple") -> np.ndarray:
    """Discrete Laplacian on a region under the given boundary condition.

    All variants have -1 on neighbour pairs inside the region.  Diagonals:
    simple 2d everywhere (plain truncation of the full-lattice matrix),
    neumann = number of neighbours kept inside, dirichlet = 2d + number of
    neighbours lost to the outside.  This pins the quadratic-form bracketing
    H^N <= H0 <= H^D.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
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
    return m


@lru_cache(maxsize=32)
def template(cube, bc: str) -> np.ndarray:
    """H0 on a cube under the boundary condition, built once per (cube, bc)
    and shared, so read-only: an operator of one realization copies it and
    writes only its diagonal.  `harness.run` clears the cache."""
    m = build_h0(cube, bc)
    m.flags.writeable = False
    return m


def build_h(cube, bc: str, V: np.ndarray) -> np.ndarray:
    """Random Schroedinger operator H = H0 + V on the cube, V in its
    canonical site order."""
    m = template(cube, bc).copy()
    m[np.diag_indices(len(m))] += V
    return m


class BlockMatrix(np.ndarray):
    """The array type of block-layout matrices.  `.matrix` is the array
    itself as a plain ndarray: the benchmark's counter hooks
    (perfbench/spans.py) read it off the argument of `spectral.eigensolve`
    and `green.resolvent`.  Arithmetic on it returns plain arrays and
    scalars, so the type stops at the matrix."""

    matrix = property(np.asarray)

    def __array_wrap__(self, arr, context=None, return_scalar=False):
        arr = np.asarray(arr)
        return arr[()] if return_scalar else arr


def block(upper: np.ndarray, coupling, lower: np.ndarray) -> BlockMatrix:
    """The block layout (upper  C; C  -lower): C is an n x n coupling
    matrix, or a number c for c times the identity."""
    n = len(upper)
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = upper
    m[n:, n:] = -lower
    m[:n, n:] = m[n:, :n] = (coupling * np.eye(n) if np.ndim(coupling) == 0
                             else coupling)
    return m.view(BlockMatrix)


def assemble_plain(cube, V: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Plain block (H  B; B  -H), H = H0 + V under the simple condition,
    for V and B in the cube's canonical site order."""
    h = build_h(cube, "simple", V)
    return block(h, np.diag(B), h)


def assemble_bracketing(cube, V: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Bracketing block (H^D  B; B  -H^N) with Dirichlet/Neumann diagonal
    blocks, for V and B in the cube's canonical site order."""
    return block(build_h(cube, "dirichlet", V), np.diag(B),
                 build_h(cube, "neumann", V))


def build_gamma(inner, ambient) -> np.ndarray:
    """Boundary operator Gamma of `inner` acting on l2(ambient): -1 on the
    boundary edge pairs of the inner region.  Its block version is
    block(Gamma, 0.0, Gamma), of the same operator norm."""
    if not lattice.strictly_inside(inner, ambient):
        raise ValueError("inner region is not strictly inside the ambient region")
    ambient_sites = lattice.sites(ambient)
    n = len(ambient_sites)
    ends = np.array(lattice.boundary(inner).pairs)      # (pairs, 2, d)
    g = np.zeros((n, n))
    g[lattice.site_index(ambient_sites, ends[:, 0], strict=True),
      lattice.site_index(ambient_sites, ends[:, 1], strict=True)] = -1.0
    return g


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
