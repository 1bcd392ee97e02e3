"""Finite-volume operator assembly.

Builds the discrete Laplacian on a cube under simple, Dirichlet or
Neumann conditions, its random-potential perturbation, the
2x2-block layout with multiplication off-diagonal coupling, the plain and
the Dirichlet/Neumann bracketing blocks of a field on a cube, and the
boundary hopping operator.

Every operator is a plain float matrix.  Each call builds its own
matrix, from the axis strides of the cube, and nothing is cached, so the
caller owns what it gets.  Block layout is fixed throughout the package:
with N cube sites in canonical (lexicographic) order, indices 0..N-1
address the upper component and N..2N-1 the lower one.
"""

import numpy as np

from . import lattice
from .model import axis_count, strictly_inside

BOUNDARY_CONDITIONS = ("simple", "dirichlet", "neumann")


def build_h0(cube, bc: str) -> np.ndarray:
    """Discrete Laplacian on a cube under the given boundary condition.

    All variants have -1 on neighbour pairs inside the cube, found by the
    axis strides of the canonical order (`lattice.neighbour_pairs`).
    Diagonals: simple 2d everywhere (plain truncation of the full-lattice
    matrix), neumann = number of neighbours kept inside, dirichlet = 2d +
    number of neighbours lost to the outside.  This pins the
    quadratic-form bracketing H^N <= H0 <= H^D.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    n = cube.site_count
    m = np.zeros((n, n))
    lo, hi = lattice.neighbour_pairs(axis_count(cube.L), cube.d)
    m[lo, hi] = m[hi, lo] = -1.0
    # neighbours inside
    deg = (np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)).astype(float)
    if bc == "simple":
        m[np.diag_indices(n)] = 2.0 * cube.d
    elif bc == "neumann":
        m[np.diag_indices(n)] = deg
    else:
        m[np.diag_indices(n)] = 4.0 * cube.d - deg
    return m


def build_h(cube, bc: str, V: np.ndarray) -> np.ndarray:
    """Random Schroedinger operator H = H0 + V on the cube, V in its
    canonical site order."""
    m = build_h0(cube, bc)
    m[np.diag_indices(len(m))] += V
    return m


def block(upper: np.ndarray, coupling, lower: np.ndarray) -> np.ndarray:
    """The block layout (upper  C; C  -lower): C is an n x n coupling
    matrix, or a number c for c times the identity."""
    n = len(upper)
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = upper
    m[n:, n:] = -lower
    m[:n, n:] = m[n:, :n] = (coupling * np.eye(n) if np.ndim(coupling) == 0
                             else coupling)
    return m


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
    """Boundary operator Gamma of cube `inner` acting on l2(cube
    `ambient`): -1 on the boundary edge pairs of `inner`, each rim site
    with each unit step that leaves `inner`, both ways.  Its block version
    is block(Gamma, 0.0, Gamma), of the same operator norm."""
    if not strictly_inside(inner, ambient):
        raise ValueError("inner region is not strictly inside the ambient region")
    rim = lattice.inner_boundary(inner)
    eye = np.eye(inner.d, dtype=np.int64)
    steps = np.concatenate([eye, -eye])
    ends = (rim[:, None] + steps).reshape(-1, inner.d)     # (rim x 2d, d)
    leaves = lattice.site_index(inner, ends) < 0
    i = lattice.site_index(ambient, rim).repeat(len(steps))[leaves]
    j = lattice.site_index(ambient, ends[leaves], strict=True)
    n = ambient.site_count
    g = np.zeros((n, n))
    g[i, j] = g[j, i] = -1.0
    return g


def component_indices(ambient, subset) -> np.ndarray:
    """Row/column indices of subset sites (a cube, or an (M, d) site array
    in its order) in both block components of the cube `ambient`."""
    base = lattice.site_index(ambient, subset, strict=True)
    return np.concatenate([base, base + ambient.site_count])


def rim_indices(cube) -> np.ndarray:
    """Indices of a cube's inner boundary in it, in both components."""
    return component_indices(cube, lattice.inner_boundary(cube))
