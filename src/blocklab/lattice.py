"""Site indexing and boundary geometry of discrete cubes in Z^d.

A cube (`model.CubeSpec`) of "length" L about a center c is the set of
lattice points in the open box c + ]-L/2, L/2[^d.  L may be any real > 1;
for even integer L the open interval drops the endpoints, so e.g. L=4 and
L=3 give the same 1d site set {-1, 0, 1}.

All matrices and field arrays in this package index sites in lexicographic
order of their coordinate tuples; every helper here returns sites in that
canonical order, as (k, d) integer arrays, and `site_index` is the one map
from sites to those indices.  A cube has n = `model.axis_count(L)` sites
per axis from its least corner, so its geometry is index arithmetic on
the offsets from that corner.
"""

import numpy as np

from .model import CubeSpec, axis_count


def _corner(cube: CubeSpec) -> tuple[np.ndarray, int]:
    """The cube's least corner, as a (d, 1) column, and its sites per axis."""
    n = axis_count(cube.L)
    return np.array(cube.center, dtype=np.int64)[:, None] - (n - 1) // 2, n


def _offsets(n: int, d: int) -> np.ndarray:
    """The (d, n^d) offsets of an n^d box from its corner, in canonical
    order."""
    return np.indices((n,) * d).reshape(d, -1)


def neighbour_pairs(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The sites one step apart in an n^d box, as two arrays of canonical
    indices (i, i + stride): axis k has stride n^k, and i is each site
    with an offset below n - 1 on it; none at n = 1."""
    i = np.arange(n ** d)
    strides = n ** np.arange(d)
    axis, lo = np.nonzero(i // strides[:, None] % n < n - 1)
    return lo, lo + strides[axis]


def site_array(cube: CubeSpec) -> np.ndarray:
    """The cube's sites as an (N, d) integer array, in canonical order."""
    lo, n = _corner(cube)
    return (_offsets(n, cube.d) + lo).T


def site_index(cube: CubeSpec, query, *, strict: bool = False) -> np.ndarray:
    """Canonical index in the cube of every site of `query`, -1 if absent.

    `query` is a CubeSpec (its sites in canonical order) or an (M, d)
    integer array, read in its own order.  With strict, an absent site
    raises KeyError instead of being marked.
    """
    lo, n = _corner(cube)
    q = (site_array(query) if isinstance(query, CubeSpec)
         else np.asarray(query, dtype=np.int64))
    off = q.reshape(len(q), cube.d).T - lo     # raises on a dimension mismatch
    inside = ((off >= 0) & (off < n)).all(axis=0)
    idx = np.where(inside, np.ravel_multi_index(tuple(off), (n,) * cube.d,
                                                mode="clip"), -1)
    if strict and not inside.all():
        raise KeyError(f"site {tuple(q[np.argmin(inside)].tolist())} is not in the cube")
    return idx


def dist1_array(a, b) -> np.ndarray:
    """1-norm distance sum_j |a_j - b_j| along the last axis of two site
    arrays, broadcasting the rest: (P, d) with (P, d) gives P pair
    distances, a[:, None] with b[None] the distance matrix."""
    return np.abs(np.subtract(a, b)).sum(axis=-1)


def inner_boundary(cube: CubeSpec) -> np.ndarray:
    """Sites of the cube with a neighbour outside it: an offset 0 or n - 1
    on some axis.  A (k, d) array in canonical order."""
    lo, n = _corner(cube)
    off = _offsets(n, cube.d)
    return (off[:, ((off == 0) | (off == n - 1)).any(axis=0)] + lo).T


def outer_boundary(cube: CubeSpec) -> np.ndarray:
    """Sites outside the cube with a neighbour inside it: in the (n + 2)^d
    box around it, one step outside on exactly one axis.  A (k, d) array
    in canonical order."""
    lo, n = _corner(cube)
    off = _offsets(n + 2, cube.d) - 1
    return (off[:, ((off < 0) | (off >= n)).sum(axis=0) == 1] + lo).T
