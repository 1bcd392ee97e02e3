"""Discrete cubes in Z^d, site indexing, and boundary geometry.

A cube of "length" L about a center c is the set of lattice points in the
open box c + ]-L/2, L/2[^d.  L may be any real > 1; for even integer L the
open interval drops the endpoints, so e.g. L=4 and L=3 give the same 1d
site set {-1, 0, 1}.

All matrices and field arrays in this package index sites in lexicographic
order of their coordinate tuples; every helper here returns sites in that
canonical order, and `site_index` is the one map from sites to those
indices.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

Site = tuple[int, ...]


def axis_count(L: float) -> int:
    """Number of integers k with -L/2 < k < L/2, i.e. 2 ceil(L/2) - 1."""
    if L <= 1:
        raise ValueError(f"cube of length {L} contains no sites (need L > 1)")
    return 2 * math.ceil(L / 2) - 1


@dataclass(frozen=True)
class CubeSpec:
    """A discrete cube ``center + ]-L/2, L/2[^d  intersect  Z^d``."""

    d: int
    L: float
    center: Site = ()

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if not self.center:
            object.__setattr__(self, "center", (0,) * self.d)
        if len(self.center) != self.d:
            raise ValueError(f"center {self.center} does not match d={self.d}")

    def axis_offsets(self) -> tuple[int, ...]:
        """Integers k with -L/2 < k < L/2 (offsets from the center)."""
        if self.L <= 1:
            raise ValueError(f"cube of length {self.L} contains no sites (need L > 1)")
        lo = -math.floor(self.L / 2) - 1
        hi = math.floor(self.L / 2) + 1
        return tuple(k for k in range(lo, hi + 1) if 2 * k > -self.L and 2 * k < self.L)

    def sites(self) -> tuple[Site, ...]:
        """All cube sites in lexicographic order (computed once per cube)."""
        return _cube_sites(self)

    @property
    def site_count(self) -> int:
        return axis_count(self.L) ** self.d

    def __contains__(self, site) -> bool:
        return all(2 * (s - c) > -self.L and 2 * (s - c) < self.L
                   for s, c in zip(site, self.center))

    def concentric(self, L: float) -> "CubeSpec":
        """The cube of length L with the same center."""
        return CubeSpec(self.d, L, self.center)


@lru_cache(maxsize=64)
def _cube_sites(cube: CubeSpec) -> tuple[Site, ...]:
    offs = cube.axis_offsets()
    return tuple(
        tuple(c + k for c, k in zip(cube.center, combo))
        for combo in product(offs, repeat=cube.d)
    )


@dataclass(frozen=True)
class EdgeSet:
    """Ordered nearest-neighbour pairs (n, m) crossing a region boundary."""

    pairs: tuple[tuple[Site, Site], ...]

    def endpoints(self) -> frozenset:
        return frozenset(s for pair in self.pairs for s in pair)


def sites(region) -> tuple[Site, ...]:
    """Canonical (lexicographic, duplicate-free) site tuple of a region.

    Accepts a CubeSpec or any iterable of integer coordinate tuples.
    """
    if isinstance(region, CubeSpec):
        return region.sites()
    out = sorted({tuple(int(c) for c in s) for s in region})
    if not out:
        raise ValueError("empty region")
    d = len(out[0])
    if any(len(s) != d for s in out):
        raise ValueError("sites of mixed dimension")
    return tuple(out)


def site_array(region) -> np.ndarray:
    """Sites of a region (as for `sites`) as an (N, d) integer array."""
    return np.array(sites(region), dtype=np.int64)


def site_index(region, query, *, strict: bool = False) -> np.ndarray:
    """Canonical index in `region` of every site of `query`, -1 if absent.

    `query` is a CubeSpec (its sites in canonical order), an iterable of
    sites or an (M, d) integer array, read in its own order.  With strict,
    an absent site raises KeyError instead of being marked.
    """
    lo, shape, ref_key = _ranked(region if isinstance(region, CubeSpec)
                                 else sites(region))
    q = (site_array(query) if isinstance(query, CubeSpec)
         else np.asarray(query, dtype=np.int64))
    q = q.reshape(len(q), len(shape))     # raises on a dimension mismatch
    off = q - lo
    inside = ((off >= 0) & (off < shape)).all(axis=1)
    key = np.ravel_multi_index(tuple(off.T), shape, mode="clip")
    pos = np.minimum(np.searchsorted(ref_key, key), len(ref_key) - 1)
    idx = np.where(inside & (ref_key[pos] == key), pos, -1)
    if strict and np.any(idx < 0):
        raise KeyError(f"site {tuple(q[np.argmin(idx)].tolist())} is not in the region")
    return idx


@lru_cache(maxsize=64)
def _ranked(region):
    """Bounding-box corner and shape of a region, and the row-major keys of
    its sites in that box, which rank them in lexicographic order."""
    ref = site_array(region)
    lo = ref.min(axis=0)
    shape = ref.max(axis=0) - lo + 1
    return lo, shape, np.ravel_multi_index(tuple((ref - lo).T), shape)


def dist1_array(a, b) -> np.ndarray:
    """1-norm distance sum_j |a_j - b_j| along the last axis of two site
    arrays, broadcasting the rest: (P, d) with (P, d) gives P pair
    distances, a[:, None] with b[None] the distance matrix."""
    return np.abs(np.subtract(a, b)).sum(axis=-1)


def _neighbours(site: Site):
    for j in range(len(site)):
        for step in (-1, 1):
            yield site[:j] + (site[j] + step,) + site[j + 1:]


def boundary(region) -> EdgeSet:
    """All pairs (n, m), |n-m| = 1, with exactly one endpoint in the region.

    Both orientations are listed, matching the symmetric pair set used to
    define the boundary operator.
    """
    inside = set(sites(region))
    pairs = []
    for n in sorted(inside):
        for m in _neighbours(n):
            if m not in inside:
                pairs.append((n, m))
                pairs.append((m, n))
    return EdgeSet(tuple(sorted(pairs)))


def inner_boundary(region) -> tuple[Site, ...]:
    """Sites of the region with at least one neighbour outside."""
    inside = set(sites(region))
    return tuple(sorted(n for n in inside
                        if any(m not in inside for m in _neighbours(n))))


def outer_boundary(region) -> tuple[Site, ...]:
    """Sites outside the region with at least one neighbour inside."""
    inside = set(sites(region))
    out = set()
    for n in inside:
        for m in _neighbours(n):
            if m not in inside:
                out.add(m)
    return tuple(sorted(out))


def strictly_inside(region1, region2) -> bool:
    """Whether every endpoint of every boundary edge of region1 lies in region2."""
    outside = sites(region2)
    have = set(outside)
    return all(s in have for s in boundary(region1).endpoints())
