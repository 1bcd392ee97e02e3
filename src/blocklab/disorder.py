"""Deterministic i.i.d. field sampling from the single-site measures.

The measures and the disorder pair are `model.SiteMeasure` and
`model.DisorderConfig`; here they meet numpy: the inverse CDF of a
measure and the fields of a block of realizations.

Sampling is counter-based: the value at a site is a pure function of
(master seed, realization index, site coordinates, family tag), so fields
are reproducible independently of enumeration order, block size and
worker count, and a sub-region of a cube automatically carries the same
field values.  A SplitMix64-style counter hash (Steele, Lea & Flood,
OOPSLA 2014) draws a whole block of realizations at once as uint64 array
arithmetic; seeds, realization indices and coordinates are signed 64-bit
integers.  `sample_fields(cube, config)` is the sampler of one cube: it
mixes the site and family keys once, and its draws read them, so the
keys live as long as the sampler and no longer.
"""

from dataclasses import dataclass

import numpy as np

from .lattice import site_array, site_index
from .model import CubeSpec, DisorderConfig, SiteMeasure


def from_uniform(measure: SiteMeasure, u):
    """Inverse-CDF transform of uniform [0,1) variates to `measure`.

    Takes a float (returns a float) or an array (returns an array of the
    same shape); each value goes through the same IEEE operations in the
    same order either way.
    """
    k, p = measure.kind, measure.params
    x = np.asarray(u, dtype=float)
    if k == "uniform":
        a, b = p
        out = a + x * (b - a)
    elif k == "triangular":
        a, b = p
        out = np.where(x <= 0.5, a + (b - a) * np.sqrt(x / 2.0),
                       b - (b - a) * np.sqrt((1.0 - x) / 2.0))
    elif k == "point_mass":
        out = np.full(x.shape, p[0])
    else:
        v1, prob, v2 = p
        out = np.where(x < prob, v1, v2)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class FieldSample:
    """One realization of the (V, B) fields on a cube.

    V and B are float arrays in the canonical site order of the cube.
    """

    cube: CubeSpec
    V: np.ndarray
    B: np.ndarray
    realization_index: int

    def at(self, cube: CubeSpec) -> tuple[np.ndarray, np.ndarray]:
        """(V, B) on a cube inside this field's cube, in its canonical site
        order."""
        idx = site_index(self.cube, cube, strict=True)
        return self.V[idx], self.B[idx]


# SplitMix64's increment and finalizer multipliers, its three shifts and the
# shift to 53 bits, as 0-d arrays (faster operands than numpy scalars)
_GAMMA, _M1, _M2, _S30, _S27, _S31, _S11 = (
    np.array(c, dtype=np.uint64) for c in (
        0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31, 11))
# distinct starting keys keep site keys apart from (seed, family) keys
_SEED_KEY0, _SITE_KEY0 = 0x5EED5EED5EED5EED, 0x5173517351735173


def _mix(z: np.ndarray) -> np.ndarray:
    """One SplitMix64 step of every element of a uint64 array: add the
    increment, then the finalizer, all mod 2^64.  Returns a new array."""
    z = z + _GAMMA
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def _absorb(key: int, words) -> np.ndarray:
    """Fold signed 64-bit words into a key, one SplitMix64 step per word."""
    z = np.array([key], dtype=np.uint64)
    for w in words:
        z = _mix(z ^ np.array([w], dtype=np.int64).view(np.uint64))
    return z


def _site_keys(cube: CubeSpec) -> np.ndarray:
    """One key per cube site, in canonical order, mixed from (d, coordinates).

    A key depends on the site's coordinates, not its index, so a site has
    the same key in every cube that contains it.
    """
    coords = site_array(cube).view(np.uint64)
    keys = _absorb(_SITE_KEY0, (cube.d,)).repeat(len(coords))
    for j in range(cube.d):
        keys = _mix(keys ^ coords[:, j])
    return keys


def _uniforms(realizations, family_key: np.ndarray,
              site_keys: np.ndarray) -> np.ndarray:
    """Uniform [0,1) variates of a block of realizations at every site of
    a cube, from the keys of its (seed, family) stream and of its sites.

    A counter hash in the style of SplitMix64: the (seed, family) key and
    each realization index give a realization key, each site its
    `_site_keys` key, and element (i, n) is two SplitMix64 steps of
    r_key[i] ^ site_key[n], whose top 53 bits give the uniform.  So every
    value is a pure function of (seed, realization, family, coordinates),
    whatever else the block holds.  `site_uniform` in tests/oracles.py
    computes one value on Python ints and is the bit-for-bit reference.
    """
    rs = np.asarray(realizations, dtype=np.int64).view(np.uint64)
    z = _mix(rs ^ family_key)[:, None] ^ site_keys
    return (_mix(_mix(z)) >> _S11) * 2.0 ** -53


def sample_fields(cube: CubeSpec, config: DisorderConfig):
    """The sampler of the V- and B-fields on a cube: draw(realizations)
    returns the two (R, N) arrays of a block of realizations.

    Row i of each array is realization realizations[i], in canonical site
    order, and its values do not depend on the other rows of the block: a
    block of one realization draws the same row.  The site keys and the
    family keys are mixed here, once per sampler, and read by every draw.
    """
    n = cube.site_count
    site_keys = _site_keys(cube)
    # each measure with the key of its (seed, family) stream; a point mass
    # ignores its uniforms, so its family is not hashed
    measures = [(m, None if m.kind == "point_mass" else _absorb(
                    _SEED_KEY0, (config.master_seed, *family.encode("ascii"))))
                for m, family in ((config.mu_V, "V"), (config.mu_B, "B"))]

    def draw(realizations) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.full((len(realizations), n), m.params[0]) if key is None
                     else from_uniform(m, _uniforms(realizations, key, site_keys))
                     for m, key in measures)
    return draw
