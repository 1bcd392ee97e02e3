"""Single-site measures and deterministic i.i.d. field sampling.

Supported measure kinds: uniform(a, b), triangular(a, b) (symmetric peak),
point_mass(c) and two_point(v1, p, v2).  The density kinds have closed-form
total-variation norms and interval masses, which is all the estimates here
ever need.

Sampling is counter-based: the value at a site is a pure function of
(master seed, realization index, site coordinates, family tag), so fields
are reproducible independently of enumeration order, block size and
worker count, and a sub-region of a cube automatically carries the same
field values.  A SplitMix64-style counter hash (Steele, Lea & Flood,
OOPSLA 2014) draws a whole block of realizations at once as uint64 array
arithmetic; seeds, realization indices and coordinates are signed 64-bit
integers.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import CubeSpec, site_array, site_index

_DENSITY_KINDS = ("uniform", "triangular")


@dataclass(frozen=True)
class SiteMeasure:
    """Descriptor of a compactly supported single-site probability measure."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        k, p = self.kind, self.params
        if k in ("uniform", "triangular"):
            a, b = p
            if not a < b:
                raise ValueError(f"{k} needs a < b, got {p}")
        elif k == "point_mass":
            if len(p) != 1:
                raise ValueError("point_mass takes a single value")
        elif k == "two_point":
            v1, prob, v2 = p
            if not 0.0 < prob < 1.0:
                raise ValueError(f"two_point weight must lie in ]0,1[, got {prob}")
            if v1 == v2:
                raise ValueError("two_point values must differ")
        else:
            raise ValueError(f"unknown measure kind {k!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def uniform(a: float, b: float) -> "SiteMeasure":
        return SiteMeasure("uniform", (float(a), float(b)))

    @staticmethod
    def triangular(a: float, b: float) -> "SiteMeasure":
        return SiteMeasure("triangular", (float(a), float(b)))

    @staticmethod
    def point_mass(c: float) -> "SiteMeasure":
        return SiteMeasure("point_mass", (float(c),))

    @staticmethod
    def two_point(v1: float, p: float, v2: float) -> "SiteMeasure":
        return SiteMeasure("two_point", (float(v1), float(p), float(v2)))

    # -- support and density ----------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        k, p = self.kind, self.params
        if k in ("uniform", "triangular"):
            return p[0], p[1]
        if k == "point_mass":
            return p[0], p[0]
        v1, _, v2 = p
        return min(v1, v2), max(v1, v2)

    @property
    def support_inf(self) -> float:
        return self.support[0]

    @property
    def has_density(self) -> bool:
        return self.kind in _DENSITY_KINDS

    def cdf(self, x: float) -> float:
        k = self.kind
        if k == "uniform":
            a, b = self.params
            return min(max((x - a) / (b - a), 0.0), 1.0)
        if k == "triangular":
            a, b = self.params
            if x <= a:
                return 0.0
            if x >= b:
                return 1.0
            mid = 0.5 * (a + b)
            if x <= mid:
                return 2.0 * ((x - a) / (b - a)) ** 2
            return 1.0 - 2.0 * ((b - x) / (b - a)) ** 2
        raise ValueError(f"{k} measure has no continuous cdf")

    def mass(self, lo: float, hi: float) -> float:
        """Measure of the half-open interval [lo, hi[."""
        if hi < lo:
            return 0.0
        if self.has_density:
            return self.cdf(hi) - self.cdf(lo)
        atoms = ([(self.params[0], 1.0)] if self.kind == "point_mass"
                 else [(self.params[0], self.params[1]),
                       (self.params[2], 1.0 - self.params[1])])
        total = 0.0
        for x, w in atoms:
            if lo <= x < hi:
                total += w
        return total

    @property
    def bv_norm(self) -> float:
        """Total variation of the density over R, including support-edge jumps."""
        if not self.has_density:
            raise ValueError(f"{self.kind} measure has no density, no BV norm")
        a, b = self.params
        if self.kind == "uniform":
            return 2.0 / (b - a)
        return 4.0 / (b - a)

    # -- sampling ----------------------------------------------------------

    def from_uniform(self, u):
        """Inverse-CDF transform of uniform [0,1) variates.

        Takes a float (returns a float) or an array (returns an array of the
        same shape); each value goes through the same IEEE operations in the
        same order either way.
        """
        k, p = self.kind, self.params
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

    def describe(self) -> str:
        args = ",".join(f"{x:g}" for x in self.params)
        return f"{self.kind}({args})"


@dataclass(frozen=True)
class BetaCase:
    """Gap-edge parameter of the off-diagonal measure and which case produced it."""

    beta: float
    case: int            # 1: inf supp >= 0, 2: sup supp <= 0, 3: 0 in supp
    sign_flip: bool      # case 2 only: B-field is sign-flipped for edge formulas


def case_beta(mu_B: SiteMeasure) -> BetaCase:
    """Classify mu_B into the three admissible gap-edge cases.

    Case 1: inf supp >= 0 with beta = inf supp; case 2: sup supp <= 0 with
    beta = sup supp (signed; edge formulas use beta**2); case 3: 0 in supp,
    beta = 0.  A measure straddling 0 without 0 in its support is outside
    the admissible cases and rejected.
    """
    lo, hi = mu_B.support
    if lo >= 0.0:
        return BetaCase(lo, 1, False)
    if hi <= 0.0:
        return BetaCase(hi, 2, True)
    contains_zero = True
    if mu_B.kind == "two_point":
        contains_zero = 0.0 in (mu_B.params[0], mu_B.params[2])
    if mu_B.kind == "point_mass":
        contains_zero = mu_B.params[0] == 0.0
    if not contains_zero:
        raise ValueError(
            f"mu_B {mu_B.describe()} straddles 0 without containing it; "
            "no admissible gap-edge case applies")
    return BetaCase(0.0, 3, False)


@dataclass(frozen=True)
class DisorderConfig:
    """The pair of single-site measures plus the master seed of the ensemble."""

    mu_V: SiteMeasure
    mu_B: SiteMeasure
    master_seed: int = 0


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
        order.  The positions of the cube's sites in this cube are
        computed once per run and cached."""
        idx = _positions(self.cube, cube)
        return self.V[idx], self.B[idx]


@lru_cache(maxsize=64)
def _positions(cube: CubeSpec, sub: CubeSpec) -> np.ndarray:
    """Canonical index in the cube of every site of the sub-cube, read-only."""
    idx = site_index(cube, sub, strict=True)
    idx.flags.writeable = False
    return idx


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


@lru_cache(maxsize=64)
def _family_key(master_seed: int, family: str) -> np.ndarray:
    """The key of one (seed, family) stream, as a read-only one-element
    array."""
    key = _absorb(_SEED_KEY0, (master_seed, *family.encode("ascii")))
    key.flags.writeable = False
    return key


@lru_cache(maxsize=64)
def _site_keys(cube: CubeSpec) -> np.ndarray:
    """One key per cube site, in canonical order, mixed from (d, coordinates).

    A key depends on the site's coordinates, not its index, so a site has
    the same key in every cube that contains it.  Read-only: it is shared.
    """
    coords = site_array(cube).view(np.uint64)
    keys = _absorb(_SITE_KEY0, (cube.d,)).repeat(len(coords))
    for j in range(cube.d):
        keys = _mix(keys ^ coords[:, j])
    keys.flags.writeable = False
    return keys


def _uniforms(master_seed: int, realizations, family: str,
              cube: CubeSpec) -> np.ndarray:
    """Uniform [0,1) variates of a block of realizations at every cube site.

    A counter hash in the style of SplitMix64: the (seed, family) key and
    each realization index give a realization key, each site its
    `_site_keys` key, and element (i, n) is two SplitMix64 steps of
    r_key[i] ^ site_key[n], whose top 53 bits give the uniform.  So every
    value is a pure function of (seed, realization, family, coordinates),
    whatever else the block holds.  `site_uniform` in tests/oracles.py
    computes one value on Python ints and is the bit-for-bit reference.
    """
    rs = np.asarray(realizations, dtype=np.int64).view(np.uint64)
    z = _mix(rs ^ _family_key(master_seed, family))[:, None] ^ _site_keys(cube)
    return (_mix(_mix(z)) >> _S11) * 2.0 ** -53


def sample_fields(cube: CubeSpec, config: DisorderConfig,
                  realizations) -> tuple[np.ndarray, np.ndarray]:
    """The V- and B-fields of a block of realizations on a cube.

    Row i of each (R, N) array is realization realizations[i], in canonical
    site order, and its values do not depend on the other rows of the
    block: a block of one realization draws the same row.
    """
    seed = config.master_seed
    n = cube.site_count
    # a point mass ignores its uniforms, so its family is not hashed
    return tuple(
        np.full((len(realizations), n), m.params[0]) if m.kind == "point_mass"
        else m.from_uniform(_uniforms(seed, realizations, family, cube))
        for m, family in ((config.mu_V, "V"), (config.mu_B, "B")))

