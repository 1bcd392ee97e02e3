"""Single-site measures and deterministic i.i.d. field sampling.

Supported measure kinds: uniform(a, b), triangular(a, b) (symmetric peak),
point_mass(c) and two_point(v1, p, v2).  The density kinds have closed-form
total-variation norms and interval masses, which is all the estimates here
ever need.

Sampling is counter-based: the value at a site is a pure function of
(master seed, realization index, site, family tag), so fields are
reproducible independently of enumeration order and worker count, and a
sub-region of a cube automatically carries the same field values.
"""

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import CubeSpec, Site, site_index

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

    def density(self, x: float) -> float:
        """Lebesgue density at x (density kinds only)."""
        if not self.has_density:
            raise ValueError(f"{self.kind} measure has no density")
        a, b = self.params
        if x < a or x > b:
            return 0.0
        if self.kind == "uniform":
            return 1.0 / (b - a)
        mid = 0.5 * (a + b)
        peak = 2.0 / (b - a)
        if x <= mid:
            return peak * (x - a) / (mid - a)
        return peak * (b - x) / (b - mid)

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

    def mass(self, lo: float, hi: float,
             closed_lo: bool = True, closed_hi: bool = False) -> float:
        """Measure of the interval from lo to hi (default [lo, hi[)."""
        if hi < lo:
            return 0.0
        if self.has_density:
            return self.cdf(hi) - self.cdf(lo)
        atoms = ([(self.params[0], 1.0)] if self.kind == "point_mass"
                 else [(self.params[0], self.params[1]),
                       (self.params[2], 1.0 - self.params[1])])
        total = 0.0
        for x, w in atoms:
            above = x >= lo if closed_lo else x > lo
            below = x <= hi if closed_hi else x < hi
            if above and below:
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

    def mass_constants(self) -> tuple[float, float] | None:
        """(C, kappa) with mass([inf, inf + eta[) >= C * eta**kappa, if closed-form."""
        if self.kind == "uniform":
            a, b = self.params
            return 1.0 / (b - a), 1.0
        if self.kind == "triangular":
            a, b = self.params
            return 2.0 / (b - a) ** 2, 2.0
        return None

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

    def at(self, sites) -> tuple[np.ndarray, np.ndarray]:
        """(V, B) at the given sites (in their order); each must lie in the cube."""
        idx = site_index(self.cube, sites, strict=True)
        return self.V[idx], self.B[idx]


def site_uniform(master_seed: int, realization_index: int, site: Site,
                 family: str) -> float:
    """Deterministic uniform [0,1) variate for one site draw.

    Counter-based: a keyed hash of (seed, realization, family, coordinates)
    supplies 53 independent bits, so draws commute with any enumeration
    order and any work partition.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<qq", master_seed, realization_index))
    h.update(family.encode("ascii"))
    h.update(struct.pack(f"<{len(site)}q", *site))
    return (int.from_bytes(h.digest(), "little") >> 11) * 2.0 ** -53


@lru_cache(maxsize=64)
def _packed_sites(cube: CubeSpec) -> tuple[bytes, ...]:
    return tuple(struct.pack(f"<{cube.d}q", *s) for s in cube.sites())


def _cube_uniforms(master_seed: int, realization_index: int, family: str,
                   cube: CubeSpec) -> np.ndarray:
    """`site_uniform` at every cube site (canonical order), bit for bit:
    the hash state after the shared (seed, realization, family) prefix is
    computed once and extended per site."""
    prefix = hashlib.blake2b(digest_size=8)
    prefix.update(struct.pack("<qq", master_seed, realization_index))
    prefix.update(family.encode("ascii"))
    digests = []
    for packed in _packed_sites(cube):
        h = prefix.copy()
        h.update(packed)
        digests.append(h.digest())
    return (np.frombuffer(b"".join(digests), "<u8") >> 11) * 2.0 ** -53


def sample_field(cube: CubeSpec, config: DisorderConfig,
                 realization_index: int) -> FieldSample:
    """Draw one i.i.d. realization of the V- and B-fields on a cube."""
    seed = config.master_seed
    # a point mass ignores its uniforms, so its family is not hashed
    V, B = (np.full(cube.site_count, m.params[0]) if m.kind == "point_mass"
            else m.from_uniform(_cube_uniforms(seed, realization_index, family, cube))
            for m, family in ((config.mu_V, "V"), (config.mu_B, "B")))
    return FieldSample(cube, V, B, realization_index)
