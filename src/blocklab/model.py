"""The model's parameters and their hypotheses, in plain Python.

Single-site measures and the disorder pair of the ensemble, discrete
cubes, their site counts and their nesting, the deterministic spectral
radius, the gap edge and the caps a run is held to: everything
`harness.validate` reads of a config.  Nothing here imports numpy, so a
config loads and validates without it; sampling (the inverse CDF of a
measure) lives in `disorder`, site enumeration in `lattice`.

Supported measure kinds: uniform(a, b), triangular(a, b) (symmetric peak),
point_mass(c) and two_point(v1, p, v2).  The density kinds have closed-form
total-variation norms and interval masses, which is all the estimates here
ever need.
"""

import math
from dataclasses import dataclass

# dense-eigensolve budget: full spectra need O(dim^3) work
MAX_BLOCK_DIM = 4096
# the largest dimension d of every kind: `lattice` enumerates a cube's
# sites with np.indices, an array of d + 1 axes, and a numpy 2 array has
# at most 64
MAX_DIMENSION = 63
# energies per `spectral.ensemble_counts` call, whose block arrays take
# about 37 KB per energy at d = 1, L = 16: `harness.validate` rejects a run
# past it
MAX_COUNT_ENERGIES = 4096


class PreconditionError(ValueError):
    """Raised when a check is invoked on an instance outside its hypotheses."""


# -- single-site measures -------------------------------------------------------

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

    def describe(self) -> str:
        args = ",".join(f"{x:g}" for x in self.params)
        return f"{self.kind}({args})"


def case_beta(mu_B: SiteMeasure) -> float:
    """The gap-edge parameter beta of mu_B in its three admissible cases.

    Case 1: inf supp >= 0 with beta = inf supp; case 2: sup supp <= 0 with
    beta = sup supp (signed; edge formulas use beta**2); case 3: 0 in supp,
    beta = 0.  A measure straddling 0 without 0 in its support is outside
    the admissible cases and rejected.
    """
    lo, hi = mu_B.support
    if lo >= 0.0:
        return lo
    if hi <= 0.0:
        return hi
    contains_zero = True
    if mu_B.kind == "two_point":
        contains_zero = 0.0 in (mu_B.params[0], mu_B.params[2])
    if mu_B.kind == "point_mass":
        contains_zero = mu_B.params[0] == 0.0
    if not contains_zero:
        raise ValueError(
            f"mu_B {mu_B.describe()} straddles 0 without containing it; "
            "no admissible gap-edge case applies")
    return 0.0


@dataclass(frozen=True)
class DisorderConfig:
    """The pair of single-site measures plus the master seed of the ensemble."""

    mu_V: SiteMeasure
    mu_B: SiteMeasure
    master_seed: int = 0


def band_edge(lam: float, beta: float) -> float:
    """hypot(lam, beta), the one formula of the internal band edge.

    abs() of a complex calls libm's hypot, as np.hypot does, and gives
    the same bits; math.hypot has CPython's own algorithm, which can
    differ in the last bit, and these bits reach the outputs.  Past the
    float range it is inf, as np.hypot's is, where abs() would raise.
    """
    try:
        return abs(complex(lam, beta))
    except OverflowError:
        return math.inf


def gap_edge(config: DisorderConfig) -> float:
    """The deterministic internal band edge band_edge(lam, beta), lam = inf
    supp mu_V and beta = case_beta(mu_B): no realization's plain block has
    an eigenvalue in (-edge, edge) (Kirsch, Metzger and Mueller, J. Stat.
    Phys. 143, 2011).  ValueError if lam < 0 or case_beta rejects mu_B."""
    lam = config.mu_V.support_inf
    if lam < 0.0:
        raise ValueError(f"the gap edge needs inf supp mu_V >= 0, got {lam}")
    return band_edge(lam, case_beta(config.mu_B))


def deterministic_radius(d: int, mu_V: SiteMeasure, mu_B: SiteMeasure) -> float:
    """Finite-volume radius bound 4d + max|supp mu_V| + max|supp mu_B|."""
    def extent(m):
        lo, hi = m.support
        return max(abs(lo), abs(hi))
    return 4.0 * d + extent(mu_V) + extent(mu_B)


# -- cubes ------------------------------------------------------------------------

Site = tuple[int, ...]


def axis_count(L: float) -> int:
    """Number of integers k with -L/2 < k < L/2, i.e. 2 ceil(L/2) - 1."""
    if L <= 1:
        raise ValueError(f"cube of length {L} contains no sites (need L > 1)")
    return 2 * math.ceil(L / 2) - 1


def sites_within(d: int, L: float, cap: int) -> int | None:
    """The site count axis_count(L)^d of a cube when it is at most `cap`,
    else None.  The product stops as soon as it passes the cap, so a large
    d forms no large power: at most log2(cap) + 1 factors of 2 or more."""
    n = axis_count(L)
    if n == 1:
        return 1
    count = 1
    for _ in range(d):
        count *= n
        if count > cap:
            return None
    return count


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

    @property
    def site_count(self) -> int:
        return axis_count(self.L) ** self.d

    def concentric(self, L: float) -> "CubeSpec":
        """The cube of length L with the same center."""
        return CubeSpec(self.d, L, self.center)


def strictly_inside(inner: CubeSpec, outer: CubeSpec) -> bool:
    """Whether every boundary edge of `inner` has both endpoints in
    `outer`: on every axis, `outer` reaches one step past `inner`.  A cube
    spans its center -h to +h on an axis, h = (axis_count(L) - 1) // 2,
    so the test is |c_inner - c_outer| < h_outer - h_inner on each of the
    d <= MAX_DIMENSION axes."""
    margin = (axis_count(outer.L) - axis_count(inner.L)) // 2
    return all(abs(a - b) < margin
               for a, b in zip(inner.center, outer.center, strict=True))
