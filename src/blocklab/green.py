"""Resolvents, 2x2 matrix elements, and resolvent-decay inequalities.

Covers the geometric resolvent identity across nested regions, the
scale-linking and eigenfunction-decay inequalities consumed by multi-scale
arguments, and the Combes-Thomas bound, all at finite volume with dense
factorizations.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lattice
from .disorder import FieldSample
from .inequalities import CheckReport, PreconditionError, _require
from .operators import block, build_gamma, component_indices, rim_indices
from .spectral import Spectrum, eigensolve, plain_block

RESOLVENT_RESIDUAL_TOL = 1e-10
SPECTRAL_GUARD_RTOL = 1e-8
# the declared tolerances of the checks: the GRI residual cap's
# coefficient, the relative slack of the SLI and EDI bounds, the absolute
# slack of the Combes-Thomas bound
GRI_COEFF = 1e-9
NESTED_RTOL = 1e-9
CT_ATOL = 1e-12
# decay fits drop block norms below this fraction of the largest one:
# they sit in rounding noise
DECAY_FIT_FLOOR = 1e-14


@dataclass(frozen=True)
class GreenFunction:
    """Dense inverse of (block operator - E) with its spectral distance."""

    energy: float
    matrix: np.ndarray
    delta: float


def resolvent(m: np.ndarray, energy: float,
              spectrum: Spectrum | None = None) -> GreenFunction:
    """Invert (m - E); requires E safely away from the spectrum of m."""
    s = spectrum if spectrum is not None else eigensolve(m)
    delta = float(np.min(np.abs(s.eigenvalues - energy)))
    scale = max(s.norm, 1e-300)
    if delta < SPECTRAL_GUARD_RTOL * scale:
        raise PreconditionError(
            f"E={energy} is within {delta:.3e} of the spectrum (guard "
            f"{SPECTRAL_GUARD_RTOL * scale:.3e})")
    eye = np.eye(len(m))
    shifted = m - energy * eye
    g = np.linalg.solve(shifted, eye)
    resid = np.max(np.abs(shifted @ g - eye))
    if resid > RESOLVENT_RESIDUAL_TOL:
        raise ArithmeticError(f"resolvent residual {resid:.2e} exceeds contract")
    return GreenFunction(energy, g, delta)


def resolvent_columns(m: np.ndarray, energies, columns) -> np.ndarray:
    """The given columns of (m - E)^-1 at every energy, as a
    (len(energies), dim, len(columns)) array, from one stacked LU solve.

    The caller keeps every energy off the spectrum.  Residual contract, per
    energy: max |(m - E) X - 1[:, columns]| stays within
    RESOLVENT_RESIDUAL_TOL * max(1, max|m - E| * max|X|), the scale of the
    rounding of a backward-stable solve, since X grows like the inverse
    distance to the spectrum; beyond it ArithmeticError is raised.
    """
    energies = np.asarray(energies, dtype=float)
    eye = np.eye(len(m))
    shifted = m - energies[:, None, None] * eye
    rhs = eye[:, columns]
    x = np.linalg.solve(shifted, rhs)
    resid = np.abs(shifted @ x - rhs).max(axis=(1, 2))
    scale = np.abs(shifted).max(axis=(1, 2)) * np.abs(x).max(axis=(1, 2))
    if np.any(resid > RESOLVENT_RESIDUAL_TOL * np.maximum(scale, 1.0)):
        raise ArithmeticError(f"resolvent residual {resid.max():.2e} exceeds contract")
    return x


@dataclass(frozen=True)
class Nesting:
    """A cube strictly inside an enclosing one, as the nested checks read
    it: the indices, in both block components, of the cube (`inside`) and
    of its outer boundary (`rim_out`) in the enclosing one; the block
    Gamma[rim_out, inner boundary] of the lifted boundary operator, and
    the norm of Gamma."""

    inside: np.ndarray
    rim_out: np.ndarray
    gamma: np.ndarray
    gamma_norm: float


@lru_cache(maxsize=8)
def nesting(inner, outer) -> Nesting | None:
    """The read-only Nesting of cube `inner` in cube `outer`, None unless
    `inner` lies strictly inside `outer`; decided once per pair per run
    (`harness.run` clears the cache)."""
    if not lattice.strictly_inside(inner, outer):
        return None
    inside = component_indices(outer, inner)
    rim_out = component_indices(outer, lattice.outer_boundary(inner))
    gamma = build_gamma(inner, outer)
    lifted = block(gamma, 0.0, gamma)[np.ix_(rim_out, inside[rim_indices(inner)])]
    for a in (inside, rim_out, lifted):
        a.flags.writeable = False
    return Nesting(inside, rim_out, lifted, float(np.linalg.norm(gamma, 2)))


def _gri_blocks(region1, region2, region3, field, energy, spectra=(None, None)):
    """G3[i3, r1], G3[i3, o2] and G2[i2, r1] (i: inner boundary, o: outer
    boundary) of the resolvents on region3 and region2, the Nesting of
    region2 in region3, which holds Gamma[o2, i2], and delta2, delta3."""
    n12, n23 = nesting(region1, region2), nesting(region2, region3)
    _require(n12 is not None and n23 is not None,
             "need region1 strictly inside region2 strictly inside region3")
    g2, g3 = (resolvent(plain_block(field, region), energy, s)
              for region, s in zip((region2, region3), spectra))
    i3, r1 = rim_indices(region3), n23.inside[n12.inside]
    return (g3.matrix[np.ix_(i3, r1)], g3.matrix[np.ix_(i3, n23.rim_out)],
            g2.matrix[np.ix_(rim_indices(region2), n12.inside)], n23,
            g2.delta, g3.delta)


def gri_check(region1, region2, region3, field: FieldSample,
              energy: float) -> CheckReport:
    """Geometric resolvent identity: its max-entry residual against
    GRI_COEFF (1 + 1/delta2)(1 + 1/delta3).

    The boundary-block of the large resolvent towards the core region must
    equal the chain large-resolvent -> boundary operator -> small-resolvent
    exactly; the residual is pure rounding noise.

    The residual, both spectral distances and the cap are reported as
    parameters.
    """
    lhs, a, b, n23, delta2, delta3 = _gri_blocks(region1, region2, region3,
                                                 field, energy)
    res = float(np.max(np.abs(lhs + a @ n23.gamma @ b)))
    cap = GRI_COEFF * (1.0 + 1.0 / delta2) * (1.0 + 1.0 / delta3)
    rep = CheckReport("gri_residual",
                      parameters={"E": energy, "coeff": GRI_COEFF, "residual": res,
                                  "delta2": delta2, "delta3": delta3,
                                  "cap": cap})
    rep.record(cap - res)
    return rep


def sli_check(region1, region2, region3, field: FieldSample, energy: float,
              spectra=(None, None)) -> CheckReport:
    """Boundary-to-core resolvent block bounded through the intermediate scale.

    `spectra` holds the spectra of the plain blocks on region2 and region3
    where the caller has solved them; None solves that block here, as
    gri_check always does through the same helper.
    """
    g3_r1, a, b, n23, _, _ = _gri_blocks(region1, region2, region3, field,
                                         energy, spectra)
    lhs = np.linalg.norm(g3_r1, 2)
    rhs = n23.gamma_norm * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    rep = CheckReport("sli", parameters={"E": energy, "gamma": n23.gamma_norm})
    rep.record(rhs - lhs + NESTED_RTOL * max(lhs, rhs, 1.0))
    return rep


def edi_check(region, cube3, field: FieldSample, eigen_index: int,
              host: Spectrum | None = None,
              inner: Spectrum | None = None) -> CheckReport:
    """Eigenfunction mass at every site of the region bounded by resolvent
    times boundary mass.

    The eigenpair comes from the enclosing cube; the identity behind the
    bound is volume-local, so exact finite-volume eigenfunctions stand in
    for generalized eigenfunctions.  `host` (with eigenvectors) and
    `inner` are the spectra of the plain blocks on cube3 and on the region
    where the caller has solved them; None solves that block here.
    """
    nest = nesting(region, cube3)
    _require(nest is not None, "region must be strictly inside the host cube")
    if host is None:
        host = eigensolve(plain_block(field, cube3), want_vectors=True)
    energy = float(host.eigenvalues[eigen_index])
    psi = host.eigenvectors[:, eigen_index]
    # raises if E is too close to sigma(H_region)
    g = resolvent(plain_block(field, region), energy, inner)
    n = len(nest.inside) // 2
    rows = np.arange(n) + np.array([[0], [n]])   # the probes' rows in both components
    # per probe the 2-norm of G[probe, rim]: its largest singular value
    norms = np.linalg.svd(g.matrix[rows.T[:, :, None], rim_indices(region)],
                          compute_uv=False)[:, 0]
    lhs = np.hypot(*psi[nest.inside[rows]])
    rhs = nest.gamma_norm * norms * float(np.linalg.norm(psi[nest.rim_out]))
    rep = CheckReport("edi", parameters={"E": energy, "eigen_index": eigen_index,
                                         "gamma": nest.gamma_norm})
    rep.record(rhs - lhs + NESTED_RTOL * np.maximum(np.maximum(lhs, rhs), 1.0))
    return rep


def combes_thomas_bound(delta: float, d: int, distance: float) -> float:
    """(4/delta) exp(-delta |n-m| / (12 d)) with delta capped at 1."""
    return 4.0 / delta * np.exp(-delta * distance / (12.0 * d))


def block_norm_grid(matrix: np.ndarray, n_sites: int) -> np.ndarray:
    """Frobenius norms of all 2x2 elements of a block-space matrix at once."""
    n = n_sites
    sq = matrix ** 2
    return np.sqrt(sq[:n, :n] + sq[:n, n:] + sq[n:, :n] + sq[n:, n:])


@dataclass(frozen=True)
class DecayProfile:
    """Resolvent decay of one operator on a cube at one energy, one entry
    per pair.

    Pair k joins the cube's sites of canonical indices first[k] and
    second[k] at 1-norm distance dist[k]; norm[k] is the Frobenius norm of
    its 2x2 resolvent element and bound[k] the Combes-Thomas bound.  delta
    is the spectral distance capped at 1, as used in the bound.
    """

    energy: float
    delta: float
    first: np.ndarray
    second: np.ndarray
    dist: np.ndarray
    norm: np.ndarray
    bound: np.ndarray


def decay_profile(field: FieldSample, energy: float) -> DecayProfile:
    """One resolvent read of the field's plain block at every ordered pair
    of sites of its cube.

    The geometry of all pairs (indices, distances, distinct distances) is
    built once per cube and shared by every profile on it."""
    cube = field.cube
    g = resolvent(plain_block(field), energy)
    delta = min(g.delta, 1.0)
    first, second, dist, dists, at = _all_pairs(cube)
    norm = block_norm_grid(g.matrix, cube.site_count)[first, second]
    # the bound depends on the pair only through its distance
    caps = np.array([combes_thomas_bound(delta, cube.d, k) for k in dists.tolist()])
    return DecayProfile(energy, delta, first, second, dist, norm, caps[at])


@lru_cache(maxsize=8)
def _all_pairs(cube):
    """Every ordered pair (first, second) of site indices, in row-major
    order, their 1-norm distances, and the distinct distances with the
    index among them of each pair's; built once per cube and shared: the
    arrays are read-only.  `harness.run` clears the cache."""
    n = cube.site_count
    first, second = np.divmod(np.arange(n * n), n)
    points = lattice.site_array(cube)
    dist = lattice.dist1_array(points[first], points[second])
    geometry = (first, second, dist) + tuple(np.unique(dist, return_inverse=True))
    for a in geometry:
        a.flags.writeable = False
    return geometry


def combes_thomas_check(profile: DecayProfile) -> CheckReport:
    """Every 2x2 resolvent element of the profile obeys the exponential bound."""
    rep = CheckReport("combes_thomas", parameters={"E": profile.energy,
                                                   "delta": profile.delta})
    rep.record(profile.bound + CT_ATOL - profile.norm)
    return rep


def decay_rate_fit(profile: DecayProfile) -> tuple[float, float]:
    """Least-squares slope and intercept of ln block-norm against distance.

    Entries below DECAY_FIT_FLOOR times the resolvent scale sit in rounding
    noise and are excluded; fewer than two pairs left is a precondition
    failure.
    """
    keep = (profile.norm > DECAY_FIT_FLOOR * profile.norm.max()) & (profile.dist > 0)
    _require(np.count_nonzero(keep) >= 2, "not enough usable pairs for a decay fit")
    slope, intercept = np.polyfit(profile.dist[keep].astype(float),
                                  np.log(profile.norm[keep]), 1)
    return float(slope), float(intercept)
