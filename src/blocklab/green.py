"""Resolvents, 2x2 matrix elements, and resolvent-decay inequalities.

Covers the geometric resolvent identity across nested regions, the
scale-linking and eigenfunction-decay inequalities consumed by multi-scale
arguments, and the Combes-Thomas bound, all at finite volume with dense
factorizations, or inside the deterministic gap with the Schur sweeps of
`schur`, where the gap theorem also bounds the spectral distance without a
spectrum.  The slice resolvent returns G in slice order, the one matrix of
its size in a Combes-Thomas profile, whose pairs are read by their
row-major index."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lattice, schur
from .disorder import FieldSample
from .inequalities import CheckReport, _require
from .model import PreconditionError, axis_count
from .operators import block, build_gamma, component_indices, rim_indices
from .schur import slice_resolvent
from .spectral import Spectrum, eigensolve, plain_block

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


def spectral_distance(m: np.ndarray, energy: float,
                      spectrum: Spectrum | None = None) -> float:
    """delta, the distance from E to the spectrum of m (solved here unless
    given); within SPECTRAL_GUARD_RTOL of its norm raises PreconditionError."""
    s = spectrum if spectrum is not None else eigensolve(m)
    delta = float(np.min(np.abs(s.eigenvalues - energy)))
    scale = max(s.norm, 1e-300)
    if delta < SPECTRAL_GUARD_RTOL * scale:
        raise PreconditionError(
            f"E={energy} is within {delta:.3e} of the spectrum (guard "
            f"{SPECTRAL_GUARD_RTOL * scale:.3e})")
    return delta


def resolvent_columns(m: np.ndarray, energies, columns) -> np.ndarray:
    """The given columns of (m - E)^-1 at every energy, as a
    (len(energies), dim, len(columns)) array, from one stacked LU solve:
    the one dense solve of m - E.  m is symmetric, so column j holds row
    j too.

    The caller keeps every energy off the spectrum.  Residual contract, per
    energy: max |(m - E) X - 1[:, columns]| stays within
    schur.RESOLVENT_RESIDUAL_TOL * max(1, max|m - E| * max|X|), the scale of
    the rounding of a backward-stable solve, since X grows like the inverse
    distance to the spectrum; beyond it ArithmeticError is raised.  The
    residual is formed RESIDUAL_BLOCK_BYTES of columns at a time, and the
    largest moduli as max(max a, -min a), so besides the solve's own
    arrays the check holds no array of the size of X or of m - E.
    """
    energies = np.asarray(energies, dtype=float)
    dim = len(m)
    # m - E eye entry by entry with no identity: m - E * 0 off the diagonal,
    # so that a zero entry takes the sign it takes there, and m - E on it
    shifted = m - (energies * 0.0)[:, None, None]
    i = np.arange(dim)
    shifted[:, i, i] = m[i, i] - energies[:, None]
    columns = np.arange(dim)[columns]
    rhs = np.zeros((dim, len(columns)))
    rhs[columns, np.arange(len(columns))] = 1.0
    x = np.linalg.solve(shifted, rhs)
    resid = np.zeros(len(energies))
    step = max(1, RESIDUAL_BLOCK_BYTES // (8 * dim * len(energies)))
    for lo in range(0, len(columns), step):
        r = shifted @ x[:, :, lo:lo + step]
        r -= rhs[:, lo:lo + step]
        np.maximum(resid, np.abs(r, out=r).max(axis=(1, 2)), out=resid)
    scale = _max_abs(shifted) * _max_abs(x)
    if np.any(resid > schur.RESOLVENT_RESIDUAL_TOL * np.maximum(scale, 1.0)):
        raise ArithmeticError(f"resolvent residual {resid.max():.2e} exceeds contract")
    return x


def _max_abs(a: np.ndarray) -> np.ndarray:
    """max |a| over all but the first axis, with no array of |a|."""
    return np.maximum(a.max(axis=(1, 2)), -a.min(axis=(1, 2)))


# bytes of residual columns per block of `resolvent_columns`
RESIDUAL_BLOCK_BYTES = 2 ** 22

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
    region2 in region3, which holds Gamma[o2, i2], and delta2, delta3.
    G is symmetric: each block is read off the rim columns."""
    n12, n23 = nesting(region1, region2), nesting(region2, region3)
    _require(n12 is not None and n23 is not None,
             "need region1 strictly inside region2 strictly inside region3")
    m2, m3 = plain_block(field, region2), plain_block(field, region3)
    delta2, delta3 = (spectral_distance(m, energy, s)
                      for m, s in zip((m2, m3), spectra))
    x2, x3 = (resolvent_columns(m, [energy], rim_indices(region))[0]
              for m, region in ((m2, region2), (m3, region3)))
    r1 = n23.inside[n12.inside]
    return x3[r1].T, x3[n23.rim_out].T, x2[n12.inside].T, n23, delta2, delta3


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
              spectra: tuple[Spectrum, Spectrum]) -> CheckReport:
    """Boundary-to-core resolvent block bounded through the intermediate scale.

    `spectra` holds the spectra of the plain blocks on region2 and region3,
    which the caller solves once for this check and `edi_check`.
    """
    g3_r1, a, b, n23, _, _ = _gri_blocks(region1, region2, region3, field,
                                         energy, spectra)
    lhs = np.linalg.norm(g3_r1, 2)
    rhs = n23.gamma_norm * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    rep = CheckReport("sli", parameters={"E": energy, "gamma": n23.gamma_norm})
    rep.record(rhs - lhs + NESTED_RTOL * max(lhs, rhs, 1.0))
    return rep


def edi_check(region, cube3, field: FieldSample, eigen_index: int,
              host: Spectrum, inner: Spectrum) -> CheckReport:
    """Eigenfunction mass at every site of the region bounded by resolvent
    times boundary mass.

    The eigenpair comes from the enclosing cube; the identity behind the
    bound is volume-local, so exact finite-volume eigenfunctions stand in
    for generalized eigenfunctions.  `host` (with eigenvectors) and
    `inner` are the spectra of the plain blocks on cube3 and on the region,
    which the caller solves once for this check and `sli_check`.
    """
    nest = nesting(region, cube3)
    _require(nest is not None, "region must be strictly inside the host cube")
    energy = float(host.eigenvalues[eigen_index])
    psi = host.eigenvectors[:, eigen_index]
    m = plain_block(field, region)
    spectral_distance(m, energy, inner)     # raises if E is too close to sigma(m)
    x = resolvent_columns(m, [energy], rim_indices(region))[0]
    n = len(nest.inside) // 2
    rows = np.arange(n) + np.array([[0], [n]])   # the probes' rows in both components
    # per probe the 2-norm of G[probe, rim], read off the rim columns: its
    # largest singular value
    norms = np.linalg.svd(x[rows.T], compute_uv=False)[:, 0]
    lhs = np.hypot(*psi[nest.inside[rows]])
    rhs = nest.gamma_norm * norms * float(np.linalg.norm(psi[nest.rim_out]))
    rep = CheckReport("edi", parameters={"E": energy, "eigen_index": eigen_index,
                                         "gamma": nest.gamma_norm})
    rep.record(rhs - lhs + NESTED_RTOL * np.maximum(np.maximum(lhs, rhs), 1.0))
    return rep


def combes_thomas_bound(delta: float, d: int, distance):
    """(4/delta) exp(-delta |n-m| / (12 d)), the caller's delta capped at
    1, elementwise over a distance or an array of them: one np.exp call,
    which rounds each entry as a call with that distance alone does."""
    return 4.0 / delta * np.exp(-delta * distance / (12.0 * d))


def block_norm_grid(matrix: np.ndarray, n_sites: int) -> np.ndarray:
    """Frobenius norms of all 2x2 elements of a block-space matrix at once."""
    return _norm_grid(matrix ** 2, 1).reshape(n_sites, n_sites)


def _norm_grid(sq: np.ndarray, n: int) -> np.ndarray:
    """The 2x2 element norms of a matrix from its squares `sq`, in the
    slice order of `slice_resolvent` over n slices (the block layout is
    one slice), as an (n, s, n, s) grid: per site pair the root of
    ((uu + ul) + lu) + ll over its four component quadrants, the same
    float operations in the same order in either layout."""
    q = sq.reshape(n, 2, len(sq) // (2 * n), n, 2, -1)
    out = q[:, 0, :, :, 0] + q[:, 0, :, :, 1]
    out += q[:, 1, :, :, 0]
    out += q[:, 1, :, :, 1]
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class DecayProfile:
    """Resolvent decay of one operator on a cube at one energy, one entry
    per ordered pair of its N sites, in row-major order.

    Pair k joins the cube's sites of canonical indices divmod(k, N) at
    1-norm distance dist[k]; norm[k] is the Frobenius norm of its 2x2
    resolvent element and bound_by_dist[dist[k]] the Combes-Thomas bound,
    which depends on a pair only through its distance: one value for each
    distance 0, ..., d (n - 1), n sites per axis.  delta is the spectral
    distance capped at 1, as used in the bound.
    """

    energy: float
    delta: float
    dist: np.ndarray
    norm: np.ndarray
    bound_by_dist: np.ndarray


def decay_profile(field: FieldSample, energy: float,
                  in_gap: bool = False) -> DecayProfile:
    """One resolvent read of the field's plain block at every ordered pair
    of sites of its cube.

    `in_gap` is the caller's word that E lies at least 1 inside the
    deterministic gap edge, in exact arithmetic.  Then no eigenvalue lies
    within 1 of E, the capped distance is 1.0 with no spectrum, and G
    comes from `slice_resolvent`, in slice order, with no dense operator;
    its norms are taken in place, so one profile holds about 1.3 times
    the memory of G at its peak.  That 1.0 is the model operator's capped
    distance: the rounded entries of the matrix may move it by about
    ulp(2d + lam), far below the rounding of an eigensolve.  Otherwise
    `spectral_distance` gives the distance and `resolvent_columns`,
    against every column, gives G.  The pair distances are built once per
    cube and shared by every profile on it."""
    cube = field.cube
    if in_gap:
        delta, g = 1.0, slice_resolvent(field, energy)
        # squared in place, and dropped before the bound is formed
        norm = _norm_grid(np.square(g, out=g), axis_count(cube.L))
        del g
    else:
        m = plain_block(field)
        delta = min(spectral_distance(m, energy), 1.0)
        norm = block_norm_grid(resolvent_columns(m, [energy], np.arange(len(m)))[0],
                               cube.site_count)
    caps = combes_thomas_bound(delta, cube.d,
                               np.arange(cube.d * (axis_count(cube.L) - 1) + 1))
    return DecayProfile(energy, delta, _all_pairs(cube), norm.reshape(-1), caps)


@lru_cache(maxsize=8)
def _all_pairs(cube) -> np.ndarray:
    """The 1-norm distance of every ordered pair of the cube's sites, in
    row-major order of their canonical indices, as one int32 array, built
    axis by axis with no pair index arrays; built once per cube and
    shared, so read-only.  `harness.run` clears the cache."""
    n = cube.site_count
    dist = np.zeros((n, n), dtype=np.int32)
    for x in lattice.site_array(cube).T.astype(np.int32):
        step = np.subtract.outer(x, x)
        dist += np.abs(step, out=step)
    dist = dist.reshape(-1)
    dist.flags.writeable = False
    return dist


def combes_thomas_check(profile: DecayProfile) -> CheckReport:
    """Every 2x2 resolvent element of the profile obeys the exponential bound."""
    rep = CheckReport("combes_thomas", parameters={"E": profile.energy,
                                                   "delta": profile.delta})
    rep.record(profile.bound_by_dist[profile.dist] + CT_ATOL - profile.norm)
    return rep


def decay_rate_fit(profile: DecayProfile) -> tuple[float, float]:
    """Least-squares slope and intercept of ln block-norm against distance.

    Entries below DECAY_FIT_FLOOR times the resolvent scale sit in rounding
    noise and are excluded; fewer than two pairs left, or all at one
    distance, is a precondition failure.  The fit is the centred closed
    form, slope = sum (x - x_mean)(y - y_mean) / sum (x - x_mean)^2.
    """
    keep = (profile.norm > DECAY_FIT_FLOOR * profile.norm.max()) & (profile.dist > 0)
    x = profile.dist[keep].astype(float)
    _require(len(x) >= 2 and x.min() < x.max(),
             "not enough usable pairs for a decay fit")
    y = np.log(profile.norm[keep])
    x_mean, y_mean = x.mean(), y.mean()
    x -= x_mean
    slope = (x @ (y - y_mean)) / (x @ x)
    return float(slope), float(y_mean - slope * x_mean)
