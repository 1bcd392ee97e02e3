"""Resolvents, 2x2 matrix elements, and resolvent-decay inequalities.

Covers the geometric resolvent identity across nested regions, the
scale-linking and eigenfunction-decay inequalities consumed by multi-scale
arguments, and the Combes-Thomas bound, all at finite volume with dense
factorizations.
"""

from dataclasses import dataclass

import numpy as np

from . import lattice
from .disorder import FieldSample
from .inequalities import CheckReport, PreconditionError, _require
from .operators import (BlockOperator, assemble_block, build_gamma, build_h,
                        component_indices)
from .spectral import Spectrum, eigensolve

RESOLVENT_RESIDUAL_TOL = 1e-10
SPECTRAL_GUARD_RTOL = 1e-8


@dataclass(frozen=True)
class Block2x2:
    """2x2-matrix-valued matrix element of a block operator at a site pair."""

    entries: np.ndarray
    pair: tuple


def block_element(matrix: np.ndarray, sites, n, m) -> Block2x2:
    """Read the 2x2 element at (n, m) from a block-space matrix."""
    n, m = tuple(n), tuple(m)
    idx = {s: i for i, s in enumerate(sites)}
    i, j = idx[n], idx[m]
    nn = len(sites)
    e = np.array([[matrix[i, j], matrix[i, j + nn]],
                  [matrix[i + nn, j], matrix[i + nn, j + nn]]])
    return Block2x2(e, (n, m))


def block_norm(b: Block2x2, kind: str = "frobenius") -> float:
    if kind == "frobenius":
        return float(np.linalg.norm(b.entries, "fro"))
    if kind == "operator":
        return float(np.linalg.norm(b.entries, 2))
    if kind == "max":
        return float(np.max(np.abs(b.entries)))
    raise ValueError(f"unknown 2x2 norm {kind!r}")


@dataclass(frozen=True)
class GreenFunction:
    """Dense inverse of (block operator - E) with its spectral distance."""

    sites: tuple
    variant: str
    energy: float
    matrix: np.ndarray
    delta: float

    def block(self, n, m) -> Block2x2:
        return block_element(self.matrix, self.sites, n, m)


def resolvent(op: BlockOperator, energy: float,
              spectrum: Spectrum | None = None) -> GreenFunction:
    """Invert (op - E); requires E safely away from the spectrum."""
    s = spectrum if spectrum is not None else eigensolve(op)
    delta = float(np.min(np.abs(s.eigenvalues - energy)))
    scale = max(s.norm, 1e-300)
    if delta < SPECTRAL_GUARD_RTOL * scale:
        raise PreconditionError(
            f"E={energy} is within {delta:.3e} of the spectrum (guard "
            f"{SPECTRAL_GUARD_RTOL * scale:.3e})")
    dim = op.dim
    g = np.linalg.solve(op.matrix - energy * np.eye(dim), np.eye(dim))
    resid = np.max(np.abs((op.matrix - energy * np.eye(dim)) @ g - np.eye(dim)))
    if resid > RESOLVENT_RESIDUAL_TOL:
        raise ArithmeticError(f"resolvent residual {resid:.2e} exceeds contract")
    return GreenFunction(op.sites, op.variant, energy, g, delta)


def _plain_block_on(region, field: FieldSample) -> BlockOperator:
    return assemble_block(build_h(region, "simple", field), field)


def _sub(matrix, ambient_sites, row_sites, col_sites):
    rows = component_indices(ambient_sites, row_sites)
    cols = component_indices(ambient_sites, col_sites)
    return matrix[np.ix_(rows, cols)]


def _nested_resolvents(region1, region2, region3, field, energy):
    r1 = lattice.sites(region1)
    r2 = lattice.sites(region2)
    r3 = lattice.sites(region3)
    _require(lattice.strictly_inside(r1, r2) and lattice.strictly_inside(r2, r3),
             "need region1 strictly inside region2 strictly inside region3")
    _require(set(r2) <= set(r3), "region2 must be contained in region3")
    g2 = resolvent(_plain_block_on(r2, field), energy)
    g3 = resolvent(_plain_block_on(r3, field), energy)
    return r1, r2, r3, g2, g3


def _gri(region1, region2, region3, field, energy):
    r1, r2, r3, g2, g3 = _nested_resolvents(region1, region2, region3, field, energy)
    gamma = build_gamma(r2, r3)
    i3 = lattice.inner_boundary(r3)
    i2 = lattice.inner_boundary(r2)
    o2 = lattice.outer_boundary(r2)
    lhs = _sub(g3.matrix, r3, i3, r1)
    chain = (_sub(g3.matrix, r3, i3, o2)
             @ _sub(gamma.lifted, r3, o2, i2)
             @ _sub(g2.matrix, r2, i2, r1))
    return float(np.max(np.abs(lhs + chain))), g2.delta, g3.delta


def gri_residual(region1, region2, region3, field: FieldSample,
                 energy: float) -> float:
    """Max-entry residual of the geometric resolvent identity.

    The boundary-block of the large resolvent towards the core region must
    equal the chain large-resolvent -> boundary operator -> small-resolvent
    exactly; the residual is pure rounding noise.
    """
    return _gri(region1, region2, region3, field, energy)[0]


def gri_check(region1, region2, region3, field: FieldSample, energy: float,
              coeff: float = 1e-9) -> CheckReport:
    """Residual of the identity against coeff (1 + 1/delta2)(1 + 1/delta3).

    The residual, both spectral distances and the cap are reported as
    parameters.
    """
    res, delta2, delta3 = _gri(region1, region2, region3, field, energy)
    cap = coeff * (1.0 + 1.0 / delta2) * (1.0 + 1.0 / delta3)
    rep = CheckReport("gri_residual",
                      parameters={"E": energy, "coeff": coeff, "residual": res,
                                  "delta2": delta2, "delta3": delta3,
                                  "cap": cap})
    rep.record(cap - res)
    return rep


def sli_check(region1, region2, region3, field: FieldSample, energy: float,
              rtol: float = 1e-9) -> CheckReport:
    """Boundary-to-core resolvent block bounded through the intermediate scale."""
    r1, r2, r3, g2, g3 = _nested_resolvents(region1, region2, region3, field, energy)
    gamma = build_gamma(r2, r3)
    i3 = lattice.inner_boundary(r3)
    i2 = lattice.inner_boundary(r2)
    o2 = lattice.outer_boundary(r2)
    lhs = np.linalg.norm(_sub(g3.matrix, r3, i3, r1), 2)
    rhs = (gamma.norm
           * np.linalg.norm(_sub(g3.matrix, r3, i3, o2), 2)
           * np.linalg.norm(_sub(g2.matrix, r2, i2, r1), 2))
    rep = CheckReport("sli", parameters={"E": energy, "gamma": gamma.norm})
    rep.record(rhs - lhs + rtol * max(lhs, rhs, 1.0))
    return rep


def edi_check(region, cube3, field: FieldSample, eigen_index: int,
              probe_sites=None, rtol: float = 1e-9) -> CheckReport:
    """Eigenfunction mass at a site bounded by resolvent times boundary mass.

    The eigenpair comes from the enclosing cube; the identity behind the
    bound is volume-local, so exact finite-volume eigenfunctions stand in
    for generalized eigenfunctions.
    """
    r = lattice.sites(region)
    r3 = lattice.sites(cube3)
    _require(lattice.strictly_inside(r, r3),
             "region must be strictly inside the host cube")
    host = eigensolve(_plain_block_on(r3, field), want_vectors=True)
    energy = float(host.eigenvalues[eigen_index])
    psi = host.eigenvectors[:, eigen_index]
    inner_op = _plain_block_on(r, field)
    g = resolvent(inner_op, energy)   # raises if E is too close to sigma(H_region)
    gamma = build_gamma(r, r3)
    i_r = lattice.inner_boundary(r)
    o_r = lattice.outer_boundary(r)
    n3 = len(r3)
    idx3 = {s: i for i, s in enumerate(r3)}
    out_rows = component_indices(r3, o_r)
    psi_out = float(np.linalg.norm(psi[out_rows]))
    rep = CheckReport("edi", parameters={"E": energy, "eigen_index": eigen_index,
                                         "gamma": gamma.norm})
    for n in (r if probe_sites is None else [tuple(s) for s in probe_sites]):
        i = idx3[n]
        lhs = float(np.hypot(psi[i], psi[i + n3]))
        rhs = gamma.norm * np.linalg.norm(_sub(g.matrix, r, (n,), i_r), 2) * psi_out
        rep.record(rhs - lhs + rtol * max(lhs, rhs, 1.0))
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
    """Resolvent decay of one operator at one energy.

    rows holds (n, m, dist1, block_norm, ct_bound) per requested pair;
    delta is the spectral distance capped at 1, as used in the bound.
    """

    energy: float
    delta: float
    rows: list


def decay_profile(op: BlockOperator, energy: float, pairs=None) -> DecayProfile:
    """One resolvent, one pass over the pairs (all site pairs by default)."""
    g = resolvent(op, energy)
    delta = min(g.delta, 1.0)
    d = len(op.sites[0])
    if pairs is None:
        pairs = [(n, m) for n in op.sites for m in op.sites]
    grid = block_norm_grid(g.matrix, len(op.sites)).tolist()
    idx = {s: i for i, s in enumerate(op.sites)}
    caps = {}           # the bound depends on the pair only through dist1
    rows = []
    for n, m in pairs:
        dist = lattice.dist1(n, m)
        if dist not in caps:
            caps[dist] = combes_thomas_bound(delta, d, dist)
        rows.append((n, m, dist, grid[idx[tuple(n)]][idx[tuple(m)]], caps[dist]))
    return DecayProfile(energy, delta, rows)


def combes_thomas_check(profile: DecayProfile, atol: float = 1e-12) -> CheckReport:
    """Every 2x2 resolvent element of the profile obeys the exponential bound."""
    rep = CheckReport("combes_thomas", parameters={"E": profile.energy,
                                                   "delta": profile.delta})
    for _, _, _, value, cap in profile.rows:
        rep.record(cap + atol - value)
    return rep


def decay_rate_fit(profile: DecayProfile,
                   floor: float = 1e-14) -> tuple[float, float]:
    """Least-squares slope and intercept of ln block-norm against distance.

    Entries below `floor` times the resolvent scale sit in rounding noise
    and are excluded.
    """
    rows = profile.rows
    scale = max(r[3] for r in rows)
    pts = [(r[2], np.log(r[3])) for r in rows if r[3] > floor * scale and r[2] > 0]
    if len(pts) < 2:
        raise ValueError("not enough usable pairs for a decay fit")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)
