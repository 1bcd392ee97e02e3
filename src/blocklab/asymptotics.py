"""Band-edge tail measurements, initial-scale estimates, and correlators.

Everything here probes asymptotic statements at finite volume: the
double-log tail of the integrated density of states above the gap edge,
the test-function lower bound, the probability that a cube is suitable as
a multi-scale starting scale, and the eigenfunction correlator whose decay
expresses dynamical localization.  Exponent fits at desk scale are
reported with the fitting window, never extrapolated.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .disorder import FieldSample
from .green import combes_thomas_bound, resolvent_columns
from .inequalities import CheckReport, EdgeSpectra, _require
from .lattice import dist1_array, inner_boundary, site_array, site_index
from .model import (MAX_BLOCK_DIM, CubeSpec, DisorderConfig, axis_count, band_edge,
                    case_beta, deterministic_radius, gap_edge)
from .operators import assemble_plain, build_h0, component_indices, rim_indices
from .schur import chain_rim_norms
from .spectral import (Spectrum, count_below, eigensolve, ensemble_counts,
                       ensemble_mean, per_field, plain_block, run_realizations)

# the smallest cube length of a tail-curve point
TAIL_LENGTH_FLOOR = 12
# the open window of delta_N whose points the tail-exponent fit uses
TAIL_FIT_WINDOW = (0.0, 0.4)
# a lower-bound run with fewer hits is censored: too rare to resolve
LOWER_BOUND_MIN_SUCCESSES = 10
# the normal quantile of the Wilson intervals (95 %)
WILSON_Z = 1.96
# ct_threshold_length gives up past this length
CT_THRESHOLD_CAP = 10 ** 9


# -- tail curve ----------------------------------------------------------------


@dataclass(frozen=True)
class TailCurve:
    """Counting excess above the gap edge on an epsilon grid."""

    eps_grid: np.ndarray
    delta_n: np.ndarray
    stderr: np.ndarray
    lengths: np.ndarray
    censored: np.ndarray          # True where no eigenvalue was ever captured
    edge: float


def default_tail_length(eps: float, d: int) -> int:
    """Smallest workable cube length for resolving the edge at offset eps.

    Grows like 10/sqrt(eps) from TAIL_LENGTH_FLOOR and is capped by the
    dense-solver budget: at most k + 1, k the largest odd axis count with
    2 k^d <= MAX_BLOCK_DIM, but never below the floor.
    """
    floor = TAIL_LENGTH_FLOOR
    L = floor if eps <= 0.0 else max(int(math.ceil(10.0 / math.sqrt(eps))), floor)
    half = MAX_BLOCK_DIM // 2
    # the rounded d-th root, moved by one where it rounded across an integer;
    # from d = half.bit_length() on, k = 1 and 2^d > half, so the step up is
    # decided without forming 2^d
    k = int(half ** (1.0 / d))
    k -= k ** d > half
    k += d < half.bit_length() and (k + 1) ** d <= half
    return max(floor, min(L, k + k % 2))


def tail_curve(config: DisorderConfig, d: int, eps_grid, R: int, lengths) -> TailCurve:
    """Ensemble mean of N(edge + eps) - 1/2 over an epsilon grid, N(t) the
    eigenvalues at or below t (<=) over 2 |cube|, on the cube of length
    lengths[k] at the k-th smallest eps.

    The per-realization values are non-negative by the half-half identity,
    which holds under the edge hypotheses (V at or above lam, B in its
    case).  Grid points where no realization captures an eigenvalue are
    flagged censored.  Grid points whose lengths give the same cube share
    one ensemble: each realization is sampled and counted once per cube,
    at all of their thresholds.
    """
    edge = gap_edge(config)
    eps_grid = np.asarray(sorted(eps_grid), dtype=float)
    # grid points by cube: the sites of a centred cube depend on L only
    # through its axis count
    by_cube = {}
    for k, L in enumerate(lengths):
        by_cube.setdefault(axis_count(L), []).append(k)
    per_point = {}
    for ks in by_cube.values():
        cube = CubeSpec(d, lengths[ks[0]])
        counts = ensemble_counts(config, cube, edge + eps_grid[ks], R, "right")
        per_point.update(zip(ks, (counts / (2 * cube.site_count) - 0.5).T.copy()))
    means, errs, cens = [], [], []
    for _, vals in sorted(per_point.items()):
        mean, stderr = ensemble_mean(vals)
        means.append(mean)
        errs.append(stderr)
        cens.append(bool(np.all(vals == 0.0)))
    return TailCurve(eps_grid, np.array(means), np.array(errs),
                     np.array(lengths, dtype=int), np.array(cens), edge)


@dataclass(frozen=True)
class TailFit:
    alpha_hat: float
    intercept: float
    points_used: int


def tail_exponent_fit(curve: TailCurve) -> TailFit:
    """Regress ln|ln dN| on ln eps; the negated slope estimates the exponent.

    Only points with dN inside the open TAIL_FIT_WINDOW participate;
    censored points are excluded by construction.
    """
    lo, hi = TAIL_FIT_WINDOW
    usable = (~curve.censored) & (curve.delta_n > lo) & (curve.delta_n < hi)
    if int(usable.sum()) < 2:
        raise ValueError("fewer than two usable points for the tail fit")
    x = np.log(curve.eps_grid[usable])
    y = np.log(np.abs(np.log(curve.delta_n[usable])))
    slope, intercept = np.polyfit(x, y, 1)
    return TailFit(float(-slope), float(intercept), int(usable.sum()))


def tail_monotonicity_check(curve: TailCurve) -> CheckReport:
    """dN nondecreasing in eps within 3 sigma of the paired standard errors."""
    rep = CheckReport("tail_monotonicity", parameters={"edge": curve.edge})
    sigma = np.hypot(curve.stderr[:-1], curve.stderr[1:])
    rep.record(np.diff(curve.delta_n) + 3.0 * sigma)
    return rep


def finite_volume_tail_bound(spectra: EdgeSpectra, lam: float,
                             eps: float) -> CheckReport:
    """Exact-count bound of the block tail by the scalar counting function.

    Hypotheses as for interlacing: H > 0, V at or above lam, B at or above
    beta >= 0.  Counts are integers; any excess is a violation.
    """
    beta = spectra.beta
    _require(beta >= 0.0 and lam >= 0.0, "needs lam >= 0 and beta >= 0")
    _require(float(spectra.scalar[0]) > 0.0, "needs H > 0")
    _require(spectra.V.min() >= lam, "needs V_n >= lam")
    _require(spectra.B.min() >= beta, "needs B_n >= beta")
    edge = band_edge(lam, beta)
    threshold = edge + eps
    block_count = (int(np.searchsorted(spectra.plain, threshold, side="right"))
                   - len(spectra.scalar))
    scalar_cut = math.sqrt(max(threshold ** 2 - beta ** 2, 0.0))
    scalar_count = int(np.searchsorted(spectra.scalar, scalar_cut, side="right"))
    rep = CheckReport("finite_volume_tail_bound",
                      parameters={"lam": lam, "beta": beta, "eps": eps})
    rep.record(float(scalar_count - block_count))
    return rep


# -- test-function energy ------------------------------------------------------


def _tent_vector(cube: CubeSpec) -> np.ndarray:
    psi = cube.L / 2.0 - np.abs(site_array(cube) - cube.center).max(axis=1)
    return psi / np.linalg.norm(psi)


def trial_function_energy(cube: CubeSpec) -> float:
    """Dirichlet form of the normalized tent function on the cube."""
    _require(cube.L >= 4, f"test function needs L >= 4, got {cube.L}")
    psi = _tent_vector(cube)
    hd = build_h0(cube, "dirichlet")
    return float(psi @ hd @ psi)


def c0_estimate(lengths, d: int) -> float:
    """sup of L^2 times the tent-function energy over a grid of lengths."""
    return max(L ** 2 * trial_function_energy(CubeSpec(d, L)) for L in map(int, lengths))


def lower_bound_scale(c0_hat: float, eps: float) -> int:
    """Smallest integer length with c0 L^-2 < eps/2."""
    L = int(math.floor(math.sqrt(2.0 * c0_hat / eps))) + 1
    while c0_hat / L ** 2 >= eps / 2.0:
        L += 1
    return L


def _lower_bound_events(rs, V, B, lam, beta, eps, psi2):
    """Per realization of the block, whether the quadratic form
    <psi2, V - lam> + sqrt(<psi2, (B - beta)^2>) lies below eps/2.  Each
    row is summed on its own, so its value does not depend on the block."""
    value = (psi2 * (V - lam)).sum(axis=1) + np.sqrt((psi2 * (B - beta) ** 2).sum(axis=1))
    return value < eps / 2.0


def lower_bound_probability(config: DisorderConfig, d: int, eps: float,
                            L: int, R: int) -> CheckReport:
    """Frequency of the small-quadratic-form event against the product bound.

    The analytic bound is mass_V([lam, lam + eps/4[)^N times
    mass_B([beta - eps/4, beta + eps/4[)^N; the all-sites event it counts
    implies the quadratic-form event, so the frequency must reach the bound
    up to 3 sigma.  Runs with fewer than LOWER_BOUND_MIN_SUCCESSES hits are
    censored.  A cube of more than MAX_BLOCK_DIM sites, the cap of the c0
    cubes, is a precondition failure, censored with no frequency: its
    fields are not sampled.
    """
    lam, beta = config.mu_V.support_inf, case_beta(config.mu_B)
    cube = CubeSpec(d, L)
    n = cube.site_count
    bound = (config.mu_V.mass(lam, lam + eps / 4.0) ** n
             * config.mu_B.mass(beta - eps / 4.0, beta + eps / 4.0) ** n)
    rep = CheckReport("lower_bound_probability",
                      parameters={"eps": eps, "L": L, "R": R, "bound": bound})
    if n > MAX_BLOCK_DIM:
        rep.parameters.update(empirical=math.nan, censored=True)
        rep.preconditions_failed += 1
        return rep
    hits = int(np.count_nonzero(run_realizations(
        partial(_lower_bound_events, lam=lam, beta=beta, eps=eps,
                psi2=_tent_vector(cube) ** 2), cube, config, R)))
    phat = hits / R
    sigma = math.sqrt(max(phat * (1.0 - phat), 0.0) / R)
    censored = hits < LOWER_BOUND_MIN_SUCCESSES and phat < 1.0
    rep.parameters.update(empirical=phat, censored=censored)
    if censored:
        rep.preconditions_failed += 1   # too rare to resolve at this R
    else:
        rep.record(phat - bound + 3.0 * sigma)
    return rep


# -- suitability ---------------------------------------------------------------


# an energy this close to the spectrum, relative to the deterministic
# radius (at least 1), is on it: its suitability norm is inf
ON_SPECTRUM_RTOL = 1e-12


def _suitability_geometry(cube: CubeSpec):
    _require(float(cube.L).is_integer() and int(cube.L) % 6 == 0,
             f"suitability needs a length in 6N, got {cube.L}")
    rows = rim_indices(cube)
    cols = component_indices(cube, cube.concentric(cube.L / 3.0))
    return rows, cols


def suitability_norms(m: np.ndarray, rows, cols, energies) -> np.ndarray:
    """Per energy, the norm of the resolvent block [rows, cols] of the
    block matrix m (from `_suitability_geometry`: inner third to inner
    boundary of the cube), every energy off the spectrum of m.

    G = (m - E)^-1 is symmetric, so the block is the transpose of
    G[cols, rows], read off the columns `rows` of G: one stacked LU solve
    (`green.resolvent_columns`) against only the boundary columns serves
    every energy, and one batched SVD gives the norms.
    """
    g = resolvent_columns(m, energies, rows)
    # the 2-norm is the largest singular value; svd sorts them descending
    return np.linalg.svd(g[:, cols], compute_uv=False)[:, 0]


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at quantile WILSON_Z."""
    z = WILSON_Z
    if trials == 0:
        return 0.0, 1.0
    p = hits / trials
    denom = 1.0 + z ** 2 / trials
    center = (p + z ** 2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z ** 2 / (4 * trials ** 2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def ct_threshold_length(theta: float, d: int) -> int | None:
    """Smallest length in 6N where the worst-case resolvent-decay budget
    4 sqrt(L) exp(-sqrt(L)/(48 d)) beats L^-theta across the whole block.

    The block aggregation costs a factor sqrt(|inner boundary| x |core|).
    Desk-scale lengths sit far below this threshold; it is reported so the
    gap-event implication can be asserted exactly where it is in force.
    None when no length up to CT_THRESHOLD_CAP qualifies.
    """
    def satisfied(L):
        per_axis = L - 1 if L % 2 == 0 else L          # integer L
        inner = per_axis ** d - max(per_axis - 2, 0) ** d
        core_axis = axis_count(L / 3.0)
        core = core_axis ** d
        lhs = (0.5 * math.log(inner * core) + math.log(4.0)
               + 0.5 * math.log(L) - math.sqrt(L) / (48.0 * d))
        return lhs < -theta * math.log(L)

    L = 6
    while L <= CT_THRESHOLD_CAP and not satisfied(L):
        L *= 2
    if L > CT_THRESHOLD_CAP:
        return None
    lo, hi = L // 2, L
    while hi - lo > 6:
        mid = (lo + hi) // 2
        mid -= mid % 6
        if mid <= lo:
            mid = lo + 6
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class SuitabilityReport:
    """Monte Carlo suitability probabilities on an energy grid."""

    probability: np.ndarray
    wilson_lo: np.ndarray
    wilson_hi: np.ndarray
    a_L: float
    gap_event_frequency: float
    implication: CheckReport


def _suitability_block(rs, V, B, cube, energies, a_L, cuts, tol, geometry, chain):
    """Per realization of the block: the suitability norm per energy,
    whether the spectral distance exceeds each cut (theta x energy), and
    the gap event flag.

    One `count_below` call, with the side of each energy, counts the
    eigenvalues in [c - r, c + r] for every window the rule needs: c = 0
    with r the gap event's threshold, and c = E with r = tol (on the
    spectrum) or a finite cut.  An empty window is the event, off the
    spectrum, or a distance past the cut.  The norms off the spectrum
    come from `schur.chain_rim_norms` when `chain` (d = 1, every energy
    inside the gap), else from one `suitability_norms` solve per
    realization on the `_suitability_geometry`."""
    live = np.isfinite(cuts)
    radii = np.concatenate([[tol], cuts[live]])
    centres = np.concatenate([[0.0], np.tile(energies, len(radii))])
    reach = np.concatenate([[a_L + cube.L ** -0.5],
                            np.repeat(radii, len(energies))])
    n = len(centres)
    counts = count_below(cube, V, B, np.concatenate([centres + reach, centres - reach]),
                         np.repeat(["right", "left"], n))
    empty = counts[:, :n] == counts[:, n:]
    free = empty[:, 1:].reshape(len(rs), len(radii), len(energies))
    far = np.zeros((len(rs), len(cuts), len(energies)), dtype=bool)
    far[:, live] = free[:, 1:]
    off = free[:, 0]
    norms = np.full((len(rs), len(energies)), np.inf)
    if chain:
        i, j = np.nonzero(off)
        core = site_index(cube, cube.concentric(cube.L / 3.0))
        norms[i, j] = chain_rim_norms(cube, V[i], B[i], energies[j], core)
    else:
        for i in np.flatnonzero(off.any(axis=1)):
            norms[i, off[i]] = suitability_norms(assemble_plain(cube, V[i], B[i]),
                                                 *geometry, energies[off[i]])
    return list(zip(norms, far, empty[:, 0].tolist()))


def _ct_distances(cube: CubeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The distinct 1-norm distances from the inner boundary to the core
    (the inner third), and the number of boundary-core pairs at each."""
    bnd = inner_boundary(cube)
    core = site_array(cube.concentric(cube.L / 3.0))
    return np.unique(dist1_array(bnd[:, None], core[None]).ravel(),
                     return_counts=True)


def _ct_block_budget(distances, delta: float, d: int) -> float:
    """Frobenius aggregate of per-pair Combes-Thomas bounds over the
    boundary-to-core block (`distances` from `_ct_distances`); dominates
    the block operator norm.  Each distinct distance's squared bound is
    weighted by its pair count; a bound past the float range makes the
    budget inf."""
    dists, pairs = distances
    with np.errstate(over="ignore"):
        return math.sqrt(pairs @ combes_thomas_bound(min(delta, 1.0), d, dists) ** 2)


def _ct_cut(distances, target: float, d: int) -> float:
    """delta* of the sharp implication: the budget `_ct_block_budget`
    beats `target` at a spectral distance delta > delta*, and at no other.

    The budget falls strictly in delta up to 1 and is constant past it, so
    delta* is the root of budget = target in ]0, 1[, bisected down to
    adjacent floats; inf when the budget at 1 does not beat the target.
    """
    if _ct_block_budget(distances, 1.0, d) >= target:
        return math.inf
    lo, hi = 0.0, 1.0             # the budget is inf at 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if _ct_block_budget(distances, mid, d) < target else (mid, hi)
    return lo


def suitability_probability(config: DisorderConfig, d: int, L: int,
                            thetas, energies, R: int) -> list[SuitabilityReport]:
    """Suitability frequency per energy, with the gap-event implication,
    one report per theta in `thetas`.

    Each realization is sampled and counted once for every theta and
    energy, by one kernel (`_suitability_block`): eigenvalue counts decide
    the gap event, the energies on the spectrum (within ON_SPECTRUM_RTOL
    of the deterministic radius, at least 1, which bounds every
    realization's scale) and the distances past delta*.  Energies must lie
    in [-a_L, a_L] with a_L = edge + 1/sqrt(L).  The implication is
    asserted on the gap events whose spectral distance exceeds the cut
    delta* of (L, theta) (`_ct_cut`), past which the decay budget beats
    L^-theta.  The worst-case threshold length of the asymptotic
    implication is reported as `threshold_L`: at or above it every gap
    event is past delta*, so the sharp implication holds every instance.

    Only the norm is dispatched.  At d = 1 with every energy strictly
    inside the gap, |E| < edge, `schur.chain_rim_norms` gives it in O(N)
    per realization, with no eigensolve, under the pivot policy of
    `schur`.  Otherwise one stacked solve per realization gives it
    (`suitability_norms`).
    """
    energies = np.asarray(energies, dtype=float)
    cube = CubeSpec(d, L)
    edge = gap_edge(config)
    a_L = edge + L ** -0.5
    _require(bool(np.all(np.abs(energies) <= a_L)),
             f"energies must lie in [-a_L, a_L] with a_L = {a_L:.6g}")
    geometry = _suitability_geometry(cube)
    distances = _ct_distances(cube)
    cuts = np.array([_ct_cut(distances, L ** -theta, d) for theta in thetas])
    tol = ON_SPECTRUM_RTOL * max(deterministic_radius(d, config.mu_V, config.mu_B), 1.0)
    rows = run_realizations(partial(
        _suitability_block, cube=cube, energies=energies, a_L=a_L, cuts=cuts, tol=tol,
        geometry=geometry, chain=d == 1 and bool(np.all(np.abs(energies) < edge))),
        cube, config, R)
    norms = np.array([row[0] for row in rows])                  # R x nE
    far = np.array([row[1] for row in rows])                    # R x ntheta x nE
    events = np.array([row[2] for row in rows], dtype=bool)

    reports = []
    for k, theta in enumerate(thetas):
        flags = norms < L ** (-theta)
        hits = flags.sum(axis=0)
        lo, hi = zip(*(wilson_interval(int(h), R) for h in hits))
        implication = CheckReport(
            "gap_event_implies_suitable",
            parameters={"L": L, "theta": theta,
                        "threshold_L": ct_threshold_length(theta, d)})
        # per gap event and energy past delta*: +1 where the cube is
        # suitable, else -1
        implication.record(np.where(flags[events][far[events, k]], 1.0, -1.0))
        reports.append(SuitabilityReport(
            hits / R, np.array(lo), np.array(hi), a_L, float(events.mean()),
            implication))
    return reports


# -- eigenfunction correlator ---------------------------------------------------


@dataclass(frozen=True)
class CorrelatorProfile:
    """Ensemble mean of the spectral-projector correlator from the site of
    canonical index `centre` to every site of the cube, in canonical
    order."""

    cube: CubeSpec
    centre: int
    mean_q: np.ndarray
    stderr_q: np.ndarray
    contributing: int        # realizations with spectrum inside the interval

    @property
    def empty(self) -> bool:
        return self.contributing == 0

    def distances(self) -> np.ndarray:
        points = site_array(self.cube)
        return dist1_array(points[self.centre], points).astype(float)


def correlator_q(s: Spectrum, centre: int, interval) -> np.ndarray:
    """Projector-sum correlator Q(centre, m) for one realization, at every
    site m of the cube, in canonical order; `centre` is a canonical site
    index.

    Q sums the 2x2 Frobenius norms of the rank-one spectral projectors with
    eigenvalue in the interval; it dominates the sup over unit-bounded Borel
    functions by the triangle inequality.
    """
    if s.eigenvectors is None:
        raise ValueError("correlator needs eigenvectors")
    lo, hi = interval
    sel = (s.eigenvalues >= lo) & (s.eigenvalues <= hi)
    n = s.dim // 2
    if not np.any(sel):
        return np.zeros(n)
    v = s.eigenvectors[:, sel]
    amp = np.sqrt(v[:n, :] ** 2 + v[n:, :] ** 2)     # site amplitude per vector
    # one BLAS dot per site: a batched product may sum in another order
    return np.array([amp[centre] @ amp[j] for j in range(n)])


def _correlator_row(f: FieldSample, centre, interval):
    s = eigensolve(plain_block(f), want_vectors=True)
    return correlator_q(s, centre, interval)


def eigenfunction_correlator(config: DisorderConfig, cube: CubeSpec,
                             interval, R: int) -> CorrelatorProfile:
    """Ensemble mean of the correlator from the centre to every site, in
    canonical order."""
    # an odd number of sites per axis: the centre is the middle site
    centre = cube.site_count // 2
    rows = np.vstack(run_realizations(per_field(
        partial(_correlator_row, centre=centre, interval=tuple(interval)), cube),
        cube, config, R))
    mean, stderr = ensemble_mean(rows)
    return CorrelatorProfile(cube, centre, mean, stderr, int(np.sum(rows.any(axis=1))))


@dataclass(frozen=True)
class StretchedFit:
    c_zeta: float
    zeta: float
    log_slope: float        # slope of ln Q against |n-m|^zeta (negative = decay)
    r_squared: float


# exponents k / 20 for k = 2..20, each correctly rounded, so the top one is
# exactly 1.0; float steps of 0.05 would end at 1.0000000000000004 > 1
ZETA_GRID = np.arange(2, 21) / 20.0


def stretched_fit(profile: CorrelatorProfile) -> StretchedFit:
    """Best stretched-exponential description of the correlator decay.

    For each exponent in ZETA_GRID, ln Q is regressed on |n-m|^zeta; the
    exponent with the highest R^2 wins and its intercept gives the
    prefactor.  Zero entries (below machine reach) are excluded.
    """
    if profile.empty:
        raise ValueError("correlator profile is empty: the interval missed "
                         "the spectrum in every realization")
    dists = profile.distances()
    keep = (profile.mean_q > 0.0) & (dists > 0)
    if int(keep.sum()) < 3:
        raise ValueError("not enough positive correlator entries for a fit")
    x0 = dists[keep]
    y = np.log(profile.mean_q[keep])
    best = None
    for zeta in ZETA_GRID:
        x = x0 ** zeta
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
        if best is None or r2 > best[3]:
            best = (float(np.exp(intercept)), float(zeta), float(slope), r2)
    return StretchedFit(*best)
