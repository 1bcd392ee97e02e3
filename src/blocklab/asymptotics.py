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

from .disorder import DisorderConfig, FieldSample, case_beta, sample_fields
from .green import resolvent_columns
from .inequalities import CheckReport, EdgeSpectra, _require
from .lattice import (CubeSpec, axis_count, dist1_array, inner_boundary,
                      site_array, site_index)
from .operators import MAX_BLOCK_DIM, build_h0, component_indices, rim_indices
from .spectral import (Spectrum, eigensolve, ensemble_counts, per_realization,
                       plain_block, run_realizations)

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


# -- gap edge ----------------------------------------------------------------


@dataclass(frozen=True)
class GapEdge:
    """Internal band edge sqrt(lam^2 + beta^2) with its exponent targets."""

    lam: float
    beta: float
    case: int
    sign_flip: bool
    edge: float
    alpha_upper: float
    alpha_lower: float


def gap_edge(config: DisorderConfig, d: int) -> GapEdge:
    """Edge location and Lifschitz exponent targets for the configuration.

    The upper-bound target is d/2 except when lam = 0 with beta != 0, where
    it weakens to d/4; the lower-bound target is d/2 in all cases.
    """
    lam = config.mu_V.support_inf
    _require(lam >= 0.0, f"needs inf supp mu_V >= 0, got {lam}")
    bc = case_beta(config.mu_B)
    weak = (lam == 0.0 and bc.beta != 0.0)
    return GapEdge(lam, bc.beta, bc.case, bc.sign_flip,
                   float(np.hypot(lam, bc.beta)),
                   d / 4.0 if weak else d / 2.0, d / 2.0)


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
    realizations: int


def default_tail_length(eps: float, d: int) -> int:
    """Smallest workable cube length for resolving the edge at offset eps.

    Grows like 10/sqrt(eps) from TAIL_LENGTH_FLOOR and is capped by the
    dense-solver budget.
    """
    floor = TAIL_LENGTH_FLOOR
    L = floor if eps <= 0.0 else max(int(math.ceil(10.0 / math.sqrt(eps))), floor)
    while (2 * CubeSpec(d, L).site_count) > MAX_BLOCK_DIM and L > floor:
        L -= 1
    return L


def tail_curve(config: DisorderConfig, d: int, eps_grid, R: int,
               lengths=None, mapper=None) -> TailCurve:
    """Ensemble mean of N(edge + eps) - 1/2 over an epsilon grid, N(t) the
    eigenvalues at or below t (<=) over 2 |cube|.

    The per-realization values are non-negative by the half-half identity,
    which holds under the edge hypotheses (V at or above lam, B in its
    case).  Grid points where no realization captures an eigenvalue are
    flagged censored.  Grid points whose lengths give the same cube share
    one ensemble: each realization is sampled and counted once per cube,
    at all of their thresholds.
    """
    ge = gap_edge(config, d)
    eps_grid = np.asarray(sorted(eps_grid), dtype=float)
    if lengths is None:
        lengths = [default_tail_length(e, d) for e in eps_grid]
    # grid points by cube: the sites of a centred cube depend on L only
    # through its axis count
    by_cube = {}
    for k, L in enumerate(lengths):
        by_cube.setdefault(axis_count(L), []).append(k)
    per_point = {}
    for ks in by_cube.values():
        cube = CubeSpec(d, lengths[ks[0]])
        counts = ensemble_counts(config, cube, ge.edge + eps_grid[ks], R, "right",
                                 mapper)
        per_point.update(zip(ks, (counts / (2 * cube.site_count) - 0.5).T.copy()))
    means, errs, cens = [], [], []
    for _, vals in sorted(per_point.items()):
        means.append(vals.mean())
        errs.append(vals.std(ddof=1) / math.sqrt(R) if R > 1 else 0.0)
        cens.append(bool(np.all(vals == 0.0)))
    return TailCurve(eps_grid, np.array(means), np.array(errs),
                     np.array(lengths, dtype=int), np.array(cens), ge.edge, R)


@dataclass(frozen=True)
class TailFit:
    alpha_hat: float
    intercept: float
    points_used: int
    censored_points: int


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
    return TailFit(float(-slope), float(intercept), int(usable.sum()),
                   int(curve.censored.sum()))


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
    edge = np.hypot(lam, beta)
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


@dataclass(frozen=True)
class C0Estimate:
    c0_hat: float
    lengths: tuple
    scaled_values: tuple    # L^2 <psi, H^D psi> per length


def c0_estimate(lengths, d: int) -> C0Estimate:
    """sup of L^2 times the tent-function energy over a grid of lengths."""
    lengths = tuple(int(L) for L in lengths)
    vals = tuple(L ** 2 * trial_function_energy(CubeSpec(d, L)) for L in lengths)
    return C0Estimate(max(vals), lengths, vals)


def lower_bound_scale(c0_hat: float, eps: float) -> int:
    """Smallest integer length with c0 L^-2 < eps/2."""
    L = int(math.floor(math.sqrt(2.0 * c0_hat / eps))) + 1
    while c0_hat / L ** 2 >= eps / 2.0:
        L += 1
    return L


def _lower_bound_events(rs, cube, config, lam, beta, eps, psi2):
    """Per realization of the block, whether the quadratic form
    <psi2, V - lam> + sqrt(<psi2, (B - beta)^2>) lies below eps/2.  Each
    row is summed on its own, so its value does not depend on the block."""
    V, B = sample_fields(cube, config, rs)
    value = (psi2 * (V - lam)).sum(axis=1) + np.sqrt((psi2 * (B - beta) ** 2).sum(axis=1))
    return value < eps / 2.0


def lower_bound_probability(config: DisorderConfig, d: int, eps: float,
                            L: int, R: int, mapper=None) -> CheckReport:
    """Frequency of the small-quadratic-form event against the product bound.

    The analytic bound is mass_V([lam, lam + eps/4[)^N times
    mass_B([beta - eps/4, beta + eps/4[)^N; the all-sites event it counts
    implies the quadratic-form event, so the frequency must reach the bound
    up to 3 sigma.  Runs with fewer than LOWER_BOUND_MIN_SUCCESSES hits are
    censored.  A cube of more than MAX_BLOCK_DIM sites, the cap of the c0
    cubes, is a precondition failure, censored with no frequency: its
    fields are not sampled.
    """
    ge = gap_edge(config, d)
    cube = CubeSpec(d, L)
    n = cube.site_count
    bound = (config.mu_V.mass(ge.lam, ge.lam + eps / 4.0) ** n
             * config.mu_B.mass(ge.beta - eps / 4.0, ge.beta + eps / 4.0) ** n)
    rep = CheckReport("lower_bound_probability",
                      parameters={"eps": eps, "L": L, "R": R, "bound": bound})
    if n > MAX_BLOCK_DIM:
        rep.parameters.update(empirical=math.nan, censored=True)
        rep.record_precondition_failure()
        return rep
    hits = int(np.count_nonzero(run_realizations(
        partial(_lower_bound_events, cube=cube, config=config, lam=ge.lam,
                beta=ge.beta, eps=eps, psi2=_tent_vector(cube) ** 2), R, mapper)))
    phat = hits / R
    sigma = math.sqrt(max(phat * (1.0 - phat), 0.0) / R)
    censored = hits < LOWER_BOUND_MIN_SUCCESSES and phat < 1.0
    rep.parameters.update(empirical=phat, censored=censored)
    if censored:
        rep.record_precondition_failure()   # too rare to resolve at this R
    else:
        rep.record(phat - bound + 3.0 * sigma)
    return rep


# -- suitability ---------------------------------------------------------------


def _suitability_geometry(cube: CubeSpec):
    _require(float(cube.L).is_integer() and int(cube.L) % 6 == 0,
             f"suitability needs a length in 6N, got {cube.L}")
    rows = rim_indices(cube)
    cols = component_indices(cube, cube.concentric(cube.L / 3.0))
    return rows, cols


def suitability_norms(m: np.ndarray, eigenvalues: np.ndarray, rows, cols,
                      energies) -> tuple[np.ndarray, np.ndarray]:
    """Per energy: the norm of the resolvent block [rows, cols] of the
    block matrix m (from `_suitability_geometry`: inner third to inner
    boundary of the cube), and the distance to the spectrum `eigenvalues`.

    G = (m - E)^-1 is symmetric, so the block is the transpose of
    G[cols, rows], read off the columns `rows` of G: one stacked LU solve
    (`green.resolvent_columns`) against only the boundary columns serves
    every energy, and one batched SVD gives the norms.  An energy on the
    spectrum (within 1e-12 of its scale, at least 1) has norm inf and
    distance 0: the cube is suitable there for no theta.
    """
    energies = np.asarray(energies, dtype=float)
    deltas = np.abs(eigenvalues[None, :] - energies[:, None]).min(axis=1)
    off = deltas > 1e-12 * max(np.max(np.abs(eigenvalues)), 1.0)
    norms = np.full(len(energies), np.inf)
    if off.any():
        g = resolvent_columns(m, energies[off], rows)
        # the 2-norm is the largest singular value; svd sorts them descending
        norms[off] = np.linalg.svd(g[:, cols], compute_uv=False)[:, 0]
    return norms, np.where(off, deltas, 0.0)


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

    L: int
    theta: float
    energies: np.ndarray
    probability: np.ndarray
    wilson_lo: np.ndarray
    wilson_hi: np.ndarray
    realizations: int
    a_L: float
    gap_event_frequency: float
    implication: CheckReport
    threshold_L: int | None


def _suitability_row(f: FieldSample, geometry, energies, a_L):
    """Per realization, from one eigvalsh and one stacked solve: the
    suitability norm and spectral distance per energy, and the gap event
    flag."""
    m = plain_block(f)
    ev = eigensolve(m).eigenvalues
    norms, deltas = suitability_norms(m, ev, *geometry, energies)
    gap_event = bool(np.min(np.abs(ev)) > a_L + f.cube.L ** -0.5)
    return norms, deltas, gap_event


def _ct_distances(cube: CubeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The distinct 1-norm distances from the inner boundary to the core
    (the inner third), and the index among them of every boundary-core
    pair's distance, pairs in loop order."""
    bnd = site_array(inner_boundary(cube))
    core = site_array(cube.concentric(cube.L / 3.0))
    return np.unique(dist1_array(bnd[:, None], core[None]).ravel(),
                     return_inverse=True)


def _ct_block_budget(distances, delta: float, d: int) -> float:
    """Frobenius aggregate of per-pair Combes-Thomas bounds over the
    boundary-to-core block (`distances` from `_ct_distances`); dominates
    the block operator norm."""
    dists, at = distances
    dcap = min(delta, 1.0)
    # one term per distinct distance, summed left to right over the pairs
    # (cumsum is sequential) exactly as a loop over them would
    terms = np.array([(4.0 / dcap * math.exp(-dcap * k / (12.0 * d))) ** 2
                      for k in dists.tolist()])
    return math.sqrt(float(np.cumsum(terms[at])[-1]))


def suitability_probability(config: DisorderConfig, d: int, L: int,
                            thetas, energies, R: int,
                            mapper=None) -> list[SuitabilityReport]:
    """Suitability frequency per energy, with the gap-event implication,
    one report per theta in `thetas`.

    Each realization is sampled and solved once for every theta and
    energy.  Energies must lie in [-a_L, a_L] with a_L = edge + 1/sqrt(L).
    Two implications are asserted per instance: the asymptotic one (active
    only above the reported worst-case threshold length) and a sharp one
    using the instance's own spectral distance in the decay budget.
    """
    energies = np.asarray(energies, dtype=float)
    cube = CubeSpec(d, L)
    ge = gap_edge(config, d)
    a_L = ge.edge + L ** -0.5
    _require(bool(np.all(np.abs(energies) <= a_L)),
             f"energies must lie in [-a_L, a_L] with a_L = {a_L:.6g}")
    rows = run_realizations(per_realization(
        partial(_suitability_row, geometry=_suitability_geometry(cube),
                energies=energies, a_L=a_L), cube, config), R, mapper)
    norms = np.array([row[0] for row in rows])                  # R x nE
    events = np.array([row[2] for row in rows], dtype=bool)
    # per gap event and energy: the instance's own decay budget (inf on the
    # spectrum, where no cube is suitable)
    deltas = np.array([row[1] for row in rows])[events]
    distances = _ct_distances(cube)
    budgets = np.array([[_ct_block_budget(distances, delta, d) if delta > 0.0
                         else np.inf for delta in row]
                        for row in deltas.tolist()]).reshape(deltas.shape)

    reports = []
    for theta in thetas:
        threshold = ct_threshold_length(theta, d)
        target = L ** (-theta)
        flags = norms < target
        hits = flags.sum(axis=0)
        lo, hi = zip(*(wilson_interval(int(h), R) for h in hits))
        implication = CheckReport(
            "gap_event_implies_suitable",
            parameters={"L": L, "theta": theta, "threshold_L": threshold})
        # per gap event and energy: +1 where the cube is suitable, else -1
        signs = np.where(flags[events], 1.0, -1.0)
        # asymptotic implication: in force only above the threshold length
        if threshold is not None and L >= threshold:
            implication.record(signs)
        # sharp implication: the instance's own decay budget
        implication.record(signs[budgets < target])
        reports.append(SuitabilityReport(
            L, theta, energies, hits / R, np.array(lo), np.array(hi), R, a_L,
            float(events.mean()), implication, threshold))
    return reports


# -- eigenfunction correlator ---------------------------------------------------


@dataclass(frozen=True)
class CorrelatorProfile:
    """Ensemble mean of the spectral-projector correlator over site pairs."""

    interval: tuple[float, float]
    pairs: tuple
    mean_q: np.ndarray
    stderr_q: np.ndarray
    realizations: int
    contributing: int        # realizations with spectrum inside the interval

    @property
    def empty(self) -> bool:
        return self.contributing == 0

    def distances(self) -> np.ndarray:
        ends = np.array(self.pairs)                # (pairs, 2, d)
        return dist1_array(ends[:, 0], ends[:, 1]).astype(float)


def correlator_q(s: Spectrum, first, second, interval) -> np.ndarray:
    """Projector-sum correlator Q(n, m) for one realization, at the site
    pairs (first[k], second[k]), given as canonical site indices.

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
        return np.zeros(len(first))
    v = s.eigenvectors[:, sel]
    amp = np.sqrt(v[:n, :] ** 2 + v[n:, :] ** 2)     # site amplitude per vector
    # one BLAS dot per pair: a batched product may sum in another order
    return np.array([amp[i] @ amp[j] for i, j in zip(first, second)])


def _correlator_row(f: FieldSample, first, second, interval):
    s = eigensolve(plain_block(f), want_vectors=True)
    return correlator_q(s, first, second, interval)


def eigenfunction_correlator(config: DisorderConfig, cube: CubeSpec,
                             interval, R: int = 1,
                             mapper=None) -> CorrelatorProfile:
    """Ensemble mean of the correlator from the centre to every site.

    The pairs are indexed in the cube once, for every realization."""
    pairs = tuple((cube.center, m) for m in cube.sites())
    first, second = (site_index(cube, [pair[k] for pair in pairs], strict=True)
                     .tolist() for k in (0, 1))
    rows = np.vstack(run_realizations(per_realization(
        partial(_correlator_row, first=first, second=second,
                interval=tuple(interval)), cube, config), R, mapper))
    contributing = int(np.sum(rows.any(axis=1)))
    stderr = (rows.std(axis=0, ddof=1) / math.sqrt(R) if R > 1
              else np.zeros(rows.shape[1]))
    return CorrelatorProfile(tuple(interval), pairs, rows.mean(axis=0), stderr,
                             R, contributing)


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
