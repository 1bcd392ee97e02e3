"""Finite-volume inequality and identity verifiers.

Each checker returns a CheckReport.  Two failure modes are kept apart: a
*precondition failure* means the instance does not satisfy the hypotheses
of the statement being tested (nothing is asserted), while a *violation*
means the hypotheses held and the asserted inequality or identity failed
beyond its declared tolerance.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .disorder import FieldSample
from .model import CubeSpec, DisorderConfig, PreconditionError, band_edge
from .operators import assemble_bracketing, block, build_h
from .spectral import DosHistogram, Spectrum, eigensolve, ensemble_counts, ensemble_mean

# the declared tolerances of the structural and spectral-comparison checks
SYMMETRY_RTOL = 1e-9
NONDEGENERACY_MIN_SPACING = 1e-12
INTERLACING_TOL = 1e-10
BETA_MAP_RTOL = 1e-9


@dataclass
class CheckReport:
    """Outcome of a batch of instance checks.

    worst_margin is the smallest slack seen (negative or NaN slack =
    violation, and NaN once any slack was NaN); recorded slacks already
    include the declared tolerance of the check.
    """

    name: str
    instances: int = 0
    violations: int = 0
    worst_margin: float = np.inf
    preconditions_failed: int = 0
    parameters: dict = field(default_factory=dict)

    def record(self, slack):
        """Count one slack, or every entry of an array of slacks.

        A NaN slack is a violation, and worst_margin stays NaN from then
        on: arithmetic that produced NaN has not shown the inequality.
        """
        s = np.ravel(slack)
        self.instances += s.size
        if s.size:
            # not np.min: the two can pick zeros of opposite sign, which
            # the CSVs print differently
            low = math.nan if np.isnan(s).any() else float(np.fmin.reduce(s))
            self.worst_margin = _lower(self.worst_margin, low)
        self.violations += int(np.count_nonzero(~(s >= 0.0)))

    @property
    def passed(self) -> bool:
        return self.violations == 0

    @property
    def vacuous(self) -> bool:
        """True when nothing was asserted: passed, but without evidence."""
        return self.instances == 0

    def absorb(self, other: "CheckReport") -> "CheckReport":
        """Accumulate counts from another report regardless of its name."""
        self.instances += other.instances
        self.violations += other.violations
        self.worst_margin = _lower(self.worst_margin, other.worst_margin)
        self.preconditions_failed += other.preconditions_failed
        return self

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "violations": self.violations,
            "worst_margin": None if self.instances == 0 else self.worst_margin,
            "preconditions_failed": self.preconditions_failed,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "parameters": {k: _plain(v) for k, v in self.parameters.items()},
        }


def _lower(a: float, b: float) -> float:
    """min(a, b), or NaN when either is NaN."""
    return math.nan if math.isnan(a) or math.isnan(b) else min(a, b)


def _plain(v):
    """A numpy scalar or array as Python values, anything else as it is."""
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


def _require(cond: bool, message: str):
    if not cond:
        raise PreconditionError(message)


# -- Wegner estimates --------------------------------------------------------


def wegner_finite_volume(config: DisorderConfig, cube: CubeSpec, windows,
                         R: int) -> list[CheckReport]:
    """Expected eigenvalue count in [E-eps, E+eps[ against 8 eps N (BV_V + BV_B).

    `windows` is a sequence of (E, eps) pairs; one report is returned per
    window, in order.  A window's count is the strict count below hi
    minus the strict count below lo (`spectral.ensemble_counts`, every
    edge at once), so an eigenvalue at lo counts and one at hi does not.

    Hypotheses: both single-site measures supported in [0, inf) with
    densities of bounded variation, E > 0 and 3 eps < E.
    """
    windows = list(windows)
    _require(config.mu_V.has_density and config.mu_B.has_density,
             "both measures must have densities of bounded variation")
    _require(config.mu_V.support_inf >= 0.0 and config.mu_B.support_inf >= 0.0,
             "both supports must lie in [0, inf)")
    for energy, eps in windows:
        _require(energy > 0.0 and 0.0 < eps and 3.0 * eps < energy,
                 f"window needs E > 0 and 3*eps < E, got E={energy}, eps={eps}")
    n_sites = cube.site_count
    bv = config.mu_V.bv_norm + config.mu_B.bv_norm

    below = ensemble_counts(config, cube,
                            [x for e, eps in windows for x in (e - eps, e + eps)],
                            R, "left")
    in_window = below[:, 1::2] - below[:, 0::2]
    reports = []
    for k, (energy, eps) in enumerate(windows):
        mean, stderr = ensemble_mean(in_window[:, k].astype(float))
        bound = 8.0 * eps * n_sites * bv
        rep = CheckReport("wegner_finite_volume",
                          parameters={"E": energy, "eps": eps, "R": R,
                                      "bound": bound, "mean": mean,
                                      "stderr": stderr})
        rep.record(bound + 3.0 * stderr - mean)
        reports.append(rep)
    return reports


def dos_bound_energy_dependent(hist: DosHistogram) -> CheckReport:
    """DOS histogram against the energy-dependent bound 2 (|E|+1)/lambda ||phi||_BV.

    Applies the V-variant when inf supp mu_V > 0 with a density, the
    B-variant when inf supp mu_B > 0 with a density; the strictest
    applicable bound is used per bin (at the bin center) and listed, in bin
    order, as the `bounds` parameter.
    """
    config = hist.config
    bounds = []
    lam = config.mu_V.support_inf
    if config.mu_V.has_density and lam > 0.0:
        bounds.append(("V", lam, config.mu_V.bv_norm))
    beta = config.mu_B.support_inf
    if config.mu_B.has_density and beta > 0.0:
        bounds.append(("B", beta, config.mu_B.bv_norm))
    _require(bool(bounds), "neither the V- nor the B-hypothesis holds "
             "(need a density bounded away from 0)")

    caps = [min(2.0 * (abs(center) + 1.0) / gap * bv for _, gap, bv in bounds)
            for center in hist.centers]
    rep = CheckReport("dos_bound_energy_dependent",
                      parameters={"R": hist.realizations,
                                  "hypotheses": [b[0] for b in bounds],
                                  "bounds": caps})
    rep.record(np.array(caps) + 3.0 * hist.stderr - hist.density)
    return rep


def dos_bound_uniform(hist: DosHistogram) -> CheckReport:
    """DOS histogram against the uniform bound 2 (||phi_V||_BV + ||phi_B||_BV)
    of the two-density estimate."""
    config = hist.config
    _require(config.mu_V.support_inf >= 0.0 and config.mu_B.support_inf >= 0.0,
             "both supports must lie in [0, inf)")
    _require(config.mu_V.has_density and config.mu_B.has_density,
             "both measures must have densities")
    cap = 2.0 * (config.mu_V.bv_norm + config.mu_B.bv_norm)
    rep = CheckReport("dos_bound_uniform",
                      parameters={"R": hist.realizations, "bound": cap})
    rep.record(cap + 3.0 * hist.stderr - hist.density)
    return rep


# -- structural checks -------------------------------------------------------


def symmetry_check(s: Spectrum) -> CheckReport:
    """Spectrum symmetry around 0: max_j |E_j + E_(dim+1-j)| <= SYMMETRY_RTOL ||H||."""
    e = s.eigenvalues
    defect = float(np.max(np.abs(e + e[::-1]))) if s.dim else 0.0
    rep = CheckReport("symmetry")
    rep.record(SYMMETRY_RTOL * max(s.norm, 1e-300) - defect)
    return rep


def nondegeneracy_check(s: Spectrum) -> CheckReport:
    """All eigenvalues simple (continuous-density disorder, a.s.)."""
    spacing = float(np.min(np.diff(s.eigenvalues))) if s.dim > 1 else np.inf
    rep = CheckReport("nondegeneracy")
    rep.record(spacing - NONDEGENERACY_MIN_SPACING)
    return rep


def radius_check(s: Spectrum, r: float) -> CheckReport:
    """All eigenvalues inside the deterministic radius [-r, r]."""
    rep = CheckReport("radius")
    rep.record(r - s.norm)
    return rep


# -- Feynman-Hellmann --------------------------------------------------------


# positive eigenvalues this close to another are skipped: at a crossing the
# derivative of the j-th eigenvalue in sort order is not defined
FH_MIN_SPACING = 1e-4


def fh_derivative_sums(h: np.ndarray,
                       field: FieldSample) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues E_j of the plain block of h = build_h(field.cube,
    "simple", field.V), ascending, and the sums sum_n (d/dV_n + d/dB_n) E_j
    over the cube's sites, from one eigh.

    By Hellmann-Feynman, with u and l the upper and lower components of the
    normalized eigenvector of E_j, dE_j/dV_n = u_n^2 - l_n^2 and
    dE_j/dB_n = 2 u_n l_n.  Exact for a simple eigenvalue.
    """
    n = len(h)
    s = eigensolve(block(h, np.diag(field.B), h), want_vectors=True)
    u, l = s.eigenvectors[:n], s.eigenvectors[n:]
    return s.eigenvalues, np.sum(u * u - l * l + 2.0 * u * l, axis=0)


def feynman_hellmann_report(field: FieldSample, tol: float) -> CheckReport:
    """Derivative sum >= 1 - tol for every positive, numerically simple
    eigenvalue of the plain block of the field on its cube.

    Hypotheses: H >= 0 and B >= 0 on the cube.  Positive eigenvalues within
    FH_MIN_SPACING of another are skipped as precondition failures.
    """
    h = build_h(field.cube, "simple", field.V)
    _require(float(np.linalg.eigvalsh(h)[0]) >= -1e-12,
             "Feynman-Hellmann needs H >= 0")
    _require(field.B.min() >= 0.0, "Feynman-Hellmann needs B >= 0")
    ev, sums = fh_derivative_sums(h, field)
    rep = CheckReport("feynman_hellmann", parameters={"tol": tol})
    gaps = np.diff(ev)          # ev ascends: the nearest level is adjacent
    spacing = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
    close = (ev > 0.0) & (spacing <= FH_MIN_SPACING)
    rep.preconditions_failed += int(np.count_nonzero(close))
    rep.record(sums[(ev > 0.0) & ~close] - (1.0 - tol))
    return rep


# -- spectral comparisons ----------------------------------------------------


@dataclass(frozen=True)
class EdgeSpectra:
    """What the gap-edge checks of one realization read, solved once.

    V and B are the field on its cube, in canonical site order; scalar,
    plain and reference are the ascending spectra of H, of the plain block
    (H  B; B  -H) and of the reference block (H  beta*1; beta*1  -H).
    """

    V: np.ndarray
    B: np.ndarray
    beta: float
    scalar: np.ndarray
    plain: np.ndarray
    reference: np.ndarray


def edge_spectra(field: FieldSample, beta: float) -> EdgeSpectra:
    """One eigensolve each of H = build_h(field.cube, "simple", field.V),
    its plain block and its beta-reference block."""
    h = build_h(field.cube, "simple", field.V)
    return EdgeSpectra(field.V, field.B, beta, np.linalg.eigvalsh(h),
                       eigensolve(block(h, np.diag(field.B), h)).eigenvalues,
                       eigensolve(block(h, beta, h)).eigenvalues)


def interlacing_check(spectra: EdgeSpectra) -> CheckReport:
    """Rank-wise domination of the positive block spectrum over the reference.

    Hypotheses: H > 0 on the region and B_n >= beta >= 0 sitewise.
    """
    beta = spectra.beta
    _require(beta >= 0.0, "reference coupling must satisfy beta >= 0")
    _require(float(spectra.scalar[0]) > 0.0, "interlacing needs H > 0")
    _require(spectra.B.min() >= beta, "interlacing needs B_n >= beta sitewise")
    n = len(spectra.scalar)
    rep = CheckReport("interlacing", parameters={"beta": beta,
                                                 "tol": INTERLACING_TOL})
    rep.record(spectra.plain[-n:] - spectra.reference[-n:] + INTERLACING_TOL)
    return rep


def beta_map_check(spectra: EdgeSpectra) -> CheckReport:
    """Spectrum of the constant-coupling block equals {+-sqrt(e^2 + beta^2)}."""
    root = np.sqrt(spectra.scalar ** 2 + spectra.beta ** 2)
    predicted = np.sort(np.concatenate([root, -root]))
    scale = max(np.max(np.abs(predicted)), 1e-300)
    rep = CheckReport("beta_map", parameters={"beta": spectra.beta,
                                              "rtol": BETA_MAP_RTOL})
    defect = float(np.max(np.abs(predicted - spectra.reference)))
    rep.record(BETA_MAP_RTOL * scale - defect)
    return rep


def half_half_check(spectra: EdgeSpectra, lam: float) -> CheckReport:
    """Exactly N of the 2N block eigenvalues lie at or below the gap edge.

    Hypotheses: V_n >= lam sitewise with H > lam, and the B-field obeys the
    case hypothesis of the edge (B_n >= beta for beta > 0, B_n <= beta for
    beta < 0, unconstrained for beta = 0).
    """
    beta = spectra.beta
    _require(spectra.V.min() >= lam, "half-half needs V_n >= lam")
    _require(float(spectra.scalar[0]) > lam, "half-half needs H > lam")
    if beta > 0.0:
        _require(spectra.B.min() >= beta, "half-half (case 1) needs B_n >= beta")
    elif beta < 0.0:
        _require(spectra.B.max() <= beta, "half-half (case 2) needs B_n <= beta")
    edge = band_edge(lam, beta)
    n = len(spectra.scalar)
    rep = CheckReport("half_half", parameters={"lam": lam, "beta": beta, "edge": edge})
    for ev in (spectra.plain, spectra.reference):
        count = int(np.searchsorted(ev, edge, side="right"))
        rep.record(0.0 if count == n else -abs(count - n))
    return rep


# -- Dirichlet bracketing ----------------------------------------------------


def bracketing_gap_check(field: FieldSample, lam: float,
                         beta: float) -> CheckReport:
    """Positive eigenvalues of the bracketing block of the field on its
    cube clear the gap edge.

    Hypotheses: V_n >= lam >= 0 and B_n >= beta >= 0.  Counted exactly: no
    eigenvalue may fall in the open interval ]0, edge[ (equality at the
    edge is admitted; it occurs for degenerate constant fields).
    """
    _require(lam >= 0.0 and beta >= 0.0, "bracketing check needs lam, beta >= 0")
    _require(field.V.min() >= lam, "needs V_n >= lam")
    _require(field.B.min() >= beta, "needs B_n >= beta")
    edge = band_edge(lam, beta)
    ev = eigensolve(assemble_bracketing(field.cube, field.V, field.B)).eigenvalues
    atol = 1e-12 * max(1.0, float(np.max(np.abs(ev))))
    inside = int(np.sum((ev > 0.0) & (ev < edge - atol)))
    rep = CheckReport("bracketing_gap", parameters={"lam": lam, "beta": beta,
                                                    "edge": edge})
    rep.record(0.0 if inside == 0 else -float(inside))
    return rep
