"""Finite-volume inequality and identity verifiers.

Each checker returns a CheckReport.  Two failure modes are kept apart: a
*precondition failure* means the instance does not satisfy the hypotheses
of the statement being tested (nothing is asserted), while a *violation*
means the hypotheses held and the asserted inequality or identity failed
beyond its declared tolerance.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .disorder import DisorderConfig, FieldSample
from .lattice import CubeSpec
from .operators import (ScalarOperator, assemble_beta_reference, assemble_block,
                        assemble_bracketing, build_h)
from .spectral import (DosHistogram, count_leq, count_window, eigensolve,
                       plain_block, run_realizations)


class PreconditionError(ValueError):
    """Raised when a check is invoked on an instance outside its hypotheses."""


@dataclass
class CheckReport:
    """Outcome of a batch of instance checks.

    worst_margin is the smallest slack seen (negative slack = violation);
    recorded slacks already include the declared tolerance of the check.
    """

    name: str
    instances: int = 0
    violations: int = 0
    worst_margin: float = np.inf
    preconditions_failed: int = 0
    parameters: dict = field(default_factory=dict)

    def record(self, slack: float):
        self.instances += 1
        self.worst_margin = min(self.worst_margin, slack)
        if slack < 0.0:
            self.violations += 1

    def record_precondition_failure(self):
        self.preconditions_failed += 1

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
        self.worst_margin = min(self.worst_margin, other.worst_margin)
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


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


def _require(cond: bool, message: str):
    if not cond:
        raise PreconditionError(message)


# -- Wegner estimates --------------------------------------------------------


def wegner_finite_volume(config: DisorderConfig, cube: CubeSpec, windows, R: int,
                         mapper=None) -> list[CheckReport]:
    """Expected eigenvalue count in [E-eps, E+eps[ against 8 eps N (BV_V + BV_B).

    `windows` is a sequence of (E, eps) pairs; one report is returned per
    window, in order.  Each realization is sampled and diagonalized once
    and counted in every window.

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

    rows = run_realizations(
        partial(_window_counts, cube=cube, config=config,
                bounds=[(e - eps, e + eps) for e, eps in windows]), R, mapper)
    reports = []
    for k, (energy, eps) in enumerate(windows):
        counts = np.array([row[k] for row in rows], dtype=float)
        mean = counts.mean()
        stderr = counts.std(ddof=1) / np.sqrt(R) if R > 1 else 0.0
        bound = 8.0 * eps * n_sites * bv
        rep = CheckReport("wegner_finite_volume",
                          parameters={"E": energy, "eps": eps, "R": R,
                                      "bound": bound, "mean": mean,
                                      "stderr": stderr})
        rep.record(bound + 3.0 * stderr - mean)
        reports.append(rep)
    return reports


def _window_counts(r, cube, config, bounds):
    s = eigensolve(plain_block(cube, config, r))
    return [count_window(s, lo, hi) for lo, hi in bounds]


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
    for cap, dens, se in zip(caps, hist.density, hist.stderr):
        rep.record(cap + 3.0 * se - dens)
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
    for dens, se in zip(hist.density, hist.stderr):
        rep.record(cap + 3.0 * se - dens)
    return rep


# -- Feynman-Hellmann --------------------------------------------------------


def _block_eigs_shifted(region, field: FieldSample, site, family, delta):
    shifted_v = dict(field.V)
    shifted_b = dict(field.B)
    (shifted_v if family == "V" else shifted_b)[site] = \
        (field.V if family == "V" else field.B)[site] + delta
    f = FieldSample(field.cube, shifted_v, shifted_b, field.realization_index)
    return eigensolve(assemble_block(build_h(region, "simple", f), f)).eigenvalues


def fh_derivative_sums(region, field: FieldSample, step: float = 1e-5) -> np.ndarray:
    """Central-difference sum_n (d/dV_n + d/dB_n) E_j for every eigenvalue rank j.

    Eigenvalues are tracked by sort order, which is stable for perturbations
    much smaller than the level spacing.
    """
    h = build_h(region, "simple", field)
    sums = np.zeros(2 * h.n)
    for site in h.sites:
        for family in ("V", "B"):
            up = _block_eigs_shifted(region, field, site, family, +step)
            dn = _block_eigs_shifted(region, field, site, family, -step)
            sums += (up - dn) / (2.0 * step)
    return sums


def feynman_hellmann_report(region, field: FieldSample, step: float = 1e-5,
                            tol: float = 1e-6) -> CheckReport:
    """Derivative sum >= 1 for every positive, numerically simple eigenvalue.

    Hypotheses: H >= 0 and B >= 0 on the region.  Positive eigenvalues within
    10 * step of another are skipped as precondition failures.
    """
    h = build_h(region, "simple", field)
    _require(float(np.linalg.eigvalsh(h.matrix)[0]) >= -1e-12,
             "Feynman-Hellmann needs H >= 0")
    _require(min(field.b_vector(h.sites)) >= 0.0, "Feynman-Hellmann needs B >= 0")
    ev = eigensolve(assemble_block(h, field)).eigenvalues
    sums = fh_derivative_sums(region, field, step)
    rep = CheckReport("feynman_hellmann", parameters={"step": step, "tol": tol})
    for j, e in enumerate(ev):
        if e <= 0.0:
            continue
        spacing = np.min(np.abs(np.delete(ev, j) - e))
        if spacing <= 10.0 * step:
            rep.record_precondition_failure()
            continue
        rep.record(sums[j] - (1.0 - tol))
    return rep


# -- spectral comparisons ----------------------------------------------------


def _positive_ascending(ev: np.ndarray, n: int) -> np.ndarray:
    return ev[-n:]


def interlacing_check(region, field: FieldSample, beta: float,
                      tol: float = 1e-10) -> CheckReport:
    """Rank-wise domination of the positive block spectrum over the reference.

    Hypotheses: H > 0 on the region and B_n >= beta >= 0 sitewise.
    """
    _require(beta >= 0.0, "reference coupling must satisfy beta >= 0")
    h = build_h(region, "simple", field)
    _require(float(np.linalg.eigvalsh(h.matrix)[0]) > 0.0,
             "interlacing needs H > 0")
    _require(min(field.b_vector(h.sites)) >= beta,
             "interlacing needs B_n >= beta sitewise")
    n = h.n
    lam = _positive_ascending(eigensolve(assemble_block(h, field)).eigenvalues, n)
    mu = _positive_ascending(eigensolve(assemble_beta_reference(h, beta)).eigenvalues, n)
    rep = CheckReport("interlacing", parameters={"beta": beta, "tol": tol})
    for lj, mj in zip(lam, mu):
        rep.record(lj - mj + tol)
    return rep


def beta_map_check(h: ScalarOperator, beta: float, rtol: float = 1e-9) -> CheckReport:
    """Spectrum of the constant-coupling block equals {+-sqrt(e^2 + beta^2)}."""
    e = np.linalg.eigvalsh(h.matrix)
    predicted = np.sort(np.concatenate([np.sqrt(e ** 2 + beta ** 2),
                                        -np.sqrt(e ** 2 + beta ** 2)]))
    actual = eigensolve(assemble_beta_reference(h, beta)).eigenvalues
    scale = max(np.max(np.abs(predicted)), 1e-300)
    rep = CheckReport("beta_map", parameters={"beta": beta, "rtol": rtol})
    rep.record(rtol * scale - float(np.max(np.abs(predicted - actual))))
    return rep


def half_half_check(region, field: FieldSample, lam: float, beta: float) -> CheckReport:
    """Exactly N of the 2N block eigenvalues lie at or below the gap edge.

    Hypotheses: V_n >= lam sitewise with H > lam, and the B-field obeys the
    case hypothesis of the edge (B_n >= beta for beta > 0, B_n <= beta for
    beta < 0, unconstrained for beta = 0).
    """
    h = build_h(region, "simple", field)
    _require(min(field.v_vector(h.sites)) >= lam, "half-half needs V_n >= lam")
    _require(float(np.linalg.eigvalsh(h.matrix)[0]) > lam,
             "half-half needs H > lam")
    bvals = field.b_vector(h.sites)
    if beta > 0.0:
        _require(min(bvals) >= beta, "half-half (case 1) needs B_n >= beta")
    elif beta < 0.0:
        _require(max(bvals) <= beta, "half-half (case 2) needs B_n <= beta")
    edge = np.hypot(lam, beta)
    n = h.n
    rep = CheckReport("half_half", parameters={"lam": lam, "beta": beta, "edge": edge})
    count_plain = count_leq(eigensolve(assemble_block(h, field)), edge)
    count_ref = count_leq(eigensolve(assemble_beta_reference(h, beta)), edge)
    rep.record(0.0 if count_plain == n else -abs(count_plain - n))
    rep.record(0.0 if count_ref == n else -abs(count_ref - n))
    return rep


# -- min-max-max principle ---------------------------------------------------


def _outer_objective(f: np.ndarray, A: np.ndarray, B: np.ndarray, D: np.ndarray,
                     work: np.ndarray) -> float:
    # inner maximization over g is exact: the largest eigenvalue of the
    # compression [[<f,Af>, (Bf)^T], [Bf, -D]]
    f = f / np.linalg.norm(f)
    bf = B @ f
    work[0, 0] = f @ A @ f
    work[0, 1:] = bf
    work[1:, 0] = bf
    return float(np.linalg.eigvalsh(work)[-1])


def minmaxmax_lambda1(A, B, D, budget: int = 40000, seed: int = 0,
                      stable_starts: int = 3, tol: float = 1e-9) -> float:
    """Smallest positive-branch block eigenvalue by variational minimization.

    The maximization over the lower component is carried out exactly (an
    eigenproblem one dimension larger), the minimization over the upper
    component by repeated local descent from random starts.  Converges when
    `stable_starts` independent starts agree with the best value within
    `tol`; raises if the evaluation budget runs out first.
    """
    # imported here, not at module level: no experiment kind runs this
    # check, and scipy.optimize is the largest import of a CLI start
    from scipy.optimize import minimize

    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    D = np.asarray(D, dtype=float)
    n = A.shape[0]
    _require(n <= 8, f"matrix size {n} exceeds the supported maximum 8")
    _require(float(np.linalg.eigvalsh(A + D)[0]) > 0.0,
             "variational principle needs A > -D")
    work = np.empty((1 + n, 1 + n))
    work[1:, 1:] = -D
    if n == 1:
        # objective is constant over the unit sphere {-1, 1}
        return _outer_objective(np.ones(1), A, B, D, work)

    rng = np.random.default_rng(seed)
    spent = 0
    best = np.inf
    agreeing = 0
    scale = max(1.0, float(np.linalg.norm(A, 2)) + float(np.linalg.norm(D, 2)))
    # cap each descent so a stalled start cannot eat the whole budget
    per_start = min(4000, budget)
    while agreeing < stable_starts:
        if spent >= budget:
            raise RuntimeError(
                f"optimization budget {budget} exhausted before {stable_starts} "
                f"starts agreed to {tol:g}")
        f0 = rng.standard_normal(n)
        f0 /= np.linalg.norm(f0)
        res = minimize(_outer_objective, f0, args=(A, B, D, work),
                       method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14,
                                "maxfev": min(per_start, budget - spent)})
        spent += res.nfev
        if res.fun < best - tol * scale:
            best = res.fun
            agreeing = 1
        elif res.fun <= best + tol * scale:
            agreeing += 1
    return float(best)


# -- Dirichlet bracketing ----------------------------------------------------


def bracketing_gap_check(region, field: FieldSample, lam: float,
                         beta: float) -> CheckReport:
    """Positive eigenvalues of the bracketing block clear the gap edge.

    Hypotheses: V_n >= lam >= 0 and B_n >= beta >= 0.  Counted exactly: no
    eigenvalue may fall in the open interval ]0, edge[ (equality at the
    edge is admitted; it occurs for degenerate constant fields).
    """
    _require(lam >= 0.0 and beta >= 0.0, "bracketing check needs lam, beta >= 0")
    hplus = assemble_bracketing(region, field)
    _require(min(field.v_vector(hplus.sites)) >= lam, "needs V_n >= lam")
    _require(min(field.b_vector(hplus.sites)) >= beta, "needs B_n >= beta")
    edge = np.hypot(lam, beta)
    ev = eigensolve(hplus).eigenvalues
    atol = 1e-12 * max(1.0, float(np.max(np.abs(ev))))
    inside = int(np.sum((ev > 0.0) & (ev < edge - atol)))
    rep = CheckReport("bracketing_gap", parameters={"lam": lam, "beta": beta,
                                                    "edge": edge})
    rep.record(0.0 if inside == 0 else -float(inside))
    return rep
