"""The run side of the experiments: the reduction of per-realization
reports and each kind's tables.

`harness.run` loads this module, and numpy with it, when a run starts;
loading and validating a config need neither.  Each kind's record in
`harness.KINDS` names its function here, an _exp_* function of the
config.  They keep the determinism contract of `harness`: rows are
computed in this process, in blocks (`spectral.run_realizations`), and
come back and are reduced in realization order.
"""

import math
from functools import partial

import numpy as np

from . import inequalities, lattice, spectral
from .disorder import gap_edge
from .harness import _formatter, _grid, _spec, _tail_grid
from .inequalities import CheckReport
from .model import CubeSpec, PreconditionError, case_beta, deterministic_radius
from .spectral import eigensolve, per_realization, plain_block

# -- reduction ------------------------------------------------------------------


def _attempt(name: str, check, *args, **kwargs) -> CheckReport:
    """check(*args, **kwargs), or a report of one precondition failure
    under `name`, the name of the report that check returns."""
    try:
        return check(*args, **kwargs)
    except PreconditionError:
        return CheckReport(name, preconditions_failed=1)


def _realizations(cfg, row, *totals: CheckReport, cube=None, **kw):
    """Map row(field, **kw) -> (reports, values) over the run's fields on
    `cube` (None: the experiment's), and return one total per check name,
    absorbing each realization's reports in realization order, and the
    rows' values.  `totals` seed the totals that carry run-level
    parameters; any other name gets a fresh one, in order of appearance.
    """
    rows = spectral.run_realizations(
        per_realization(partial(row, **kw), cfg.cube() if cube is None else cube,
                        cfg.disorder()), cfg.realizations)
    merged = {t.name: t for t in totals}
    for reports, _ in rows:
        for rep in reports:
            merged.setdefault(rep.name, CheckReport(rep.name)).absorb(rep)
    return list(merged.values()), [values for _, values in rows]


def _summary_table(reports):
    rows = [(r.name, r.instances, r.violations,
             r.worst_margin if r.instances else math.nan,
             r.preconditions_failed) for r in reports]
    return (["check", "instances", "violations", "worst_margin",
             "preconditions_failed"], rows)


# -- experiments ---------------------------------------------------------------

# each _exp_* returns (tables, reports, summary); tables maps file stem to
# (header, rows) or (header, rows, template), the arguments of `write_csv`,
# rows iterated once, as the file is written.  Realization kernels take one realization's
# FieldSample (see spectral.per_realization) and return their CheckReports
# beside their CSV values, mapped and reduced by _realizations.  A kind's
# function or kernel imports asymptotics or green itself, so that only the
# kinds that use them load them.


def _spectrum_row(f, radius, simple):
    """The structural checks of one realization's spectrum (nondegeneracy
    where the spectrum is a.s. `simple`) and its eigenvalues."""
    s = eigensolve(plain_block(f))
    reports = [inequalities.symmetry_check(s), inequalities.radius_check(s, radius)]
    if simple:
        reports.append(inequalities.nondegeneracy_check(s))
    return reports, s.eigenvalues


def _exp_spectrum(cfg):
    radius = deterministic_radius(cfg.d, cfg.mu_V, cfg.mu_B)
    reports, spectra = _realizations(
        cfg, _spectrum_row, CheckReport("symmetry"), CheckReport("nondegeneracy"),
        CheckReport("radius", parameters={"radius": radius}),
        radius=radius, simple=cfg.mu_V.has_density)
    rows = [(r, j, e) for r, ev in enumerate(spectra) for j, e in enumerate(ev)]
    tables = {"eigenvalues": (["realization", "index", "eigenvalue"], rows)}
    return tables, reports, {"radius_bound": radius}


def _exp_ids(cfg):
    est = spectral.ids_monte_carlo(cfg.disorder(), cfg.cube(), cfg.value("energies"),
                                   cfg.realizations)
    mono = CheckReport("ids_monotone")
    mono.record(np.diff(est.mean_N))
    rng = CheckReport("ids_range")
    rng.record(float(np.min(est.mean_N)))
    rng.record(1.0 - float(np.max(est.mean_N)))
    rows = [(e, m, s, est.realizations) for e, m, s in zip(est.grid, est.mean_N, est.stderr_N)]
    return {"ids": (["E", "mean_N", "stderr", "R"], rows)}, [mono, rng], {}


def _exp_dos(cfg):
    lo, hi, n = cfg.value("bins")
    hist = spectral.dos_histogram(cfg.disorder(), cfg.cube(), _grid(lo, hi, n + 1),
                                  cfg.realizations)
    uniform = inequalities.dos_bound_uniform(hist)
    reports = [uniform]
    energy_bounds = [math.inf] * len(hist.density)
    try:
        reports.append(inequalities.dos_bound_energy_dependent(hist))
        energy_bounds = reports[-1].parameters["bounds"]
    except PreconditionError:
        pass                    # neither the V- nor the B-variant applies
    bound = uniform.parameters["bound"]
    rows = [(lo, hi, c, dens, se, bound, b) for lo, hi, c, dens, se, b in
            zip(hist.edges[:-1], hist.edges[1:], hist.centers, hist.density,
                hist.stderr, energy_bounds)]
    header = ["bin_lo", "bin_hi", "center", "density", "stderr",
              "bound_uniform", "bound_energy_dependent"]
    return {"dos": (header, rows)}, reports, {"bound_uniform": bound}


def _exp_wegner(cfg):
    windows = [(e, eps) for e in cfg.value("energies") for eps in cfg.value("epsilons")]
    reports = inequalities.wegner_finite_volume(cfg.disorder(), cfg.cube(), windows,
                                                cfg.realizations)
    rows = [tuple(rep.parameters[k] for k in ("E", "eps", "mean", "stderr", "bound"))
            + (rep.worst_margin, rep.passed) for rep in reports]
    header = ["E", "eps", "mean_count", "stderr", "bound", "slack", "passed"]
    return {"wegner": (header, rows)}, reports, {}


def _gap_row(f, edge):
    s = eigensolve(plain_block(f))
    min_abs = float(np.min(np.abs(s.eigenvalues)))
    rep = CheckReport("gap_edge")
    rep.record(min_abs - edge + 1e-12 * max(edge, 1.0))
    return [rep], spectral.spectral_gap(s) + (min_abs,)


def _exp_gap(cfg):
    lam, beta = cfg.mu_V.support_inf, case_beta(cfg.mu_B)
    edge = gap_edge(cfg.disorder())
    reports, vals = _realizations(
        cfg, _gap_row,
        CheckReport("gap_edge", parameters={"lam": lam, "beta": beta, "edge": edge}),
        edge=edge)
    rows = [(r,) + v + (edge,) for r, v in enumerate(vals)]
    header = ["realization", "gap_lo", "gap_hi", "min_abs_eigenvalue", "edge"]
    return {"gap": (header, rows)}, reports, {"edge": edge}


def _interlace_row(f, lam, beta, eps):
    from . import asymptotics
    es = inequalities.edge_spectra(f, beta)
    return [
        _attempt("interlacing", inequalities.interlacing_check, es),
        _attempt("half_half", inequalities.half_half_check, es, lam),
        _attempt("bracketing_gap", inequalities.bracketing_gap_check, f, lam, beta),
        _attempt("finite_volume_tail_bound", asymptotics.finite_volume_tail_bound,
                 es, lam, eps),
        inequalities.beta_map_check(es),
    ], None


def _exp_interlace(cfg):
    lam, beta = cfg.value("lam"), cfg.value("beta")
    reports, _ = _realizations(cfg, _interlace_row, lam=lam, beta=beta,
                               eps=cfg.value("eps"))
    return {"interlace": _summary_table(reports)}, reports, {"lam": lam, "beta": beta}


def _green_row(f, cubes, energy):
    from . import green
    try:
        rep = green.gri_check(*cubes, f, energy)
    except PreconditionError:
        return [CheckReport("gri_residual", preconditions_failed=1)], None
    p = rep.parameters
    return [rep], (p["residual"], p["delta2"], p["delta3"], p["cap"], rep.passed)


def _exp_green(cfg):
    energy = cfg.value("energy")
    lengths = cfg.value("lengths")
    cubes = tuple(CubeSpec(cfg.d, l) for l in lengths)
    # the field is sampled on the host cube, the largest
    reports, vals = _realizations(
        cfg, _green_row,
        CheckReport("gri_residual", parameters={"E": energy, "lengths": list(lengths)}),
        cube=cubes[2], cubes=cubes, energy=energy)
    rows = [(r, energy) + v for r, v in enumerate(vals) if v is not None]
    header = ["realization", "E", "residual", "delta2", "delta3", "cap", "passed"]
    return {"green": (header, rows)}, reports, {}


def _ct_row(f, energy, in_gap):
    from . import green
    try:
        profile = green.decay_profile(f, energy, in_gap)
    except PreconditionError:
        return [CheckReport("combes_thomas", preconditions_failed=1)], None
    rep = green.combes_thomas_check(profile)
    try:
        rate, intercept = green.decay_rate_fit(profile)
    except PreconditionError:        # the bound stands without a fitted rate
        rate = intercept = math.nan
    row = (profile.delta, rep.worst_margin, rate, intercept)
    # ct_profile.csv holds realization 0
    return [rep], (row, profile if f.realization_index == 0 else None)


# pairs per chunk of `_profile_rows`: the Python objects of one chunk, about
# 0.4 MB, are live at a time, not those of the whole table
PROFILE_CHUNK = 2 ** 12


def _profile_rows(cube, pairs, *columns, by_dist=None):
    """The rows of a site-pair table (ct_profile.csv, correlator.csv) and
    the `write_csv` template of their lines, from the column dtypes.

    The rows are made one chunk of PROFILE_CHUNK pairs at a time, as the
    file is written: the sites of the canonical index arrays
    pairs(k) = (first, second) of the pairs k of the chunk, each labelled
    by its coordinates, then the value columns, the first of them the
    pair distances.  `by_dist`, if given, holds the values of a last
    column that depends on a pair only through its distance, indexed by
    distance.  A site's label and each distance's value are formatted
    once."""
    label = [" ".join(map(str, x))
             for x in lattice.site_array(cube).tolist()].__getitem__
    kinds = (str, str) + tuple(c.dtype.type for c in columns)
    if by_dist is not None:
        kinds += (str,)
        keyed = [_spec(by_dist.dtype.type) % v for v in by_dist.tolist()].__getitem__
    total = len(columns[0])

    def rows():
        for lo in range(0, total, PROFILE_CHUNK):
            hi = min(lo + PROFILE_CHUNK, total)
            first, second = pairs(np.arange(lo, hi))
            cells = [c[lo:hi].tolist() for c in columns]
            if by_dist is not None:
                cells.append(map(keyed, cells[0]))
            yield from zip(map(label, first.tolist()), map(label, second.tolist()),
                           *cells)
    return rows(), _formatter(kinds)


def _in_gap(cfg, energy) -> bool:
    """Whether E lies at least 1 inside the deterministic gap edge,
    lam^2 + beta^2 >= (1 + |E|)^2 decided exactly on the binary values
    (finite, by validate).  Then no realization's plain block has an
    eigenvalue within 1 of E: the capped spectral distance is 1 with no
    spectrum, and the slice recursion gives G with no pivoting.  False
    with no admissible edge (inf supp mu_V < 0, or a mu_B that case_beta
    rejects)."""
    try:
        beta = case_beta(cfg.mu_B)
    except ValueError:
        return False
    lam = cfg.mu_V.support_inf
    return lam >= 0.0 and _one_inside_edge(lam, beta, energy)


def _one_inside_edge(lam, beta, energy) -> bool:
    """lam^2 + beta^2 >= (1 + |E|)^2, decided exactly on finite floats:
    each is p / q with q > 0 (`float.as_integer_ratio`), and the
    inequality multiplied through by (q_lam q_beta q_E)^2 is one between
    integers."""
    (a, qa), (b, qb), (e, qe) = (float(x).as_integer_ratio()
                                 for x in (lam, beta, abs(energy)))
    return (a * qb * qe) ** 2 + (b * qa * qe) ** 2 >= ((qe + e) * qa * qb) ** 2


def _exp_ct(cfg):
    energy = cfg.value("energy")
    reports, vals = _realizations(
        cfg, _ct_row, CheckReport("combes_thomas", parameters={"E": energy}),
        energy=energy, in_gap=_in_gap(cfg, energy))
    rows = [(r, energy) + v[0] for r, v in enumerate(vals) if v is not None]
    p = None if vals[0] is None else vals[0][1]     # realization 0's profile
    cube = cfg.cube()
    profile = ([],) if p is None else _profile_rows(
        cube, lambda k: np.divmod(k, cube.site_count), p.dist, p.norm,
        by_dist=p.bound_by_dist)
    return ({"ct": (["realization", "E", "delta", "worst_slack", "fit_rate",
                     "fit_intercept"], rows),
             "ct_profile": (["n", "m", "dist1", "block_norm", "ct_bound"], *profile)},
            reports, {})


def _probe_index(eigenvalues: np.ndarray, energy: float) -> int:
    """Index of the eigenvalue closest to `energy`, among ascending ones.

    Distances within 1e-12 * max(1, max |lambda|) of the smallest count as
    a tie, and a tie goes to the largest eigenvalue.  The block spectrum is
    symmetric about 0, so at energy 0 the probe is always the nonnegative
    member of a +-lambda pair, whichever solver rounded the pair.
    """
    dist = np.abs(eigenvalues - energy)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(eigenvalues))))
    return int(np.flatnonzero(dist <= dist.min() + tol)[-1])


def _sli_edi_row(f, cubes, energy):
    from . import green
    c1, c2, c3 = cubes
    # one solve each of the host cube and the middle cube serves both checks
    host = eigensolve(plain_block(f), want_vectors=True)
    middle = eigensolve(plain_block(f, c2))
    sli = _attempt("sli", green.sli_check, c1, c2, c3, f, energy,
                   spectra=(middle, host))
    edi = _attempt("edi", green.edi_check, c2, c3, f,
                   _probe_index(host.eigenvalues, energy), host=host, inner=middle)
    return [sli, edi], None


def _exp_sli_edi(cfg):
    energy = cfg.value("energy")
    cubes = tuple(CubeSpec(cfg.d, l) for l in cfg.value("lengths"))
    reports, _ = _realizations(cfg, _sli_edi_row,
                               CheckReport("sli", parameters={"E": energy}),
                               CheckReport("edi"), cube=cubes[2], cubes=cubes,
                               energy=energy)
    return {"sli_edi": _summary_table(reports)}, reports, {}


def _exp_tails(cfg):
    from . import asymptotics
    dis = cfg.disorder()
    eps, lengths = _tail_grid(cfg)
    curve = asymptotics.tail_curve(dis, cfg.d, eps, cfg.realizations, lengths=lengths)
    reports = [asymptotics.tail_monotonicity_check(curve)]
    summary = {"edge": curve.edge}
    try:
        fit = asymptotics.tail_exponent_fit(curve)
        summary.update(alpha_hat=fit.alpha_hat, fit_intercept=fit.intercept,
                       fit_points=fit.points_used)
    except ValueError as e:
        summary.update(alpha_hat=None, fit_error=str(e))
    rows = [(e, int(L), dn, se, bool(c),
             math.log(e), math.log(abs(math.log(dn))) if 0 < dn < 1 else math.nan)
            for e, L, dn, se, c in zip(curve.eps_grid, curve.lengths,
                                       curve.delta_n, curve.stderr,
                                       curve.censored)]
    tables = {"tails": (["eps", "L", "delta_N", "stderr", "censored",
                         "ln_eps", "ln_abs_ln_delta_N"], rows)}
    if cfg.value("lower_bound"):
        c0 = asymptotics.c0_estimate(cfg.value("c0_lengths"), cfg.d)
        lb_rows = []
        for e in cfg.value("lower_epsilons"):
            L = asymptotics.lower_bound_scale(c0.c0_hat, e)
            rep = asymptotics.lower_bound_probability(
                dis, cfg.d, e, L, int(cfg.value("lower_realizations")))
            reports.append(rep)
            p = rep.parameters
            lb_rows.append((e, L, p["empirical"], p["bound"], p["censored"]))
        tables["tails_lower"] = (["eps", "L", "empirical", "bound", "censored"], lb_rows)
        summary["c0_hat"] = c0.c0_hat
    return tables, reports, summary


def _exp_suitability(cfg):
    from . import asymptotics
    dis = cfg.disorder()
    thetas = cfg.value("theta")
    energies = cfg.value("energies")
    # one ensemble per length serves every theta: by_length[i][k] is the
    # report at the i-th length and the k-th theta
    by_length = [asymptotics.suitability_probability(dis, cfg.d, L, thetas, energies,
                                                     cfg.realizations)
                 for L in cfg.value("lengths")]
    rows, reports, thresholds = [], [], {}
    for k, theta in enumerate(thetas):
        prev = None
        order = CheckReport(f"suitability_monotone_theta={theta:g}",
                            parameters={"theta": theta})
        for rep in (reps[k] for reps in by_length):
            reports.append(rep.implication)
            for j, e in enumerate(rep.energies):
                rows.append((theta, rep.L, e, rep.probability[j],
                             rep.wilson_lo[j], rep.wilson_hi[j],
                             rep.gap_event_frequency, rep.realizations, rep.a_L))
            if prev is not None:
                # nondecreasing within CI: the new upper bound must reach the
                # previous lower bound
                order.record(rep.wilson_hi - prev.wilson_lo)
            prev = rep
        reports.append(order)
        thresholds[f"{theta:g}"] = prev.implication.parameters["threshold_L"]
    header = ["theta", "L", "E", "probability", "wilson_lo", "wilson_hi",
              "gap_event_freq", "R", "a_L"]
    return ({"suitability": (header, rows)}, reports,
            {"threshold_L": thresholds})


# the correlator_decay check needs this many realizations with spectrum in
# the interval: a slope fitted from a handful is noise (2 of them gave a
# slope of +5.1 at r^2 = 0.03)
CORRELATOR_MIN_CONTRIBUTING = 10


def _exp_correlator(cfg):
    from . import asymptotics
    dis = cfg.disorder()
    cube = cfg.cube()
    lo, hi = cfg.value("interval")
    profile = asymptotics.eigenfunction_correlator(dis, cube, (lo, hi), cfg.realizations)
    rows, template = _profile_rows(
        cube, lambda k: (profile.first[k], profile.second[k]), profile.distances(),
        profile.mean_q, profile.stderr_q)
    summary = {"interval": [lo, hi], "contributing": profile.contributing}
    reports = []
    if profile.contributing < CORRELATOR_MIN_CONTRIBUTING:
        reports.append(CheckReport(
            "correlator_decay", preconditions_failed=1,
            parameters={"contributing": profile.contributing,
                        "min_contributing": CORRELATOR_MIN_CONTRIBUTING}))
    else:
        try:
            fit = asymptotics.stretched_fit(profile)
            summary.update(zeta=fit.zeta, c_zeta=fit.c_zeta,
                           log_slope=fit.log_slope, r_squared=fit.r_squared)
            rep = CheckReport("correlator_decay",
                              parameters={"zeta": fit.zeta})
            rep.record(-fit.log_slope)     # decay = negative slope
            reports.append(rep)
        except ValueError as e:
            summary["fit_error"] = str(e)
    return ({"correlator": (["n", "m", "dist1", "mean_Q", "stderr_Q"], rows, template)},
            reports, summary)


def _fh_row(f, tol):
    try:
        rep = inequalities.feynman_hellmann_report(f, tol)
    except PreconditionError:
        return [CheckReport("feynman_hellmann", preconditions_failed=1)], None
    return [rep], (rep.instances, rep.violations,
                   rep.worst_margin if rep.instances else None,
                   rep.preconditions_failed)


def _exp_fh(cfg):
    tol = cfg.value("tol")
    reports, vals = _realizations(
        cfg, _fh_row, CheckReport("feynman_hellmann", parameters={"tol": tol}), tol=tol)
    rows = [(r,) + v for r, v in enumerate(vals) if v is not None]
    header = ["realization", "eigenvalues_checked", "violations",
              "worst_margin", "skipped_near_degenerate"]
    return {"fh": (header, rows)}, reports, {}
