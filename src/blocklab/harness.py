"""Experiment configuration, orchestration and flat-file persistence.

Configs are plain INI text: an [experiment] section (kind, dimension,
length, realizations, seed, workers), one section per single-site measure
([mu_V], [mu_B]) and an optional section named after the experiment kind
for its specific knobs.  Outputs are CSV tables (UTF-8, comma-separated,
17 significant digits) plus a run.json sidecar carrying the config echo,
its hash, check summaries and an outputs manifest.

Determinism contract: with a fixed config and seed, every CSV is
byte-identical regardless of the worker count, because realization kernels
are pure functions of (seed, realization index) and aggregation always
consumes results in realization order.
"""

import configparser
import hashlib
import io
import json
import math
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import (asymptotics, blas, disorder, green, inequalities, lattice,
               spectral)
from .disorder import DisorderConfig, SiteMeasure, case_beta, sample_field
from .inequalities import CheckReport, PreconditionError
from .lattice import CubeSpec
from .operators import MAX_BLOCK_DIM, assemble_block, build_h
from .spectral import deterministic_radius, eigensolve

KINDS = ("spectrum", "ids", "dos", "wegner", "gap", "interlace", "green",
         "ct", "sli-edi", "tails", "suitability", "correlator", "fh")


# -- configuration -----------------------------------------------------------


@dataclass
class ExperimentConfig:
    kind: str
    d: int
    L: float
    realizations: int
    seed: int
    workers: int
    mu_V: SiteMeasure
    mu_B: SiteMeasure
    extra: dict = field(default_factory=dict)

    def disorder(self) -> DisorderConfig:
        return DisorderConfig(self.mu_V, self.mu_B, self.seed)

    def cube(self) -> CubeSpec:
        return CubeSpec(self.d, self.L)

    # canonical text excludes the worker count: it must not affect results
    def canonical_text(self) -> str:
        lines = [f"kind={self.kind}", f"d={self.d}", f"L={self.L!r}",
                 f"realizations={self.realizations}", f"seed={self.seed}",
                 f"mu_V={self.mu_V.describe()}", f"mu_B={self.mu_B.describe()}"]
        for k in sorted(self.extra):
            lines.append(f"{self.kind}.{k}={self.extra[k]}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def floats(self, key: str, default: str | None = None) -> list[float]:
        raw = self.extra.get(key, default)
        if raw is None:
            raise PreconditionError(f"experiment {self.kind!r} needs key {key!r}")
        return [float(tok) for tok in str(raw).replace(",", " ").split()]

    def ints(self, key: str, default: str | None = None) -> list[int]:
        return [int(round(x)) for x in self.floats(key, default)]

    def scalar(self, key: str, default: float) -> float:
        return float(self.extra.get(key, default))

    def flag(self, key: str, default: bool = False) -> bool:
        raw = str(self.extra.get(key, default)).strip().lower()
        return raw in ("1", "true", "yes", "on")


def parse_measure(section) -> SiteMeasure:
    kind = section.get("kind", "").strip()
    if kind == "uniform":
        return SiteMeasure.uniform(section.getfloat("a"), section.getfloat("b"))
    if kind == "triangular":
        return SiteMeasure.triangular(section.getfloat("a"), section.getfloat("b"))
    if kind == "point_mass":
        return SiteMeasure.point_mass(section.getfloat("c"))
    if kind == "two_point":
        return SiteMeasure.two_point(section.getfloat("v1"), section.getfloat("p"),
                                     section.getfloat("v2"))
    raise PreconditionError(f"unknown measure kind {kind!r}")


def parse_config(text: str, kind: str | None = None, seed: int | None = None,
                 workers: int | None = None) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    cp.read_string(text)
    exp = cp["experiment"] if cp.has_section("experiment") else {}
    cfg_kind = kind or exp.get("kind")
    if cfg_kind is None:
        raise PreconditionError("no experiment kind given (config or CLI)")
    if kind and exp.get("kind") and exp.get("kind") != kind:
        raise PreconditionError(
            f"config kind {exp.get('kind')!r} conflicts with requested {kind!r}")
    if cfg_kind not in KINDS:
        raise PreconditionError(f"unknown experiment kind {cfg_kind!r}")
    extra = dict(cp[cfg_kind]) if cp.has_section(cfg_kind) else {}
    return ExperimentConfig(
        kind=cfg_kind,
        d=int(exp.get("d", 1)),
        L=float(exp.get("l", exp.get("L", 16))),
        realizations=int(exp.get("realizations", 100)),
        seed=int(exp.get("seed", 0)) if seed is None else seed,
        workers=int(exp.get("workers", 1)) if workers is None else workers,
        mu_V=parse_measure(cp["mu_V"]),
        mu_B=parse_measure(cp["mu_B"]),
        extra=extra,
    )


def load_config(path, **overrides) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"), **overrides)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize a config back to INI text (round-trips through parse_config)."""
    cp = configparser.ConfigParser()
    cp["experiment"] = {"kind": cfg.kind, "d": str(cfg.d), "L": repr(cfg.L),
                        "realizations": str(cfg.realizations),
                        "seed": str(cfg.seed), "workers": str(cfg.workers)}
    for name, m in (("mu_V", cfg.mu_V), ("mu_B", cfg.mu_B)):
        sec = {"kind": m.kind}
        if m.kind in ("uniform", "triangular"):
            sec.update(a=repr(m.params[0]), b=repr(m.params[1]))
        elif m.kind == "point_mass":
            sec.update(c=repr(m.params[0]))
        else:
            sec.update(v1=repr(m.params[0]), p=repr(m.params[1]),
                       v2=repr(m.params[2]))
        cp[name] = sec
    if cfg.extra:
        cp[cfg.kind] = {k: str(v) for k, v in cfg.extra.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# -- validation ---------------------------------------------------------------


def validate(cfg: ExperimentConfig) -> list[str]:
    """All hypothesis diagnostics for the configured experiment, no computation."""
    out = []
    if cfg.d < 1:
        out.append(f"dimension must be >= 1, got {cfg.d}")
    if cfg.L <= 1:
        out.append(f"cube length must exceed 1, got {cfg.L}")
    else:
        dim = 2 * cfg.cube().site_count
        if dim > MAX_BLOCK_DIM:
            out.append(f"matrix dimension {dim} exceeds the hard cap "
                       f"{MAX_BLOCK_DIM}; reduce L or d")
    if cfg.realizations < 1:
        out.append("realizations must be >= 1")
    if cfg.workers < 1:
        out.append(f"workers must be >= 1, got {cfg.workers}")

    k = cfg.kind
    if k in ("wegner", "dos"):
        if not (cfg.mu_V.has_density and cfg.mu_B.has_density):
            out.append(f"{k}: the two-density estimate needs densities of "
                       "bounded variation for both measures")
        if cfg.mu_V.support_inf < 0 or cfg.mu_B.support_inf < 0:
            out.append(f"{k}: the two-density estimate needs "
                       "inf supp mu_V >= 0 and inf supp mu_B >= 0")
    if k == "wegner":
        try:
            energies = cfg.floats("energies")
            epsilons = cfg.floats("epsilons")
        except PreconditionError as e:
            out.append(str(e))
        else:
            for e in energies:
                for eps in epsilons:
                    if not (e > 0 and 0 < eps and 3 * eps < e):
                        out.append(f"wegner: window (E={e}, eps={eps}) violates "
                                   "E > 0, 3*eps < E")
    if k in ("gap", "interlace", "tails", "suitability"):
        try:
            case_beta(cfg.mu_B)
        except ValueError as e:
            out.append(f"{k}: {e}")
        if cfg.mu_V.support_inf < 0:
            out.append(f"{k}: needs inf supp mu_V >= 0")
    if k == "suitability":
        for L in cfg.ints("lengths", "12 24 48"):
            if L % 6 != 0:
                out.append(f"suitability: length {L} not in 6N")
    if k == "tails" and cfg.mu_V.kind == "point_mass":
        out.append("tails: mu_V concentrated in a single point has no tail")
    if k == "fh":
        if cfg.mu_V.support_inf < 0:
            out.append("fh: needs V >= 0 so that H >= 0")
        if cfg.mu_B.support_inf < 0:
            out.append("fh: needs B >= 0")
    return out


# -- parallel mapping ---------------------------------------------------------


class PoolMap:
    """Ordered map over a process pool whose workers run one BLAS thread.

    Each call is cut into about four chunks per worker: enough to balance
    the load, few enough that dispatch costs nothing next to the tasks.
    """

    def __init__(self, executor: ProcessPoolExecutor, size: int):
        self.executor = executor
        self.size = size

    def __call__(self, fn, items):
        chunksize = max(1, math.ceil(len(items) / (4 * self.size)))
        return self.executor.map(fn, items, chunksize=chunksize)

    def worker_blas_threads(self) -> int | None:
        """OpenBLAS thread count reported by a pool worker."""
        return self.executor.submit(blas.threads).result()


@contextmanager
def realization_mapper(workers: int):
    """Yield a `PoolMap` over min(workers, usable CPUs) processes when that
    is more than one, else None (inline execution).

    Either way results come back in realization order, so aggregates are
    identical across worker counts.
    """
    size = min(workers, len(os.sched_getaffinity(0)))
    if size > 1:
        with ProcessPoolExecutor(max_workers=size, initializer=blas.set_threads,
                                 initargs=(1,)) as ex:
            yield PoolMap(ex, size)
    else:
        yield None


# -- CSV output ---------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, tuple):                 # lattice site
        return " ".join(str(int(c)) for c in x)
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    return path


# -- reduction ------------------------------------------------------------------


def _attempt(name: str, check, *args) -> CheckReport:
    """check(*args), or a report of one precondition failure under `name`,
    the name of the report that check returns."""
    try:
        return check(*args)
    except PreconditionError:
        return CheckReport(name, preconditions_failed=1)


def _fold(rows, *totals: CheckReport) -> list[CheckReport]:
    """One total per check name from per-realization reports.

    `rows` yields each realization's reports, in realization order; every
    report is absorbed into the total of its name.  `totals` seeds the
    totals that carry run-level parameters; any other name gets a fresh
    total, in order of first appearance.
    """
    merged = {t.name: t for t in totals}
    for reports in rows:
        for rep in reports:
            merged.setdefault(rep.name, CheckReport(rep.name)).absorb(rep)
    return list(merged.values())


def _summary_table(reports):
    rows = [(r.name, r.instances, r.violations,
             r.worst_margin if r.instances else math.nan,
             r.preconditions_failed) for r in reports]
    return (["check", "instances", "violations", "worst_margin",
             "preconditions_failed"], rows)


# -- experiments ---------------------------------------------------------------

# each _exp_* returns (tables, reports, summary); tables maps file stem to
# (header, row list).  Realization kernels return their CheckReports (beside
# any CSV values), reduced by _fold.


def _exp_spectrum(cfg, mapper):
    cube = cfg.cube()
    dis = cfg.disorder()
    radius = deterministic_radius(cfg.d, cfg.mu_V, cfg.mu_B)
    sym = CheckReport("symmetry")
    nondeg = CheckReport("nondegeneracy")
    rad = CheckReport("radius", parameters={"radius": radius})
    rows = []
    eigen_rows = spectral.run_realizations(
        partial(spectral._eigenvalue_row, cube=cube, config=dis),
        cfg.realizations, mapper)
    for r, s in enumerate(spectral.Spectrum(ev) for ev in eigen_rows):
        for j, e in enumerate(s.eigenvalues):
            rows.append((r, j, e))
        c = spectral.symmetry_check(s)
        sym.record(c.threshold - c.value)
        if cfg.mu_V.has_density:
            c = spectral.nondegeneracy_check(s)
            nondeg.record(c.value - c.threshold)
        c = spectral.radius_check(s, radius)
        rad.record(c.threshold - c.value)
    tables = {"eigenvalues": (["realization", "index", "eigenvalue"], rows)}
    return tables, [sym, nondeg, rad], {"radius_bound": radius}


def _exp_ids(cfg, mapper):
    radius = deterministic_radius(cfg.d, cfg.mu_V, cfg.mu_B)
    default = f"{-radius} {radius} 41"
    lo, hi, n = cfg.floats("energy_range", default)
    grid = (np.linspace(lo, hi, int(n)) if "energies" not in cfg.extra
            else np.array(cfg.floats("energies")))
    est = spectral.ids_monte_carlo(cfg.disorder(), cfg.cube(), grid,
                                   cfg.realizations, mapper)
    mono = CheckReport("ids_monotone")
    mono.record(np.diff(est.mean_N))
    rng = CheckReport("ids_range")
    rng.record(float(np.min(est.mean_N)))
    rng.record(1.0 - float(np.max(est.mean_N)))
    rows = [(e, m, s, est.realizations)
            for e, m, s in zip(est.grid, est.mean_N, est.stderr_N)]
    return ({"ids": (["E", "mean_N", "stderr", "R"], rows)},
            [mono, rng], {})


def _dos_edges(cfg):
    radius = deterministic_radius(cfg.d, cfg.mu_V, cfg.mu_B)
    lo, hi, n = cfg.floats("bins", f"{-radius} {radius} 40")
    return np.linspace(lo, hi, int(n) + 1)


def _exp_dos(cfg, mapper):
    hist = spectral.dos_histogram(cfg.disorder(), cfg.cube(), _dos_edges(cfg),
                                  cfg.realizations, mapper)
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


def _exp_wegner(cfg, mapper):
    dis = cfg.disorder()
    cube = cfg.cube()
    windows = [(e, eps) for e in cfg.floats("energies")
               for eps in cfg.floats("epsilons")]
    reports = inequalities.wegner_finite_volume(dis, cube, windows,
                                                cfg.realizations, mapper)
    rows = []
    for rep in reports:
        p = rep.parameters
        rows.append((p["E"], p["eps"], p["mean"], p["stderr"], p["bound"],
                     rep.worst_margin, rep.passed))
    header = ["E", "eps", "mean_count", "stderr", "bound", "slack", "passed"]
    return {"wegner": (header, rows)}, reports, {}


def _gap_row(r, cube, config, edge):
    f = sample_field(cube, config, r)
    s = eigensolve(assemble_block(build_h(cube, "simple", f), f))
    min_abs = float(np.min(np.abs(s.eigenvalues)))
    rep = CheckReport("gap_edge")
    rep.record(min_abs - edge + 1e-12 * max(edge, 1.0))
    return [rep], spectral.spectral_gap(s) + (min_abs,)


def _exp_gap(cfg, mapper):
    lam = max(cfg.mu_V.support_inf, 0.0)
    beta = case_beta(cfg.mu_B).beta
    edge = math.hypot(lam, beta)
    vals = spectral.run_realizations(
        partial(_gap_row, cube=cfg.cube(), config=cfg.disorder(), edge=edge),
        cfg.realizations, mapper)
    reports = _fold((reps for reps, _ in vals),
                    CheckReport("gap_edge", parameters={"lam": lam, "beta": beta,
                                                        "edge": edge}))
    rows = [(r,) + v + (edge,) for r, (_, v) in enumerate(vals)]
    header = ["realization", "gap_lo", "gap_hi", "min_abs_eigenvalue", "edge"]
    return {"gap": (header, rows)}, reports, {"edge": edge}


def _interlace_row(r, cube, config, lam, beta, eps):
    f = sample_field(cube, config, r)
    return [
        _attempt("interlacing", inequalities.interlacing_check, cube, f, beta),
        _attempt("half_half", inequalities.half_half_check, cube, f, lam, beta),
        _attempt("bracketing_gap", inequalities.bracketing_gap_check, cube, f,
                 lam, beta),
        _attempt("finite_volume_tail_bound", asymptotics.finite_volume_tail_bound,
                 cube, f, lam, beta, eps),
        inequalities.beta_map_check(build_h(cube, "simple", f), beta),
    ]


def _exp_interlace(cfg, mapper):
    lam = cfg.scalar("lam", max(cfg.mu_V.support_inf, 0.0))
    beta = cfg.scalar("beta", case_beta(cfg.mu_B).beta)
    eps = cfg.scalar("eps", 0.3)
    reports = _fold(spectral.run_realizations(
        partial(_interlace_row, cube=cfg.cube(), config=cfg.disorder(), lam=lam,
                beta=beta, eps=eps), cfg.realizations, mapper))
    return ({"interlace": _summary_table(reports)}, reports,
            {"lam": lam, "beta": beta})


def _nested_lengths(cfg):
    raw = cfg.extra.get("lengths")
    if raw:
        l1, l2, l3 = [float(x) for x in str(raw).split()]
    else:
        l3 = cfg.L
        l2 = max(math.ceil(l3 / 2), 5)
        l1 = 2.0
    return l1, l2, l3


def _green_row(r, d, lengths, config, energy):
    c1, c2, c3 = (CubeSpec(d, l) for l in lengths)
    f = sample_field(c3, config, r)
    try:
        rep = green.gri_check(c1, c2, c3, f, energy)
    except PreconditionError:
        return [CheckReport("gri_residual", preconditions_failed=1)], None
    p = rep.parameters
    return [rep], (p["residual"], p["delta2"], p["delta3"], p["cap"], rep.passed)


def _exp_green(cfg, mapper):
    energy = cfg.scalar("energy", 0.0)
    lengths = _nested_lengths(cfg)
    vals = spectral.run_realizations(
        partial(_green_row, d=cfg.d, lengths=lengths, config=cfg.disorder(),
                energy=energy), cfg.realizations, mapper)
    reports = _fold((reps for reps, _ in vals),
                    CheckReport("gri_residual", parameters={
                        "E": energy, "lengths": list(lengths)}))
    rows = [(r, energy) + v for r, (_, v) in enumerate(vals) if v is not None]
    header = ["realization", "E", "residual", "delta2", "delta3", "cap", "passed"]
    return {"green": (header, rows)}, reports, {}


def _ct_row(r, cube, config, energy):
    f = sample_field(cube, config, r)
    op = assemble_block(build_h(cube, "simple", f), f)
    try:
        profile = green.decay_profile(op, energy)
        rep = green.combes_thomas_check(profile)
        rate, intercept = green.decay_rate_fit(profile)
    except (PreconditionError, ValueError):
        return [CheckReport("combes_thomas", preconditions_failed=1)], None
    fit = CheckReport("ct_rate")
    fit.record(-rate - profile.delta / (12.0 * cube.d))
    row = (profile.delta, rep.worst_margin, rate, intercept)
    rows = None
    if r == 0:          # ct_profile.csv holds realization 0
        s = profile.sites
        rows = [(s[i], s[j], k, v, c) for i, j, k, v, c in zip(
            profile.first.tolist(), profile.second.tolist(),
            profile.dist.tolist(), profile.norm.tolist(), profile.bound.tolist())]
    return [rep, fit], (row, rows)


def _exp_ct(cfg, mapper):
    energy = cfg.scalar("energy", 0.0)
    vals = spectral.run_realizations(
        partial(_ct_row, cube=cfg.cube(), config=cfg.disorder(), energy=energy),
        cfg.realizations, mapper)
    reports = _fold((reps for reps, _ in vals),
                    CheckReport("combes_thomas", parameters={"E": energy}),
                    CheckReport("ct_rate", parameters={"E": energy}))
    rows = [(r, energy) + v[0] for r, (_, v) in enumerate(vals) if v is not None]
    first = vals[0][1]          # realization 0 carries the profile rows
    tables = {
        "ct": (["realization", "E", "delta", "worst_slack", "fit_rate",
                "fit_intercept"], rows),
        "ct_profile": (["n", "m", "dist1", "block_norm", "ct_bound"],
                       first[1] if first is not None else []),
    }
    return tables, reports, {}


def _sli_edi_row(r, d, lengths, config, energy):
    c1, c2, c3 = (CubeSpec(d, l) for l in lengths)
    f = sample_field(c3, config, r)
    sli = _attempt("sli", green.sli_check, c1, c2, c3, f, energy)
    try:
        s = eigensolve(assemble_block(build_h(c3, "simple", f), f))
        j = int(np.argmin(np.abs(s.eigenvalues - energy)))
        # probe the eigenpair closest to the requested energy
        edi = green.edi_check(c2, c3, f, j)
    except (PreconditionError, ValueError):
        edi = CheckReport("edi", preconditions_failed=1)
    return [sli, edi]


def _exp_sli_edi(cfg, mapper):
    energy = cfg.scalar("energy", 0.0)
    reports = _fold(spectral.run_realizations(
        partial(_sli_edi_row, d=cfg.d, lengths=_nested_lengths(cfg),
                config=cfg.disorder(), energy=energy), cfg.realizations, mapper),
        CheckReport("sli", parameters={"E": energy}), CheckReport("edi"))
    return {"sli_edi": _summary_table(reports)}, reports, {}


def _exp_tails(cfg, mapper):
    dis = cfg.disorder()
    eps = sorted(cfg.floats("epsilons", "0.08 0.125 0.2 0.3 0.4 0.5"))
    lengths = cfg.ints("lengths") if "lengths" in cfg.extra else None
    if lengths is not None:
        # enforce the resolution floor L >= 10/sqrt(eps) (and the dense cap)
        lengths = [max(L, asymptotics.default_tail_length(e, cfg.d))
                   for L, e in zip(lengths, eps)]
    curve = asymptotics.tail_curve(dis, cfg.d, eps, cfg.realizations,
                                   lengths=lengths, mapper=mapper)
    mono = asymptotics.tail_monotonicity_check(curve)
    reports = [mono]
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
    if cfg.flag("lower_bound"):
        c0 = asymptotics.c0_estimate(cfg.ints("c0_lengths", "8 16 32 64 128"),
                                     cfg.d)
        lb_rows = []
        for e in cfg.floats("lower_epsilons", "0.5"):
            L = asymptotics.lower_bound_scale(c0.c0_hat, e)
            rep = asymptotics.lower_bound_probability(
                dis, cfg.d, e, L, int(cfg.scalar("lower_realizations", 100000)),
                mapper)
            reports.append(rep)
            p = rep.parameters
            lb_rows.append((e, L, p["empirical"], p["bound"], p["censored"]))
        tables["tails_lower"] = (["eps", "L", "empirical", "bound", "censored"],
                                 lb_rows)
        summary["c0_hat"] = c0.c0_hat
    return tables, reports, summary


def _exp_suitability(cfg, mapper):
    dis = cfg.disorder()
    # default sweep: theta just above the dimension, and well above it
    thetas = cfg.floats("theta", f"{cfg.d + 0.5} {2 * cfg.d}")
    energies = cfg.floats("energies", "0.0")
    # one ensemble per length serves every theta: by_length[i][k] is the
    # report at the i-th length and the k-th theta
    by_length = [asymptotics.suitability_probability(dis, cfg.d, L, thetas,
                                                     energies,
                                                     cfg.realizations, mapper)
                 for L in cfg.ints("lengths", "12 24 48")]
    rows = []
    reports = []
    thresholds = {}
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
        thresholds[f"{theta:g}"] = asymptotics.ct_threshold_length(theta, cfg.d)
    header = ["theta", "L", "E", "probability", "wilson_lo", "wilson_hi",
              "gap_event_freq", "R", "a_L"]
    return ({"suitability": (header, rows)}, reports,
            {"threshold_L": thresholds})


def _exp_correlator(cfg, mapper):
    dis = cfg.disorder()
    cube = cfg.cube()
    lo, hi = cfg.floats("interval", "-0.5 0.5")
    profile = asymptotics.eigenfunction_correlator(dis, cube, (lo, hi),
                                                   pairs=None,
                                                   R=cfg.realizations,
                                                   mapper=mapper)
    rows = [(n, m, d, q, s) for (n, m), d, q, s in
            zip(profile.pairs, profile.distances(), profile.mean_q,
                profile.stderr_q)]
    summary = {"interval": [lo, hi], "contributing": profile.contributing}
    reports = []
    if not profile.empty:
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
    return ({"correlator": (["n", "m", "dist1", "mean_Q", "stderr_Q"], rows)},
            reports, summary)


def _fh_row(r, cube, config, tol):
    f = sample_field(cube, config, r)
    try:
        rep = inequalities.feynman_hellmann_report(cube, f, tol)
    except PreconditionError:
        return [CheckReport("feynman_hellmann", preconditions_failed=1)], None
    return [rep], (rep.instances, rep.violations,
                   rep.worst_margin if rep.instances else None,
                   rep.preconditions_failed)


def _exp_fh(cfg, mapper):
    tol = cfg.scalar("tol", 1e-6)
    vals = spectral.run_realizations(
        partial(_fh_row, cube=cfg.cube(), config=cfg.disorder(), tol=tol),
        cfg.realizations, mapper)
    reports = _fold((reps for reps, _ in vals),
                    CheckReport("feynman_hellmann", parameters={"tol": tol}))
    rows = [(r,) + v for r, (_, v) in enumerate(vals) if v is not None]
    header = ["realization", "eigenvalues_checked", "violations",
              "worst_margin", "skipped_near_degenerate"]
    return {"fh": (header, rows)}, reports, {}


EXPERIMENTS = {
    "spectrum": _exp_spectrum,
    "ids": _exp_ids,
    "dos": _exp_dos,
    "wegner": _exp_wegner,
    "gap": _exp_gap,
    "interlace": _exp_interlace,
    "green": _exp_green,
    "ct": _exp_ct,
    "sli-edi": _exp_sli_edi,
    "tails": _exp_tails,
    "suitability": _exp_suitability,
    "correlator": _exp_correlator,
    "fh": _exp_fh,
}


# -- run records ----------------------------------------------------------------


@dataclass
class RunResult:
    config: ExperimentConfig
    tables: dict
    reports: list
    summary: dict
    diagnostics: list
    wall_time: float
    environment: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.diagnostics:
            return 3
        return 0 if all(r.passed for r in self.reports) else 2

    def record(self) -> dict:
        return {
            "kind": self.config.kind,
            "config": config_to_text(self.config),
            "config_hash": self.config.config_hash(),
            "code_version": __version__,
            "wall_time_s": self.wall_time,
            "workers": self.config.workers,
            "environment": self.environment,
            "seed": self.config.seed,
            "realizations": self.config.realizations,
            "diagnostics": self.diagnostics,
            "reports": [r.to_json() for r in self.reports],
            "summary": _jsonable(self.summary),
            "outputs": self.outputs,
            "exit_code": self.exit_code,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def emit_plotdata(result: RunResult, outdir) -> list[Path]:
    """Write one CSV per figure-type table of a completed run."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, (header, rows) in result.tables.items():
        written.append(write_csv(outdir / f"{stem}.csv", header, rows))
    return written


def run(cfg: ExperimentConfig, outdir) -> RunResult:
    """Execute the configured experiment and persist its artifacts."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    diagnostics = validate(cfg)
    # cold per-cube caches: a run's cost does not depend on earlier runs in
    # this process, and the caches hold only this run's cubes
    lattice._cube_sites.cache_clear()
    disorder._packed_sites.cache_clear()
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__,
           "cpu_affinity": len(os.sched_getaffinity(0)),
           "workers_requested": cfg.workers, "pool_size": 1,
           "blas_threads_worker": None}
    t0 = time.perf_counter()
    tables, reports, summary = {}, [], {}
    # one BLAS thread here as in every pool worker: a threaded LAPACK call
    # rounds differently, so the bytes would depend on the worker count
    with blas.limited(1):
        env["blas_threads_main"] = blas.threads()
        if not diagnostics:
            with realization_mapper(cfg.workers) as mapper:
                tables, reports, summary = EXPERIMENTS[cfg.kind](cfg, mapper)
                if mapper is not None:
                    env.update(pool_size=mapper.size,
                               blas_threads_worker=mapper.worker_blas_threads())
    result = RunResult(cfg, tables, reports, summary, diagnostics,
                       time.perf_counter() - t0, env)
    files = emit_plotdata(result, outdir)
    result.outputs = [{"name": f.name,
                       "sha256": hashlib.sha256(f.read_bytes()).hexdigest()}
                      for f in files]
    with open(outdir / "run.json", "w", encoding="utf-8") as fh:
        json.dump(result.record(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result
