"""Experiment configuration, orchestration and flat-file persistence.

Configs are plain INI text: an [experiment] section (kind, dimension,
length, realizations, seed, workers), one section per single-site measure
([mu_V], [mu_B]) and an optional section named after the experiment kind
for its specific knobs.  Outputs are CSV tables (UTF-8, comma-separated,
17 significant digits) plus a run.json sidecar carrying the config echo,
its hash, check summaries and an outputs manifest.

Determinism contract: with a fixed config and seed, every CSV is
byte-identical regardless of the worker count and the realization block
size, because a realization's row is a pure function of (seed, realization
index), whatever block it is computed in, and aggregation always consumes
results in realization order.
"""

import configparser
import hashlib
import io
import json
import math
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from pathlib import Path

import numpy as np

# asymptotics and green load with the kinds that use them, and
# concurrent.futures with the first pool: a run pays only for its own kind
from . import __version__
from . import blas, disorder, inequalities, lattice, operators, spectral
from .disorder import DisorderConfig, SiteMeasure, case_beta
from .inequalities import CheckReport, PreconditionError
from .lattice import CubeSpec
from .operators import MAX_BLOCK_DIM
from .spectral import deterministic_radius, eigensolve, per_realization, plain_block

# -- configuration -----------------------------------------------------------


def _numbers(raw) -> list[float]:
    """The finite numbers of a value, split at spaces and commas."""
    values = [float(tok) for tok in str(raw).replace(",", " ").split()]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{raw!r} is not finite")
    return values


def _number(raw) -> float:
    (x,) = _numbers(raw)
    return x


def _ints(raw) -> list[int]:
    return [int(round(x)) for x in _numbers(raw)]


FLAGS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
         **dict.fromkeys(("0", "false", "no", "off"), False)}


def _flag(raw) -> bool:
    return FLAGS[str(raw).strip().lower()]


# the keys each kind may set in its own section, each with the converter
# that reads it: loading rejects a value its converter cannot read,
# `validate` rejects any other key, and ExperimentConfig.value reads no other
KEYS = {
    "spectrum": {}, "ids": {"energy_range": _numbers, "energies": _numbers},
    "dos": {"bins": _numbers}, "wegner": {"energies": _numbers, "epsilons": _numbers},
    "gap": {}, "interlace": {"lam": _number, "beta": _number, "eps": _number},
    "green": {"energy": _number, "lengths": _numbers}, "ct": {"energy": _number},
    "sli-edi": {"energy": _number, "lengths": _numbers},
    "tails": {"epsilons": _numbers, "lengths": _ints, "lower_bound": _flag,
              "c0_lengths": _ints, "lower_epsilons": _numbers,
              "lower_realizations": _number},
    "suitability": {"theta": _numbers, "energies": _numbers, "lengths": _ints},
    "correlator": {"interval": _numbers}, "fh": {"tol": _number},
}
KINDS = tuple(KEYS)
# each measure kind's constructor and its parameters, in constructor order
MEASURES = {"uniform": (SiteMeasure.uniform, ("a", "b")),
            "triangular": (SiteMeasure.triangular, ("a", "b")),
            "point_mass": (SiteMeasure.point_mass, ("c",)),
            "two_point": (SiteMeasure.two_point, ("v1", "p", "v2"))}


def _read(section: str, key: str, raw, convert):
    """convert(raw), raw the value of `key` in `section` (None: missing);
    PreconditionError, naming both, if it is missing or does not convert."""
    if raw is None:
        raise PreconditionError(f"[{section}] needs key {key!r}")
    try:
        return convert(raw)
    except (KeyError, ValueError):
        raise PreconditionError(f"[{section}] {key} = {raw!r} does not parse") \
            from None


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

    def get(self, key: str, default=None):
        """The raw value of a key of the kind's section, else `default`.
        A key the kind does not declare in KEYS raises KeyError."""
        if key not in KEYS[self.kind]:
            raise KeyError(f"experiment {self.kind!r} declares no key {key!r}")
        return self.extra.get(key, default)

    def value(self, key: str, default=None):
        """A key of the kind's section, else `default` (None: the key is
        required), read by the key's converter in KEYS."""
        return _read(self.kind, key, self.get(key, default), KEYS[self.kind][key])


def parse_measure(cp, name: str) -> SiteMeasure:
    """The measure of section `name`; PreconditionError if the section, its
    kind or a parameter is missing, unknown, unparsable or out of range."""
    if not cp.has_section(name):
        raise PreconditionError(f"config has no [{name}] section")
    kind = cp[name].get("kind", "").strip()
    if kind not in MEASURES:
        raise PreconditionError(f"[{name}] unknown measure kind {kind!r}")
    construct, keys = MEASURES[kind]
    try:
        return construct(*(_read(name, k, cp[name].get(k), _number) for k in keys))
    except ValueError as e:
        raise PreconditionError(f"[{name}] {e}") from None


def parse_config(text: str, kind: str | None = None, seed: int | None = None,
                 workers: int | None = None) -> ExperimentConfig:
    """The config of INI text; PreconditionError if the text is not INI
    or a value does not parse."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise PreconditionError(f"config is not valid INI: {e}") from None
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

    def number(key, convert, default):
        return _read("experiment", key, exp.get(key, default), convert)
    cfg = ExperimentConfig(
        kind=cfg_kind, d=number("d", int, "1"), L=number("L", _number, "16"),
        realizations=number("realizations", int, "100"),
        seed=number("seed", int, "0") if seed is None else seed,
        workers=number("workers", int, "1") if workers is None else workers,
        mu_V=parse_measure(cp, "mu_V"), mu_B=parse_measure(cp, "mu_B"),
        extra=extra)
    for key in KEYS[cfg_kind]:
        if key in extra:
            cfg.value(key)
    return cfg


def load_config(path, **overrides) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"), **overrides)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize a config back to INI text (round-trips through parse_config)."""
    cp = configparser.ConfigParser()
    cp["experiment"] = {"kind": cfg.kind, "d": str(cfg.d), "L": repr(cfg.L),
                        "realizations": str(cfg.realizations),
                        "seed": str(cfg.seed), "workers": str(cfg.workers)}
    for name, m in (("mu_V", cfg.mu_V), ("mu_B", cfg.mu_B)):
        cp[name] = {"kind": m.kind, **{key: repr(x) for key, x in
                                       zip(MEASURES[m.kind][1], m.params)}}
    if cfg.extra:
        cp[cfg.kind] = {k: str(v) for k, v in cfg.extra.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# -- validation ---------------------------------------------------------------


def _cube_problems(d: int, L: float, what: str = "") -> list[str]:
    """Why a run cannot solve the block (2 |cube| wide) of the cube of
    length L densely: no sites, or past MAX_BLOCK_DIM.  `what` prefixes
    the diagnostic; a dimension below 1 is reported once, elsewhere."""
    if d < 1:
        return []
    if L <= 1:
        return [f"{what}cube length must exceed 1, got {L}"]
    dim = 2 * CubeSpec(d, L).site_count
    if dim > MAX_BLOCK_DIM:
        return [f"{what}matrix dimension {dim} exceeds the hard cap "
                f"{MAX_BLOCK_DIM}; reduce L or d"]
    return []


# the key of each kind that sets an interval lo hi (and n points, for a grid)
INTERVALS = {"ids": "energy_range", "dos": "bins", "correlator": "interval"}


def _interval_problems(cfg: ExperimentConfig) -> list[str]:
    """Why the configured interval of the kind is not "lo hi" (with "n",
    a whole number >= 1, for a grid) with lo < hi."""
    key = INTERVALS[cfg.kind]
    grid = key != "interval"
    v = cfg.value(key, "0 1 1" if grid else "0 1")
    if len(v) == 2 + grid and v[0] < v[1] and (not grid or v[2] >= 1 and
                                                v[2].is_integer()):
        return []
    return [f"{cfg.kind}: {key} = {cfg.get(key)!r} is not lo hi{' n' * grid} "
            f"with lo < hi{' and a whole n >= 1' * grid}"]


def validate(cfg: ExperimentConfig) -> list[str]:
    """All hypothesis diagnostics for the configured experiment, no
    computation: every count and range the run relies on."""
    out = []
    if cfg.d < 1:
        out.append(f"dimension must be >= 1, got {cfg.d}")
    out += _cube_problems(cfg.d, cfg.L)
    if cfg.realizations < 1:
        out.append("realizations must be >= 1")
    if cfg.workers < 1:
        out.append(f"workers must be >= 1, got {cfg.workers}")
    if not -2 ** 63 <= cfg.seed < 2 ** 63:        # the sampler's key width
        out.append(f"seed must be a signed 64-bit integer, got {cfg.seed}")

    k = cfg.kind
    unknown = sorted(set(cfg.extra) - set(KEYS[k]))
    if unknown:
        out.append(f"[{k}] has unknown key(s) {', '.join(unknown)}; it takes "
                   f"{', '.join(KEYS[k]) or 'no keys'}")
    if k in INTERVALS:
        out += _interval_problems(cfg)
    if k == "ids" and cfg.value("energies", "0") == []:
        out.append("ids: energies lists no energy")
    if k in ("wegner", "dos"):
        if not (cfg.mu_V.has_density and cfg.mu_B.has_density):
            out.append(f"{k}: the two-density estimate needs densities of "
                       "bounded variation for both measures")
        if cfg.mu_V.support_inf < 0 or cfg.mu_B.support_inf < 0:
            out.append(f"{k}: the two-density estimate needs "
                       "inf supp mu_V >= 0 and inf supp mu_B >= 0")
    if k == "wegner":
        try:
            energies = cfg.value("energies")
            epsilons = cfg.value("epsilons")
        except PreconditionError as e:
            out.append(str(e))
        else:
            out += [f"wegner: window (E={e}, eps={eps}) violates E > 0, 3*eps < E"
                    for e in energies for eps in epsilons
                    if not (e > 0 and 0 < eps and 3 * eps < e)]
    if k in ("gap", "interlace", "tails", "suitability"):
        try:
            case_beta(cfg.mu_B)
        except ValueError as e:
            out.append(f"{k}: {e}")
        if cfg.mu_V.support_inf < 0:
            out.append(f"{k}: needs inf supp mu_V >= 0")
    # the kinds that solve cubes other than the experiment's
    if k == "suitability":
        lengths = cfg.value("lengths", "12 24 48")
        for L in lengths:
            if L % 6 != 0:
                out.append(f"suitability: length {L} not in 6N")
            out += _cube_problems(cfg.d, L, f"suitability: length {L}: ")
        try:        # a_L = edge + L^-1/2, as suitability_probability has it
            edge = float(np.hypot(cfg.mu_V.support_inf, case_beta(cfg.mu_B).beta))
        except ValueError:
            edge = math.inf             # reported above
        top = max(map(abs, cfg.value("energies", "0.0")), default=0.0)
        out += [f"suitability: energies must lie in [-a_L, a_L], a_L = "
                f"{edge + L ** -0.5:.6g} at length {L}"
                for L in lengths if L >= 1 and top > edge + L ** -0.5]
    if k in ("green", "sli-edi") and cfg.get("lengths") is not None:
        try:
            lengths = _nested_lengths(cfg)
        except ValueError:
            out.append(f"{k}: lengths must be three numbers l1 l2 l3")
        else:
            for what, L in zip(("core", "middle", "host"), lengths):
                out += _cube_problems(cfg.d, L, f"{k}: {what} length {L:g}: ")
    if k == "tails":
        if cfg.mu_V.kind == "point_mass":
            out.append("tails: mu_V concentrated in a single point has no tail")
        if cfg.d >= 1:
            eps, lengths = _tail_grid(cfg)
            if min(eps, default=1.0) <= 0:
                out.append("tails: epsilons must be > 0")
            n = len(eps) if cfg.get("lengths") is None else len(cfg.value("lengths"))
            if n != len(eps):
                out.append(f"tails: {n} lengths for {len(eps)} epsilons")
            for e, L in zip(eps, lengths):
                out += _cube_problems(cfg.d, L, f"tails: length {L} at eps {e:g}: ")
        if cfg.d >= 1 and cfg.value("lower_bound", "false"):
            c0 = _c0_lengths(cfg)
            if not c0:
                out.append("tails: the lower bound needs at least one c0 length")
            for L in c0:
                if L < 4:
                    out.append(f"tails: c0 length {L} is below 4, the least "
                               "the test function takes")
                elif (n := CubeSpec(cfg.d, L).site_count) > MAX_BLOCK_DIM:
                    out.append(f"tails: c0 length {L}: Dirichlet matrix dimension "
                               f"{n} exceeds the hard cap {MAX_BLOCK_DIM}")
            if min(cfg.value("lower_epsilons", "0.5"), default=1.0) <= 0:
                out.append("tails: lower_epsilons must be > 0")
            if not (r := cfg.value("lower_realizations", 100000)) >= 1 \
                    or not r.is_integer():
                out.append(f"tails: lower_realizations {r:g} is not a whole "
                           "number >= 1")
    if k == "fh":
        if cfg.mu_V.support_inf < 0:
            out.append("fh: needs V >= 0 so that H >= 0")
        if cfg.mu_B.support_inf < 0:
            out.append("fh: needs B >= 0")
    return out


# -- parallel mapping ---------------------------------------------------------


# What a run pays to start, feed and join a process pool, in seconds.  On a
# 2-vCPU host (Python 3.11, numpy 2.4, fork start), in-process wall time at
# 2 workers minus half the inline one, median of 5 runs of each shipped
# config: 0.09 to 0.16 s, median 0.10 s.  An idle pool's import, start and
# join alone take about 0.05 s; feeding real kernels and their results
# takes the rest.
POOL_START_S = 0.1


class PoolMap:
    """Ordered map of realization-block kernels (`spectral.run_realizations`)
    over a process pool of `size` workers that starts only when the
    measured work pays for it.

    A call cuts R realizations into blocks of ceil(R / (4 size)), at most
    REALIZATION_BLOCK: about four per worker.  While no pool runs, the
    call computes the first block inline and times it, t.  The B - 1
    other blocks would take about t (B - 1) inline, and a pool saves
    (1 - 1/size) of that; it starts when the saving exceeds POOL_START_S.
    Otherwise the rest runs inline, in blocks of REALIZATION_BLOCK.  Once
    started, the pool maps every block of later calls, in about four
    chunks per worker, and each worker runs one BLAS thread.
    `estimate_s` is the largest t (B - 1) measured, None before a probe.
    """

    def __init__(self, size: int):
        self.size = size
        self.executor = None
        self.estimate_s = None

    def __call__(self, kernel, R: int):
        block = min(spectral.REALIZATION_BLOCK, max(1, math.ceil(R / (4 * self.size))))
        blocks = spectral.realization_blocks(0, R, block)
        if self.executor is not None:
            return self._map(kernel, blocks)
        if not blocks:
            return []
        t0 = time.perf_counter()
        first = kernel(blocks[0])
        rest = (time.perf_counter() - t0) * (len(blocks) - 1)
        self.estimate_s = max(self.estimate_s or 0.0, rest)
        if rest * (1.0 - 1.0 / self.size) <= POOL_START_S:
            return [first, *map(kernel, spectral.realization_blocks(
                block, R, spectral.REALIZATION_BLOCK))]
        # only a pool needs concurrent.futures and multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        self.executor = ProcessPoolExecutor(
            max_workers=self.size, initializer=blas.set_threads, initargs=(1,))
        return [first, *self._map(kernel, blocks[1:])]

    def _map(self, kernel, blocks):
        chunksize = max(1, math.ceil(len(blocks) / (4 * self.size)))
        return self.executor.map(kernel, blocks, chunksize=chunksize)

    def worker_blas_threads(self) -> int | None:
        """OpenBLAS thread count reported by a pool worker."""
        return self.executor.submit(blas.threads).result()

    def close(self):
        """Join the pool, if one started."""
        if self.executor is not None:
            self.executor.shutdown()


@contextmanager
def realization_mapper(workers: int):
    """Yield a `PoolMap` of up to min(workers, usable CPUs) processes when
    that is more than one, else None (inline execution).

    Either way results come back in realization order, so aggregates are
    identical across worker counts.
    """
    size = min(workers, len(os.sched_getaffinity(0)))
    if size <= 1:
        yield None
        return
    mapper = PoolMap(size)
    try:
        yield mapper
    finally:
        mapper.close()


# -- CSV output ---------------------------------------------------------------


def _bit(x) -> str:
    return "1" if x else "0"


def _integer(x) -> str:
    return str(int(x))


def _real(x) -> str:
    return f"{float(x):.17g}"


@lru_cache(maxsize=4096)
def _site(x) -> str:
    # lattice sites repeat down a table: each is formatted once
    return " ".join(str(int(c)) for c in x)


@cache
def _formatter(kind):
    """How a CSV cell writes a value of type `kind`: bools as 0/1, integers
    in decimal, floats as .17g (nan, inf and -0 as Python writes them),
    lattice sites (tuples) as their coordinates, anything else by str."""
    if issubclass(kind, (bool, np.bool_)):
        return _bit
    if issubclass(kind, (int, np.integer)):
        return _integer
    if issubclass(kind, (float, np.floating)):
        return _real
    if issubclass(kind, tuple):
        return _site
    return str


def _fmt(x) -> str:
    return _formatter(type(x))(x)


def write_csv(path: Path, header: list[str], rows) -> Path:
    """A header line, then one line per row of `_fmt` values."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
    return path


# -- reduction ------------------------------------------------------------------


def _attempt(name: str, check, *args, **kwargs) -> CheckReport:
    """check(*args, **kwargs), or a report of one precondition failure
    under `name`, the name of the report that check returns."""
    try:
        return check(*args, **kwargs)
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
# (header, row list).  Realization kernels take one realization's
# FieldSample (see spectral.per_realization) and return their CheckReports
# (beside any CSV values), reduced by _fold.  A kind's function, or its
# kernel where pool workers run it, imports asymptotics or green itself.


def _spectrum_row(f, radius, simple):
    """The structural checks of one realization's spectrum (nondegeneracy
    where the spectrum is a.s. `simple`) and its eigenvalues."""
    s = eigensolve(plain_block(f))
    reports = [inequalities.symmetry_check(s), inequalities.radius_check(s, radius)]
    if simple:
        reports.append(inequalities.nondegeneracy_check(s))
    return reports, s.eigenvalues


def _exp_spectrum(cfg, mapper):
    radius = deterministic_radius(cfg.d, cfg.mu_V, cfg.mu_B)
    vals = spectral.run_realizations(
        per_realization(partial(_spectrum_row, radius=radius,
                                simple=cfg.mu_V.has_density),
                        cfg.cube(), cfg.disorder()), cfg.realizations, mapper)
    reports = _fold((reps for reps, _ in vals), CheckReport("symmetry"),
                    CheckReport("nondegeneracy"),
                    CheckReport("radius", parameters={"radius": radius}))
    rows = [(r, j, e) for r, (_, ev) in enumerate(vals) for j, e in enumerate(ev)]
    tables = {"eigenvalues": (["realization", "index", "eigenvalue"], rows)}
    return tables, reports, {"radius_bound": radius}


def _exp_ids(cfg, mapper):
    radius = deterministic_radius(cfg.d, cfg.mu_V, cfg.mu_B)
    lo, hi, n = cfg.value("energy_range", f"{-radius} {radius} 41")
    grid = (np.linspace(lo, hi, int(n)) if cfg.get("energies") is None
            else np.array(cfg.value("energies")))
    est = spectral.ids_monte_carlo(cfg.disorder(), cfg.cube(), grid,
                                   cfg.realizations, mapper)
    mono = CheckReport("ids_monotone")
    mono.record(np.diff(est.mean_N))
    rng = CheckReport("ids_range")
    rng.record(float(np.min(est.mean_N)))
    rng.record(1.0 - float(np.max(est.mean_N)))
    rows = [(e, m, s, est.realizations)
            for e, m, s in zip(est.grid, est.mean_N, est.stderr_N)]
    return {"ids": (["E", "mean_N", "stderr", "R"], rows)}, [mono, rng], {}


def _exp_dos(cfg, mapper):
    radius = deterministic_radius(cfg.d, cfg.mu_V, cfg.mu_B)
    lo, hi, n = cfg.value("bins", f"{-radius} {radius} 40")
    hist = spectral.dos_histogram(cfg.disorder(), cfg.cube(),
                                  np.linspace(lo, hi, int(n) + 1),
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
    windows = [(e, eps) for e in cfg.value("energies")
               for eps in cfg.value("epsilons")]
    reports = inequalities.wegner_finite_volume(dis, cube, windows,
                                                cfg.realizations, mapper)
    rows = []
    for rep in reports:
        p = rep.parameters
        rows.append((p["E"], p["eps"], p["mean"], p["stderr"], p["bound"],
                     rep.worst_margin, rep.passed))
    header = ["E", "eps", "mean_count", "stderr", "bound", "slack", "passed"]
    return {"wegner": (header, rows)}, reports, {}


def _gap_row(f, edge):
    s = eigensolve(plain_block(f))
    min_abs = float(np.min(np.abs(s.eigenvalues)))
    rep = CheckReport("gap_edge")
    rep.record(min_abs - edge + 1e-12 * max(edge, 1.0))
    return [rep], spectral.spectral_gap(s) + (min_abs,)


def _exp_gap(cfg, mapper):
    lam = max(cfg.mu_V.support_inf, 0.0)
    beta = case_beta(cfg.mu_B).beta
    edge = math.hypot(lam, beta)
    vals = spectral.run_realizations(
        per_realization(partial(_gap_row, edge=edge), cfg.cube(), cfg.disorder()),
        cfg.realizations, mapper)
    reports = _fold((reps for reps, _ in vals),
                    CheckReport("gap_edge", parameters={"lam": lam, "beta": beta,
                                                        "edge": edge}))
    rows = [(r,) + v + (edge,) for r, (_, v) in enumerate(vals)]
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
    ]


def _exp_interlace(cfg, mapper):
    lam = cfg.value("lam", max(cfg.mu_V.support_inf, 0.0))
    beta = cfg.value("beta", case_beta(cfg.mu_B).beta)
    eps = cfg.value("eps", 0.3)
    reports = _fold(spectral.run_realizations(
        per_realization(partial(_interlace_row, lam=lam, beta=beta, eps=eps),
                        cfg.cube(), cfg.disorder()), cfg.realizations, mapper))
    return ({"interlace": _summary_table(reports)}, reports,
            {"lam": lam, "beta": beta})


def _nested_lengths(cfg):
    if cfg.get("lengths"):
        l1, l2, l3 = cfg.value("lengths")
    else:
        l3 = cfg.L
        l2 = max(math.ceil(l3 / 2), 5)
        l1 = 2.0
    return l1, l2, l3


def _green_row(f, cubes, energy):
    from . import green
    try:
        rep = green.gri_check(*cubes, f, energy)
    except PreconditionError:
        return [CheckReport("gri_residual", preconditions_failed=1)], None
    p = rep.parameters
    return [rep], (p["residual"], p["delta2"], p["delta3"], p["cap"], rep.passed)


def _exp_green(cfg, mapper):
    energy = cfg.value("energy", 0.0)
    lengths = _nested_lengths(cfg)
    cubes = tuple(CubeSpec(cfg.d, l) for l in lengths)
    # the field is sampled on the host cube, the largest
    vals = spectral.run_realizations(
        per_realization(partial(_green_row, cubes=cubes, energy=energy),
                        cubes[2], cfg.disorder()), cfg.realizations, mapper)
    reports = _fold((reps for reps, _ in vals),
                    CheckReport("gri_residual", parameters={
                        "E": energy, "lengths": list(lengths)}))
    rows = [(r, energy) + v for r, (_, v) in enumerate(vals) if v is not None]
    header = ["realization", "E", "residual", "delta2", "delta3", "cap", "passed"]
    return {"green": (header, rows)}, reports, {}


def _ct_row(f, energy):
    from . import green
    try:
        profile = green.decay_profile(f, energy)
    except PreconditionError:
        return [CheckReport("combes_thomas", preconditions_failed=1)], None
    rep = green.combes_thomas_check(profile)
    try:
        rate, intercept = green.decay_rate_fit(profile)
    except PreconditionError:        # the bound stands without a fitted rate
        rate = intercept = math.nan
        fit = CheckReport("ct_rate", preconditions_failed=1)
    else:
        fit = CheckReport("ct_rate")
        fit.record(-rate - profile.delta / (12.0 * f.cube.d))
    row = (profile.delta, rep.worst_margin, rate, intercept)
    rows = None
    if f.realization_index == 0:          # ct_profile.csv holds realization 0
        s = f.cube.sites()
        rows = [(s[i], s[j], k, v, c) for i, j, k, v, c in zip(
            profile.first.tolist(), profile.second.tolist(),
            profile.dist.tolist(), profile.norm.tolist(), profile.bound.tolist())]
    return [rep, fit], (row, rows)


def _exp_ct(cfg, mapper):
    energy = cfg.value("energy", 0.0)
    vals = spectral.run_realizations(
        per_realization(partial(_ct_row, energy=energy), cfg.cube(),
                        cfg.disorder()), cfg.realizations, mapper)
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
    if green.nesting(c2, c3) is None:      # both checks need it
        return [CheckReport("sli", preconditions_failed=1),
                CheckReport("edi", preconditions_failed=1)]
    # one solve each of the host cube and the middle cube serves both checks
    host = eigensolve(plain_block(f), want_vectors=True)
    middle = eigensolve(plain_block(f, c2))
    sli = _attempt("sli", green.sli_check, c1, c2, c3, f, energy,
                   spectra=(middle, host))
    edi = _attempt("edi", green.edi_check, c2, c3, f,
                   _probe_index(host.eigenvalues, energy), host=host, inner=middle)
    return [sli, edi]


def _exp_sli_edi(cfg, mapper):
    energy = cfg.value("energy", 0.0)
    cubes = tuple(CubeSpec(cfg.d, l) for l in _nested_lengths(cfg))
    reports = _fold(spectral.run_realizations(
        per_realization(partial(_sli_edi_row, cubes=cubes, energy=energy),
                        cubes[2], cfg.disorder()), cfg.realizations, mapper),
        CheckReport("sli", parameters={"E": energy}), CheckReport("edi"))
    return {"sli_edi": _summary_table(reports)}, reports, {}


def _tail_grid(cfg):
    """The sorted epsilons of a tails run and the cube length of each:
    the configured lengths raised to the resolution floor
    L >= 10/sqrt(eps) of `asymptotics.default_tail_length`, else that
    floor.  `validate` holds these lengths to the dense cap.
    """
    from . import asymptotics
    eps = sorted(cfg.value("epsilons", "0.08 0.125 0.2 0.3 0.4 0.5"))
    floor = [asymptotics.default_tail_length(e, cfg.d) for e in eps]
    if cfg.get("lengths") is None:
        return eps, floor
    return eps, [max(L, f) for L, f in zip(cfg.value("lengths"), floor)]


def _c0_lengths(cfg):
    """The lengths of the test-function grid of a tails lower bound: the
    configured ones, else those of 8 16 32 64 128 whose cube's dense
    Dirichlet matrix (|cube| wide) stays within MAX_BLOCK_DIM, all five at
    d = 1.  `validate` holds configured lengths to 4 and to that cap."""
    if cfg.get("c0_lengths") is not None:
        return cfg.value("c0_lengths")
    return [L for L in (8, 16, 32, 64, 128)
            if CubeSpec(cfg.d, L).site_count <= MAX_BLOCK_DIM]


def _exp_tails(cfg, mapper):
    from . import asymptotics
    dis = cfg.disorder()
    eps, lengths = _tail_grid(cfg)
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
    if cfg.value("lower_bound", "false"):
        c0 = asymptotics.c0_estimate(_c0_lengths(cfg), cfg.d)
        lb_rows = []
        for e in cfg.value("lower_epsilons", "0.5"):
            L = asymptotics.lower_bound_scale(c0.c0_hat, e)
            rep = asymptotics.lower_bound_probability(
                dis, cfg.d, e, L, int(cfg.value("lower_realizations", 100000)),
                mapper)
            reports.append(rep)
            p = rep.parameters
            lb_rows.append((e, L, p["empirical"], p["bound"], p["censored"]))
        tables["tails_lower"] = (["eps", "L", "empirical", "bound", "censored"],
                                 lb_rows)
        summary["c0_hat"] = c0.c0_hat
    return tables, reports, summary


def _exp_suitability(cfg, mapper):
    from . import asymptotics
    dis = cfg.disorder()
    # default sweep: theta just above the dimension, and well above it
    thetas = cfg.value("theta", f"{cfg.d + 0.5} {2 * cfg.d}")
    energies = cfg.value("energies", "0.0")
    # one ensemble per length serves every theta: by_length[i][k] is the
    # report at the i-th length and the k-th theta
    by_length = [asymptotics.suitability_probability(dis, cfg.d, L, thetas,
                                                     energies,
                                                     cfg.realizations, mapper)
                 for L in cfg.value("lengths", "12 24 48")]
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


# the correlator_decay check needs this many realizations with spectrum in
# the interval: a slope fitted from a handful is noise (2 of them gave a
# slope of +5.1 at r^2 = 0.03)
CORRELATOR_MIN_CONTRIBUTING = 10


def _exp_correlator(cfg, mapper):
    from . import asymptotics
    dis = cfg.disorder()
    cube = cfg.cube()
    lo, hi = cfg.value("interval", "-0.5 0.5")
    profile = asymptotics.eigenfunction_correlator(dis, cube, (lo, hi),
                                                   cfg.realizations, mapper)
    rows = [(n, m, d, q, s) for (n, m), d, q, s in
            zip(profile.pairs, profile.distances(), profile.mean_q,
                profile.stderr_q)]
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
    return ({"correlator": (["n", "m", "dist1", "mean_Q", "stderr_Q"], rows)},
            reports, summary)


def _fh_row(f, tol):
    try:
        rep = inequalities.feynman_hellmann_report(f, tol)
    except PreconditionError:
        return [CheckReport("feynman_hellmann", preconditions_failed=1)], None
    return [rep], (rep.instances, rep.violations,
                   rep.worst_margin if rep.instances else None,
                   rep.preconditions_failed)


def _exp_fh(cfg, mapper):
    tol = cfg.value("tol", 1e-6)
    vals = spectral.run_realizations(
        per_realization(partial(_fh_row, tol=tol), cfg.cube(), cfg.disorder()),
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
    caches = [lattice._cube_sites, lattice._ranked, disorder._site_keys,
              disorder._family_key, disorder._positions, operators.template,
              operators.rim_indices]
    green = sys.modules.get(f"{__package__}.green")   # loaded by its kinds only
    if green is not None:
        caches += [green._all_pairs, green.nesting]
    for cache in caches:
        cache.cache_clear()
    # scipy is recorded, not used: imported here, importing the CLI loads
    # no scipy module
    import scipy
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__,
           "cpu_affinity": len(os.sched_getaffinity(0)),
           "workers_requested": cfg.workers, "pool_size": 1,
           "pool_estimate_s": None, "blas_threads_worker": None}
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
                    env["pool_estimate_s"] = mapper.estimate_s
                    if mapper.executor is not None:
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
