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
import importlib.util
import io
import json
import math
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache, partial
from itertools import islice
from pathlib import Path

import numpy as np

# asymptotics and green load with the kinds that use them, and
# concurrent.futures with the first pool: a run pays only for its own kind
from . import __version__
from . import blas, disorder, inequalities, lattice, operators, spectral
from .disorder import DisorderConfig, SiteMeasure, case_beta, gap_edge
from .inequalities import CheckReport, PreconditionError
from .lattice import CubeSpec
from .operators import MAX_BLOCK_DIM
from .spectral import (MAX_COUNT_ENERGIES, deterministic_radius, eigensolve,
                       per_realization, plain_block)

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
    values = _numbers(raw)
    if not all(x.is_integer() for x in values):
        raise ValueError(f"{raw!r} is not whole")
    return [int(x) for x in values]


FLAGS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
         **dict.fromkeys(("0", "false", "no", "off"), False)}


def _flag(raw) -> bool:
    return FLAGS[str(raw).strip().lower()]


def _span(cfg, n):
    """-r r n, r the deterministic radius bound of the spectrum."""
    r = deterministic_radius(cfg.d, cfg.mu_V, cfg.mu_B)
    return [-r, r, n]


def _grid(lo, hi, n):
    return np.linspace(lo, hi, int(n))


def _nested(cfg):
    """Core, middle and host lengths: 2, half the host's (at least 5), L."""
    return [2.0, max(math.ceil(cfg.L / 2), 5), cfg.L]


def _tail_floors(cfg):
    """The resolution floor L >= 10/sqrt(eps) of the cube of each sorted
    tails epsilon (`asymptotics.default_tail_length`)."""
    from . import asymptotics
    return [asymptotics.default_tail_length(e, cfg.d)
            for e in sorted(cfg.value("epsilons"))]


def _tail_grid(cfg):
    """The sorted epsilons of a tails run and the cube length of each, its
    length raised to the resolution floor; `validate` holds it to the cap."""
    eps = sorted(cfg.value("epsilons"))
    return eps, [max(L, f) for L, f in zip(cfg.value("lengths"), _tail_floors(cfg))]


# the [experiment] keys besides kind, each with the converter that reads it
# and its default; --seed and --workers override theirs
EXPERIMENT = {"d": (int, 1), "L": (_number, 16.0), "realizations": (int, 100),
              "seed": (int, 0), "workers": (int, 1)}
# each measure kind's constructor and its parameters, in constructor order
MEASURES = {"uniform": (SiteMeasure.uniform, ("a", "b")),
            "triangular": (SiteMeasure.triangular, ("a", "b")),
            "point_mass": (SiteMeasure.point_mass, ("c",)),
            "two_point": (SiteMeasure.two_point, ("v1", "p", "v2"))}


def _reject_unknown(section: str | None, keys, declared):
    """PreconditionError naming the keys of [section], or for section None
    the sections of the config, that are not declared."""
    fold = str.lower if section else str    # configparser reads L as l
    if unknown := sorted(set(keys) - set(map(fold, declared))):
        what = f"[{section}] has unknown key(s)" if section else \
            "config has unknown section(s)"
        raise PreconditionError(f"{what} {', '.join(unknown)}; it takes "
                                f"{', '.join(declared) or 'no keys'}")


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

    def config_hash(self) -> str:
        """sha256 of the config's text, blind to the worker count and key order."""
        same = replace(self, workers=1, extra=dict(sorted(self.extra.items())))
        return hashlib.sha256(config_to_text(same).encode()).hexdigest()

    def value(self, key: str):
        """A key of the kind's section read by its converter in
        KINDS[kind].keys, else its default there.  A key the kind does not
        declare raises KeyError, a missing required one PreconditionError."""
        convert, default = KINDS[self.kind].keys[key]
        if key in self.extra or default is None:
            return _read(self.kind, key, self.extra.get(key), convert)
        return default(self) if callable(default) else default


def parse_measure(cp, name: str) -> SiteMeasure:
    """The measure of section `name`; PreconditionError if the section, its
    kind or a parameter is missing, unknown, unparsable or out of range."""
    if not cp.has_section(name):
        raise PreconditionError(f"config has no [{name}] section")
    kind = cp[name].get("kind", "").strip()
    if kind not in MEASURES:
        raise PreconditionError(f"[{name}] unknown measure kind {kind!r}")
    construct, keys = MEASURES[kind]
    _reject_unknown(name, cp[name], ("kind", *keys))
    try:
        return construct(*(_read(name, k, cp[name].get(k), _number) for k in keys))
    except ValueError as e:
        raise PreconditionError(f"[{name}] {e}") from None


def parse_config(text: str, kind: str | None = None, seed: int | None = None,
                 workers: int | None = None) -> ExperimentConfig:
    """The config of INI text; PreconditionError if the text is not INI, a value
    does not parse, or a key or section is undeclared (another kind's is unread)."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise PreconditionError(f"config is not valid INI: {e}") from None
    _reject_unknown(None, cp.sections(), ("experiment", "mu_V", "mu_B", *KINDS))
    exp = cp["experiment"] if cp.has_section("experiment") else {}
    _reject_unknown("experiment", exp, ("kind", *EXPERIMENT))
    cfg_kind = kind or exp.get("kind")
    if cfg_kind is None:
        raise PreconditionError("no experiment kind given (config or CLI)")
    if kind and exp.get("kind") and exp.get("kind") != kind:
        raise PreconditionError(
            f"config kind {exp.get('kind')!r} conflicts with requested {kind!r}")
    if cfg_kind not in KINDS:
        raise PreconditionError(f"unknown experiment kind {cfg_kind!r}")
    extra = dict(cp[cfg_kind]) if cp.has_section(cfg_kind) else {}
    _reject_unknown(cfg_kind, extra, KINDS[cfg_kind].keys)
    given = {"seed": seed, "workers": workers}
    cfg = ExperimentConfig(
        kind=cfg_kind, **{key: _read("experiment", key, exp.get(key, default), convert)
                          if given.get(key) is None else given[key]
                          for key, (convert, default) in EXPERIMENT.items()},
        mu_V=parse_measure(cp, "mu_V"), mu_B=parse_measure(cp, "mu_B"),
        extra=extra)
    for key in extra:
        cfg.value(key)
    return cfg


def load_config(path, **overrides) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"), **overrides)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize a config back to INI text (round-trips through parse_config)."""
    cp = configparser.ConfigParser()
    cp["experiment"] = {"kind": cfg.kind,
                        **{key: str(getattr(cfg, key)) for key in EXPERIMENT}}
    for name, m in (("mu_V", cfg.mu_V), ("mu_B", cfg.mu_B)):
        cp[name] = {"kind": m.kind, **{key: repr(x) for key, x in
                                       zip(MEASURES[m.kind][1], m.params)}}
    if cfg.extra:
        cp[cfg.kind] = {k: str(v) for k, v in cfg.extra.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# -- validation ---------------------------------------------------------------


def validate(cfg: ExperimentConfig) -> list[str]:
    """All hypothesis diagnostics for the configured experiment, no
    computation: every count and range the run relies on.  The shared
    ones; then why the run cannot solve the block (2 |cube| wide) of each
    cube of the kind densely: no sites, or past MAX_BLOCK_DIM; then the
    kind's own."""
    kind = KINDS[cfg.kind]
    out = []
    if cfg.d < 1:
        out.append(f"dimension must be >= 1, got {cfg.d}")
    if cfg.realizations < 1:
        out.append("realizations must be >= 1")
    if cfg.workers < 1:
        out.append(f"workers must be >= 1, got {cfg.workers}")
    if not -2 ** 63 <= cfg.seed < 2 ** 63:        # the sampler's key width
        out.append(f"seed must be a signed 64-bit integer, got {cfg.seed}")
    # with d < 1, reported above, there is no cube to check
    for what, L in kind.cubes(cfg) if cfg.d >= 1 else ():
        if L <= 1:
            out.append(f"{what}cube length must exceed 1, got {L}")
        elif (dim := 2 * CubeSpec(cfg.d, L).site_count) > MAX_BLOCK_DIM:
            out.append(f"{what}matrix dimension {dim} exceeds the hard cap "
                       f"{MAX_BLOCK_DIM}; reduce L or d")
    return out + kind.problems(cfg)


NESTED = ("core", "middle", "host")


def _nested_cubes(cfg):
    """The core, middle and host cubes of green and sli-edi, given their
    three lengths; the host's defaults to the experiment's."""
    lengths = cfg.value("lengths")
    return [] if len(lengths) != 3 else [
        (f"{cfg.kind}: {what} length {L:g}: ", L) for what, L in zip(NESTED, lengths)]


def _empty_lists(cfg, *keys) -> list[str]:
    """The list keys, read value by value by the run, that are set but
    empty: the run would assert nothing or fail."""
    return [f"{cfg.kind}: {key} lists no value" for key in keys
            if key in cfg.extra and not cfg.value(key)]


def _interval_problems(cfg: ExperimentConfig, key: str) -> list[str]:
    """Why the interval `key` is not "lo hi" (with "n", a whole number
    >= 1, for a grid) with lo < hi, or is a grid too long to count."""
    grid = key != "interval"
    v = cfg.value(key)
    if len(v) == 2 + grid and v[0] < v[1] and (not grid or v[2] >= 1 and
                                                v[2].is_integer()):
        # n points for ids, the n + 1 edges of n bins for dos
        return _count_problems(cfg.kind, key, int(v[2]) + (key == "bins")) if grid else []
    # echo the text as configured
    return [f"{cfg.kind}: {key} = {cfg.extra.get(key, v)!r} is not lo hi{' n' * grid} "
            f"with lo < hi{' and a whole n >= 1' * grid}"]


def _count_problems(kind: str, what: str, n: int) -> list[str]:
    """Why one `spectral.ensemble_counts` call at the n energies of `what`
    exceeds MAX_COUNT_ENERGIES."""
    return [] if n <= MAX_COUNT_ENERGIES else [
        f"{kind}: {what} asks one eigenvalue count for {n} energies, more than the "
        f"cap {MAX_COUNT_ENERGIES}"]


def _density_problems(cfg) -> list[str]:
    """The hypotheses of the two-density estimate (wegner, dos)."""
    return [f"{cfg.kind}: the two-density estimate needs {what}" for bad, what in (
        (not (cfg.mu_V.has_density and cfg.mu_B.has_density),
         "densities of bounded variation for both measures"),
        (cfg.mu_V.support_inf < 0 or cfg.mu_B.support_inf < 0,
         "inf supp mu_V >= 0 and inf supp mu_B >= 0")) if bad]


def _edge_problems(cfg) -> list[str]:
    """Why the measures admit no deterministic gap edge (gap, interlace,
    tails, suitability)."""
    out = []
    try:
        case_beta(cfg.mu_B)
    except ValueError as e:
        out.append(f"{cfg.kind}: {e}")
    if cfg.mu_V.support_inf < 0:
        out.append(f"{cfg.kind}: needs inf supp mu_V >= 0")
    return out


def _ids_problems(cfg):
    bad = _interval_problems(cfg, "energy_range")
    # the default grid needs a valid range
    return bad + _empty_lists(cfg, "energies") + ([] if bad else _count_problems(
        "ids", "energies", len(cfg.value("energies"))))


def _wegner_problems(cfg):
    out = _empty_lists(cfg, "energies", "epsilons") + _density_problems(cfg)
    try:
        energies = cfg.value("energies")
        epsilons = cfg.value("epsilons")
    except PreconditionError as e:
        return out + [str(e)]
    out += [f"wegner: window (E={e}, eps={eps}) violates E > 0, 3*eps < E"
            for e in energies for eps in epsilons
            if not (e > 0 and 0 < eps and 3 * eps < e)]
    return out + _count_problems("wegner", "window edges",
                                 2 * len(energies) * len(epsilons))


def _nested_problems(cfg):
    """green and sli-edi: three lengths, each cube strictly inside the next."""
    lengths = cfg.value("lengths")
    if len(lengths) != 3:
        return [f"{cfg.kind}: lengths must be three numbers l1 l2 l3"]
    if cfg.d < 1 or min(lengths) <= 1:
        return []
    cubes = [CubeSpec(cfg.d, L) for L in lengths]
    return [f"{cfg.kind}: the {NESTED[j]} cube (length {lengths[j]:g}) is not "
            f"strictly inside the {NESTED[j + 1]} cube (length {lengths[j + 1]:g})"
            for j in (0, 1) if not lattice.strictly_inside(cubes[j], cubes[j + 1])]


def _tails_problems(cfg):
    out = _empty_lists(cfg, "epsilons", "lower_epsilons") + _edge_problems(cfg)
    if cfg.mu_V.kind == "point_mass":
        out.append("tails: mu_V concentrated in a single point has no tail")
    if cfg.d < 1:
        return out
    eps = cfg.value("epsilons")
    if min(eps, default=1.0) <= 0:
        out.append("tails: epsilons must be > 0")
    if (n := len(cfg.value("lengths"))) != len(eps):
        out.append(f"tails: {n} lengths for {len(eps)} epsilons")
    # grid points whose lengths give one cube share one count
    out += _count_problems("tails", "epsilons", len(eps))
    if not cfg.value("lower_bound"):
        return out
    c0 = cfg.value("c0_lengths")
    if not c0:
        out.append("tails: the lower bound needs at least one c0 length")
    for L in c0:
        if L < 4:
            out.append(f"tails: c0 length {L} is below 4, the least "
                       "the test function takes")
        elif (n := CubeSpec(cfg.d, L).site_count) > MAX_BLOCK_DIM:
            out.append(f"tails: c0 length {L}: Dirichlet matrix dimension "
                       f"{n} exceeds the hard cap {MAX_BLOCK_DIM}")
    if min(cfg.value("lower_epsilons"), default=1.0) <= 0:
        out.append("tails: lower_epsilons must be > 0")
    if not (r := cfg.value("lower_realizations")) >= 1 or not r.is_integer():
        out.append(f"tails: lower_realizations {r:g} is not a whole "
                   "number >= 1")
    return out


def _finite_power(x: float, y: float) -> bool:
    """Whether the Python float x ** y is finite."""
    try:
        return math.isfinite(x ** y)
    except OverflowError:
        return False


def _suitability_problems(cfg):
    out = _empty_lists(cfg, "theta", "energies", "lengths") + _edge_problems(cfg)
    lengths = cfg.value("lengths")
    out += [f"suitability: length {L} not in 6N" for L in lengths if L % 6 != 0]
    # the run's target norm L^-theta, a Python float
    for theta in cfg.value("theta"):
        big = [L for L in lengths if L >= 1 and not _finite_power(L, -theta)]
        if big:
            out.append(f"suitability: theta {theta:g} makes L^-theta overflow "
                       f"at length {big[0]:g}")
    # a_L = edge + L^-1/2, as suitability_probability has it
    try:
        edge = gap_edge(cfg.disorder())
    except ValueError:              # an _edge_problems diagnostic
        edge = math.inf
    top = max(map(abs, cfg.value("energies")), default=0.0)
    return out + [f"suitability: energies must lie in [-a_L, a_L], a_L = "
                  f"{edge + L ** -0.5:.6g} at length {L}"
                  for L in lengths if L >= 1 and top > edge + L ** -0.5]


def _fh_problems(cfg):
    tol = cfg.value("tol")
    return [f"fh: {what}" for bad, what in (
        (tol < 0, f"tol must be >= 0, got {tol:g}"),
        (cfg.mu_V.support_inf < 0, "needs V >= 0 so that H >= 0"),
        (cfg.mu_B.support_inf < 0, "needs B >= 0")) if bad]


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


def _spec(kind) -> str:
    """The % conversion of a CSV cell of type `kind`: bools as 0/1,
    integers in decimal, floats as .17g (nan, inf and -0 as Python writes
    them), anything else by str."""
    if issubclass(kind, (bool, np.bool_, int, np.integer)):
        return "%d"
    if issubclass(kind, (float, np.floating)):
        return "%.17g"
    return "%s"


@cache
def _formatter(kinds) -> str:
    """The % template of a CSV line whose cells have the types `kinds`."""
    return ",".join(map(_spec, kinds)) + "\n"


# lines per write call of `write_csv`
CSV_WRITE_LINES = 2 ** 12


def write_csv(path: Path, header: list[str], rows, template: str | None = None) -> Path:
    """A header line, then one line per row, each cell written by its type:
    through `template`, the `_formatter` template of every row's types,
    which rows must then be tuples, or else through one per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        lines = (map(template.__mod__, rows) if template is not None else
                 (_formatter(tuple(map(type, row))) % tuple(row) for row in rows))
        # one write call per CSV_WRITE_LINES lines, not one per line
        while chunk := "".join(islice(lines, CSV_WRITE_LINES)):
            fh.write(chunk)
    return path


# -- reduction ------------------------------------------------------------------


def _attempt(name: str, check, *args, **kwargs) -> CheckReport:
    """check(*args, **kwargs), or a report of one precondition failure
    under `name`, the name of the report that check returns."""
    try:
        return check(*args, **kwargs)
    except PreconditionError:
        return CheckReport(name, preconditions_failed=1)


def _realizations(cfg, mapper, row, *totals: CheckReport, cube=None, **kw):
    """Map row(field, **kw) -> (reports, values) over the run's fields on
    `cube` (None: the experiment's), and return one total per check name,
    absorbing each realization's reports in realization order, and the
    rows' values.  `totals` seed the totals that carry run-level
    parameters; any other name gets a fresh one, in order of appearance.
    """
    rows = spectral.run_realizations(
        per_realization(partial(row, **kw), cfg.cube() if cube is None else cube,
                        cfg.disorder()), cfg.realizations, mapper)
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
# function, or its kernel where pool workers run it, imports asymptotics or
# green itself.


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
    reports, spectra = _realizations(
        cfg, mapper, _spectrum_row, CheckReport("symmetry"), CheckReport("nondegeneracy"),
        CheckReport("radius", parameters={"radius": radius}),
        radius=radius, simple=cfg.mu_V.has_density)
    rows = [(r, j, e) for r, ev in enumerate(spectra) for j, e in enumerate(ev)]
    tables = {"eigenvalues": (["realization", "index", "eigenvalue"], rows)}
    return tables, reports, {"radius_bound": radius}


def _exp_ids(cfg, mapper):
    est = spectral.ids_monte_carlo(cfg.disorder(), cfg.cube(), cfg.value("energies"),
                                   cfg.realizations, mapper)
    mono = CheckReport("ids_monotone")
    mono.record(np.diff(est.mean_N))
    rng = CheckReport("ids_range")
    rng.record(float(np.min(est.mean_N)))
    rng.record(1.0 - float(np.max(est.mean_N)))
    rows = [(e, m, s, est.realizations) for e, m, s in zip(est.grid, est.mean_N, est.stderr_N)]
    return {"ids": (["E", "mean_N", "stderr", "R"], rows)}, [mono, rng], {}


def _exp_dos(cfg, mapper):
    lo, hi, n = cfg.value("bins")
    hist = spectral.dos_histogram(cfg.disorder(), cfg.cube(), _grid(lo, hi, n + 1),
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
    windows = [(e, eps) for e in cfg.value("energies") for eps in cfg.value("epsilons")]
    reports = inequalities.wegner_finite_volume(cfg.disorder(), cfg.cube(), windows,
                                                cfg.realizations, mapper)
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


def _exp_gap(cfg, mapper):
    lam, beta = cfg.mu_V.support_inf, case_beta(cfg.mu_B)
    edge = gap_edge(cfg.disorder())
    reports, vals = _realizations(
        cfg, mapper, _gap_row,
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


def _exp_interlace(cfg, mapper):
    lam, beta = cfg.value("lam"), cfg.value("beta")
    reports, _ = _realizations(cfg, mapper, _interlace_row, lam=lam, beta=beta,
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


def _exp_green(cfg, mapper):
    energy = cfg.value("energy")
    lengths = cfg.value("lengths")
    cubes = tuple(CubeSpec(cfg.d, l) for l in lengths)
    # the field is sampled on the host cube, the largest
    reports, vals = _realizations(
        cfg, mapper, _green_row,
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


def _exp_ct(cfg, mapper):
    energy = cfg.value("energy")
    reports, vals = _realizations(
        cfg, mapper, _ct_row, CheckReport("combes_thomas", parameters={"E": energy}),
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


def _exp_sli_edi(cfg, mapper):
    energy = cfg.value("energy")
    cubes = tuple(CubeSpec(cfg.d, l) for l in cfg.value("lengths"))
    reports, _ = _realizations(cfg, mapper, _sli_edi_row,
                               CheckReport("sli", parameters={"E": energy}),
                               CheckReport("edi"), cube=cubes[2], cubes=cubes,
                               energy=energy)
    return {"sli_edi": _summary_table(reports)}, reports, {}


def _exp_tails(cfg, mapper):
    from . import asymptotics
    dis = cfg.disorder()
    eps, lengths = _tail_grid(cfg)
    curve = asymptotics.tail_curve(dis, cfg.d, eps, cfg.realizations,
                                   lengths=lengths, mapper=mapper)
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
                dis, cfg.d, e, L, int(cfg.value("lower_realizations")), mapper)
            reports.append(rep)
            p = rep.parameters
            lb_rows.append((e, L, p["empirical"], p["bound"], p["censored"]))
        tables["tails_lower"] = (["eps", "L", "empirical", "bound", "censored"], lb_rows)
        summary["c0_hat"] = c0.c0_hat
    return tables, reports, summary


def _exp_suitability(cfg, mapper):
    from . import asymptotics
    dis = cfg.disorder()
    thetas = cfg.value("theta")
    energies = cfg.value("energies")
    # one ensemble per length serves every theta: by_length[i][k] is the
    # report at the i-th length and the k-th theta
    by_length = [asymptotics.suitability_probability(dis, cfg.d, L, thetas, energies,
                                                     cfg.realizations, mapper)
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


def _exp_correlator(cfg, mapper):
    from . import asymptotics
    dis = cfg.disorder()
    cube = cfg.cube()
    lo, hi = cfg.value("interval")
    profile = asymptotics.eigenfunction_correlator(dis, cube, (lo, hi),
                                                   cfg.realizations, mapper)
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


def _exp_fh(cfg, mapper):
    tol = cfg.value("tol")
    reports, vals = _realizations(
        cfg, mapper, _fh_row, CheckReport("feynman_hellmann", parameters={"tol": tol}),
        tol=tol)
    rows = [(r,) + v for r, v in enumerate(vals) if v is not None]
    header = ["realization", "eigenvalues_checked", "violations",
              "worst_margin", "skipped_near_degenerate"]
    return {"fh": (header, rows)}, reports, {}


# -- experiment kinds -------------------------------------------------------------


# slots keep the default functions off the class, where perfbench's span
# tracer would take them for public methods
@dataclass(frozen=True, slots=True)
class Kind:
    """An experiment kind, declared once: the keys of its own section,
    each with its converter and default (a value, a function of the
    config called when the key is read, or None, required), read only by
    ExperimentConfig.value; its run, an _exp_* function; and for
    `validate`, problems(cfg), its own diagnostics, and cubes(cfg), the
    (label, L) of every cube the run solves, labels prefixing diagnostics."""

    keys: dict
    run: object
    problems: object = lambda cfg: []
    cubes: object = lambda cfg: [("", cfg.L)]     # the experiment's cube


KINDS = {
    "spectrum": Kind({}, _exp_spectrum),
    "ids": Kind({"energy_range": (_numbers, lambda cfg: _span(cfg, 41.0)),
                 "energies": (_numbers, lambda cfg: _grid(*cfg.value("energy_range")))},
                _exp_ids, _ids_problems),
    "dos": Kind({"bins": (_numbers, lambda cfg: _span(cfg, 40.0))}, _exp_dos,
                lambda cfg: _interval_problems(cfg, "bins") + _density_problems(cfg)),
    "wegner": Kind({"energies": (_numbers, None), "epsilons": (_numbers, None)},
                   _exp_wegner, _wegner_problems),
    "gap": Kind({}, _exp_gap, _edge_problems),
    "interlace": Kind({"lam": (_number, lambda cfg: max(cfg.mu_V.support_inf, 0.0)),
                       "beta": (_number, lambda cfg: case_beta(cfg.mu_B)),
                       "eps": (_number, 0.3)}, _exp_interlace, _edge_problems),
    "green": Kind({"energy": (_number, 0.0), "lengths": (_numbers, _nested)},
                  _exp_green, _nested_problems, _nested_cubes),
    "ct": Kind({"energy": (_number, 0.0)}, _exp_ct),
    "sli-edi": Kind({"energy": (_number, 0.0), "lengths": (_numbers, _nested)},
                    _exp_sli_edi, _nested_problems, _nested_cubes),
    "tails": Kind({"epsilons": (_numbers, (0.08, 0.125, 0.2, 0.3, 0.4, 0.5)),
                   "lengths": (_ints, _tail_floors), "lower_bound": (_flag, False),
                   # the test-function lengths whose Dirichlet matrix fits the cap
                   "c0_lengths": (_ints, lambda cfg: [
                       L for L in (8, 16, 32, 64, 128)
                       if CubeSpec(cfg.d, L).site_count <= MAX_BLOCK_DIM]),
                   "lower_epsilons": (_numbers, (0.5,)),
                   "lower_realizations": (_number, 100000.0)},
                  _exp_tails, _tails_problems, lambda cfg: [
                      (f"tails: length {L} at eps {e:g}: ", L)
                      for e, L in zip(*_tail_grid(cfg))]),
    # theta just above the dimension, and well above it
    "suitability": Kind({"theta": (_numbers, lambda cfg: [cfg.d + 0.5, 2.0 * cfg.d]),
                         "energies": (_numbers, (0.0,)),
                         "lengths": (_ints, (12, 24, 48))},
                        _exp_suitability, _suitability_problems, lambda cfg: [
                            (f"suitability: length {L}: ", L) for L in cfg.value("lengths")]),
    "correlator": Kind({"interval": (_numbers, (-0.5, 0.5))}, _exp_correlator,
                       lambda cfg: _interval_problems(cfg, "interval")),
    "fh": Kind({"tol": (_number, 1e-6)}, _exp_fh, _fh_problems),
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
            "summary": self.summary,
            "outputs": self.outputs,
            "exit_code": self.exit_code,
        }


def emit_plotdata(result: RunResult, outdir) -> list[Path]:
    """Write one CSV per figure-type table of a completed run."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return [write_csv(outdir / f"{stem}.csv", header, rows, *template)
            for stem, (header, rows, *template) in result.tables.items()]


def _sha256(path: Path) -> str:
    """The sha256 hex digest of a file, read 1 MiB at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(2 ** 20):
            h.update(chunk)
    return h.hexdigest()


def _scipy_version() -> str | None:
    """The version of the installed scipy, recorded but never used, read
    without importing it: from the name of the `scipy-<version>.dist-info`
    directory beside the package, the standard wheel layout.  None when
    there is no scipy or no single such directory."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    found = list(Path(spec.submodule_search_locations[0]).parent.glob("scipy-*.dist-info"))
    return found[0].name[len("scipy-"):-len(".dist-info")] if len(found) == 1 else None


def run(cfg: ExperimentConfig, outdir) -> RunResult:
    """Execute the configured experiment and persist its artifacts."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    diagnostics = validate(cfg)
    # cold per-cube caches: a run's cost does not depend on earlier runs in
    # this process, and the caches hold only this run's cubes
    caches = [disorder._site_keys, disorder._family_key, disorder._positions,
              operators.template, operators.rim_indices]
    green = sys.modules.get(f"{__package__}.green")   # loaded by its kinds only
    if green is not None:
        caches += [green._all_pairs, green.nesting]
    for cache in caches:
        cache.cache_clear()
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": _scipy_version(),
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
                tables, reports, summary = KINDS[cfg.kind].run(cfg, mapper)
                if mapper is not None:
                    env["pool_estimate_s"] = mapper.estimate_s
                    if mapper.executor is not None:
                        env.update(pool_size=mapper.size,
                                   blas_threads_worker=mapper.worker_blas_threads())
    result = RunResult(cfg, tables, reports, summary, diagnostics,
                       time.perf_counter() - t0, env)
    files = emit_plotdata(result, outdir)
    result.outputs = [{"name": f.name, "sha256": _sha256(f)} for f in files]
    with open(outdir / "run.json", "w", encoding="utf-8") as fh:
        # numpy scalars in the summary write as the Python numbers they hold
        json.dump(result.record(), fh, indent=2, sort_keys=True,
                  default=inequalities._plain)
        fh.write("\n")
    return result
