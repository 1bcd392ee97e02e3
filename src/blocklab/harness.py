"""Experiment configuration, validation, orchestration and flat-file
persistence.

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
results in realization order (see `experiments`).  The worker count is
validated and recorded; every run computes in one process, on one BLAS
thread.

Loading and validating a config read only `model` and the standard
library, so neither imports numpy.  A kind whose hypotheses need
numerics loads them when validated: ids and dos build their np.linspace
grid, green and sli-edi call `lattice.strictly_inside`, suitability
`disorder.gap_edge` and tails `asymptotics.default_tail_length`.  `run`
loads the run side, `experiments` and numpy with it, when a run starts.
"""

import configparser
import hashlib
import importlib.util
import io
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import islice
from pathlib import Path

# numpy and the run side load when a run starts, asymptotics and green with
# the kinds that use them: a validate or a run pays only for its own kind
from . import __version__
from .model import (MAX_BLOCK_DIM, MAX_COUNT_ENERGIES, MAX_DIMENSION, CubeSpec,
                    DisorderConfig, PreconditionError, SiteMeasure, axis_count,
                    case_beta, deterministic_radius, sites_within)

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
    import numpy as np
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
    if cfg.d > MAX_DIMENSION:
        out.append(f"dimension must be at most {MAX_DIMENSION}, got {cfg.d}")
    if cfg.realizations < 1:
        out.append("realizations must be >= 1")
    if cfg.realizations > 2 ** 63:      # indices 0..R-1, the sampler's key width
        out.append(f"realizations must be at most 2^63, got {cfg.realizations}")
    if cfg.workers < 1:
        out.append(f"workers must be >= 1, got {cfg.workers}")
    if not -2 ** 63 <= cfg.seed < 2 ** 63:        # the sampler's key width
        out.append(f"seed must be a signed 64-bit integer, got {cfg.seed}")
    # every entry of H_hat - E is at most 2r in modulus at the energies a
    # run reads, which the count recursion clips to [-r, r]; the Schur
    # recursions and the eigensolvers multiply two such entries
    r = deterministic_radius(cfg.d, cfg.mu_V, cfg.mu_B)
    if not _finite_power(2.0 * r, 2):
        out.append(f"the deterministic radius {r:g} of the measures is too large: "
                   "(2r)^2 leaves the floating-point range")
    # with d < 1, reported above, there is no cube to check; the cap is
    # decided without forming n^d or building the cube, whose center is a
    # d-tuple
    for what, L in kind.cubes(cfg) if cfg.d >= 1 else ():
        if L <= 1:
            out.append(f"{what}cube length must exceed 1, got {L}")
        elif sites_within(cfg.d, L, MAX_BLOCK_DIM // 2) is None:
            out.append(f"{what}matrix dimension {_dimension(cfg.d, L, 2)} exceeds the "
                       f"hard cap {MAX_BLOCK_DIM}; reduce L or d")
    return out + kind.problems(cfg)


def _dimension(d: int, L: float, copies: int) -> str:
    """The dimension copies * n^d, n = axis_count(L), of a matrix on the
    cube of length L, as a diagnostic names it: by its digits up to
    2^1024, which bounds every d = 1 cube of a float length, and past
    that as the product, so that no larger power is formed."""
    n = axis_count(L)
    if d * n.bit_length() <= 1024:
        return str(copies * n ** d)
    return f"{n}^{d}" if copies == 1 else f"{copies} * {n}^{d}"


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
        if not grid:
            return []
        # n points for ids, the n + 1 edges of n bins for dos
        n = int(v[2]) + (key == "bins")
        if bad := _count_problems(cfg.kind, key, n):
            return bad
        # linspace overflows on a span past the float range, and repeats
        # points on one too short for n of them
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):
            points = _grid(v[0], v[1], n)
        return [] if np.isfinite(points).all() and (np.diff(points) > 0).all() else [
            f"{cfg.kind}: {key} = {cfg.extra.get(key, v)!r} gives a grid that is "
            "not finite and strictly increasing"]
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
    from . import lattice
    # concentric cubes about the origin are alike on every axis, so one
    # axis decides the nesting, and no d-tuple center is built
    cubes = [CubeSpec(1, L) for L in lengths]
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
        elif sites_within(cfg.d, L, MAX_BLOCK_DIM) is None:
            out.append(f"tails: c0 length {L}: Dirichlet matrix dimension "
                       f"{_dimension(cfg.d, L, 1)} exceeds the hard cap {MAX_BLOCK_DIM}")
    if min(cfg.value("lower_epsilons"), default=1.0) <= 0:
        out.append("tails: lower_epsilons must be > 0")
    # realization indices 0..R-1 are the sampler's signed 64-bit keys
    if not 1 <= (r := cfg.value("lower_realizations")) <= 2 ** 63 or not r.is_integer():
        out.append(f"tails: lower_realizations {r:g} is not a whole "
                   "number from 1 to 2^63")
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
    from .disorder import gap_edge
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


# -- CSV output ---------------------------------------------------------------


def _spec(kind) -> str:
    """The % conversion of a CSV cell of type `kind`: bools as 0/1,
    integers in decimal, floats as .17g (nan, inf and -0 as Python writes
    them), anything else by str.  Only a run writes CSVs, and a run has
    loaded numpy."""
    import numpy as np
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


# -- experiment kinds -------------------------------------------------------------


# slots keep the default functions off the class, where perfbench's span
# tracer would take them for public methods
@dataclass(frozen=True, slots=True)
class Kind:
    """An experiment kind, declared once: the keys of its own section,
    each with its converter and default (a value, a function of the
    config called when the key is read, or None, required), read only by
    ExperimentConfig.value; its run, the name of an _exp_* function of
    `experiments`, which loads when a run starts; and for
    `validate`, problems(cfg), its own diagnostics, and cubes(cfg), the
    (label, L) of every cube the run solves, labels prefixing diagnostics."""

    keys: dict
    run: str
    problems: object = lambda cfg: []
    cubes: object = lambda cfg: [("", cfg.L)]     # the experiment's cube


KINDS = {
    "spectrum": Kind({}, "_exp_spectrum"),
    "ids": Kind({"energy_range": (_numbers, lambda cfg: _span(cfg, 41.0)),
                 "energies": (_numbers, lambda cfg: _grid(*cfg.value("energy_range")))},
                "_exp_ids", _ids_problems),
    "dos": Kind({"bins": (_numbers, lambda cfg: _span(cfg, 40.0))}, "_exp_dos",
                lambda cfg: _interval_problems(cfg, "bins") + _density_problems(cfg)),
    "wegner": Kind({"energies": (_numbers, None), "epsilons": (_numbers, None)},
                   "_exp_wegner", _wegner_problems),
    "gap": Kind({}, "_exp_gap", _edge_problems),
    "interlace": Kind({"lam": (_number, lambda cfg: max(cfg.mu_V.support_inf, 0.0)),
                       "beta": (_number, lambda cfg: case_beta(cfg.mu_B)),
                       "eps": (_number, 0.3)}, "_exp_interlace", _edge_problems),
    "green": Kind({"energy": (_number, 0.0), "lengths": (_numbers, _nested)},
                  "_exp_green", _nested_problems, _nested_cubes),
    "ct": Kind({"energy": (_number, 0.0)}, "_exp_ct"),
    "sli-edi": Kind({"energy": (_number, 0.0), "lengths": (_numbers, _nested)},
                    "_exp_sli_edi", _nested_problems, _nested_cubes),
    "tails": Kind({"epsilons": (_numbers, (0.08, 0.125, 0.2, 0.3, 0.4, 0.5)),
                   "lengths": (_ints, _tail_floors), "lower_bound": (_flag, False),
                   # the test-function lengths whose Dirichlet matrix fits the cap
                   "c0_lengths": (_ints, lambda cfg: [
                       L for L in (8, 16, 32, 64, 128)
                       if sites_within(cfg.d, L, MAX_BLOCK_DIM) is not None]),
                   "lower_epsilons": (_numbers, (0.5,)),
                   "lower_realizations": (_number, 100000.0)},
                  "_exp_tails", _tails_problems, lambda cfg: [
                      (f"tails: length {L} at eps {e:g}: ", L)
                      for e, L in zip(*_tail_grid(cfg))]),
    # theta just above the dimension, and well above it
    "suitability": Kind({"theta": (_numbers, lambda cfg: [cfg.d + 0.5, 2.0 * cfg.d]),
                         "energies": (_numbers, (0.0,)),
                         "lengths": (_ints, (12, 24, 48))},
                        "_exp_suitability", _suitability_problems, lambda cfg: [
                            (f"suitability: length {L}: ", L) for L in cfg.value("lengths")]),
    "correlator": Kind({"interval": (_numbers, (-0.5, 0.5))}, "_exp_correlator",
                       lambda cfg: _interval_problems(cfg, "interval")),
    "fh": Kind({"tol": (_number, 1e-6)}, "_exp_fh", _fh_problems),
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
    """Execute the configured experiment and persist its artifacts.  The
    run side loads here, numpy with it: a config loads and validates
    without either."""
    import json
    import platform

    import numpy as np

    from . import blas, disorder, experiments, inequalities, operators
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
           "cpu_affinity": len(os.sched_getaffinity(0))}
    t0 = time.perf_counter()
    tables, reports, summary = {}, [], {}
    # results must not depend on the BLAS thread count, and a threaded
    # LAPACK call rounds differently from a single-threaded one: every run
    # computes on one thread, whatever the library's default
    with blas.limited(1):
        env["blas_threads_main"] = blas.threads()
        if not diagnostics:
            tables, reports, summary = getattr(experiments, KINDS[cfg.kind].run)(cfg)
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
