import ast
import gc
import hashlib
import importlib
import json
import math
import os
import pkgutil
import platform
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blocklab
from blocklab import (blas, disorder, experiments, green, harness, inequalities,
                      lattice, model, operators, spectral)
# loaded before any test patches a name it binds, as the kinds that use it
# would load it: _wrap_everywhere reaches only modules already loaded
from blocklab import asymptotics  # noqa: F401
from blocklab.cli import main as cli_main
from blocklab.harness import config_to_text, parse_config, run, validate, write_csv
from blocklab.model import PreconditionError
import oracles
from oracles import csv_cell, sample_field, site_label

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _subprocess_env() -> dict:
    """This environment, with the package this suite imports on the path."""
    return dict(os.environ, PYTHONPATH=str(Path(blocklab.__file__).resolve().parents[1]))


BASE = """
[experiment]
kind = {kind}
d = 1
L = {L}
realizations = {R}
seed = 7
workers = 1

[mu_V]
kind = {vk}
{vargs}

[mu_B]
kind = {bk}
{bargs}
"""


def make_text(kind, L=9, R=5, va=0.0, vb=1.0, bk="uniform",
              bargs="a = 0.0\nb = 1.0", vk=None, vargs=None, extra=""):
    vk = vk or "uniform"
    vargs = vargs if vargs is not None else f"a = {va}\nb = {vb}"
    return BASE.format(kind=kind, L=L, R=R, vk=vk, vargs=vargs, bk=bk,
                       bargs=bargs) + extra


def make_cfg(kind, **kw):
    return parse_config(make_text(kind, **kw))


# lam above inf supp mu_V: half-half and bracketing skip the realizations
# with some V_n < lam
INTERLACE_SKIPS = make_text("interlace", L=8, R=10,
                            extra="[interlace]\nlam = 0.05\n")

# realization-block kernels: inertia counts and the lower-bound events
WEGNER_BLOCKS = make_text("wegner", L=20, R=24,
                          extra="[wegner]\nenergies = 1.0 2.0 3.0\n"
                                "epsilons = 0.1 0.2\n")
IDS_BLOCKS = make_text("ids", L=20, R=24)
DOS_BLOCKS = make_text("dos", L=20, R=24, extra="[dos]\nbins = -6 6 24\n")
TAILS_BLOCKS = BASE.format(kind="tails", L=15, R=24, vk="uniform",
                           vargs="a = 1.0\nb = 2.0",
                           bk="point_mass", bargs="c = 0.0") \
    + ("[tails]\nepsilons = 0.3 0.4 0.5\nlengths = 15 15 15\n"
       "lower_bound = true\nlower_epsilons = 0.75 1.0\n"
       "lower_realizations = 2000\nc0_lengths = 8 16\n")


def test_config_roundtrip_lossless():
    cfg = make_cfg("wegner", extra="[wegner]\nenergies = 2.0\nepsilons = 0.1\n")
    text = config_to_text(cfg)
    again = parse_config(text)
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_hash_ignores_workers():
    a = make_cfg("spectrum")
    b = parse_config(config_to_text(a), workers=8)
    assert a.config_hash() == b.config_hash()
    c = parse_config(config_to_text(a), seed=99)
    assert c.config_hash() != a.config_hash()
    # the hash reads every digit of a measure parameter
    b1, b2 = (make_cfg("spectrum", vb=b) for b in (2.0, 2.0000001))
    assert b1.config_hash() != b2.config_hash()
    # and not the order of a section's keys
    e1, e2 = (make_cfg("wegner", extra=f"[wegner]\n{x}\n{y}\n") for x, y in
              permutations(("energies = 2.0", "epsilons = 0.1")))
    assert e1.config_hash() == e2.config_hash()


def test_validate_clean_config():
    cfg = make_cfg("wegner", va=0.0, vb=1.0,
                   extra="[wegner]\nenergies = 2.0\nepsilons = 0.1\n")
    assert validate(cfg) == []
    # another kind's section is accepted, unread
    cfg = make_cfg("spectrum", extra="[wegner]\nenergies = 2.0\nepsilons = 0.1\n")
    assert cfg.extra == {} and validate(cfg) == []


def test_validate_negative_support_for_wegner():
    cfg = make_cfg("wegner", va=-1.0, vb=1.0,
                   extra="[wegner]\nenergies = 2.0\nepsilons = 0.1\n")
    assert any("inf supp" in p for p in validate(cfg))


def test_validate_window_shape():
    cfg = make_cfg("wegner", extra="[wegner]\nenergies = 0.2\nepsilons = 0.1\n")
    assert any("3*eps" in p for p in validate(cfg))


def test_validate_suitability_length():
    cfg = make_cfg("suitability", va=1.0, vb=2.0,
                   extra="[suitability]\nlengths = 10\n")
    assert any("6N" in p for p in validate(cfg))


def test_validate_suitability_energies_against_the_gap_edge():
    # a_L = hypot(inf supp V, beta) + L^-1/2: 1.408 at L = 6, 1.289 at 12
    def energy_problems(energy, **kw):
        kw = dict(dict(va=1.0, vb=2.0, bk="point_mass", bargs="c = 0.0"), **kw)
        problems = validate(make_cfg("suitability", L=12, **kw, extra=(
            f"[suitability]\nlengths = 6 12\nenergies = {energy}\n")))
        return problems, [p for p in problems if "energies must lie" in p]
    assert energy_problems(-1.28) == ([], [])
    assert energy_problems(1.3)[1] == [
        "suitability: energies must lie in [-a_L, a_L], a_L = 1.28868 at length 12"]
    assert len(energy_problems(-1.5)[1]) == 2
    # with no admissible edge only the edge's own problem is reported
    problems, energies = energy_problems(5.0, va=-1.0)
    assert problems == ["suitability: needs inf supp mu_V >= 0"] and not energies
    problems, energies = energy_problems(5.0, bk="two_point",
                                         bargs="v1 = -1.0\np = 0.5\nv2 = 1.0")
    assert len(problems) == 1 and not energies


def test_validate_suitability_theta_keeps_the_target_norm_finite(tmp_path, capsys):
    # the run's target norm L^-theta is a Python float: 12^300 overflows
    def theta_problems(theta, lengths="12"):
        return validate(make_cfg("suitability", L=12, va=1.0, vb=2.0, extra=(
            f"[suitability]\nlengths = {lengths}\ntheta = {theta}\n")))
    assert theta_problems(-300) == [
        "suitability: theta -300 makes L^-theta overflow at length 12"]
    assert theta_problems("1.5 -300 -400", "12 24") == [
        "suitability: theta -300 makes L^-theta overflow at length 12",
        "suitability: theta -400 makes L^-theta overflow at length 12"]
    # finite targets pass: negative ones, and tiny ones that round to 0
    assert theta_problems("-2 0.5 400") == []
    assert theta_problems(-285, "12 24") == [
        "suitability: theta -285 makes L^-theta overflow at length 24"]
    text = make_text("suitability", L=12, va=1.0, vb=2.0,
                     extra="[suitability]\nlengths = 12\ntheta = -300\n")
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert cli_main(["validate", "--config", str(path)]) == 3
    assert "theta -300" in capsys.readouterr().err
    assert run(parse_config(text), tmp_path / "out").exit_code == 3


@pytest.mark.parametrize("kind, key, other", [
    ("suitability", "energies", ""), ("suitability", "lengths", ""),
    ("suitability", "theta", ""), ("tails", "epsilons", ""),
    ("tails", "lower_epsilons", ""), ("wegner", "energies", "epsilons = 0.1"),
    ("wegner", "epsilons", "energies = 2.0"), ("ids", "energies", "")])
def test_validate_rejects_an_empty_list(kind, key, other, tmp_path):
    # the two-density estimate of wegner needs a density of B
    measures = {} if kind == "wegner" else {"bk": "point_mass", "bargs": "c = 0.0"}
    text = make_text(kind, L=12, va=1.0, vb=2.0, **measures,
                     extra=f"[{kind}]\n{key} =\n{other}\n")
    assert validate(parse_config(text)) == [f"{kind}: {key} lists no value"]
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    assert cli_main(["validate", "--config", str(cfg_path)]) == 3


def test_validate_rejects_a_negative_fh_tolerance():
    assert validate(make_cfg("fh", L=12, extra="[fh]\ntol = -1\n")) == \
        ["fh: tol must be >= 0, got -1"]
    assert validate(make_cfg("fh", L=12, extra="[fh]\ntol = 0\n")) == []


def _d(text, d):
    return text.replace("\nd = 1\n", f"\nd = {d}\n")


def _d2(text):
    return _d(text, 2)


@pytest.mark.parametrize("text, where", [
    (make_text("spectrum", L=5000), "matrix dimension 9998"),
    # cubes other than the experiment's: suitability lengths, tails lengths
    # (kept above the resolution floor) and the nested host cube
    (make_text("suitability", L=12, va=1.0, vb=2.0, bk="point_mass",
               bargs="c = 0.0", extra="[suitability]\nlengths = 12 24 2400\n"),
     "suitability: length 2400"),
    (_d2(make_text("tails", L=9, va=1.0, vb=2.0, bk="point_mass", bargs="c = 0.0",
                   extra="[tails]\nepsilons = 0.3\nlengths = 60\n")),
     "tails: length 60"),
    (make_text("green", L=9, va=1.0, vb=2.0,
               extra="[green]\nlengths = 2 5 2400\n"), "green: host length 2400"),
    (make_text("sli-edi", L=9, va=1.0, vb=2.0,
               extra="[sli-edi]\nlengths = 2 5 2400\n"), "sli-edi: host length 2400"),
], ids=["experiment", "suitability", "tails", "green", "sli-edi"])
def test_validate_matrix_cap(text, where, tmp_path, capsys):
    problems = validate(parse_config(text))
    assert [p for p in problems if "hard cap" in p and where in p] == problems
    assert len(problems) == 1
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert cli_main(["validate", "--config", str(path)]) == 3
    assert run(parse_config(text), tmp_path / "out").exit_code == 3


@pytest.mark.parametrize("text", [
    (CONFIG_DIR / "suitability.ini").read_text().replace("\nL = 48\n", "\nL = 3000\n"),
    (CONFIG_DIR / "tails.ini").read_text().replace("\nL = 45\n", "\nL = 3000\n"),
    make_text("green", L=3000, va=1.0, vb=2.0, extra="[green]\nlengths = 2 5 9\n"),
    make_text("sli-edi", L=3000, va=1.0, vb=2.0, extra="[sli-edi]\nlengths = 2 5 9\n"),
], ids=["suitability", "tails", "green", "sli-edi"])
def test_validate_skips_the_experiment_cube_of_kinds_that_never_build_it(text,
                                                                         tmp_path):
    # these runs solve only the cubes of their own lengths
    assert parse_config(text).L == 3000
    assert validate(parse_config(text)) == []
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert cli_main(["validate", "--config", str(path)]) == 0


@pytest.mark.parametrize("kind", ["green", "sli-edi"])
def test_validate_checks_the_default_host_length(kind):
    # the default lengths end at the experiment's L
    assert validate(make_cfg(kind, L=3000, va=1.0, vb=2.0)) == [
        f"{kind}: host length 3000: matrix dimension 5998 exceeds the hard cap "
        "4096; reduce L or d"]


def test_validate_tails_lengths_pair_with_epsilons():
    cfg = make_cfg("tails", va=1.0, vb=2.0, bk="point_mass", bargs="c = 0.0",
                   extra="[tails]\nepsilons = 0.3 0.5\nlengths = 15\n")
    assert validate(cfg) == ["tails: 1 lengths for 2 epsilons"]


@pytest.mark.parametrize("kind", ["green", "sli-edi"])
@pytest.mark.parametrize("L, lengths, problem", [
    (9, "2 5", "lengths must be three numbers l1 l2 l3"),
    # each nested cube needs a site, not only the host cube
    (9, "1 5 9", "core length 1: cube length must exceed 1, got 1.0"),
    (9, "2 1 9", "middle length 1: cube length must exceed 1, got 1.0"),
    # an empty list is no list of three, not the default lengths
    (9, "", "lengths must be three numbers l1 l2 l3"),
    # cubes that do not nest, here twice: the run would skip every
    # realization
    (9, "11 11 12", ("the core cube (length 11) is not strictly inside the "
                     "middle cube (length 11)",
                     "the middle cube (length 11) is not strictly inside the "
                     "host cube (length 12)")),
    # the default lengths 2 5 6: 5 and 6 give the same cube
    (6, None, "the middle cube (length 5) is not strictly inside the host "
              "cube (length 6)"),
], ids=["two", "core", "middle", "empty", "not-nested", "default-not-nested"])
def test_validate_nested_lengths(kind, L, lengths, problem, tmp_path):
    text = make_text(kind, L=L, va=1.0, vb=2.0,
                     extra="" if lengths is None else f"[{kind}]\nlengths = {lengths}\n")
    problems = (problem,) if isinstance(problem, str) else problem
    assert validate(parse_config(text)) == [f"{kind}: {p}" for p in problems]
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert cli_main(["validate", "--config", str(path)]) == 3
    assert run(parse_config(text), tmp_path / "out").exit_code == 3


def _tails_lower_bound(d, c0_lengths=None):
    text = make_text("tails", L=9, va=1.0, vb=2.0, bk="point_mass", bargs="c = 0.0",
                     extra="[tails]\nepsilons = 0.3 0.5\nlower_bound = true\n"
                           "lower_realizations = 200\n"
                           + ("" if c0_lengths is None
                              else f"c0_lengths = {c0_lengths}\n"))
    return text.replace("\nd = 1\n", f"\nd = {d}\n")


@pytest.mark.parametrize("d, c0_lengths, problem", [
    (1, "2 8", "tails: c0 length 2 is below 4, the least the test function takes"),
    (2, "8 128", "tails: c0 length 128: Dirichlet matrix dimension 16129 exceeds "
                 "the hard cap 4096"),
    (1, "", "tails: the lower bound needs at least one c0 length"),
], ids=["below-4", "over-cap", "empty"])
def test_validate_tails_c0_lengths(d, c0_lengths, problem, tmp_path):
    text = _tails_lower_bound(d, c0_lengths)
    assert validate(parse_config(text)) == [problem]
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert cli_main(["validate", "--config", str(path)]) == 3
    assert run(parse_config(text), tmp_path / "out").exit_code == 3


def test_default_c0_grid_stays_within_the_cap():
    # all five lengths at d = 1; at d = 2 the cube of length 128 (127^2
    # sites) is dropped
    grids = {d: parse_config(_tails_lower_bound(d)).value("c0_lengths")
             for d in (1, 2, 3)}
    assert grids == {1: [8, 16, 32, 64, 128], 2: [8, 16, 32, 64], 3: [8, 16]}
    for d, grid in grids.items():
        assert max(model.CubeSpec(d, L).site_count for L in grid) \
            <= model.MAX_BLOCK_DIM
        assert validate(parse_config(_tails_lower_bound(d))) == []


def test_declared_default_is_the_one_validate_and_the_run_read(monkeypatch,
                                                               tmp_path):
    text = make_text("suitability", L=12, R=4, va=1.0, vb=2.0, bk="point_mass",
                     bargs="c = 0.0")
    keys = harness.KINDS["suitability"].keys
    convert, _ = keys["lengths"]
    monkeypatch.setitem(keys, "lengths", (convert, (2400,)))
    assert validate(parse_config(text)) == [
        "suitability: length 2400: matrix dimension 4798 exceeds the hard cap "
        "4096; reduce L or d"]
    monkeypatch.setitem(keys, "lengths", (convert, (18,)))
    result = run(parse_config(text), tmp_path)
    assert result.diagnostics == []
    assert {r.parameters["L"] for r in result.reports
            if r.name == "gap_event_implies_suitable"} == {18}


@pytest.mark.parametrize("extra", [
    "[ids]\nenergy_range = -3 3 1e9\n",
    "[ids]\nenergies = " + " ".join(map(str, range(4097))) + "\n",
    # 4096 bins have 4097 edges
    "[dos]\nbins = -3 3 4096\n",
    # two edges for each of 2049 windows
    "[wegner]\nenergies = 100\nepsilons = " + "1 " * 2049 + "\n",
    # 4097 distinct epsilons: a repeated one is a problem of its own
    "[tails]\nepsilons = " + " ".join(str(0.5 + k / 10 ** 4) for k in range(4097))
    + "\n",
], ids=["ids-range", "ids-energies", "dos", "wegner", "tails"])
def test_validate_caps_the_energies_of_one_count(extra, tmp_path):
    text = make_text(extra[1:extra.index("]")], L=16, R=256, extra=extra)
    problems = validate(parse_config(text))
    assert len(problems) == 1
    assert "more than the cap 4096" in problems[0]
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert cli_main(["validate", "--config", str(path)]) == 3
    assert run(parse_config(text), tmp_path / "out").exit_code == 3


def test_spectrum_run_writes_toeplitz_values(tmp_path):
    cfg = make_cfg("spectrum", L=3, R=1, bk="point_mass", bargs="c = 0.0",
                   vk="point_mass", vargs="c = 0.0")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    rows = (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()[1:]
    eigs = sorted(float(r.split(",")[2]) for r in rows)
    expected = sorted([2 - math.sqrt(2), 2, 2 + math.sqrt(2),
                       -(2 - math.sqrt(2)), -2.0, -(2 + math.sqrt(2))])
    assert eigs == pytest.approx(expected)


def test_gap_run_respects_edge(tmp_path):
    cfg = make_cfg("gap", L=10, R=60, va=1.0, vb=2.0,
                   bargs="a = 1.0\nb = 2.0")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    rows = (tmp_path / "gap.csv").read_text().strip().splitlines()[1:]
    min_abs = [float(r.split(",")[3]) for r in rows]
    assert min(min_abs) >= math.sqrt(2.0)


def test_repeat_run_byte_identical(tmp_path):
    cfg = make_cfg("ids", L=9, R=8, extra="[ids]\nenergies = -2 0 2\n")
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    assert (tmp_path / "a/ids.csv").read_bytes() == \
        (tmp_path / "b/ids.csv").read_bytes()


# one-realization kernels fed a field row per realization of a block
SUITABILITY_BLOCKS = make_text("suitability", L=12, R=9, vk="two_point",
                               vargs="v1 = 1.0\np = 0.2\nv2 = 3.0",
                               bk="point_mass", bargs="c = 0.0",
                               extra="[suitability]\nlengths = 6 12\n"
                                     "theta = -2 0.5\nenergies = 0.0 1.2\n")
# every energy inside the gap (edge 1), B != 0: counts and the Schur recursion
SUITABILITY_GATED = make_text("suitability", L=12, R=9, va=1.0, vb=2.0,
                              extra="[suitability]\nlengths = 6 12 48\n"
                                    "theta = -2 1.5\nenergies = 0.0 0.5 -0.9\n")
CT_BLOCKS = make_text("ct", L=10, R=9, va=1.0, vb=2.0, extra="[ct]\nenergy = 0.0\n")


@pytest.mark.parametrize("block", [1, 7, 10 ** 6])
def test_block_size_does_not_change_output(block, tmp_path, monkeypatch):
    cases = ((WEGNER_BLOCKS, ["wegner.csv"]),
             (IDS_BLOCKS, ["ids.csv"]),
             (DOS_BLOCKS, ["dos.csv"]),
             (TAILS_BLOCKS, ["tails.csv", "tails_lower.csv"]),
             (SUITABILITY_BLOCKS, ["suitability.csv"]),
             (SUITABILITY_GATED, ["suitability.csv"]),
             (CT_BLOCKS, ["ct.csv", "ct_profile.csv"]))
    expected = {}
    for text, names in cases:
        out = tmp_path / "default"
        result = run(parse_config(text), out)
        assert result.exit_code == 0
        expected.update(((text, name), (out / name).read_bytes()) for name in names)
        expected[text] = [r.to_json() for r in result.reports]
    monkeypatch.setattr(spectral, "REALIZATION_BLOCK", block)
    for text, names in cases:
        out = tmp_path / f"block{block}"
        result = run(parse_config(text), out)
        assert result.exit_code == 0
        assert [r.to_json() for r in result.reports] == expected[text]
        for name in names:
            assert (out / name).read_bytes() == expected[text, name], name


def test_write_csv_matches_per_value_format(tmp_path):
    rows = [(1.0 / 3.0, np.float64(-0.0), 7, np.int64(-4), True, np.True_,
             "1 -2", "name", math.nan, None),
            (-math.inf, np.float64(2.5e-300), 0, np.int64(9), False, np.False_,
             "0 0", "x", 1.0, 0.0),
            (0.0, np.float64(math.inf), -3, np.int64(0), True, np.False_,
             "1 -2", "", np.float64(math.nan), "mixed"),
            # a row given as a list, with cells of every type again
            [np.float32(0.1), 2 ** 70, np.uint64(2 ** 64 - 1), False, 1e300,
             np.True_, None, "%d", np.int32(-7), math.inf]]
    header = [f"c{k}" for k in range(10)]
    path = write_csv(tmp_path / "t.csv", header, rows)
    expected = ",".join(header) + "\n" + "".join(
        ",".join(csv_cell(x) for x in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("utf-8")
    assert path.read_text().splitlines()[1] == \
        "0.33333333333333331,-0,7,-4,1,1,1 -2,name,nan,None"
    empty = write_csv(tmp_path / "e.csv", ["a", "b"], [])
    assert empty.read_text() == "a,b\n"


def test_run_json_contents(tmp_path):
    cfg = make_cfg("gap", L=8, R=4, va=1.0, vb=2.0, bargs="a = 1.0\nb = 2.0")
    result = run(cfg, tmp_path)
    record = json.loads((tmp_path / "run.json").read_text())
    assert record["config_hash"] == cfg.config_hash()
    assert record["exit_code"] == 0
    assert any(o["name"] == "gap.csv" for o in record["outputs"])
    assert all(len(o["sha256"]) == 64 for o in record["outputs"])


def test_run_json_environment(tmp_path):
    cfg = make_cfg("gap", L=8, R=4, va=1.0, vb=2.0, bargs="a = 1.0\nb = 2.0")
    before = blas.threads()
    run(cfg, tmp_path)
    assert blas.threads() == before          # the run's pin is undone
    env = json.loads((tmp_path / "run.json").read_text())["environment"]
    assert env == {"python": platform.python_version(),
                   "numpy": np.__version__, "scipy": scipy.__version__,
                   "cpu_affinity": len(os.sched_getaffinity(0)),
                   "blas_threads_main": None if before is None else 1}


@pytest.mark.parametrize("workers", [0, -3])
def test_validate_rejects_nonpositive_workers(tmp_path, workers, capsys):
    text = config_to_text(make_cfg("gap", L=8, R=4, va=1.0, vb=2.0,
                                   bargs="a = 1.0\nb = 2.0"))
    cfg = parse_config(text, workers=workers)
    assert validate(cfg) == [f"workers must be >= 1, got {workers}"]
    assert run(cfg, tmp_path / "run").exit_code == 3
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text.replace("workers = 1", f"workers = {workers}"))
    assert cli_main(["validate", "--config", str(cfg_path)]) == 3


def test_every_shipped_config_validates(capsys):
    # the benchmark's workloads too: its run stops on one that fails validate
    configs = sorted(CONFIG_DIR.glob("*.ini")) + sorted(
        (CONFIG_DIR.parent / "perfbench" / "workloads").glob("*.ini"))
    assert configs
    failing = [p.name for p in configs
               if cli_main(["validate", "--config", str(p)]) != 0]
    assert failing == []


@pytest.mark.parametrize("seed, code", [(2 ** 63 - 1, 0), (-(2 ** 63), 0),
                                        (2 ** 63, 3), (-(2 ** 63) - 1, 3)])
def test_seed_outside_int64_exits_3(seed, code, tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(make_text("spectrum", R=2).replace("seed = 7",
                                                       f"seed = {seed}"))
    assert cli_main(["validate", "--config", str(path)]) == code
    assert cli_main(["spectrum", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == code


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")),
                         ids=lambda p: p.stem)
def test_every_shipped_config_runs_clean(path, tmp_path, capsys):
    kind = parse_config(path.read_text()).kind
    assert cli_main([kind, "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    record = json.loads((tmp_path / "run.json").read_text())
    assert record["exit_code"] == 0 and record["outputs"]
    # every check name asserts something, though one of its reports (the
    # suitability implication at a short length) may assert nothing
    asserted = Counter()
    for rep in record["reports"]:
        asserted[rep["name"]] += rep["instances"]
    assert [name for name, n in asserted.items() if n == 0] == []


@pytest.mark.parametrize("section", ["[interlace]\nesp = 0.2\n",
                                     "[fh]\nstep = 1e-3\n"])
def test_unknown_section_key_exits_3(section, tmp_path, capsys):
    # a misspelt key, and the Feynman-Hellmann step that no run reads
    kind = section[1:section.index("]")]
    text = make_text(kind, extra=section)
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert cli_main(["validate", "--config", str(path)]) == 3
    assert "unknown key" in capsys.readouterr().err
    assert cli_main([kind, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    with pytest.raises(PreconditionError, match="unknown key"):
        parse_config(text)


TAILS_BASE = BASE.format(kind="tails", L=15, R=4, vk="uniform",
                         vargs="a = 1.0\nb = 2.0", bk="point_mass",
                         bargs="c = 0.0") \
    + "[tails]\nepsilons = 0.3\nlengths = 15\nc0_lengths = 8\n"
SUITABILITY_BASE = make_text("suitability", L=12, R=4, va=1.0, vb=2.0,
                             bk="point_mass", bargs="c = 0.0",
                             extra="[suitability]\nlengths = 6 12\n")

# a value that does not parse, a count or range a run cannot use, and a
# flag that is no flag: each once crashed validate or the run, or ran wrong
MALFORMED = {
    "d": make_text("spectrum").replace("\nd = 1\n", "\nd = x\n"),
    "L": make_text("spectrum").replace("\nL = 9\n", "\nL = abc\n"),
    "seed": make_text("spectrum").replace("seed = 7", "seed = 4.5"),
    "realizations": make_text("spectrum").replace("realizations = 5",
                                                  "realizations = x"),
    "mu_V-b": make_text("spectrum", vargs="a = 0.0\nb = x"),
    "mu_V-b-missing": make_text("spectrum", vargs="a = 0.0"),
    "mu_V-a-above-b": make_text("spectrum", vargs="a = 2\nb = 1.3"),
    "suitability-lengths": SUITABILITY_BASE.replace("lengths = 6 12",
                                                    "lengths = x"),
    # a length that is not whole, once rounded silently
    "suitability-lengths-fraction": SUITABILITY_BASE.replace("lengths = 6 12",
                                                             "lengths = 11.6 24.4"),
    "tails-lengths-fraction": TAILS_BASE.replace("lengths = 15", "lengths = 15.5"),
    "tails-c0_lengths-fraction": TAILS_BASE.replace("c0_lengths = 8",
                                                    "c0_lengths = 8.5"),
    "tails-epsilons": TAILS_BASE.replace("epsilons = 0.3", "epsilons = x"),
    # one epsilon at two lengths: it once validated, and then its run
    # compared two cube sizes as two epsilons (with mu_V uniform[1, 1.3] at
    # R = 200, tail_monotonicity failed and the run exited 2)
    "tails-epsilons-repeated": TAILS_BASE.replace("epsilons = 0.3\nlengths = 15",
                                                  "epsilons = 0.3 0.3\nlengths = 80 20"),
    "ct-energy": make_text("ct", extra="[ct]\nenergy = x\n"),
    "interlace-eps": make_text("interlace", extra="[interlace]\neps = x\n"),
    # a threshold at or below the band edge: the tail bound held by
    # construction, and the run printed PASS for every realization
    "interlace-eps-negative": make_text("interlace", L=8, R=4, va=1.0, vb=2.0,
                                        extra="[interlace]\neps = -1\n"),
    "interlace-eps-0": make_text("interlace", L=8, R=4, va=1.0, vb=2.0,
                                 extra="[interlace]\neps = 0\n"),
    "ids-energy_range": make_text("ids", extra="[ids]\nenergy_range = 1 2\n"),
    "correlator-interval": make_text("correlator",
                                     extra="[correlator]\ninterval = 1\n"),
    "dos-bins": make_text("dos", extra="[dos]\nbins = 1 0 4\n"),
    "suitability-energies": SUITABILITY_BASE + "energies = 5.0\n",
    "lower_epsilons-x": TAILS_BASE + "lower_bound = true\nlower_epsilons = x\n",
    "lower_epsilons-negative": TAILS_BASE + "lower_bound = true\n"
                                            "lower_epsilons = -1\n",
    "lower_realizations-x": TAILS_BASE + "lower_bound = true\n"
                                         "lower_realizations = x\n",
    "lower_realizations-0": TAILS_BASE + "lower_bound = true\n"
                                         "lower_realizations = 0\n",
    "lower_bound-ture": TAILS_BASE + "lower_bound = ture\n",
    # a grid or a field scale past the float range, and more realizations
    # than the sampler's signed 64-bit indices: each once passed validate,
    # then crashed or never ended
    "ids-energy_range-overflow": make_text("ids", extra="[ids]\n"
                                           "energy_range = -1e308 1e308 3\n"),
    "dos-bins-overflow": make_text("dos", extra="[dos]\nbins = -1e308 1e308 4\n"),
    "mu_V-squares-overflow": make_text("ids", L=12, va=1e154, vb=2e154),
    "mu_V-radius-overflow": make_text("spectrum", va=-1e308, vb=1e308),
    # a gap edge past the float range: inf, so validate reports the radius
    "suitability-edge-overflow": make_text(
        "suitability", L=12, va=1.5e308, vb=1.6e308, bargs="a = 1.5e308\nb = 1.6e308",
        extra="[suitability]\nlengths = 12\n"),
    "lower_realizations-1e300": TAILS_BASE + "lower_bound = true\n"
                                             "lower_realizations = 1e300\n",
    "realizations-2^63+1": make_text("spectrum").replace(
        "realizations = 5", f"realizations = {2 ** 63 + 1}"),
    # a dimension past numpy's 64 axes, with a one-site cube well inside
    # the cap: it once validated, then the run exited 1
    "d-64": _d(make_text("spectrum", L=2), 64),
    # a dimension that puts every cube past the cap: at d = 5000 the cap
    # message once raised ValueError on the 5,000-digit block dimension, and
    # at d = 10^9 the cap check, the tails length floor and the c0 check
    # once formed powers of 10^9 digits
    "d-5000": _d(make_text("ids", L=12), 5000),
    "d-10^9": _d(make_text("ids", L=12), 10 ** 9),
    "tails-d-10^9": _d(TAILS_BASE, 10 ** 9) + "lower_bound = true\n",
    # an undeclared key or section
    "experiment-realisations": make_text("spectrum").replace(
        "workers = 1", "workers = 1\nrealisations = 3"),
    "mu_V-c": make_text("spectrum", vargs="a = 0.0\nb = 1.0\nc = 7"),
    "spectrm": make_text("spectrum", extra="[spectrm]\n"),
    # a grid out of order, and thetas that share a report name: each once
    # validated, and then its run failed a check by construction or merged
    # two thetas' names
    "ids-energies-unsorted": make_text("ids", extra="[ids]\nenergies = 2 0 1\n"),
    "suitability-lengths-unsorted": SUITABILITY_BASE.replace("lengths = 6 12",
                                                             "lengths = 24 12"),
    "suitability-theta-same-name": SUITABILITY_BASE + "theta = 1.5 1.5000001\n",
    "suitability-theta-repeated": SUITABILITY_BASE + "theta = 2 2\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_config_exits_3(name, tmp_path, capsys):
    text = MALFORMED[name]
    kind = text.split("kind = ", 1)[1].split()[0]
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert cli_main(["validate", "--config", str(path)]) == 3
    assert cli_main([kind, "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("precondition: ")


# one bad input per diagnostic of parsing and of validate's shared,
# tails and interlace checks, keyed by the message it prints
DIAGNOSTICS = {
    "config is not valid INI": "[experiment\nkind = spectrum\n",
    "no experiment kind given (config or CLI)":
        make_text("spectrum").replace("kind = spectrum\n", ""),
    "unknown experiment kind 'spectra'":
        make_text("spectrum").replace("kind = spectrum", "kind = spectra"),
    "config has no [mu_B] section": make_text("spectrum").split("[mu_B]")[0],
    "[mu_V] unknown measure kind 'gauss'": make_text("spectrum", vk="gauss"),
    "[experiment] L = 'inf' does not parse":
        make_text("spectrum").replace("\nL = 9\n", "\nL = inf\n"),
    "dimension must be >= 1, got 0": make_text("spectrum").replace("\nd = 1\n",
                                                                   "\nd = 0\n"),
    "realizations must be >= 1": make_text("spectrum", R=0),
    "dimension must be at most 63, got 64": _d(make_text("spectrum", L=2), 64),
    # past 2^1024 a dimension is named as its power
    "matrix dimension 2 * 11^5000 exceeds the hard cap 4096; reduce L or d":
        _d(make_text("ids", L=12), 5000),
    "tails: c0 length 8: Dirichlet matrix dimension 7^5000 exceeds the hard cap 4096":
        _d(TAILS_BASE, 5000) + "lower_bound = true\n",
    "tails: epsilons must be > 0": TAILS_BASE.replace("epsilons = 0.3",
                                                      "epsilons = -0.3"),
    "tails: epsilon 0.3 is given 2 times": MALFORMED["tails-epsilons-repeated"],
    "tails: mu_V concentrated in a single point has no tail":
        TAILS_BASE.replace("kind = uniform\na = 1.0\nb = 2.0",
                           "kind = point_mass\nc = 1.0"),
    "interlace: eps must be > 0, got -1": MALFORMED["interlace-eps-negative"],
}


@pytest.mark.parametrize("name, problem", [
    ("ids-energies-unsorted", "ids: energies = '2 0 1' is not strictly increasing"),
    ("suitability-lengths-unsorted",
     "suitability: lengths = '24 12' is not strictly increasing"),
    ("suitability-theta-same-name",
     "suitability: 2 thetas share the name 1.5 (6 significant digits) of their "
     "reports suitability_monotone_theta=1.5"),
], ids=["ids-energies", "suitability-lengths", "suitability-theta"])
def test_validate_names_the_key_of_a_grid_out_of_order(name, problem):
    assert validate(parse_config(MALFORMED[name])) == [problem]


def test_the_largest_dimension_runs(tmp_path, capsys):
    # at d = 63 a cube of length 2 is one site, and the site enumeration of
    # `lattice`, an array of d + 1 axes, has numpy's most
    path = tmp_path / "cfg.ini"
    path.write_text(_d(make_text("spectrum", L=2), 63))
    assert cli_main(["validate", "--config", str(path)]) == 0
    assert cli_main(["spectrum", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("message", sorted(DIAGNOSTICS))
def test_each_diagnostic_names_its_input(message, tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(DIAGNOSTICS[message])
    assert cli_main(["validate", "--config", str(path)]) == 3
    assert f"precondition: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("a, problems", [(1e153, 0), (1e154, 1)])
def test_validate_keeps_the_squares_of_the_radius_finite(a, problems):
    # r = 4 + 2a: (2r)^2 is 1.6e307 at a = 1e153 and past the range at 1e154
    for kind in ("spectrum", "ids", "gap", "ct", "fh"):
        cfg = make_cfg(kind, L=12, va=a, vb=2 * a)
        assert len(validate(cfg)) == problems, kind


def test_unparsable_values_name_their_section_and_key():
    with pytest.raises(PreconditionError, match=r"\[experiment\] seed = '4.5'"):
        parse_config(MALFORMED["seed"])
    with pytest.raises(PreconditionError, match=r"\[mu_V\] needs key 'b'"):
        parse_config(MALFORMED["mu_V-b-missing"])
    with pytest.raises(PreconditionError, match=r"\[tails\] lower_bound = 'ture'"):
        parse_config(MALFORMED["lower_bound-ture"])
    for word, value in (("Yes", True), ("on", True), ("0", False), ("off", False)):
        cfg = parse_config(TAILS_BASE + f"lower_bound = {word}\n")
        assert cfg.value("lower_bound") is value


def test_validate_loads_no_module(tmp_path):
    # no c0 estimate, no matrix: validating a tails config loads no module
    # beyond the CLI, its argument parsing (gettext loads locale) and the
    # asymptotics that the epsilon grid reads
    path = tmp_path / "cfg.ini"
    path.write_text(MALFORMED["lower_realizations-0"])
    argv = ["validate", "--config", str(path)]
    code = ("import sys, blocklab.cli\nfrom blocklab import asymptotics\n"
            f"blocklab.cli.build_parser().parse_args({argv!r})\n"
            "before = set(sys.modules)\n"
            f"assert blocklab.cli.main({argv!r}) == 3\n"
            "print(sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_config_accessors_refuse_undeclared_keys():
    cfg = make_cfg("fh")
    assert cfg.value("tol") == 1e-6
    with pytest.raises(KeyError):
        cfg.value("step")


def test_precondition_exit_code(tmp_path):
    cfg = make_cfg("wegner", va=-2.0, vb=-1.0,
                   extra="[wegner]\nenergies = 2.0\nepsilons = 0.1\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 3
    assert result.tables == {}


def test_csv_format_17_digits(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["x"], [(1.0 / 3.0,)])
    text = path.read_text()
    assert text == "x\n0.33333333333333331\n"


def test_cli_validate_and_run(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(BASE.format(kind="gap", L=8, R=5, vk="uniform",
                                    vargs="a = 1.0\nb = 2.0",
                                    bk="uniform", bargs="a = 1.0\nb = 2.0"))
    assert cli_main(["validate", "--config", str(cfg_path)]) == 0
    code = cli_main(["gap", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] gap_edge" in out
    assert (tmp_path / "out/gap.csv").exists()


def test_cli_kind_conflict_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(BASE.format(kind="gap", L=8, R=5, vk="uniform",
                                    vargs="a = 1.0\nb = 2.0",
                                    bk="uniform", bargs="a = 1.0\nb = 2.0"))
    assert cli_main(["ids", "--config", str(cfg_path)]) == 3
    assert "conflicts" in capsys.readouterr().err


def test_cli_main_given_argv_keeps_the_collector_as_it_was(tmp_path):
    # only the process entry changes the cycle collector: a caller's run
    # and validate leave it on or off as it was, and freeze nothing
    path = tmp_path / "cfg.ini"
    path.write_text(make_text("gap", L=8, R=3, va=1.0, vb=2.0))
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            frozen = gc.get_freeze_count()
            assert cli_main(["validate", "--config", str(path)]) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
            assert cli_main(["gap", "--config", str(path), "--out",
                             str(tmp_path / f"out{enabled}")]) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        gc.enable()


def test_cli_entry_freezes_what_loaded_and_runs_with_the_collector_on(tmp_path):
    # main() as the process entry, argv read from sys.argv: a validate
    # freezes what it loaded and leaves the collector off until exit; a
    # run freezes what it loaded, its run side included, and computes
    # with the collector on
    path = tmp_path / "cfg.ini"
    path.write_text(make_text("gap", L=8, R=3, va=1.0, vb=2.0))
    # enabled, frozen, run side loaded
    for argv, expected in ((["validate", "--config", str(path)], "False True False"),
                           (["gap", "--config", str(path), "--out", str(tmp_path / "out")],
                            "True True True")):
        code = ("import gc, sys\nfrom blocklab.cli import main\n"
                f"sys.argv = ['blocklab'] + {argv!r}\n"
                "assert main() == 0\n"
                "print(gc.isenabled(), gc.get_freeze_count() > 0, "
                "'blocklab.experiments' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines()[-1] == expected, argv[0]


@pytest.mark.parametrize("kind, ini", [
    ("sli-edi", Path(__file__).parent / "kinds" / "sli-edi.ini"),
    ("wegner", CONFIG_DIR.parent / "perfbench" / "workloads" / "count-ensemble.ini")],
    ids=["sli-edi", "count-ensemble"])
def test_process_entry_writes_the_bytes_of_an_in_process_run(kind, ini, tmp_path, capsys):
    # `python -m blocklab.cli` takes the process entry's start-up path,
    # which tests/manifests.py (harness.run in process) never takes: each
    # output file it writes has the sha256 of the in-process run's
    argv = [kind, "--config", str(ini), "--seed", "42", "--out"]
    subprocess.run([sys.executable, "-m", "blocklab.cli"] + argv + [str(tmp_path / "entry")],
                   env=_subprocess_env(), capture_output=True, check=True)
    assert cli_main(argv + [str(tmp_path / "inline")]) == 0
    capsys.readouterr()
    manifests = []
    for side in ("entry", "inline"):
        outputs = json.loads((tmp_path / side / "run.json").read_text())["outputs"]
        assert outputs and all(
            hashlib.sha256((tmp_path / side / o["name"]).read_bytes()).hexdigest()
            == o["sha256"] for o in outputs)
        manifests.append(outputs)
    assert manifests[0] == manifests[1]


def test_interlace_experiment(tmp_path):
    cfg = make_cfg("interlace", L=8, R=10, va=1.0, vb=2.0,
                   bargs="a = 1.0\nb = 2.0")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    names = {r.name for r in result.reports}
    assert {"interlacing", "half_half", "bracketing_gap",
            "finite_volume_tail_bound", "beta_map"} <= names


def test_interlace_skips_counted_in_their_checks_row(tmp_path):
    cfg = parse_config(INTERLACE_SKIPS)
    lam = cfg.value("lam")
    low = sum(sample_field(cfg.cube(), cfg.disorder(), r).V.min() < lam
              for r in range(cfg.realizations))
    assert 0 < low < cfg.realizations
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    lines = (tmp_path / "interlace.csv").read_text().splitlines()
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert list(rows) == ["interlacing", "half_half", "bracketing_gap",
                          "finite_volume_tail_bound", "beta_map"]
    assert rows["half_half"][4] == rows["bracketing_gap"][4] == str(low)
    skipped = {r.name: r.preconditions_failed for r in result.reports}
    assert skipped["half_half"] == skipped["bracketing_gap"] == low


# one small run per kind; V has a density, so no two realizations share a
# matrix
EIGEN_COUNT_CASES = {
    "spectrum": make_text("spectrum", R=4),
    "ids": make_text("ids", R=4, extra="[ids]\nenergies = -2 0 2\n"),
    "dos": make_text("dos", R=4, extra="[dos]\nbins = -6 6 30\n"),
    "wegner": make_text("wegner", R=4,
                        extra="[wegner]\nenergies = 2.0 3.0\nepsilons = 0.1 0.2\n"),
    "gap": make_text("gap", L=8, R=4, va=1.0, vb=2.0, bargs="a = 1.0\nb = 2.0"),
    "interlace": make_text("interlace", L=8, R=4, va=1.0, vb=2.0,
                           bargs="a = 1.0\nb = 2.0"),
    "green": make_text("green", L=9, R=4, va=1.0, vb=2.0,
                       extra="[green]\nenergy = 0.0\nlengths = 2 5 9\n"),
    "ct": make_text("ct", L=10, R=4, va=1.0, vb=2.0, extra="[ct]\nenergy = 0.0\n"),
    # 15 and 16 give the same cube
    "tails": make_text("tails", L=15, R=4, va=1.0, vb=2.0, bk="point_mass",
                       bargs="c = 0.0",
                       extra="[tails]\nepsilons = 0.3 0.4 0.5\nlengths = 15 15 15\n"),
    "suitability": make_text("suitability", L=12, R=4, va=1.0, vb=2.0,
                             bk="point_mass", bargs="c = 0.0",
                             extra="[suitability]\nlengths = 6 12\ntheta = 1.5 3\n"
                                   "energies = 0.0 0.5\n"),
    "correlator": make_text("correlator", L=21, R=4, va=0.0, vb=5.0,
                            extra="[correlator]\ninterval = -1.5 1.5\n"),
    "fh": make_text("fh", L=6, R=4),
    "sli-edi": make_text("sli-edi", L=9, R=4, va=1.0, vb=2.0),
}


# the kinds that only count eigenvalues, through spectral.ensemble_counts
COUNT_KINDS = ("ids", "dos", "wegner", "tails")


def test_eigen_count_cases_cover_every_kind():
    assert set(EIGEN_COUNT_CASES) == set(harness.KINDS)


@pytest.mark.parametrize("kind", sorted(EIGEN_COUNT_CASES))
def test_one_eigen_call_per_distinct_matrix(kind, tmp_path, monkeypatch):
    solved = []
    for name in ("eigvalsh", "eigh"):
        def counted(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            a = np.asarray(a)
            solved.append((a.shape, a.tobytes()))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    cfg = parse_config(EIGEN_COUNT_CASES[kind])
    run(cfg, tmp_path)
    assert len(solved) == len(set(solved))
    if kind in COUNT_KINDS:
        # d = 1 counts come from the inertia, with no dense eigensolve
        assert solved == []
    elif kind == "ct":
        # E = 0 lies 1 inside the gap edge hypot(1, 0): the gap theorem
        # sets the capped spectral distance, with no dense eigensolve
        assert solved == []
    else:
        assert solved
    if kind == "interlace":
        # H, the plain block, the reference block and the bracketing block
        assert len(solved) == 4 * cfg.realizations
    if kind == "sli-edi":
        # the host cube (with vectors) and the middle cube
        assert len(solved) == 2 * cfg.realizations


def _wrap_everywhere(monkeypatch, module, name, wrapper):
    """Replace module.name by wrapper(original) in every blocklab module
    that binds it."""
    real = getattr(module, name)
    wrapped = wrapper(real)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("blocklab") and \
                getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, wrapped)


@pytest.mark.parametrize("kind", sorted(EIGEN_COUNT_CASES))
def test_each_block_is_sampled_once(kind, tmp_path, monkeypatch):
    # blocks of 3: realizations 0-2 and 3 of R = 4
    monkeypatch.setattr(spectral, "REALIZATION_BLOCK", 3)
    calls, counted_rows = [], []

    def counted(real):
        def sample_fields(cube, config):
            draw = real(cube, config)

            def counted_draw(rs):
                calls.append((cube, tuple(rs)))
                return draw(rs)
            return counted_draw
        return sample_fields

    def counting(real):
        def count_below(cube, V, B, energies, side="left"):
            counted_rows.append((cube, len(V)))
            return real(cube, V, B, energies, side)
        return count_below
    _wrap_everywhere(monkeypatch, disorder, "sample_fields", counted)
    _wrap_everywhere(monkeypatch, spectral, "count_below", counting)
    cfg = parse_config(EIGEN_COUNT_CASES[kind])
    assert cfg.realizations == 4
    run(cfg, tmp_path)
    cubes = list(dict.fromkeys(cube for cube, _ in calls))
    assert cubes
    assert calls == [(cube, rs) for cube in cubes for rs in ((0, 1, 2), (3,))]
    # a count-only kind and suitability count each sampled block with one
    # count_below call
    per_block = 1 if kind in COUNT_KINDS + ("suitability",) else 0
    assert counted_rows == [(cube, len(rs)) for cube, rs in calls
                            for _ in range(per_block)]


@pytest.mark.parametrize("kind", sorted(EIGEN_COUNT_CASES))
def test_build_h0_runs_once_per_region_and_condition(kind, tmp_path, monkeypatch):
    # once per region and condition of each operator a realization builds:
    # no Laplacian outlives its realization, and no realization builds one
    # twice (sli-edi hands the host and middle blocks it solves to both
    # its checks), so every (cube, bc) is built once by each of the R = 4
    built = []

    def counted(real):
        def build_h0(cube, bc="simple"):
            # a cube's site set: cubes of lengths 15 and 16 share one
            built.append((cube.d, model.axis_count(cube.L), cube.center, bc))
            m = real(cube, bc)
            assert np.array_equal(m, oracles.laplacian_on(cube, bc))
            return m
        return build_h0
    _wrap_everywhere(monkeypatch, operators, "build_h0", counted)
    cfg = parse_config(EIGEN_COUNT_CASES[kind])
    run(cfg, tmp_path)
    assert all(k == cfg.realizations for k in Counter(built).values()), Counter(built)
    # d = 1 counts come from the inertia, with no operator, and so do the
    # suitability counts and norms inside the gap, and the ct profile at
    # E = 0, whose slice blocks come from the geometry of a slice
    assert bool(built) != (kind in COUNT_KINDS + ("suitability", "ct"))


@pytest.mark.parametrize("kind", ["green", "sli-edi"])
def test_nested_geometry_is_built_once_per_run(kind, tmp_path, monkeypatch):
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper
    for module, name in ((operators, "build_gamma"), (model, "strictly_inside"),
                         (lattice, "inner_boundary"), (lattice, "outer_boundary")):
        _wrap_everywhere(monkeypatch, module, name, counted)
    counts = []
    for R in (2, 6):
        calls.clear()
        text = EIGEN_COUNT_CASES[kind].replace("realizations = 4",
                                               f"realizations = {R}")
        assert run(parse_config(text), tmp_path / str(R)).exit_code == 0
        counts.append(Counter(calls))
    assert counts[0] == counts[1]
    assert set(counts[0]) == {"build_gamma", "strictly_inside", "inner_boundary",
                              "outer_boundary"}


# process-wide memos, which hold nothing that depends on a run's cubes
PROCESS_MEMOS = {"blas._openblas", "harness._formatter"}


def test_the_only_caches_are_process_memos():
    # a per-cube value is built by the call that uses it: no functools
    # cache keeps one alive from one realization or run to the next
    found = set()
    for info in pkgutil.iter_modules(blocklab.__path__):
        module = importlib.import_module(f"blocklab.{info.name}")
        found.update(f"{info.name}.{name}" for name, obj in vars(module).items()
                     if hasattr(obj, "cache_clear")
                     and obj.__module__ == module.__name__)
    assert found == PROCESS_MEMOS


@pytest.mark.parametrize("kind, name", [("ct", "combes_thomas"),
                                        ("green", "gri_residual")])
def test_an_energy_on_the_spectrum_fails_the_precondition_of_each_row(kind, name,
                                                                       tmp_path):
    # V = B = 0: E = 2 is an eigenvalue of the plain block of every chain of
    # an odd number of sites, the cube's and the nested ones
    cfg = make_cfg(kind, R=3, vk="point_mass", vargs="c = 0.0", bk="point_mass",
                   bargs="c = 0.0", extra=f"[{kind}]\nenergy = 2.0\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    (rep,) = [r for r in result.reports if r.name == name]
    assert (rep.preconditions_failed, rep.instances) == (3, 0)
    assert len((tmp_path / f"{kind}.csv").read_text().splitlines()) == 1   # a header


def test_correlator_fit_error_is_reported_with_too_few_sites(tmp_path):
    # L = 3: two sites at positive distance from the centre, fewer than the
    # three points a stretched fit needs
    cfg = make_cfg("correlator", L=3, R=10, extra="[correlator]\ninterval = -10 10\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0 and result.reports == []
    assert result.summary["contributing"] == 10
    assert result.summary["fit_error"] == "not enough positive correlator entries for a fit"


def test_correlator_decay_needs_enough_contributing_realizations(tmp_path):
    # R = 4: 2 (seed 7) and 3 (seed 42) realizations reach the interval,
    # too few to fit a slope, so the check is a precondition skip
    for seed, contributing in ((7, 2), (42, 3)):
        cfg = parse_config(EIGEN_COUNT_CASES["correlator"], seed=seed)
        result = run(cfg, tmp_path / str(seed))
        assert result.exit_code == 0
        rep, = result.reports
        assert (rep.name, rep.instances, rep.preconditions_failed) == \
            ("correlator_decay", 0, 1)
        assert rep.parameters == {
            "contributing": contributing,
            "min_contributing": experiments.CORRELATOR_MIN_CONTRIBUTING}
        assert "log_slope" not in result.summary
    # with enough of them the slope is asserted
    cfg = make_cfg("correlator", L=21, R=30, va=0.0, vb=5.0,
                   extra="[correlator]\ninterval = -1.5 1.5\n")
    result = run(cfg, tmp_path / "many")
    assert result.summary["contributing"] >= experiments.CORRELATOR_MIN_CONTRIBUTING
    rep, = result.reports
    assert (rep.instances, rep.preconditions_failed) == (1, 0)
    assert result.exit_code == 0


def test_wegner_experiment(tmp_path):
    cfg = make_cfg("wegner", L=16, R=40,
                   extra="[wegner]\nenergies = 2.0\nepsilons = 0.1\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0


def test_suitability_experiment(tmp_path):
    cfg = make_cfg("suitability", L=12, R=10, va=1.0, vb=2.0,
                   bk="point_mass", bargs="c = 0.0",
                   extra="[suitability]\nlengths = 12\ntheta = 1.5\n"
                         "energies = 0.0\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    rows = (tmp_path / "suitability.csv").read_text().strip().splitlines()[1:]
    assert float(rows[0].split(",")[0]) == 1.5      # theta column
    assert float(rows[0].split(",")[3]) >= 0.9      # probability column


def test_ct_experiment(tmp_path):
    cfg = make_cfg("ct", L=16, R=5, va=1.0, vb=2.0, bk="point_mass",
                   bargs="c = 0.0", extra="[ct]\nenergy = 0.0\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    header = (tmp_path / "ct_profile.csv").read_text().splitlines()[0]
    assert header == "n,m,dist1,block_norm,ct_bound"


def test_ct_failed_rate_fit_keeps_the_bound(tmp_path):
    # one site: the bound reads its one pair, and no pair is left to fit
    cfg = parse_config(make_text("ct", L=2, R=3).replace("seed = 7", "seed = 1"))
    result = run(cfg, tmp_path)
    reports = {r.name: r for r in result.reports}
    assert (reports["combes_thomas"].instances,
            reports["combes_thomas"].preconditions_failed) == (3, 0)
    rows = [line.split(",") for line in
            (tmp_path / "ct.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3
    assert all(row[4:] == ["nan", "nan"] for row in rows)


def test_tails_lower_bound_cube_over_the_cap_is_skipped(tmp_path, monkeypatch):
    def sample_fields(cube, config):
        assert cube.site_count <= model.MAX_BLOCK_DIM, "over-cap cube sampled"
        return disorder.sample_fields(cube, config)
    monkeypatch.setattr(spectral, "sample_fields", sample_fields)
    # at d = 1, eps = 1e-7 asks for a cube of more than 4096 sites
    cfg = parse_config(TAILS_BASE + "lower_bound = true\nlower_epsilons = 1e-7 0.75\n"
                       "lower_realizations = 200\n")
    result = run(cfg, tmp_path)
    lower = [r for r in result.reports if r.name == "lower_bound_probability"]
    assert [r.preconditions_failed for r in lower][0] == 1
    assert lower[0].instances == 0
    L = lower[0].parameters["L"]
    assert model.CubeSpec(1, L).site_count > model.MAX_BLOCK_DIM
    rows = [line.split(",") for line in
            (tmp_path / "tails_lower.csv").read_text().splitlines()[1:]]
    assert float(rows[0][0]) == pytest.approx(1e-7)
    assert rows[0][1:3] == [str(L), "nan"] and rows[0][4] == "1"
    assert rows[1][2] != "nan"


def test_sli_edi_experiment(tmp_path):
    cfg = make_cfg("sli-edi", L=9, R=6, va=1.0, vb=2.0,
                   bargs="a = 0.0\nb = 1.0")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0


def test_sli_edi_probe_ties_go_to_the_larger_eigenvalue():
    probe = experiments._probe_index
    # -0.3 is closer to 0 by one rounding step: still a tie, 0.3 wins
    assert probe(np.array([-2.0, -0.3, 0.30000000000000004, 2.0]), 0.0) == 2
    assert probe(np.array([-2.0, -0.30000000000000004, 0.3, 2.0]), 0.0) == 2
    assert probe(np.array([-0.3, 0.31]), 0.0) == 0       # no tie
    assert probe(np.array([0.1, 0.2, 0.3]), 0.21) == 1
    assert probe(np.array([-1.0, 1.0, 1.0 + 1e-15]), 1.0) == 2


def test_sli_edi_probe_does_not_depend_on_the_solver():
    # eigh and eigvalsh round a +-lambda pair differently; at E = 0 the
    # probe is the nonnegative member either way
    cfg = parse_config(EIGEN_COUNT_CASES["sli-edi"])
    cube = model.CubeSpec(cfg.d, cfg.value("lengths")[2])
    for r in range(20):
        f = sample_field(cube, cfg.disorder(), r)
        block = spectral.plain_block(f)
        ev = [spectral.eigensolve(block, want_vectors=v).eigenvalues
              for v in (True, False)]
        j = experiments._probe_index(ev[0], 0.0)
        assert j == experiments._probe_index(ev[1], 0.0) == len(ev[0]) // 2
        assert ev[0][j] > 0.0


def test_tails_experiment(tmp_path):
    cfg = make_cfg("tails", L=15, R=30, va=1.0, vb=2.0, bk="point_mass",
                   bargs="c = 0.0",
                   extra="[tails]\nepsilons = 0.3 0.4 0.5\nlengths = 15 15 15\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    assert "alpha_hat" in result.summary


def test_tails_lengths_pair_with_their_epsilons(tmp_path):
    # each length goes with the epsilon at its position in the config, and
    # then the grid is sorted: the floor 10/sqrt(0.3) raises 16 to 19 at
    # eps = 0.3, and 40 stays at eps = 0.5
    text = TAILS_BASE.replace("epsilons = 0.3", "epsilons = 0.5 0.3")
    cfg = parse_config(text.replace("lengths = 15", "lengths = 40 16"))
    assert validate(cfg) == []
    assert harness._tail_grid(cfg) == ([0.3, 0.5], [19, 40])
    assert run(cfg, tmp_path).exit_code == 0
    rows = [line.split(",") for line in
            (tmp_path / "tails.csv").read_text().splitlines()[1:]]
    assert [(float(row[0]), int(row[1])) for row in rows] == [(0.3, 19), (0.5, 40)]
    # unset lengths default to the floors, in config order
    cfg = parse_config(text.replace("lengths = 15\n", ""))
    assert cfg.value("lengths") == [15, 19]
    assert harness._tail_grid(cfg) == ([0.3, 0.5], [19, 15])


def test_correlator_experiment(tmp_path):
    cfg = make_cfg("correlator", L=21, R=10, va=0.0, vb=5.0,
                   extra="[correlator]\ninterval = -1.5 1.5\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0


def test_fh_experiment(tmp_path, monkeypatch):
    # one block eigensolve per realization, with vectors, feeds every
    # derivative sum
    calls = []
    real = inequalities.eigensolve
    monkeypatch.setattr(inequalities, "eigensolve",
                        lambda *a, **kw: calls.append(kw) or real(*a, **kw))
    cfg = make_cfg("fh", L=6, R=5)
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    assert calls == [{"want_vectors": True}] * 5
    assert result.reports[0].parameters == {"tol": 1e-6}


def test_dos_experiment(tmp_path):
    cfg = make_cfg("dos", L=16, R=30, extra="[dos]\nbins = -6 6 30\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0


@pytest.mark.parametrize("d, solves", [(1, 0), (2, 12)])
def test_dos_run_solves_each_realization_once(d, solves, tmp_path, monkeypatch):
    # by inertia at d = 1; one dense solve per realization at d = 2
    calls = []
    real = spectral.eigensolve
    monkeypatch.setattr(spectral, "eigensolve",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    text = make_text("dos", L=16 if d == 1 else 5, R=12, va=1.0, vb=2.0,
                     extra="[dos]\nbins = -12 12 30\n")
    result = run(parse_config(text.replace("\nd = 1\n", f"\nd = {d}\n")),
                 tmp_path)
    assert result.exit_code == 0
    assert len(calls) == solves
    assert [r.name for r in result.reports] == ["dos_bound_uniform",
                                                "dos_bound_energy_dependent"]
    assert all(r.instances == 30 for r in result.reports)


def solves_each_realization_once(d, dims, tmp_path, monkeypatch):
    calls = {"eigvalsh": [], "eigh": [], "solve": []}
    for name, log in calls.items():
        def counted(a, *rest, _real=getattr(np.linalg, name), _log=log):
            _log.append(np.shape(a)[-3:])
            return _real(a, *rest)
        monkeypatch.setattr(np.linalg, name, counted)
    # E = 1.2 lies in [edge, a_L] (edge 1): the norms of every energy come
    # from a stacked solve
    text = make_text("suitability", L=12, R=6, va=1.0, vb=2.0, bk="point_mass",
                     bargs="c = 0.0",
                     extra="[suitability]\nlengths = 6 12\ntheta = 1.5 3\n"
                           "energies = 0.0 1.2\n")
    result = run(parse_config(_d2(text) if d == 2 else text), tmp_path)
    assert result.exit_code == 0
    # per realization and length one stacked solve over both energies
    # serves both thetas; the counts come from the Schur recursion at
    # d = 1 and from one eigvalsh per realization at d = 2
    small, large = dims
    assert calls["solve"] == [(2, small, small)] * 6 + [(2, large, large)] * 6
    assert calls["eigvalsh"] == ([] if d == 1 else
                                 [(small, small)] * 6 + [(large, large)] * 6)
    assert calls["eigh"] == []
    # rows and reports stay ordered by theta, then length, then energy
    rows = [line.split(",")[:3] for line in
            (tmp_path / "suitability.csv").read_text().splitlines()[1:]]
    assert [(float(t), int(L), float(e)) for t, L, e in rows] == [
        (t, L, e) for t in (1.5, 3.0) for L in (6, 12) for e in (0.0, 1.2)]
    assert [(r.name, r.parameters.get("L")) for r in result.reports] == [
        ("gap_event_implies_suitable", 6), ("gap_event_implies_suitable", 12),
        ("suitability_monotone_theta=1.5", None),
        ("gap_event_implies_suitable", 6), ("gap_event_implies_suitable", 12),
        ("suitability_monotone_theta=3", None)]


def test_suitability_run_solves_each_realization_once(tmp_path, monkeypatch):
    solves_each_realization_once(1, (10, 22), tmp_path, monkeypatch)


def test_suitability_run_at_d2_solves_each_realization_once(tmp_path, monkeypatch):
    solves_each_realization_once(2, (50, 242), tmp_path, monkeypatch)


def test_gated_suitability_run_factors_nothing_larger_than_4x4(tmp_path,
                                                             monkeypatch):
    # every energy inside the gap at d = 1: no dense eigensolve and no
    # solve, one stacked eigvalsh of 4x4 Gram matrices per chunk
    calls = []
    for name in ("eigvalsh", "eigh", "solve"):
        def counted(a, *rest, _real=getattr(np.linalg, name), _name=name):
            calls.append((_name, np.shape(a)[-2:]))
            return _real(a, *rest)
        monkeypatch.setattr(np.linalg, name, counted)
    result = run(parse_config(SUITABILITY_GATED), tmp_path)
    assert result.exit_code == 0
    assert calls and set(calls) == {("eigvalsh", (4, 4))}


# sha256 of suitability.csv: of the uniform-B config, as the dense path of
# every realization wrote it, the only path before the gated one; of the
# shipped config, as the gated path writes it at its long lengths, where
# the dense LU solve's exponentially small norms lose digits.  The file
# holds hit fractions, Wilson bounds and a_L, so no digest depends on the
# BLAS build
SUITABILITY_DIGESTS = [
    (CONFIG_DIR / "suitability.ini",
     "92d8679918692251e258d4fedf788329f3f2f59d284f5c6d2a5191478632813d"),
    (make_text("suitability", L=12, R=40, va=1.0, vb=2.0,
               extra="[suitability]\nlengths = 12 24 48\ntheta = -2 1.5 3\n"
                     "energies = 0.0 0.5 0.9\n"),
     "45e8a2d7ec28bd5b358460b28265e486660edfa485ce18e0ddc2760357eb7d20"),
]


@pytest.mark.parametrize("source, digest", SUITABILITY_DIGESTS,
                         ids=["configs", "uniform_B"])
def test_suitability_csv_bytes_are_pinned(source, digest, tmp_path):
    text = source.read_text() if isinstance(source, Path) else source
    assert run(parse_config(text, workers=1), tmp_path).exit_code == 0
    data = (tmp_path / "suitability.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of ct.csv and ct_profile.csv of the resolvent-decay benchmark
# workload (d = 2, L = 12, 40 realizations, seed 42), where E = 0 lies 1
# inside the gap edge and G comes from the slice recursion.  The files hold
# 17-digit block norms and fits from LAPACK and BLAS kernels: a BLAS build
# that rounds them otherwise moves these digests
CT_GATED = _d2(make_text("ct", L=12, R=40, va=1.0, vb=2.0,
                         extra="[ct]\nenergy = 0.0\n"))
CT_DIGESTS = {
    "ct.csv": "c996e1857a229fade82c16348d4d24d93a379c6ea62edd4d9b134e1ab90c4c0a",
    "ct_profile.csv": "e16dda675ea9e95bcb0ec7cad940550ac2d83c22353149a6d2a34a72eb79e729",
}


def test_gated_ct_csv_bytes_are_pinned(tmp_path):
    assert run(parse_config(CT_GATED, seed=42, workers=1), tmp_path).exit_code == 0
    for name, digest in CT_DIGESTS.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_green_experiment(tmp_path):
    cfg = make_cfg("green", L=9, R=10, va=1.0, vb=2.0,
                   extra="[green]\nenergy = 0.0\nlengths = 2 5 9\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0


def _loaded_after(code: str) -> list[str]:
    """The modules of scipy, concurrent, multiprocessing, decimal,
    fractions, asymptotics and green, and numpy and hashlib themselves,
    that a fresh interpreter loads running `code`, past those its start-up
    loaded (`site` may load modules of its own)."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys\nbefore = set(sys.modules)\n" + code
         + "\nprint(sorted(m for m in set(sys.modules) - before "
         "if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing', 'decimal', "
         "'_decimal', 'fractions') or m in ('numpy', 'hashlib', 'blocklab.asymptotics', "
         "'blocklab.green')))"],
        env=_subprocess_env(), capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


def _validate_code(path) -> str:
    return ("from blocklab.cli import main\n"
            f"assert main(['validate', '--config', {str(path)!r}]) == 0")


def test_cli_import_and_wegner_run_load_only_what_they_use(tmp_path):
    # importing the CLI loads no numpy, no scipy module, no other kind's
    # module and neither concurrent nor multiprocessing
    assert _loaded_after("import blocklab.cli") == []
    # a wegner run and a ct run (in the gap, where the exact gate decides)
    # load numpy but no scipy module, whose version is read off its files,
    # and neither decimal nor fractions; ct loads green, its own kind's
    # module, and each loads hashlib for its config hash and output
    # manifest.  A run asking for 4 workers computes in this process too:
    # it loads neither concurrent nor multiprocessing
    for kind, extra, own, workers in (
            ("wegner", "[wegner]\nenergies = 2.0\nepsilons = 0.1\n", [], 1),
            ("wegner", "[wegner]\nenergies = 2.0\nepsilons = 0.1\n", [], 4),
            ("ct", "[ct]\nenergy = 0.0\n", ["blocklab.green"], 1)):
        path = tmp_path / f"{kind}{workers}.ini"
        path.write_text(make_text(kind, R=4, va=1.0, vb=2.0, extra=extra)
                        .replace("workers = 1", f"workers = {workers}"))
        assert _loaded_after(
            "from blocklab.cli import main\n"
            f"assert main([{kind!r}, '--config', {str(path)!r}, '--out', "
            f"{str(tmp_path / kind)!r}]) == 0") == own + ["hashlib", "numpy"], \
            (kind, workers)


def test_validate_loads_no_numpy(tmp_path):
    # the hypotheses of these kinds are arithmetic on the config's numbers,
    # read from `model`, the gap edge and the nesting of cubes included:
    # validating one of their configs, the count-ensemble (wegner),
    # resolvent-decay (ct) or suitability-scan workload, or the shipped
    # suitability config, loads no numpy, and no hashlib either, which only
    # the config hash and the output manifest of a run read
    workloads = CONFIG_DIR.parent / "perfbench" / "workloads"
    paths = [workloads / "count-ensemble.ini", workloads / "resolvent-decay.ini",
             workloads / "suitability-scan.ini", CONFIG_DIR / "suitability.ini"]
    for kind in ("spectrum", "wegner", "gap", "interlace", "ct", "correlator", "fh",
                 "suitability", "green", "sli-edi"):
        paths.append(tmp_path / f"{kind}.ini")
        paths[-1].write_text(EIGEN_COUNT_CASES[kind])
    for path in paths:
        assert _loaded_after(_validate_code(path)) == [], path.name
    # a tails config still loads asymptotics, whose resolution floor of the
    # cube lengths it reads, and numpy with it
    tails = tmp_path / "tails.ini"
    tails.write_text(TAILS_BASE)
    assert "blocklab.asymptotics" in _loaded_after(_validate_code(tails))


def test_workload_validates_load_every_traced_layer(tmp_path):
    # the benchmark validates its workload INIs in-process, then installs
    # its span tracer, which needs every module of LAYERS loaded: the tails
    # validate loads the numeric layers through asymptotics
    root = CONFIG_DIR.parent
    tree = ast.parse((root / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (layers,) = [ast.literal_eval(n.value) for n in tree.body if isinstance(n, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in n.targets)]
    code = (f"import sys\nsys.path.insert(0, {str(root / 'perfbench')!r})\n"
            "from blocklab.cli import main\n"
            + "".join(f"assert main(['validate', '--config', {str(p)!r}]) == 0\n"
                      for p in sorted((root / "perfbench" / "workloads").glob("*.ini")))
            + f"missing = [m for m in {layers!r} if 'blocklab.' + m not in sys.modules]\n"
            "assert not missing, missing\n"
            "from spans import Tracer\n"
            "tracer = Tracer()\ntracer.install()\ntracer.remove()\nprint('installed')")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), cwd=tmp_path,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "installed"


def test_scipy_version_is_read_off_the_wheel_layout(tmp_path, monkeypatch):
    # the name of the dist-info directory beside the package, None with no
    # package or no single such directory; the package is never run
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("raise ImportError('ran')\n")
    spec = importlib.util.spec_from_file_location(
        "scipy", tmp_path / "scipy" / "__init__.py",
        submodule_search_locations=[str(tmp_path / "scipy")])
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name: spec if name == "scipy" else None)
    assert harness._scipy_version() is None
    (tmp_path / "scipy-1.17.0rc1.dist-info").mkdir()
    assert harness._scipy_version() == "1.17.0rc1"
    (tmp_path / "scipy-1.16.2.dist-info").mkdir()
    assert harness._scipy_version() is None
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    assert harness._scipy_version() is None


def test_cli_import_starts_openblas_on_one_thread():
    if blas.threads() is None:
        pytest.skip("no OpenBLAS with a thread-count entry point is loaded")
    src = str(Path(blocklab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src
    out = subprocess.run(
        [sys.executable, "-c",
         "import blocklab.cli; from blocklab import blas; print(blas.threads())"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "1"


def test_cli_missing_config_exits_3(capsys):
    assert cli_main(["gap", "--config", "/no/such/file.ini"]) == 3
    assert "cannot read config" in capsys.readouterr().err


def _resolvent_paths(monkeypatch):
    """The list that records, in order, each call of the two resolvent
    paths of the ct kind: the slice sweep and the dense column solve."""
    calls = []
    for name in ("slice_resolvent", "resolvent_columns"):
        def counted(*a, _real=getattr(green, name), _name=name):
            calls.append(_name)
            return _real(*a)
        monkeypatch.setattr(green, name, counted)
    return calls


def test_ct_run_forms_one_resolvent_per_realization(tmp_path, monkeypatch):
    # one slice recursion per realization where E lies 1 inside the gap
    # edge; one dense solve per realization outside it, here above the
    # spectrum
    calls = _resolvent_paths(monkeypatch)
    for energy, path in ((0.0, "slice_resolvent"), (8.0, "resolvent_columns")):
        calls.clear()
        cfg = make_cfg("ct", L=10, R=4, va=1.0, vb=2.0, bk="point_mass",
                       bargs="c = 0.0", extra=f"[ct]\nenergy = {energy}\n")
        result = run(cfg, tmp_path / path)
        assert result.exit_code == 0
        assert calls == [path] * 4
        profile = (tmp_path / path / "ct_profile.csv").read_text().splitlines()
        assert len(profile) == 1 + 9 ** 2


def test_ct_takes_the_slice_path_exactly_inside_the_gap(tmp_path, monkeypatch):
    calls = _resolvent_paths(monkeypatch)
    # the slice path at every realization when E lies at least 1 inside the
    # gap edge hypot(inf supp V, beta), in exact arithmetic; a dense solve
    # nearer the edge, or with no admissible edge (inf supp V < 0, or a B
    # that case_beta rejects)
    lam, beta = 2.25, 1.378
    near = math.hypot(lam, beta) - 1.0
    # at E = near the rounded test hypot - |E| >= 1 passes, but
    # lam^2 + beta^2 < (1 + |E|)^2 in exact arithmetic
    assert math.hypot(lam, beta) - near >= 1.0
    sweep, dense = "slice_resolvent", "resolvent_columns"
    for k, (energy, va, bk, bargs, path) in enumerate((
            (-0.5, 1.5, "uniform", "a = 0.0\nb = 1.0", sweep),
            (0.0, 1.0, "uniform", "a = 0.0\nb = 1.0", sweep),
            (0.0, 1.0, "uniform", "a = -2.0\nb = -1.0", sweep),
            (0.5, 1.0, "uniform", "a = 0.0\nb = 1.0", dense),
            (0.0, -1.0, "uniform", "a = 0.0\nb = 1.0", dense),
            (0.0, 1.0, "two_point", "v1 = -1.0\np = 0.5\nv2 = 1.0", dense),
            (near, lam, "uniform", f"a = {beta}\nb = {beta + 1.0}", dense))):
        calls.clear()
        result = run(make_cfg("ct", L=6, R=3, va=va, vb=va + 1.0, bk=bk, bargs=bargs,
                              extra=f"[ct]\nenergy = {energy!r}\n"), tmp_path / str(k))
        assert result.exit_code == 0, k
        assert calls == [path] * 3, k


def fraction_gate(lam, beta, energy) -> bool:
    """lam^2 + beta^2 >= (1 + |E|)^2 in rational arithmetic."""
    return Fraction(lam) ** 2 + Fraction(beta) ** 2 >= (1 + Fraction(abs(energy))) ** 2


GATE_LAM, GATE_BETA = 2.25, 1.378
# just past the edge: the rounded hypot(lam, beta) - |E| >= 1 passes here
GATE_NEAR = math.hypot(GATE_LAM, GATE_BETA) - 1.0


@pytest.mark.parametrize("lam, beta, energy, inside", [
    (1.5, 0.0, -0.5, True), (1.0, 0.0, 0.0, True), (1.0, -1.0, 0.0, True),
    (1.0, 0.0, 0.5, False), (1.0, 0.0, 5e-324, False), (1.0, 5e-324, 0.0, True),
    (GATE_LAM, GATE_BETA, GATE_NEAR, False), (GATE_LAM, GATE_BETA, -GATE_NEAR, False),
    (GATE_LAM, GATE_BETA, math.nextafter(GATE_NEAR, 0.0), True),
    (GATE_LAM, -GATE_BETA, math.nextafter(GATE_NEAR, 0.0), True)])
def test_gap_gate_decides_the_exact_inequality(lam, beta, energy, inside):
    # the integer gate against a rational oracle at the edges of the slice
    # path: equality, one ulp either side, and the rounded hypot's miss
    assert experiments._one_inside_edge(lam, beta, energy) == inside
    assert fraction_gate(lam, beta, energy) == inside


@settings(max_examples=400, deadline=None)
@example(5e-324, 5e-324, 5e-324)
@example(1.7976931348623157e308, 1.7976931348623157e308, 1.7976931348623157e308)
@example(1.7976931348623157e308, 0.0, 2.2250738585072014e-308)
@example(1.0, 2.2250738585072014e-308, 0.0)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_gap_gate_matches_the_fraction_oracle(lam, beta, energy):
    # subnormal and huge values included: numerators and denominators of
    # thousands of bits stay exact integers
    assert experiments._one_inside_edge(lam, beta, energy) == fraction_gate(lam, beta, energy)
    # near the edge too: the energy at which the rounded test turns over
    edge = math.hypot(lam, beta) - 1.0
    for e in (edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)):
        if math.isfinite(e):
            assert experiments._one_inside_edge(lam, beta, e) == fraction_gate(lam, beta, e)


@pytest.mark.parametrize("kind", ["ct", "green"])
@pytest.mark.parametrize("k, rel", [(0, 2e-8), (2, 5e-8), (0, 1e-7)])
def test_dense_resolvents_keep_their_contract_just_off_the_spectrum(kind, k, rel,
                                                                    tmp_path):
    # E a few spectral guards above eigenvalue k of the constant block: the
    # guard admits it, and ||G|| ~ 1e7 / ||m|| scales the rounding of the
    # dense solve, which the residual contract must follow without raising
    text = make_text(kind, L=16, R=3, vk="point_mass", vargs="c = 1.5",
                     bk="point_mass", bargs="c = 0.5")
    cube = model.CubeSpec(1, 16)
    n = cube.site_count
    eigenvalues = np.linalg.eigvalsh(spectral.plain_block(
        disorder.FieldSample(cube, np.full(n, 1.5), np.full(n, 0.5), 0)))
    energy = float(eigenvalues[k] + rel * np.abs(eigenvalues).max())
    result = run(parse_config(text + f"[{kind}]\nenergy = {energy!r}\n"), tmp_path)
    reports = {r.name: r for r in result.reports}
    assert all(r.passed and not r.vacuous for r in reports.values())
    assert reports.keys() == ({"combes_thomas"} if kind == "ct" else {"gri_residual"})


@pytest.mark.parametrize("d, L, chunk", [(1, 16, None), (2, 7, None), (2, 7, 1000)],
                         ids=["1-16", "2-7", "2-7-1000"])
def test_ct_profile_lines_match_write_csv_of_the_rows(d, L, chunk, tmp_path,
                                                      monkeypatch):
    # with chunk set, the 49^2 = 2401 pairs of the d = 2 cube are written in
    # chunks of 1000, two boundaries falling mid-table
    if chunk is not None:
        monkeypatch.setattr(experiments, "PROFILE_CHUNK", chunk)
    profiles = {}
    real = green.decay_profile
    monkeypatch.setattr(green, "decay_profile", lambda f, *a: profiles.setdefault(
        f.realization_index, real(f, *a)))
    text = make_text("ct", L=L, R=3, va=0.0, vb=2.0,
                     extra="[ct]\nenergy = 0.3\n").replace("\nd = 1\n", f"\nd = {d}\n")
    assert run(parse_config(text), tmp_path).exit_code == 0
    p = profiles[0]
    s = oracles.sites(model.CubeSpec(d, L))
    rows = [(site_label(s[i]), site_label(s[j]), k, v, c) for (i, j), k, v, c in zip(
        ((i, j) for i in range(len(s)) for j in range(len(s))), p.dist.tolist(),
        p.norm.tolist(), p.bound_by_dist[p.dist].tolist())]
    old = write_csv(tmp_path / "old.csv", ["n", "m", "dist1", "block_norm",
                                            "ct_bound"], rows)
    assert (tmp_path / "ct_profile.csv").read_bytes() == old.read_bytes()


@pytest.mark.parametrize("d, L", [(1, 21), (2, 5)])
def test_correlator_lines_match_write_csv_of_the_rows(d, L, tmp_path, monkeypatch):
    # the centre and every site, labelled by their coordinates, cell by cell
    profiles = []
    real = asymptotics.eigenfunction_correlator
    monkeypatch.setattr(asymptotics, "eigenfunction_correlator",
                        lambda *a: profiles.append(real(*a)) or profiles[-1])
    text = _d2(EIGEN_COUNT_CASES["correlator"]) if d == 2 else \
        EIGEN_COUNT_CASES["correlator"]
    assert run(parse_config(text.replace("L = 21", f"L = {L}")), tmp_path).exit_code == 0
    (p,) = profiles
    s = oracles.sites(model.CubeSpec(d, L))
    rows = [(site_label([0] * d), site_label(m), oracles.dist1([0] * d, m), q, e)
            for m, q, e in zip(s, p.mean_q.tolist(), p.stderr_q.tolist())]
    old = write_csv(tmp_path / "old.csv", ["n", "m", "dist1", "mean_Q", "stderr_Q"],
                    rows)
    assert (tmp_path / "correlator.csv").read_bytes() == old.read_bytes()


def test_cli_reports_vacuous_checks(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(BASE.format(kind="suitability", L=12, R=10,
                                    vk="uniform", vargs="a = 1.0\nb = 2.0",
                                    bk="point_mass", bargs="c = 0.0")
                        + "[suitability]\nlengths = 6 12\ntheta = 1.5\n"
                          "energies = 0.0\n")
    code = cli_main(["suitability", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "[VACUOUS] gap_event_implies_suitable: 0 instances" in out
    assert "[PASS] suitability_monotone_theta=1.5: 1 instances" in out
    record = json.loads((tmp_path / "out/run.json").read_text())
    reports = [r for r in record["reports"]
               if r["name"] == "gap_event_implies_suitable"]
    assert reports and all(r["vacuous"] and r["passed"] for r in reports)
    assert all(r["vacuous"] == (r["instances"] == 0) for r in record["reports"])


def test_manifest_comparison_names_what_differs_in_a_run():
    import manifests
    theirs = {"config_hash": "d", "validate": [], "exit_code": 2,
              "outputs": [{"name": "ct.csv", "sha256": "a"},
                          {"name": "gone.csv", "sha256": "b"}],
              "reports": [{"name": "combes_thomas", "instances": 3},
                          {"name": "ct_rate", "instances": 1}],
              "summary": {"alpha_hat": 0.5, "c0_hat": 9.8, "edge": 1.0,
                          "threshold_L": {"1.5": 3475038}, "zeta": math.nan}}
    ours = {"config_hash": "e", "validate": ["tails: epsilons must be > 0"],
            "exit_code": 0, "outputs": [{"name": "ct.csv", "sha256": "c"}],
            "reports": [{"name": "combes_thomas", "instances": 4},
                        {"name": "new", "instances": 0}],
            "summary": {"alpha_hat": 0.5000000000000001, "edge": 1.0,
                        "fit_error": "too few points",
                        "threshold_L": {"1.5": 3475044}, "zeta": math.nan}}
    assert manifests.changes(ours, theirs) == [
        "config hash changed", "validate changed", "exit code 2 -> 0", "output ct.csv changed", "output gone.csv removed",
        "report combes_thomas changed", "report ct_rate removed", "report new added",
        "summary alpha_hat changed", "summary c0_hat removed", "summary fit_error added",
        "summary threshold_L changed"]
    assert manifests.changes(theirs, theirs) == []
    assert manifests.changes(dict(theirs, validate=["dimension must be >= 1, got 0"]),
                             theirs) == ["validate changed"]
