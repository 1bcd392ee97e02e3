import json
import math
import os
import platform
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
import scipy

import blocklab
from blocklab import blas, green, harness, inequalities, spectral
from blocklab.cli import main as cli_main
from blocklab.harness import (config_to_text, parse_config, realization_mapper,
                              run, validate, write_csv)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

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


# lam above inf supp mu_V: half-half and bracketing skip 2 of 10 realizations
INTERLACE_SKIPS = make_text("interlace", L=8, R=10,
                            extra="[interlace]\nlam = 0.05\n")


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


def test_validate_clean_config():
    cfg = make_cfg("wegner", va=0.0, vb=1.0,
                   extra="[wegner]\nenergies = 2.0\nepsilons = 0.1\n")
    assert validate(cfg) == []


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


def test_validate_matrix_cap():
    cfg = make_cfg("spectrum", L=5000)
    assert any("hard cap" in p for p in validate(cfg))


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


def test_worker_count_does_not_change_output(tmp_path, monkeypatch):
    # two usable CPUs, so that more than one worker starts a real pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    text = BASE.format(kind="ids", L=9, R=12, vk="uniform",
                       vargs="a = 0.0\nb = 1.0",
                       bk="uniform", bargs="a = 0.0\nb = 1.0") \
        + "[ids]\nenergies = -2 -1 0 1 2\n"
    cfg1 = parse_config(text, workers=1)
    cfg2 = parse_config(text, workers=4)
    run(cfg1, tmp_path / "w1")
    run(cfg2, tmp_path / "w4")
    assert (tmp_path / "w1/ids.csv").read_bytes() == \
        (tmp_path / "w4/ids.csv").read_bytes()

    tails = BASE.format(kind="tails", L=15, R=24, vk="uniform",
                        vargs="a = 1.0\nb = 2.0",
                        bk="point_mass", bargs="c = 0.0") \
        + ("[tails]\nepsilons = 0.3 0.4 0.5\nlengths = 15 15 15\n"
           "lower_bound = true\nlower_epsilons = 0.75 1.0\n"
           "lower_realizations = 2000\nc0_lengths = 8 16\n")
    results = [run(parse_config(tails, workers=w), tmp_path / f"tails{w}")
               for w in (1, 2)]
    assert [r.exit_code for r in results] == [0, 0]
    assert [r.environment["pool_size"] for r in results] == [1, 2]
    for name in ("tails.csv", "tails_lower.csv"):
        assert (tmp_path / "tails1" / name).read_bytes() == \
            (tmp_path / "tails2" / name).read_bytes()

    # dim 242: dense resolvents large enough that a threaded LAPACK call
    # rounds differently from a single-threaded one
    ct = BASE.format(kind="ct", L=12, R=4, vk="uniform",
                     vargs="a = 1.0\nb = 2.0",
                     bk="uniform", bargs="a = 0.0\nb = 1.0") \
        .replace("\nd = 1\n", "\nd = 2\n") + "[ct]\nenergy = 0.0\n"
    for w in (1, 2):
        assert run(parse_config(ct, workers=w), tmp_path / f"ct{w}").exit_code == 0
    for name in ("ct.csv", "ct_profile.csv"):
        assert (tmp_path / "ct1" / name).read_bytes() == \
            (tmp_path / "ct2" / name).read_bytes()

    # per-realization CheckReports cross the pickle boundary, precondition
    # skips included (the interlace case skips half-half and bracketing)
    green_2d = make_text("green", L=7, R=6, va=1.0, vb=2.0,
                         extra="[green]\nenergy = 0.3\nlengths = 2 4 7\n") \
        .replace("\nd = 1\n", "\nd = 2\n")
    for kind, text in (("interlace", INTERLACE_SKIPS),
                       ("sli_edi", make_text("sli-edi", L=9, R=6, va=1.0,
                                             vb=2.0)),
                       ("fh", make_text("fh", L=6, R=5)),
                       ("green", green_2d),
                       ("correlator", make_text(
                           "correlator", L=21, R=6, va=0.0, vb=5.0,
                           extra="[correlator]\ninterval = -1.5 1.5\n")),
                       # theta < 0: the gap-event implication asserts
                       ("suitability", make_text(
                           "suitability", L=12, R=8, vk="two_point",
                           vargs="v1 = 1.0\np = 0.2\nv2 = 3.0",
                           bk="point_mass", bargs="c = 0.0",
                           extra="[suitability]\nlengths = 6 12\ntheta = -2 0.5\n"
                                 "energies = 0.0 1.2\n")),
                       ("gap", make_text("gap", L=8, R=6, va=1.0, vb=2.0,
                                         bargs="a = 1.0\nb = 2.0"))):
        results = [run(parse_config(text, workers=w), tmp_path / f"{kind}{w}")
                   for w in (1, 2)]
        assert [r.environment["pool_size"] for r in results] == [1, 2]
        assert (tmp_path / f"{kind}1" / f"{kind}.csv").read_bytes() == \
            (tmp_path / f"{kind}2" / f"{kind}.csv").read_bytes()
        assert [r.to_json() for r in results[0].reports] == \
            [r.to_json() for r in results[1].reports]


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
                   "workers_requested": 1, "pool_size": 1,
                   "blas_threads_main": None if before is None else 1,
                   "blas_threads_worker": None}


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


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records how it was built and what
    it was asked to map, runs every task in this process, starts none."""

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.max_workers = max_workers
        self.initializer = initializer
        self.initargs = initargs
        self.chunksizes = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, items)

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


def test_huge_worker_count_is_clamped_to_usable_cpus(tmp_path, monkeypatch):
    pools = []

    def make_pool(**kw):
        pools.append(RecordingPool(**kw))
        return pools[-1]

    monkeypatch.setattr(harness, "ProcessPoolExecutor", make_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    cfg = make_cfg("ids", L=9, R=30, extra="[ids]\nenergies = -1 0 1\n")
    cfg.workers = 10 ** 6
    assert validate(cfg) == []
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    assert len(pools) == 1
    pool = pools[0]
    assert pool.max_workers == 3
    assert (pool.initializer, pool.initargs) == (blas.set_threads, (1,))
    assert pool.chunksizes == [math.ceil(30 / (4 * 3))]
    env = json.loads((tmp_path / "run.json").read_text())["environment"]
    assert (env["workers_requested"], env["pool_size"]) == (10 ** 6, 3)


def _worker_blas_threads(_):
    return blas.threads()


def test_pool_workers_run_one_blas_thread(monkeypatch):
    if blas.threads() is None:
        pytest.skip("no OpenBLAS with a thread-count entry point is loaded")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    main_threads = blas.threads()
    with realization_mapper(2) as mapper:
        assert mapper.size == 2
        assert list(mapper(_worker_blas_threads, range(8))) == [1] * 8
        assert mapper.worker_blas_threads() == 1
    assert blas.threads() == main_threads


def test_every_shipped_config_validates(capsys):
    configs = sorted(CONFIG_DIR.glob("*.ini"))
    assert configs
    failing = [p.name for p in configs
               if cli_main(["validate", "--config", str(p)]) != 0]
    assert failing == []


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


def test_interlace_experiment(tmp_path):
    cfg = make_cfg("interlace", L=8, R=10, va=1.0, vb=2.0,
                   bargs="a = 1.0\nb = 2.0")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    names = {r.name for r in result.reports}
    assert {"interlacing", "half_half", "bracketing_gap",
            "finite_volume_tail_bound", "beta_map"} <= names


def test_interlace_skips_counted_in_their_checks_row(tmp_path):
    result = run(parse_config(INTERLACE_SKIPS), tmp_path)
    assert result.exit_code == 0
    lines = (tmp_path / "interlace.csv").read_text().splitlines()
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert list(rows) == ["interlacing", "half_half", "bracketing_gap",
                          "finite_volume_tail_bound", "beta_map"]
    assert rows["half_half"][4] == "2"
    assert rows["bracketing_gap"][4] == "2"
    skipped = {r.name: r.preconditions_failed for r in result.reports}
    assert skipped["half_half"] == skipped["bracketing_gap"] == 2


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


def test_sli_edi_experiment(tmp_path):
    cfg = make_cfg("sli-edi", L=9, R=6, va=1.0, vb=2.0,
                   bargs="a = 0.0\nb = 1.0")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0


def test_tails_experiment(tmp_path):
    cfg = make_cfg("tails", L=15, R=30, va=1.0, vb=2.0, bk="point_mass",
                   bargs="c = 0.0",
                   extra="[tails]\nepsilons = 0.3 0.4 0.5\nlengths = 15 15 15\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    assert "alpha_hat" in result.summary


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


def test_dos_run_solves_each_realization_once(tmp_path, monkeypatch):
    calls = []
    real = spectral.eigensolve
    monkeypatch.setattr(spectral, "eigensolve",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    cfg = make_cfg("dos", L=16, R=12, va=1.0, vb=2.0,
                   extra="[dos]\nbins = -6 6 30\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    assert len(calls) == 12
    assert [r.name for r in result.reports] == ["dos_bound_uniform",
                                                "dos_bound_energy_dependent"]
    assert all(r.instances == 30 for r in result.reports)


def test_suitability_run_solves_each_realization_once(tmp_path, monkeypatch):
    eighs, solves = [], []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *rest: eighs.append(len(a)) or real(a, *rest))
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1))
    cfg = make_cfg("suitability", L=12, R=6, va=1.0, vb=2.0, bk="point_mass",
                   bargs="c = 0.0",
                   extra="[suitability]\nlengths = 6 12\ntheta = 1.5 3\n"
                         "energies = 0.0 0.5\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    # R x |lengths| eigh calls (dims 10 and 22) serve both thetas
    assert eighs == [10] * 6 + [22] * 6
    assert solves == []
    # rows and reports stay ordered by theta, then length, then energy
    rows = [line.split(",")[:3] for line in
            (tmp_path / "suitability.csv").read_text().splitlines()[1:]]
    assert [(float(t), int(L), float(e)) for t, L, e in rows] == [
        (t, L, e) for t in (1.5, 3.0) for L in (6, 12) for e in (0.0, 0.5)]
    assert [(r.name, r.parameters.get("L")) for r in result.reports] == [
        ("gap_event_implies_suitable", 6), ("gap_event_implies_suitable", 12),
        ("suitability_monotone_theta=1.5", None),
        ("gap_event_implies_suitable", 6), ("gap_event_implies_suitable", 12),
        ("suitability_monotone_theta=3", None)]


def test_green_experiment(tmp_path):
    cfg = make_cfg("green", L=9, R=10, va=1.0, vb=2.0,
                   extra="[green]\nenergy = 0.0\nlengths = 2 5 9\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0


def test_cli_import_does_not_load_scipy_optimize():
    src = str(Path(blocklab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, blocklab.cli; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


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


def test_ct_run_forms_one_resolvent_per_realization(tmp_path, monkeypatch):
    calls = []
    real = green.resolvent
    monkeypatch.setattr(green, "resolvent",
                        lambda *a: calls.append(a[1]) or real(*a))
    cfg = make_cfg("ct", L=10, R=4, va=1.0, vb=2.0, bk="point_mass",
                   bargs="c = 0.0", extra="[ct]\nenergy = 0.0\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == 0
    assert len(calls) == 4
    profile = (tmp_path / "ct_profile.csv").read_text().splitlines()
    assert len(profile) == 1 + 9 ** 2


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
