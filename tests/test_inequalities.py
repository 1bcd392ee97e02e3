import json

import numpy as np
import pytest

from blocklab import inequalities, spectral
from blocklab.asymptotics import TailCurve, tail_monotonicity_check
from blocklab.disorder import FieldSample
from blocklab.inequalities import (FH_MIN_SPACING, CheckReport, EdgeSpectra,
                                   beta_map_check, bracketing_gap_check,
                                   dos_bound_energy_dependent, edge_spectra,
                                   feynman_hellmann_report, fh_derivative_sums,
                                   half_half_check, interlacing_check,
                                   wegner_finite_volume)
from blocklab.model import CubeSpec, DisorderConfig, PreconditionError, SiteMeasure
from blocklab.operators import assemble_bracketing, block, build_h, build_h0
from blocklab.spectral import dos_histogram, eigensolve, plain_block
from oracles import (count_window, fh_derivative_sums_fd, minmaxmax_lambda1,
                     sample_field)

POS = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 77)


def constant_field(cube, v, b):
    n = cube.site_count
    return FieldSample(cube, np.full(n, float(v)), np.full(n, float(b)), 0)


# -- CheckReport ----------------------------------------------------------------


def loop_counts(slacks):
    """Counts of the one-slack-at-a-time rule: a slack that is not >= 0,
    NaN included, is a violation, and a NaN makes the worst slack NaN."""
    instances, violations, worst = 0, 0, np.inf
    for s in slacks:
        instances += 1
        worst = np.nan if np.isnan(s) or np.isnan(worst) else min(worst, s)
        if not s >= 0.0:
            violations += 1
    return instances, violations, worst


@pytest.mark.parametrize("slacks", [
    [], [0.5], [-1e-300], [3.0, -2.0, 0.0, -7.5, 1e-12, -7.5],
    [np.nan, 1.0, -0.25, np.nan], [np.nan], [np.inf, -np.inf, 2.0],
])
def test_record_array_matches_per_element_loop(slacks):
    arr = CheckReport("a", instances=2, worst_margin=0.125)
    arr.record(np.array(slacks, dtype=float))
    one = CheckReport("a", instances=2, worst_margin=0.125)
    for s in slacks:
        one.record(s)
    n, v, worst = loop_counts(slacks)
    for rep in (arr, one):
        assert (rep.instances, rep.violations) == (2 + n, v)
        np.testing.assert_equal(rep.worst_margin,
                                np.nan if np.isnan(worst) else min(0.125, worst))
        assert rep.passed == (v == 0)
    assert json.dumps(arr.to_json()) == json.dumps(one.to_json())


def test_nan_slack_fails_the_check():
    # a NaN in the measured curve makes two of its three differences NaN
    curve = TailCurve(np.array([0.1, 0.2, 0.3, 0.4]),
                      np.array([0.01, np.nan, 0.03, 0.04]), np.zeros(4),
                      np.full(4, 12), np.zeros(4, dtype=bool), 1.0, 10)
    rep = tail_monotonicity_check(curve)
    assert (rep.instances, rep.violations) == (3, 2)
    assert not rep.passed and np.isnan(rep.worst_margin)
    total = CheckReport("tail_monotonicity", worst_margin=0.5).absorb(rep)
    assert not total.passed and np.isnan(total.worst_margin)


# -- Wegner -------------------------------------------------------------------


def test_wegner_bound_holds():
    rep, = wegner_finite_volume(POS, CubeSpec(1, 20), [(2.0, 0.1)], R=60)
    assert rep.passed
    n = CubeSpec(1, 20).site_count
    assert rep.parameters["bound"] == pytest.approx(8 * 0.1 * n * 4.0)
    assert rep.parameters["mean"] < rep.parameters["bound"]


def test_wegner_small_window_ratio_stays_bounded():
    n = CubeSpec(1, 20).site_count
    reps = wegner_finite_volume(POS, CubeSpec(1, 20),
                                [(2.0, eps) for eps in (0.2, 0.1, 0.05)], R=80)
    for rep in reps:
        assert rep.parameters["mean"] / rep.parameters["eps"] <= 8 * n * 4.0


def test_wegner_windows_match_per_window_loop():
    cube = CubeSpec(1, 12)
    windows = [(1.0, 0.1), (2.0, 0.3), (3.0, 0.5)]
    R = 15
    reps = wegner_finite_volume(POS, cube, windows, R)
    assert len(reps) == len(windows)
    for rep, (e, eps) in zip(reps, windows):
        counts = np.array([count_window(
            eigensolve(plain_block(sample_field(cube, POS, r))), e - eps, e + eps)
            for r in range(R)], dtype=float)
        p = rep.parameters
        assert (p["E"], p["eps"], p["R"]) == (e, eps, R)
        assert p["mean"] == counts.mean()
        assert p["stderr"] == counts.std(ddof=1) / np.sqrt(R)


def test_wegner_samples_and_solves_each_realization_once(monkeypatch):
    solves, samples = [], []
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, **kw: solves.append(1))
    # the count kernel of spectral.ensemble_counts samples each block
    real_sample = spectral.sample_fields

    def sampler(cube, config):
        draw = real_sample(cube, config)
        return lambda rs: samples.extend(rs) or draw(rs)
    monkeypatch.setattr(spectral, "sample_fields", sampler)
    windows = [(e, eps) for e in (1.0, 2.0, 3.0) for eps in (0.1, 0.2)]
    # a bad window anywhere is rejected before any realization is sampled
    with pytest.raises(PreconditionError, match="E=0.3, eps=0.2"):
        wegner_finite_volume(POS, CubeSpec(1, 12), windows + [(0.3, 0.2)], R=7)
    assert solves == samples == []
    reps = wegner_finite_volume(POS, CubeSpec(1, 12), windows, R=7)
    assert len(reps) == 6
    # sampled once each and counted by inertia at d = 1: no dense solve
    assert samples == list(range(7))
    assert solves == []


def test_wegner_rejects_point_mass():
    bad = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.point_mass(0), 0)
    with pytest.raises(PreconditionError):
        wegner_finite_volume(bad, CubeSpec(1, 10), [(2.0, 0.1)], 5)


def test_wegner_rejects_negative_support():
    bad = DisorderConfig(SiteMeasure.uniform(-1, 1), SiteMeasure.uniform(0, 1), 0)
    with pytest.raises(PreconditionError):
        wegner_finite_volume(bad, CubeSpec(1, 10), [(2.0, 0.1)], 5)


def test_wegner_rejects_wide_window():
    with pytest.raises(PreconditionError):
        wegner_finite_volume(POS, CubeSpec(1, 10), [(0.3, 0.2)], R=5)


def test_dos_energy_bound_v_hypothesis():
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 3)
    rep = dos_bound_energy_dependent(
        dos_histogram(cfg, CubeSpec(1, 16), np.linspace(-7, 7, 29), R=40))
    assert rep.passed


def test_dos_energy_bound_b_hypothesis():
    cfg = DisorderConfig(SiteMeasure.point_mass(0), SiteMeasure.uniform(1, 2), 3)
    rep = dos_bound_energy_dependent(
        dos_histogram(cfg, CubeSpec(1, 16), np.linspace(-7, 7, 29), R=40))
    assert rep.passed


def test_dos_energy_bound_rejects_when_no_hypothesis():
    with pytest.raises(PreconditionError):
        dos_bound_energy_dependent(
            dos_histogram(POS, CubeSpec(1, 10), np.linspace(-5, 5, 11), 5))


def test_dos_energy_bound_empty_bins_trivially_pass():
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 3)
    rep = dos_bound_energy_dependent(
        dos_histogram(cfg, CubeSpec(1, 10), [40.0, 50.0], R=5))
    assert rep.passed and rep.worst_margin > 0


# -- Feynman-Hellmann ---------------------------------------------------------


def test_fh_closed_form_single_site():
    cube = CubeSpec(1, 2)
    f = constant_field(cube, 1.0, 2.0)
    ev, sums = fh_derivative_sums(build_h(cube, "simple", f.V), f)
    assert ev[1] == pytest.approx(np.sqrt(13))
    assert sums[1] == pytest.approx(5 / np.sqrt(13), abs=1e-8)


def test_fh_boundary_case_equals_one():
    cube = CubeSpec(1, 2)
    f = constant_field(cube, 0.0, 0.0)
    val = fh_derivative_sums(build_h(cube, "simple", f.V), f)[1][1]
    assert val == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("cube", [CubeSpec(1, 12), CubeSpec(2, 5),
                                  CubeSpec(3, 3)])
def test_fh_sums_match_finite_differences(cube):
    for r in range(3):
        f = sample_field(cube, POS, r)
        ev, sums = fh_derivative_sums(build_h(cube, "simple", f.V), f)
        assert np.allclose(ev, eigensolve(plain_block(f)).eigenvalues,
                           rtol=0, atol=1e-12)
        assert np.min(np.diff(ev)) > FH_MIN_SPACING
        assert np.max(np.abs(sums - fh_derivative_sums_fd(cube, f))) <= 1e-7


def test_fh_rejects_negative_b():
    cube = CubeSpec(1, 2)
    f = constant_field(cube, 1.0, -2.0)
    with pytest.raises(PreconditionError):
        feynman_hellmann_report(f, tol=1e-6)


def test_fh_report_builds_h_once(monkeypatch):
    built = []
    real = inequalities.build_h
    monkeypatch.setattr(inequalities, "build_h",
                        lambda *a: built.append(a[1]) or real(*a))
    cube = CubeSpec(1, 8)
    f = sample_field(cube, POS, 1)
    rep = feynman_hellmann_report(f, tol=1e-6)
    assert built == ["simple"]
    # the sums read off the prebuilt H are those built from scratch
    ev, sums = fh_derivative_sums(real(cube, "simple", f.V), f)
    assert rep.instances == int(np.count_nonzero(ev > 0.0)) - rep.preconditions_failed


def test_fh_random_fields_all_above_one():
    for r in range(6):
        f = sample_field(CubeSpec(1, 6), POS, r)
        rep = feynman_hellmann_report(f, tol=1e-6)
        assert rep.passed
        assert rep.worst_margin >= 0.0


# -- interlacing, beta map, half-half -----------------------------------------


def test_interlacing_equality_at_constant_b():
    cube = CubeSpec(1, 6)
    f = constant_field(cube, 0.5, 1.0)
    rep = interlacing_check(edge_spectra(f, beta=1.0))
    assert rep.passed
    assert rep.worst_margin == pytest.approx(1e-10, abs=1e-12)


def test_interlacing_random():
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(1, 2), 5)
    for r in range(25):
        f = sample_field(CubeSpec(1, 8), cfg, r)
        assert interlacing_check(edge_spectra(f, beta=1.0)).passed


def test_interlacing_beta_zero_dominates_scalar():
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 9)
    cube = CubeSpec(1, 8)
    for r in range(10):
        f = sample_field(cube, cfg, r)
        assert interlacing_check(edge_spectra(f, beta=0.0)).passed
        h = build_h(cube, "simple", f.V)
        lam_pos = eigensolve(plain_block(f)).eigenvalues[len(h):]
        scalar = np.sort(np.abs(np.linalg.eigvalsh(h)))
        assert np.all(lam_pos >= scalar - 1e-10)


def test_interlacing_rejects_b_below_beta():
    cube = CubeSpec(1, 6)
    f = constant_field(cube, 1.0, 0.5)
    with pytest.raises(PreconditionError):
        interlacing_check(edge_spectra(f, beta=1.0))


def test_beta_map_single_site():
    cube = CubeSpec(1, 2)
    f = constant_field(cube, 1.0, 0.0)
    assert beta_map_check(edge_spectra(f, 2.0)).passed


def test_beta_map_toeplitz_frozen_values():
    h = build_h0(CubeSpec(1, 3), "simple")
    s = eigensolve(block(h, 1.0, h))
    e = np.array([2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)])
    expected = np.sort(np.concatenate([np.sqrt(e ** 2 + 1), -np.sqrt(e ** 2 + 1)]))
    assert s.eigenvalues == pytest.approx(expected)
    f = constant_field(CubeSpec(1, 3), 0.0, 0.0)
    assert beta_map_check(edge_spectra(f, 1.0)).passed


def test_beta_map_zero_coupling():
    cube = CubeSpec(2, 3)
    f = sample_field(cube, POS, 4)
    assert beta_map_check(edge_spectra(f, 0.0)).passed


def test_beta_map_invariant_under_site_relabeling():
    cube = CubeSpec(1, 5)
    f = sample_field(cube, POS, 2)
    h = build_h(cube, "simple", f.V)
    perm = np.array([3, 0, 4, 1, 2])
    relabeled = h[np.ix_(perm, perm)]
    b = f.B[perm]
    es = EdgeSpectra(f.V[perm], b, 0.7, np.linalg.eigvalsh(relabeled),
                     eigensolve(block(relabeled, np.diag(b), relabeled)).eigenvalues,
                     eigensolve(block(relabeled, 0.7, relabeled)).eigenvalues)
    assert beta_map_check(es).passed


def test_half_half_exact_count():
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(0, 1), 21)
    cube = CubeSpec(1, 10)
    for r in range(30):
        f = sample_field(cube, cfg, r)
        rep = half_half_check(edge_spectra(f, beta=0.0), lam=1.0)
        assert rep.passed


def test_half_half_block_diagonal_case():
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 2)
    cube = CubeSpec(1, 8)
    f = sample_field(cube, cfg, 0)
    assert half_half_check(edge_spectra(f, beta=0.0), lam=1.0).passed


def test_half_half_rejects_v_below_lam():
    cube = CubeSpec(1, 8)
    f = sample_field(cube, POS, 0)      # V in [0, 1]
    with pytest.raises(PreconditionError):
        half_half_check(edge_spectra(f, beta=0.0), lam=0.5)


# -- min-max-max ---------------------------------------------------------------


def test_minmaxmax_2x2():
    assert minmaxmax_lambda1([[3.0]], [[2.0]], [[3.0]]) == pytest.approx(
        np.sqrt(13), abs=1e-9)


def test_minmaxmax_matches_beta_reference():
    h = build_h0(CubeSpec(1, 3), "simple")
    beta = 1.3
    val = minmaxmax_lambda1(h, beta * np.eye(3), h, seed=4)
    e_min = 2 - np.sqrt(2)
    assert val == pytest.approx(np.sqrt(e_min ** 2 + beta ** 2), abs=1e-6)


def test_minmaxmax_random_spd_vs_eigensolve():
    rng = np.random.default_rng(0)
    for trial in range(12):
        n = int(rng.integers(1, 5))
        q = rng.standard_normal((n, n))
        a = q @ q.T + 0.3 * np.eye(n)
        d = a if trial % 2 == 0 else \
            (lambda m: m @ m.T + 0.3 * np.eye(n))(rng.standard_normal((n, n)))
        b = rng.standard_normal((n, n))
        b = 0.5 * (b + b.T)
        blk = np.block([[a, b], [b, -d]])
        top = np.max(np.linalg.eigvalsh(-d))
        oracle = np.linalg.eigvalsh(blk)
        oracle = oracle[oracle > top][0]
        est = minmaxmax_lambda1(a, b, d, seed=trial)
        assert est == pytest.approx(oracle, abs=1e-6)


def test_minmaxmax_rejects_bad_hypothesis():
    with pytest.raises(PreconditionError):
        minmaxmax_lambda1([[1.0]], [[0.0]], [[-2.0]])
    with pytest.raises(PreconditionError):
        minmaxmax_lambda1(np.eye(9), np.zeros((9, 9)), np.eye(9))


def test_minmaxmax_budget_exhaustion():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((3, 3))
    a = q @ q.T + 0.3 * np.eye(3)
    with pytest.raises(RuntimeError):
        minmaxmax_lambda1(a, np.eye(3), a, budget=3)


# -- bracketing ----------------------------------------------------------------


def test_bracketing_gap_constant_fields():
    cube = CubeSpec(1, 8)
    f = constant_field(cube, 1.0, 1.0)
    rep = bracketing_gap_check(f, lam=1.0, beta=1.0)
    assert rep.passed
    # equality can only occur at the degenerate Neumann ground state
    ev = eigensolve(assemble_bracketing(cube, f.V, f.B)).eigenvalues
    pos = ev[ev > 0]
    assert np.all(pos >= np.sqrt(2.0) - 1e-12)


def test_bracketing_gap_random():
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(1, 2), 6)
    for r in range(25):
        f = sample_field(CubeSpec(1, 10), cfg, r)
        assert bracketing_gap_check(f, 1.0, 1.0).passed


def test_bracketing_counting_extremes():
    cube = CubeSpec(1, 8)
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(1, 2), 10)
    f = sample_field(cube, cfg, 0)
    s = eigensolve(assemble_bracketing(cube, f.V, f.B))
    r = 4 + 2 + 2
    assert -r < s.eigenvalues[0] and s.eigenvalues[-1] <= r
