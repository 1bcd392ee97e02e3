import numpy as np
import pytest

from blocklab.disorder import DisorderConfig, FieldSample, SiteMeasure, sample_field
from blocklab.lattice import CubeSpec
from blocklab.operators import assemble_block, build_h, build_h0
from blocklab.spectral import (count_leq, count_window, counting,
                               deterministic_radius, dos_histogram, eigensolve,
                               ids_monte_carlo, nondegeneracy_check,
                               plain_block, radius_check, spectral_gap,
                               symmetry_check)

UNIT = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 17)
ZERO = DisorderConfig(SiteMeasure.point_mass(0), SiteMeasure.point_mass(0), 0)


def two_by_two():
    cube = CubeSpec(1, 2)
    f = FieldSample(cube, np.array([1.0]), np.array([2.0]), 0)
    return assemble_block(build_h(cube, "simple", f), f)


def test_eigensolve_2x2():
    s = eigensolve(two_by_two())
    assert s.eigenvalues == pytest.approx([-np.sqrt(13), np.sqrt(13)])


def test_eigensolve_toeplitz_oracle():
    s = eigensolve(build_h0(CubeSpec(1, 3), "simple"))
    assert s.eigenvalues == pytest.approx([2 - np.sqrt(2), 2, 2 + np.sqrt(2)])


def test_eigensolve_vectors_residual():
    op = plain_block(CubeSpec(1, 9), UNIT, 0)
    s = eigensolve(op, want_vectors=True)
    resid = np.max(np.abs(op.matrix @ s.eigenvectors
                          - s.eigenvectors * s.eigenvalues))
    assert resid <= 1e-10 * s.norm
    assert np.allclose(s.eigenvectors.T @ s.eigenvectors,
                       np.eye(s.dim), atol=1e-12)


def test_eigensolve_rejects_nonfinite():
    op = plain_block(CubeSpec(1, 3), UNIT, 0)
    op.matrix[0, 0] = np.nan
    with pytest.raises(ValueError):
        eigensolve(op)


def test_block_with_zero_coupling_symmetric_union():
    cube = CubeSpec(1, 7)
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.point_mass(0), 3)
    f = sample_field(cube, cfg, 0)
    h = build_h(cube, "simple", f)
    s = eigensolve(assemble_block(h, f))
    scalar = np.linalg.eigvalsh(h.matrix)
    assert s.eigenvalues == pytest.approx(
        np.sort(np.concatenate([scalar, -scalar])))


def test_counting_basics():
    s = eigensolve(two_by_two())
    assert counting(s, 0.0) == 0.5
    assert counting(s, 100.0) == 1.0
    assert counting(s, -100.0) == 0.0
    # closed interval ]-inf, E]: an eigenvalue at exactly E is included
    assert count_leq(s, float(s.eigenvalues[-1])) == 2


def test_counting_monotone_right_continuous():
    s = eigensolve(plain_block(CubeSpec(1, 11), UNIT, 1))
    grid = np.linspace(-8, 8, 200)
    vals = [counting(s, e) for e in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    e0 = s.eigenvalues[3]
    assert count_leq(s, e0) == count_leq(s, e0 + 1e-12)


def test_count_window_half_open():
    s = eigensolve(two_by_two())
    lo, hi = (float(e) for e in s.eigenvalues)
    assert count_window(s, lo, hi) == 1         # left closed, right open
    assert count_window(s, lo, hi + 1e-9) == 2


def test_spectral_gap():
    s = eigensolve(two_by_two())
    g_minus, g_plus = spectral_gap(s)
    assert g_minus == pytest.approx(-np.sqrt(13))
    assert g_plus == pytest.approx(np.sqrt(13))


def test_gap_with_v_bounded_below():
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 5)
    for r in range(30):
        s = eigensolve(plain_block(CubeSpec(1, 12), cfg, r))
        assert np.min(np.abs(s.eigenvalues)) >= 1.0


def test_gap_with_both_bounded_below():
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(1, 2), 5)
    for r in range(30):
        s = eigensolve(plain_block(CubeSpec(1, 12), cfg, r))
        assert np.min(np.abs(s.eigenvalues)) >= np.sqrt(2.0)


def test_structural_checks():
    for r in range(20):
        s = eigensolve(plain_block(CubeSpec(2, 3), UNIT, r))
        assert symmetry_check(s).passed
        assert nondegeneracy_check(s).passed
        assert radius_check(s, deterministic_radius(2, UNIT.mu_V, UNIT.mu_B)).passed


def test_radius_value():
    assert deterministic_radius(1, SiteMeasure.uniform(-1, 2),
                                SiteMeasure.uniform(0, 3)) == 4 + 2 + 3


def test_ids_deterministic_case():
    est = ids_monte_carlo(ZERO, CubeSpec(1, 5), np.linspace(-5, 5, 21), 4)
    assert np.all(est.stderr_N == 0.0)
    s = eigensolve(plain_block(CubeSpec(1, 5), ZERO, 0))
    assert est.mean_N == pytest.approx([counting(s, e) for e in est.grid])


def test_ids_single_realization():
    grid = np.linspace(-4, 4, 9)
    est = ids_monte_carlo(UNIT, CubeSpec(1, 7), grid, 1)
    s = eigensolve(plain_block(CubeSpec(1, 7), UNIT, 0))
    assert est.mean_N == pytest.approx([counting(s, e) for e in grid])


def test_ids_monotone_and_bounded():
    est = ids_monte_carlo(UNIT, CubeSpec(1, 9), np.linspace(-6, 6, 31), 40)
    assert np.all(np.diff(est.mean_N) >= 0)
    assert np.all((est.mean_N >= 0) & (est.mean_N <= 1))


def test_ids_half_at_gap_edge():
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 11)
    est = ids_monte_carlo(cfg, CubeSpec(1, 20), [0.0], 25)
    assert est.mean_N[0] == pytest.approx(0.5)
    assert est.stderr_N[0] == 0.0


def test_dos_zero_outside_radius():
    hist = dos_histogram(UNIT, CubeSpec(1, 9), [50.0, 60.0, 70.0], 5)
    assert np.all(hist.density == 0.0)


def test_dos_normalization():
    r = deterministic_radius(1, UNIT.mu_V, UNIT.mu_B)
    edges = np.linspace(-r, r, 61)
    hist = dos_histogram(UNIT, CubeSpec(1, 9), edges, 10)
    assert np.sum(hist.density * hist.widths) == pytest.approx(1.0)


def test_dos_rejects_bad_edges():
    with pytest.raises(ValueError):
        dos_histogram(UNIT, CubeSpec(1, 5), [0.0, 0.0, 1.0], 2)


def test_self_averaging_variance_trend():
    # variance of the counting function shrinks with volume
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 23)
    R = 160
    variances = []
    for L in (20, 40, 80):
        est = ids_monte_carlo(cfg, CubeSpec(1, L), [1.0], R)
        variances.append(est.variance()[0])
    # var-of-var slack ~ var * sqrt(2/(R-1)) per term, 3 sigma
    for small, large in zip(variances[1:], variances):
        slack = 3.0 * np.hypot(small, large) * np.sqrt(2.0 / (R - 1))
        assert small <= large + slack
