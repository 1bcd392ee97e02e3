import math

import numpy as np
import pytest

from blocklab import asymptotics
from blocklab.asymptotics import (ZETA_GRID, CorrelatorProfile, TailCurve,
                                  _ct_block_budget,
                                  _ct_distances,
                                  _suitability_geometry, c0_estimate,
                                  correlator_q,
                                  ct_threshold_length, eigenfunction_correlator,
                                  finite_volume_tail_bound, gap_edge,
                                  lower_bound_probability,
                                  lower_bound_scale, stretched_fit,
                                  suitability_norms, suitability_probability,
                                  tail_curve,
                                  tail_exponent_fit, tail_monotonicity_check,
                                  trial_function_energy, wilson_interval)
from blocklab.disorder import DisorderConfig, FieldSample, SiteMeasure
from blocklab.green import resolvent_columns
from blocklab.inequalities import PreconditionError, edge_spectra
from blocklab.lattice import CubeSpec, inner_boundary
from blocklab.operators import MAX_BLOCK_DIM
from blocklab.spectral import eigensolve, ensemble_counts, plain_block
from oracles import (dense_suitability_norm, dist1, eigenpair_suitability_norms,
                     sample_field)

LAM1 = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 51)
GAP2 = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(1, 2), 52)


def constant_field(cube, v, b):
    n = cube.site_count
    return FieldSample(cube, np.full(n, float(v)), np.full(n, float(b)), 0)


# -- gap edge -------------------------------------------------------------------


def test_gap_edge_cases():
    ge = gap_edge(LAM1, d=1)
    assert (ge.lam, ge.beta, ge.edge) == (1.0, 0.0, 1.0)
    assert ge.alpha_upper == 0.5 and ge.alpha_lower == 0.5

    weak = gap_edge(DisorderConfig(SiteMeasure.uniform(0, 1),
                                   SiteMeasure.uniform(1, 2), 0), d=1)
    assert weak.edge == 1.0
    assert weak.alpha_upper == 0.25 and weak.alpha_lower == 0.5

    ge = gap_edge(DisorderConfig(SiteMeasure.uniform(3, 4),
                                 SiteMeasure.uniform(4, 5), 0), d=2)
    assert ge.edge == pytest.approx(5.0)
    assert ge.alpha_upper == 1.0


def test_gap_edge_rejects_negative_lam():
    with pytest.raises(PreconditionError):
        gap_edge(DisorderConfig(SiteMeasure.uniform(-1, 1),
                                SiteMeasure.point_mass(0), 0), d=1)


# -- tail curve -------------------------------------------------------------------


def test_tail_zero_offset_is_exactly_zero():
    curve = tail_curve(LAM1, 1, [0.0, 0.4], R=12, lengths=[15, 15])
    assert curve.delta_n[0] == 0.0
    assert curve.censored[0]


def tail_samples(config, cube, eps_grid, R):
    """N(edge + eps) - 1/2 per realization (rows) and eps (columns), from
    the count kernel that tail_curve reduces."""
    edge = gap_edge(config, cube.d).edge
    counts = ensemble_counts(config, cube, edge + np.asarray(eps_grid), R, "right")
    return counts / (2 * cube.site_count) - 0.5


def test_tail_values_nonnegative_and_bounded():
    eps = [0.2, 0.5, 1.0]
    curve = tail_curve(GAP2, 1, eps, R=20, lengths=[15, 15, 15])
    vals = tail_samples(GAP2, CubeSpec(1, 15), eps, 20)
    assert np.all(vals >= 0.0) and np.all(vals <= 0.5)
    assert curve.delta_n.tolist() == [v.mean() for v in vals.T.copy()]


def test_tail_monotone_within_slack():
    curve = tail_curve(LAM1, 1, [0.3, 0.4, 0.5], R=150)
    assert tail_monotonicity_check(curve).passed


def test_tail_fit_recovers_synthetic_exponent():
    # independent oracle: a curve manufactured with a known exponent
    eps = np.array([0.05, 0.1, 0.2, 0.4])
    alpha = 0.5
    dn = np.exp(-2.0 * eps ** -alpha)
    curve = TailCurve(eps, dn, np.zeros(4), np.full(4, 21), np.zeros(4, bool),
                      1.0, 100)
    fit = tail_exponent_fit(curve)
    assert fit.alpha_hat == pytest.approx(alpha, abs=1e-12)
    assert fit.points_used == 4


def test_tail_fit_excludes_censored_and_large():
    eps = np.array([0.05, 0.1, 0.2, 0.4])
    dn = np.array([0.0, 0.01, 0.05, 0.45])
    curve = TailCurve(eps, dn, np.zeros(4), np.full(4, 21),
                      np.array([True, False, False, False]), 1.0, 100)
    fit = tail_exponent_fit(curve)
    assert fit.points_used == 2
    with pytest.raises(ValueError):
        tail_exponent_fit(TailCurve(eps, np.zeros(4), np.zeros(4),
                                    np.full(4, 21), np.ones(4, bool), 1.0, 10))


def test_finite_volume_tail_bound_equality_at_constant_b():
    cube = CubeSpec(1, 12)
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(1), 3)
    for r in range(10):
        f = sample_field(cube, cfg, r)
        rep = finite_volume_tail_bound(edge_spectra(f, beta=1.0), lam=1.0, eps=0.3)
        assert rep.passed
        assert rep.worst_margin == 0.0      # the chain is an equality here


def test_finite_volume_tail_bound_random():
    cube = CubeSpec(1, 20)
    for r in range(50):
        f = sample_field(cube, GAP2, r)
        assert finite_volume_tail_bound(edge_spectra(f, 1.0), 1.0, eps=0.3).passed


def test_finite_volume_tail_bound_saturates():
    cube = CubeSpec(1, 10)
    f = sample_field(cube, GAP2, 0)
    rep = finite_volume_tail_bound(edge_spectra(f, 1.0), 1.0, eps=50.0)
    assert rep.passed   # both sides count everything


# -- test function -----------------------------------------------------------------


def test_tent_energy_direct_oracle():
    # independent evaluation: <psi, H^D psi> = sum over undirected edges of
    # the squared gradient plus 2 (2d - deg_n) psi_n^2 at boundary sites
    cube = CubeSpec(1, 4)
    sites = cube.sites()
    psi = np.array([cube.L / 2 - abs(s[0]) for s in sites])
    psi = psi / np.linalg.norm(psi)
    val = 0.0
    for i, n in enumerate(sites):
        for j, m in enumerate(sites):
            if j > i and abs(n[0] - m[0]) == 1:
                val += (psi[i] - psi[j]) ** 2
    for i, n in enumerate(sites):
        missing = 2 - sum(1 for m in sites if abs(n[0] - m[0]) == 1)
        val += 2 * missing * psi[i] ** 2
    assert trial_function_energy(cube) == pytest.approx(val, abs=1e-12)
    assert trial_function_energy(cube) == pytest.approx(1.0, abs=1e-12)  # psi is
    # an exact eigenvector of the L=4 Dirichlet matrix with eigenvalue 1


def test_c0_bounded_1d():
    est = c0_estimate([8, 16, 32, 64, 128], d=1)
    assert est.c0_hat < 50
    # nonincreasing trend at large L
    assert est.scaled_values[-1] <= est.scaled_values[0] + 1e-9


def test_c0_bounded_2d():
    est = c0_estimate([8, 16, 24, 40], d=2)
    assert est.c0_hat < 100


def test_lower_bound_scale():
    c0 = 12.0
    L = lower_bound_scale(c0, 0.5)
    assert c0 / L ** 2 < 0.25
    assert c0 / (L - 1) ** 2 >= 0.25


def test_lower_bound_point_masses_probability_one():
    cfg = DisorderConfig(SiteMeasure.point_mass(1.0), SiteMeasure.point_mass(2.0), 0)
    rep = lower_bound_probability(cfg, d=1, eps=0.5, L=7, R=200)
    assert rep.passed
    assert rep.parameters["empirical"] == 1.0
    assert rep.parameters["bound"] == 1.0


def test_lower_bound_uniform_feasible():
    # mass_V([1, 1+eps/4[) = eps/4 = 0.125; mass_B([-eps/4, eps/4[) on
    # uniform(0, 1/4) covers half that support, 0.5
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(0, 0.25), 9)
    rep = lower_bound_probability(cfg, d=1, eps=0.5, L=7, R=20000)
    p = rep.parameters
    assert p["bound"] == pytest.approx(0.125 ** 7 * 0.5 ** 7)
    assert not p["censored"]
    assert rep.passed


def test_lower_bound_censoring():
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(0, 2), 9)
    rep = lower_bound_probability(cfg, d=1, eps=0.01, L=40, R=200)
    assert rep.parameters["censored"]
    assert rep.preconditions_failed == 1


def test_lower_bound_cube_over_the_cap_is_not_sampled(monkeypatch):
    # eps = 1e-4 at d = 2 gives L = 818, 667,489 sites: a precondition
    # failure, decided before the test function or any field is built
    L = lower_bound_scale(c0_estimate([8, 16, 32], d=2).c0_hat, 1e-4)
    assert CubeSpec(2, L).site_count > MAX_BLOCK_DIM

    def refuse(cube, *args):
        raise AssertionError(f"built a field or test function on {cube}")
    monkeypatch.setattr(asymptotics, "sample_fields", refuse)
    monkeypatch.setattr(asymptotics, "_tent_vector", refuse)
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 9)
    rep = lower_bound_probability(cfg, d=2, eps=1e-4, L=L, R=100)
    assert (rep.instances, rep.preconditions_failed) == (0, 1)
    p = rep.parameters
    assert p["L"] == L and p["censored"] and math.isnan(p["empirical"])


# -- suitability -------------------------------------------------------------------


def suitable(cube, f, energy, theta):
    """Whether the cube is (theta, E)-suitable for the field."""
    rows, cols = _suitability_geometry(cube)
    op = plain_block(f)
    norms, _ = suitability_norms(op, eigensolve(op).eigenvalues, rows, cols,
                                 [energy])
    return bool(norms[0] < cube.L ** -theta)


def test_suitable_deep_gap():
    cube = CubeSpec(1, 12)
    f = sample_field(cube, LAM1, 0)
    assert suitable(cube, f, 0.0, theta=1.5)


def test_suitable_false_at_eigenvalue():
    cube = CubeSpec(1, 12)
    f = sample_field(cube, LAM1, 1)
    op = plain_block(f)
    e = float(eigensolve(op).eigenvalues[3])
    assert not suitable(cube, f, e, theta=1.5)


def test_suitable_false_for_huge_theta():
    cube = CubeSpec(1, 12)
    f = sample_field(cube, LAM1, 2)
    assert not suitable(cube, f, 0.0, theta=50.0)


def test_suitable_needs_length_in_6n():
    cube = CubeSpec(1, 10)
    f = sample_field(cube, LAM1, 0)
    with pytest.raises(PreconditionError):
        suitable(cube, f, 0.0, 1.5)


@pytest.mark.parametrize("d, L", [(1, 12), (1, 48), (2, 6)])
def test_suitability_norms_match_dense_solve(d, L):
    cube = CubeSpec(d, L)
    rows, cols = _suitability_geometry(cube)
    energies = [0.0, 0.5, 0.9]
    for r in range(4):
        f = sample_field(cube, LAM1, r)
        op = plain_block(f)
        ev = eigensolve(op).eigenvalues
        norms, deltas = suitability_norms(op, ev, rows, cols, energies)
        dense = [dense_suitability_norm(op, e, rows, cols) for e in energies]
        assert norms == pytest.approx(dense, rel=1e-10)
        assert deltas == pytest.approx([np.min(np.abs(ev - e)) for e in energies])


@pytest.mark.parametrize("d, L, config", [(1, 12, LAM1), (1, 48, LAM1),
                                          (2, 6, LAM1), (2, 12, GAP2)])
def test_suitability_norms_match_the_eigenpair_oracle(d, L, config):
    # the boundary-column LU solve against the eigenpair sum, with one
    # energy on the spectrum of each realization
    cube = CubeSpec(d, L)
    rows, cols = _suitability_geometry(cube)
    for r in range(3):
        f = sample_field(cube, config, r)
        op = plain_block(f)
        s = eigensolve(op, want_vectors=True)
        energies = [0.0, 0.4, float(s.eigenvalues[len(s.eigenvalues) // 2 + r]),
                    -0.7]
        norms, deltas = suitability_norms(op, eigensolve(op).eigenvalues, rows,
                                          cols, energies)
        ref_norms, ref_deltas = eigenpair_suitability_norms(s, rows, cols, energies)
        assert norms[2] == ref_norms[2] == np.inf
        assert deltas[2] == ref_deltas[2] == 0.0
        assert np.all(np.isfinite(np.delete(norms, 2)))
        assert norms == pytest.approx(ref_norms, rel=1e-10)
        assert deltas == pytest.approx(ref_deltas, rel=1e-10)


def test_suitability_norms_solve_only_the_boundary_columns(monkeypatch):
    # one stacked solve for every energy off the spectrum, against 4
    # columns at d = 1: two boundary sites, two components each
    solves = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solves.append((a.shape, b.shape)) or real(a, b))
    cube = CubeSpec(1, 24)
    rows, cols = _suitability_geometry(cube)
    f = sample_field(cube, LAM1, 0)
    op = plain_block(f)
    ev = eigensolve(op).eigenvalues
    norms, _ = suitability_norms(op, ev, rows, cols, [0.0, float(ev[5]), 0.5])
    assert solves == [((2, 46, 46), (46, 4))]
    assert norms[1] == np.inf


def test_resolvent_columns_residual_contract(monkeypatch):
    cube = CubeSpec(1, 12)
    f = sample_field(cube, LAM1, 0)
    op = plain_block(f)
    cols = [0, 3, 11]
    x = resolvent_columns(op, [0.0, 0.5], cols)
    for k, e in enumerate((0.0, 0.5)):
        full = np.linalg.inv(op - e * np.eye(len(op)))
        assert np.allclose(x[k], full[:, cols], rtol=1e-12, atol=1e-14)
    # a solve that misses its system is caught
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: real(a, b) * (1 + 1e-6))
    with pytest.raises(ArithmeticError, match="residual"):
        resolvent_columns(op, [0.0], cols)


def test_suitability_reports_per_theta_match_single_theta_runs():
    both = suitability_probability(LAM1, d=1, L=12, thetas=[1.5, 3.0],
                                   energies=[0.0, 0.5], R=20)
    for rep, theta in zip(both, (1.5, 3.0)):
        one, = suitability_probability(LAM1, d=1, L=12, thetas=[theta],
                                       energies=[0.0, 0.5], R=20)
        assert rep.theta == theta
        assert np.array_equal(rep.probability, one.probability)
        assert rep.implication.to_json() == one.implication.to_json()
    assert both[0].probability.tolist() != both[1].probability.tolist()


def test_suitability_probability_report():
    rep, = suitability_probability(LAM1, d=1, L=12, thetas=[1.5],
                                   energies=[0.0, 0.5], R=40)
    assert rep.a_L == pytest.approx(1.0 + 12 ** -0.5)
    assert np.all(rep.probability >= 0.9)
    assert rep.implication.passed
    assert rep.threshold_L == ct_threshold_length(1.5, 1)


def test_suitability_rejects_energy_outside_window():
    with pytest.raises(PreconditionError):
        suitability_probability(LAM1, d=1, L=12, thetas=[1.5], energies=[5.0],
                                R=2)


def test_suitability_monotone_in_length():
    probs = []
    for L in (12, 24):
        rep, = suitability_probability(LAM1, d=1, L=L, thetas=[1.5],
                                       energies=[0.0], R=30)
        probs.append((rep.wilson_lo[0], rep.wilson_hi[0]))
    assert probs[1][1] >= probs[0][0]    # nondecreasing within CI


def test_ct_threshold_is_astronomical_at_desk_scale():
    thr = ct_threshold_length(1.5, 1)
    assert thr is not None and thr > 10 ** 5
    assert thr % 6 == 0


@pytest.mark.parametrize("d, L", [(1, 48), (2, 12), (3, 6)])
def test_ct_block_budget_matches_pair_loop(d, L):
    # the per-pair sum in pair order, bit for bit
    cube = CubeSpec(d, L)
    for delta in (0.05, 0.7, 3.0):
        dcap = min(delta, 1.0)
        total = 0.0
        for n in inner_boundary(cube.sites()):
            for m in cube.concentric(L / 3.0).sites():
                total += (4.0 / dcap * math.exp(-dcap * dist1(n, m) / (12.0 * d))) ** 2
        assert _ct_block_budget(_ct_distances(cube), delta, d) == math.sqrt(total)


def test_wilson_interval_sane():
    lo, hi = wilson_interval(9, 10)
    assert 0.5 < lo < 0.9 < hi <= 1.0
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi < 0.4


# -- correlator ---------------------------------------------------------------------


def test_correlator_empty_below_spectrum():
    profile = eigenfunction_correlator(GAP2, CubeSpec(1, 9), (-0.5, 0.5), R=5)
    assert profile.empty
    assert np.all(profile.mean_q == 0.0)
    with pytest.raises(ValueError):
        stretched_fit(profile)


def test_correlator_diagonal_contraction():
    cube = CubeSpec(1, 9)
    cfg = DisorderConfig(SiteMeasure.uniform(0, 5), SiteMeasure.uniform(0, 1), 8)
    sites = np.arange(cube.site_count)
    for r in range(8):
        s = eigensolve(plain_block(sample_field(cube, cfg, r)), want_vectors=True)
        assert np.all(correlator_q(s, sites, sites, (-1.0, 1.0)) <= 2.0 + 1e-12)


def test_correlator_strong_disorder_decays():
    # interval straddling the lowest band-edge states (min |E| sits near 1.2
    # for this disorder strength)
    cube = CubeSpec(1, 40)
    cfg = DisorderConfig(SiteMeasure.uniform(0, 5), SiteMeasure.uniform(0, 1), 12)
    prof = eigenfunction_correlator(cfg, cube, (-1.5, 1.5), R=25)
    assert not prof.empty
    fit = stretched_fit(prof)
    assert fit.log_slope < 0
    assert 0 < fit.zeta <= 1.0
    assert fit.c_zeta > 0


def test_stretched_fit_recovers_synthetic():
    dists = np.arange(0, 21, dtype=float)
    pairs = tuple(((0,), (int(d),)) for d in dists)
    zeta0, c0 = 0.6, 1.7
    q = c0 * np.exp(-dists ** zeta0)
    prof = CorrelatorProfile((-1, 1), pairs, q, np.zeros_like(q), 10, 10)
    fit = stretched_fit(prof)
    assert fit.zeta == pytest.approx(zeta0, abs=0.051)
    assert fit.log_slope == pytest.approx(-1.0, abs=0.05)
    assert fit.c_zeta == pytest.approx(c0, rel=0.15)


def test_zeta_grid_tops_out_at_exactly_one():
    assert ZETA_GRID.max() == 1.0
    assert ZETA_GRID.tolist() == [k / 20 for k in range(2, 21)]


def test_stretched_fit_of_a_pure_exponential_reports_zeta_one():
    dists = np.arange(0, 21, dtype=float)
    pairs = tuple(((0,), (int(d),)) for d in dists)
    q = 1.7 * np.exp(-0.8 * dists)
    prof = CorrelatorProfile((-1, 1), pairs, q, np.zeros_like(q), 10, 10)
    assert stretched_fit(prof).zeta == 1.0


def bootstrap_stderr(values: np.ndarray, n_boot: int = 400,
                     seed: int = 0) -> float:
    """Bootstrap standard error of the mean (the oracle of the test below)."""
    rng = np.random.default_rng(seed)
    values = np.asarray(values)
    means = np.array([rng.choice(values, size=len(values)).mean()
                      for _ in range(n_boot)])
    return float(means.std(ddof=1))


def test_tail_stderr_consistent_with_bootstrap():
    curve = tail_curve(LAM1, 1, [0.4, 0.5], R=300, lengths=[15, 15])
    samples = tail_samples(LAM1, CubeSpec(1, 15), [0.4, 0.5], 300)
    for k, vals in enumerate(samples.T):
        boot = bootstrap_stderr(vals, seed=k)
        assert boot == pytest.approx(curve.stderr[k], rel=0.35, abs=1e-6)


def test_sharp_gap_implication_fires_at_large_length():
    # at L = 480 the per-instance decay budget with delta = 1 beats
    # L^-theta, so the gap event forces suitability non-vacuously
    rep, = suitability_probability(LAM1, d=1, L=480, thetas=[1.5],
                                   energies=[0.0], R=3)
    assert rep.implication.instances >= 3
    assert rep.implication.passed
