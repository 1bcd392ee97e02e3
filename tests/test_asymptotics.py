import math
from collections import Counter

import numpy as np
import pytest

from blocklab import asymptotics, schur, spectral
from blocklab.asymptotics import (ZETA_GRID, CorrelatorProfile, TailCurve,
                                  _ct_block_budget, _ct_cut,
                                  _ct_distances, _suitability_block,
                                  _suitability_geometry,
                                  c0_estimate,
                                  correlator_q,
                                  ct_threshold_length, eigenfunction_correlator,
                                  finite_volume_tail_bound,
                                  lower_bound_probability,
                                  lower_bound_scale, stretched_fit,
                                  suitability_norms, suitability_probability,
                                  tail_curve,
                                  tail_exponent_fit, tail_monotonicity_check,
                                  trial_function_energy, wilson_interval)
from blocklab.disorder import FieldSample, sample_fields
from blocklab.green import resolvent_columns
from blocklab.inequalities import edge_spectra
from blocklab.lattice import site_index
from blocklab.model import (MAX_BLOCK_DIM, CubeSpec, DisorderConfig, PreconditionError,
                            SiteMeasure, band_edge, deterministic_radius, gap_edge)
from blocklab.spectral import eigensolve, ensemble_counts, plain_block
import oracles
from oracles import (dense_suitability_norm, dist1, eigenpair_suitability_norms,
                     sample_field)

LAM1 = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 51)
GAP2 = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(1, 2), 52)
# edge 1 as for LAM1, with B != 0
GAPB = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(0, 1), 53)


def constant_field(cube, v, b):
    n = cube.site_count
    return FieldSample(cube, np.full(n, float(v)), np.full(n, float(b)), 0)


# -- gap edge -------------------------------------------------------------------


def test_gap_edge_cases():
    assert gap_edge(LAM1) == 1.0
    # lam = 0 with beta != 0, and beta of each case of case_beta
    assert gap_edge(DisorderConfig(SiteMeasure.uniform(0, 1),
                                   SiteMeasure.uniform(1, 2), 0)) == 1.0
    for mu_B, edge in ((SiteMeasure.uniform(4, 5), 5.0),
                       (SiteMeasure.uniform(-5, -4), 5.0),
                       (SiteMeasure.uniform(-1, 1), 3.0)):
        assert gap_edge(DisorderConfig(SiteMeasure.uniform(3, 4), mu_B, 0)) == edge
    # the value half_half_check and finite_volume_tail_bound compute
    mu_V, mu_B = SiteMeasure.uniform(2.25, 3), SiteMeasure.uniform(1.378, 2)
    assert gap_edge(DisorderConfig(mu_V, mu_B, 0)) == np.hypot(2.25, 1.378)


def test_band_edge_has_the_bits_of_np_hypot():
    # libm's hypot, as np.hypot: math.hypot rounds (2.595, 1.755) one ulp
    # higher, and the edge's bits reach the outputs
    assert math.hypot(2.595, 1.755) != np.hypot(2.595, 1.755)
    pairs = [(2.25, 1.378), (2.595, 1.755), (0.0, -1.5), (3.0, -4.0)]
    rng = np.random.default_rng(32)
    lam = rng.uniform(0.0, 4.0, 2000)
    pairs += zip(lam.tolist(), rng.uniform(-3.0, 3.0, 2000).tolist())
    pairs += zip((10.0 ** rng.uniform(-300, 300, 500)).tolist(),
                 (-10.0 ** rng.uniform(-300, 300, 500)).tolist())
    lams, betas = np.array(pairs).T
    assert [band_edge(x, y) for x, y in pairs] == np.hypot(lams, betas).tolist()
    # past the float range it is inf, as np.hypot's, where abs() raises
    with np.errstate(over="ignore"):
        assert band_edge(1.5e308, 1.5e308) == np.hypot(1.5e308, 1.5e308) == math.inf


def test_gap_edge_rejects_negative_lam():
    with pytest.raises(ValueError, match="inf supp mu_V >= 0"):
        gap_edge(DisorderConfig(SiteMeasure.uniform(-1, 1),
                                SiteMeasure.point_mass(0), 0))
    # and a mu_B that case_beta rejects
    with pytest.raises(ValueError, match="straddles 0"):
        gap_edge(DisorderConfig(SiteMeasure.uniform(1, 2),
                                SiteMeasure.two_point(-1, 0.5, 1), 0))


# -- tail curve -------------------------------------------------------------------


def test_tail_zero_offset_is_exactly_zero():
    curve = tail_curve(LAM1, 1, [0.0, 0.4], R=12, lengths=[15, 15])
    assert curve.delta_n[0] == 0.0
    assert curve.censored[0]


def tail_samples(config, cube, eps_grid, R):
    """N(edge + eps) - 1/2 per realization (rows) and eps (columns), from
    the count kernel that tail_curve reduces."""
    edge = gap_edge(config)
    counts = ensemble_counts(config, cube, edge + np.asarray(eps_grid), R, "right")
    return counts / (2 * cube.site_count) - 0.5


def test_tail_values_nonnegative_and_bounded():
    eps = [0.2, 0.5, 1.0]
    curve = tail_curve(GAP2, 1, eps, R=20, lengths=[15, 15, 15])
    vals = tail_samples(GAP2, CubeSpec(1, 15), eps, 20)
    assert np.all(vals >= 0.0) and np.all(vals <= 0.5)
    assert curve.delta_n.tolist() == [v.mean() for v in vals.T.copy()]


def test_tail_monotone_within_slack():
    curve = tail_curve(LAM1, 1, [0.3, 0.4, 0.5], R=150, lengths=[19, 16, 15])
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
    sites = oracles.sites(cube)
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
    # nonincreasing trend at large L: L^2 <psi, H^D psi> at both ends
    first, last = (L ** 2 * trial_function_energy(CubeSpec(1, L)) for L in (8, 128))
    assert last <= first + 1e-9


def test_c0_bounded_2d():
    est = c0_estimate([8, 16, 24, 40], d=2)
    assert est.c0_hat < 100


# every eps of a log grid from 1 down to 1e-8, and the eps whose length
# 10 / sqrt(eps) lies at the cap of each dimension: 2048, 46 and 12
TAIL_EPSILONS = sorted({*np.logspace(0, -8, 17), *((10.0 / np.arange(8, 16)) ** 2),
                        *((10.0 / np.arange(42, 50)) ** 2),
                        *((10.0 / np.arange(2044, 2052)) ** 2)})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_default_tail_length_is_the_loop_in_closed_form(d):
    for eps in TAIL_EPSILONS:
        assert asymptotics.default_tail_length(eps, d) == \
            oracles.default_tail_length(eps, d), eps


@pytest.mark.parametrize("d", [1, 2, 3, 4, 11, 12])
def test_default_tail_length_of_a_tiny_eps_is_the_longest_that_fits(d):
    # no loop from 10 / sqrt(1e-300) = 1e151 down: the longest length whose
    # block fits the cap, or the floor when none above it does
    fits = [L for L in range(2, 4100)
            if 2 * CubeSpec(d, L).site_count <= MAX_BLOCK_DIM]
    assert asymptotics.default_tail_length(1e-300, d) == max(
        max(fits), asymptotics.TAIL_LENGTH_FLOOR)


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
    monkeypatch.setattr(spectral, "sample_fields", refuse)
    monkeypatch.setattr(asymptotics, "_tent_vector", refuse)
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 9)
    rep = lower_bound_probability(cfg, d=2, eps=1e-4, L=L, R=100)
    assert (rep.instances, rep.preconditions_failed) == (0, 1)
    p = rep.parameters
    assert p["L"] == L and p["censored"] and math.isnan(p["empirical"])


# -- suitability -------------------------------------------------------------------


def kernel_rows(cube, config, rs, energies, cuts=(), chain=None):
    """The rows of `_suitability_block` for realizations rs, with the
    window, tolerance and norm dispatch of `suitability_probability`."""
    edge = gap_edge(config)
    energies = np.asarray(energies, dtype=float)
    if chain is None:
        chain = cube.d == 1 and bool(np.all(np.abs(energies) < edge))
    return _suitability_block(rs, *sample_fields(cube, config)(rs), cube, energies,
                              edge + cube.L ** -0.5,
                              np.asarray(cuts, dtype=float),
                              on_spectrum_tol(config, cube.d),
                              _suitability_geometry(cube), chain)


def on_spectrum_tol(config, d):
    return asymptotics.ON_SPECTRUM_RTOL * max(
        deterministic_radius(d, config.mu_V, config.mu_B), 1.0)


def suitable(cube, r, energy, theta, chain=None):
    """Whether the cube is (theta, E)-suitable for realization r of LAM1."""
    (norms, _, _), = kernel_rows(cube, LAM1, range(r, r + 1), [energy], chain=chain)
    return bool(norms[0] < cube.L ** -theta)


def test_suitable_deep_gap():
    for chain in (True, False):
        assert suitable(CubeSpec(1, 12), 0, 0.0, theta=1.5, chain=chain)


def test_suitable_false_at_eigenvalue():
    cube = CubeSpec(1, 12)
    e = float(eigensolve(plain_block(sample_field(cube, LAM1, 1))).eigenvalues[3])
    for chain in (True, False):
        assert not suitable(cube, 1, e, theta=1.5, chain=chain)


def test_suitable_false_for_huge_theta():
    assert not suitable(CubeSpec(1, 12), 2, 0.0, theta=50.0)


def test_suitable_needs_length_in_6n():
    with pytest.raises(PreconditionError):
        suitable(CubeSpec(1, 10), 0, 0.0, 1.5)


@pytest.mark.parametrize("d, L", [(1, 12), (1, 48), (2, 6)])
def test_suitability_norms_match_dense_solve(d, L):
    cube = CubeSpec(d, L)
    rows, cols = _suitability_geometry(cube)
    energies = [0.0, 0.5, 0.9]
    for r in range(4):
        op = plain_block(sample_field(cube, LAM1, r))
        norms = suitability_norms(op, rows, cols, energies)
        dense = [dense_suitability_norm(op, e, rows, cols) for e in energies]
        assert norms == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("d, L, config", [(1, 12, LAM1), (1, 48, LAM1),
                                          (2, 6, LAM1), (2, 12, GAP2)])
def test_suitability_norms_match_the_eigenpair_oracle(d, L, config):
    # the boundary-column LU solve against the eigenpair sum
    cube = CubeSpec(d, L)
    rows, cols = _suitability_geometry(cube)
    energies = [0.0, 0.4, -0.7]
    for r in range(3):
        op = plain_block(sample_field(cube, config, r))
        s = eigensolve(op, want_vectors=True)
        ref = eigenpair_suitability_norms(s, rows, cols, energies)
        assert suitability_norms(op, rows, cols, energies) == pytest.approx(ref,
                                                                            rel=1e-10)


def test_suitability_norms_solve_only_the_boundary_columns(monkeypatch):
    # one stacked solve for the energies off the spectrum, against 4
    # columns at d = 1: two boundary sites, two components each
    solves = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solves.append((a.shape, b.shape)) or real(a, b))
    cube = CubeSpec(1, 24)
    ev = eigensolve(plain_block(sample_field(cube, LAM1, 0))).eigenvalues
    (norms, _, _), = kernel_rows(cube, LAM1, range(1), [0.0, float(ev[5]), 0.5],
                                 chain=False)
    assert solves == [((2, 46, 46), (46, 4))]
    assert norms[1] == np.inf and np.all(np.isfinite(norms[[0, 2]]))


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


def chain_norms(cube, config, rs, energies):
    """chain_rim_norms of realizations rs at every energy, (len(rs), nE)."""
    V, B = sample_fields(cube, config)(rs)
    core = site_index(cube, cube.concentric(cube.L / 3.0))
    n = len(energies)
    return schur.chain_rim_norms(cube, np.repeat(V, n, axis=0), np.repeat(B, n, axis=0),
                                 np.tile(energies, len(V)), core).reshape(len(V), n)


@pytest.mark.parametrize("config", [LAM1, GAPB], ids=["B=0", "B~U[0,1]"])
@pytest.mark.parametrize("L", [12, 24, 48, 96])
def test_chain_rim_norms_match_the_dense_solves(L, config):
    cube = CubeSpec(1, L)
    rows, cols = _suitability_geometry(cube)
    edge = gap_edge(config)
    energies = np.array([0.0, edge / 2, 0.9 * edge])
    norms = chain_norms(cube, config, range(4), energies)
    for r in range(4):
        op = plain_block(sample_field(cube, config, r))
        ref = suitability_norms(op, rows, cols, energies)
        assert norms[r] == pytest.approx(ref, rel=1e-12)
        assert norms[r] == pytest.approx(
            [dense_suitability_norm(op, e, rows, cols) for e in energies], rel=1e-12)


def test_chain_rim_norms_of_a_row_do_not_depend_on_the_chunk(monkeypatch):
    cube = CubeSpec(1, 48)
    energies = np.array([0.0, 0.5, -0.9])
    whole = chain_norms(cube, GAPB, range(7), energies)
    # chunks of one row
    monkeypatch.setattr(schur, "CHAIN_CHUNK_BYTES", 1)
    monkeypatch.setattr(schur, "CHAIN_CHUNK_ROWS", 1)
    assert np.array_equal(chain_norms(cube, GAPB, range(7), energies), whole)
    assert np.array_equal(chain_norms(cube, GAPB, range(3, 4), energies), whole[3:4])


def test_chain_rim_norms_residual_contract(monkeypatch):
    cube = CubeSpec(1, 48)
    chain_norms(cube, GAPB, range(2), np.array([0.0, 0.5]))
    # a rounding residual breaks a contract with no slack
    monkeypatch.setattr(schur, "RESOLVENT_RESIDUAL_TOL", 0.0)
    with pytest.raises(ArithmeticError, match="residual"):
        chain_norms(cube, GAPB, range(2), np.array([0.0, 0.5]))


# V = 3 at every site with probability 0.8^11 at L = 12: both gap events
TWO_POINT = DisorderConfig(SiteMeasure.two_point(1.0, 0.2, 3.0),
                           SiteMeasure.point_mass(0.0), 54)


def decides_as_the_eigenvalues(d, L, config, energies):
    """The one kernel against the eigenvalue rule of a dense spectrum: gap
    event, energies on the spectrum, distances past each cut, norms."""
    cube = CubeSpec(d, L)
    edge = gap_edge(config)
    a_L = edge + L ** -0.5
    energies = np.array([0.0, edge / 2, 0.9 * edge] if energies == "inside" else
                        [0.0, edge + 0.5 * L ** -0.5, -a_L])
    cuts = np.array([0.2, 0.6, _ct_cut(_ct_distances(cube), L ** 2.0, d), np.inf])
    R = 40 if d == 1 else 12
    block = kernel_rows(cube, config, range(R), energies, cuts)
    geometry = _suitability_geometry(cube)
    dense = [oracles.suitability_row(sample_field(cube, config, r), *geometry,
                                     energies, a_L, cuts, on_spectrum_tol(config, d))
             for r in range(R)]
    assert [row[2] for row in block] == [row[2] for row in dense]
    assert np.array_equal([row[1] for row in block], [row[1] for row in dense])
    norms = np.array([row[0] for row in block])
    assert np.all(np.isfinite(norms))
    assert norms == pytest.approx(np.array([row[0] for row in dense]), rel=1e-10)
    far = np.array([row[1] for row in block])
    assert far[:, :3].any() and not far.all() and not far[:, 3].any()
    if config is TWO_POINT and d == 1:
        assert len({row[2] for row in block}) == 2


@pytest.mark.parametrize("config, L", [(TWO_POINT, 12), (GAPB, 24), (LAM1, 48)])
def test_suitability_block_decides_as_the_eigenvalues(config, L):
    # inside the gap at d = 1: the norms of the Schur recursion
    decides_as_the_eigenvalues(1, L, config, "inside")


@pytest.mark.parametrize("d, L, config, energies", [
    (1, 12, TWO_POINT, "edge"), (1, 24, GAPB, "edge"), (1, 48, LAM1, "edge"),
    (2, 6, TWO_POINT, "inside"), (2, 6, GAPB, "edge"), (2, 12, LAM1, "edge")])
def test_suitability_block_decides_as_the_eigenvalues_off_the_gate(d, L, config,
                                                                   energies):
    # in [edge, a_L] at d = 1, and at d = 2: the norms of stacked solves
    decides_as_the_eigenvalues(d, L, config, energies)


def test_suitability_block_reads_an_energy_on_the_spectrum():
    # an eigenvalue of the realization is on the spectrum, with norm inf,
    # whichever path gives the norms
    cube = CubeSpec(1, 12)
    op = plain_block(sample_field(cube, LAM1, 1))
    e = float(eigensolve(op).eigenvalues[13])
    for chain in (True, False):
        (norms, far, _), = kernel_rows(cube, LAM1, range(1, 2), [e, 0.0], [0.1], chain)
        assert norms[0] == np.inf and np.isfinite(norms[1])
        assert far.tolist() == [[False, True]]


@pytest.mark.parametrize("d, L", [(1, 12), (1, 480), (2, 12)])
def test_ct_cut_splits_the_distances_as_the_budget_does(d, L):
    distances = _ct_distances(CubeSpec(d, L))
    rng = np.random.default_rng(0)
    deltas = np.concatenate([rng.uniform(0.0, 1.2, 200), [1.0, 2.0]])
    for theta in (-3.0, -1.0, 1.5, 3.0):
        target = L ** -theta
        cut = _ct_cut(distances, target, d)
        assert [delta > cut for delta in deltas] == \
            [_ct_block_budget(distances, delta, d) < target for delta in deltas]
        if math.isfinite(cut):
            assert _ct_block_budget(distances, cut, d) >= target > \
                _ct_block_budget(distances, np.nextafter(cut, 2.0), d)
        else:
            assert _ct_block_budget(distances, 1.0, d) >= target


def test_suitability_reports_per_theta_match_single_theta_runs():
    both = suitability_probability(LAM1, d=1, L=12, thetas=[1.5, 3.0],
                                   energies=[0.0, 0.5], R=20)
    for rep, theta in zip(both, (1.5, 3.0)):
        one, = suitability_probability(LAM1, d=1, L=12, thetas=[theta],
                                       energies=[0.0, 0.5], R=20)
        assert rep.implication.parameters["theta"] == theta
        assert np.array_equal(rep.probability, one.probability)
        assert rep.implication.to_json() == one.implication.to_json()
    assert both[0].probability.tolist() != both[1].probability.tolist()


def test_suitability_probability_report():
    rep, = suitability_probability(LAM1, d=1, L=12, thetas=[1.5],
                                   energies=[0.0, 0.5], R=40)
    assert rep.a_L == pytest.approx(1.0 + 12 ** -0.5)
    assert np.all(rep.probability >= 0.9)
    assert rep.implication.passed
    assert rep.implication.parameters["threshold_L"] == ct_threshold_length(1.5, 1)


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


@pytest.mark.parametrize("d, L", [(1, 48), (2, 12), (3, 6), (1, 480)])
def test_ct_block_budget_matches_pair_loop(d, L):
    # the sum over distance multiplicities against the sum over pairs,
    # which adds in another order
    cube = CubeSpec(d, L)
    for delta in (0.05, 0.7, 3.0):
        assert _ct_block_budget(_ct_distances(cube), delta, d) == pytest.approx(
            oracles.ct_block_budget(cube, delta), rel=1e-13)


def test_ct_block_budget_is_inf_past_the_float_range():
    distances = _ct_distances(CubeSpec(1, 12))
    assert oracles.ct_block_budget(CubeSpec(1, 12), 1e-160) == math.inf
    with np.errstate(over="raise"):
        assert _ct_block_budget(distances, 1e-160, 1) == math.inf
        assert _ct_block_budget(distances, 5e-324, 1) == math.inf


def test_ct_distances_count_every_boundary_core_pair():
    cube = CubeSpec(2, 12)
    dists, pairs = _ct_distances(cube)
    core = oracles.sites(cube.concentric(4.0))
    ref = Counter(dist1(n, m) for n in oracles.inner_boundary(cube) for m in core)
    assert dict(zip(dists.tolist(), pairs.tolist())) == ref


# gap events at every length: V = 5 but at 1 % of the sites, edge 0
TIES = DisorderConfig(SiteMeasure.two_point(0.0, 0.01, 5.0),
                      SiteMeasure.point_mass(0.0), 55)


@pytest.mark.parametrize("d, L, theta", [(1, 6, -1.5), (1, 12, -2.0), (1, 48, -3.0),
                                         (2, 6, -2.5), (2, 12, -3.0)])
def test_every_gap_event_is_past_the_cut_from_the_threshold_length(d, L, theta):
    # there every gap event's distance exceeds L^-1/2, the pairs lie at
    # least L/3 apart and the budget at L^-1/2 is below the worst case that
    # defines the threshold, so delta* < L^-1/2: each (event, energy) is
    # one instance of the implication
    assert L >= ct_threshold_length(theta, d)
    assert _ct_cut(_ct_distances(CubeSpec(d, L)), L ** -theta, d) < L ** -0.5
    energies = [0.0, 0.5 * L ** -0.5]
    rep, = suitability_probability(TIES, d, L, [theta], energies, R=12)
    events = round(rep.gap_event_frequency * 12)
    assert events > 0
    assert rep.implication.instances == events * len(energies)
    assert rep.implication.parameters["threshold_L"] == ct_threshold_length(theta, d)


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


@pytest.mark.parametrize("cube", [CubeSpec(1, 9, (4,)), CubeSpec(2, 5, (-3, 2)),
                                  CubeSpec(2, 2)], ids=str)
def test_correlator_pairs_run_from_the_centre(cube):
    profile = eigenfunction_correlator(GAP2, cube, (-0.5, 0.5), R=2)
    ss = oracles.sites(cube)
    centre = oracles.site_index(cube, [cube.center]).tolist()
    assert profile.first.tolist() == centre * len(ss)
    assert profile.second.tolist() == list(range(len(ss)))
    assert profile.distances().tolist() == [dist1(cube.center, m) for m in ss]


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


def _ray_profile(q):
    """A profile of the pairs ((0,), (k,)), k = 0..20, on the 1d cube of
    41 sites about 0, with mean Q = q."""
    second = np.arange(20, 41)                # the sites 0..20
    return CorrelatorProfile(CubeSpec(1, 41), np.full_like(second, 20), second, q,
                             np.zeros_like(q), 10, 10)


def test_stretched_fit_recovers_synthetic():
    dists = np.arange(0, 21, dtype=float)
    zeta0, c0 = 0.6, 1.7
    q = c0 * np.exp(-dists ** zeta0)
    prof = _ray_profile(q)
    assert prof.distances().tolist() == dists.tolist()
    fit = stretched_fit(prof)
    assert fit.zeta == pytest.approx(zeta0, abs=0.051)
    assert fit.log_slope == pytest.approx(-1.0, abs=0.05)
    assert fit.c_zeta == pytest.approx(c0, rel=0.15)


def test_zeta_grid_tops_out_at_exactly_one():
    assert ZETA_GRID.max() == 1.0
    assert ZETA_GRID.tolist() == [k / 20 for k in range(2, 21)]


def test_stretched_fit_of_a_pure_exponential_reports_zeta_one():
    dists = np.arange(0, 21, dtype=float)
    q = 1.7 * np.exp(-0.8 * dists)
    prof = _ray_profile(q)
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
