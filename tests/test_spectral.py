import numpy as np
import pytest

from blocklab import spectral
from blocklab.disorder import FieldSample, sample_fields
from blocklab.inequalities import nondegeneracy_check, radius_check, symmetry_check
from blocklab.model import CubeSpec, DisorderConfig, SiteMeasure, deterministic_radius
from blocklab.operators import assemble_plain, build_h, build_h0
from blocklab.spectral import (count_below, dos_histogram, eigensolve, ensemble_counts,
                               ids_monte_carlo, per_field, plain_block,
                               run_realizations, spectral_gap)
from oracles import count_window, plain_block_on, sample_field

UNIT = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 17)
ZERO = DisorderConfig(SiteMeasure.point_mass(0), SiteMeasure.point_mass(0), 0)


def two_by_two():
    cube = CubeSpec(1, 2)
    return plain_block(FieldSample(cube, np.array([1.0]), np.array([2.0]), 0))


def test_eigensolve_2x2():
    s = eigensolve(two_by_two())
    assert s.eigenvalues == pytest.approx([-np.sqrt(13), np.sqrt(13)])


def test_eigensolve_toeplitz_oracle():
    s = eigensolve(build_h0(CubeSpec(1, 3), "simple"))
    assert s.eigenvalues == pytest.approx([2 - np.sqrt(2), 2, 2 + np.sqrt(2)])


def test_eigensolve_vectors_residual():
    op = plain_block(sample_field(CubeSpec(1, 9), UNIT, 0))
    s = eigensolve(op, want_vectors=True)
    resid = np.max(np.abs(op @ s.eigenvectors
                          - s.eigenvectors * s.eigenvalues))
    assert resid <= 1e-10 * s.norm
    assert np.allclose(s.eigenvectors.T @ s.eigenvectors,
                       np.eye(s.dim), atol=1e-12)


def test_eigensolve_rejects_nonfinite():
    op = plain_block(sample_field(CubeSpec(1, 3), UNIT, 0))
    op[0, 0] = np.nan
    with pytest.raises(ValueError):
        eigensolve(op)


def test_block_with_zero_coupling_symmetric_union():
    cube = CubeSpec(1, 7)
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.point_mass(0), 3)
    f = sample_field(cube, cfg, 0)
    s = eigensolve(plain_block(f))
    scalar = np.linalg.eigvalsh(build_h(cube, "simple", f.V))
    assert s.eigenvalues == pytest.approx(
        np.sort(np.concatenate([scalar, -scalar])))


def test_counting_basics():
    # the one-site block of two_by_two: eigenvalues -+sqrt(13)
    cfg = DisorderConfig(SiteMeasure.point_mass(1), SiteMeasure.point_mass(2), 0)
    est = ids_monte_carlo(cfg, CubeSpec(1, 2), [-100.0, 0.0, 100.0], 1)
    assert est.mean_N.tolist() == [0.0, 0.5, 1.0]


def test_counting_monotone():
    counts = ensemble_counts(UNIT, CubeSpec(1, 11), np.linspace(-8, 8, 200), 3,
                             "right")
    assert np.all(np.diff(counts, axis=1) >= 0)
    assert counts[:, 0].tolist() == [0] * 3 and counts[:, -1].tolist() == [22] * 3


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
        s = eigensolve(plain_block(sample_field(CubeSpec(1, 12), cfg, r)))
        assert np.min(np.abs(s.eigenvalues)) >= 1.0


def test_gap_with_both_bounded_below():
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(1, 2), 5)
    for r in range(30):
        s = eigensolve(plain_block(sample_field(CubeSpec(1, 12), cfg, r)))
        assert np.min(np.abs(s.eigenvalues)) >= np.sqrt(2.0)


def test_structural_checks():
    for r in range(20):
        s = eigensolve(plain_block(sample_field(CubeSpec(2, 3), UNIT, r)))
        assert symmetry_check(s).passed
        assert nondegeneracy_check(s).passed
        assert radius_check(s, deterministic_radius(2, UNIT.mu_V, UNIT.mu_B)).passed


def test_radius_value():
    assert deterministic_radius(1, SiteMeasure.uniform(-1, 2),
                                SiteMeasure.uniform(0, 3)) == 4 + 2 + 3


@pytest.mark.parametrize("L", [3, 5, 11])
def test_ids_and_dos_count_exact_ties_exactly(L):
    # V = B = 0: the spectrum +-(2 - 2 cos(k pi / (n + 1))) holds the
    # integers where 2 cos(k pi / (n + 1)) is one (+-1, +-2 and +-3 at L = 5,
    # where eigvalsh returns -2 as -1.9999999999999996); an eigenvalue at E
    # is inside N(E), and in the bin that E opens
    cube = CubeSpec(1, L)
    n = cube.site_count
    spectrum = constant_field_spectrum(n, 0.0, 0.0)
    grid = np.linspace(-5, 5, 21)
    assert np.any(np.abs(spectrum[:, None] - grid) < 1e-12)
    est = ids_monte_carlo(ZERO, cube, grid, 4)
    assert np.all(est.stderr_N == 0.0)
    assert est.mean_N.tolist() == [np.sum(spectrum <= e + 1e-12) / (2 * n)
                                   for e in grid]
    hist = dos_histogram(ZERO, cube, grid, 4)
    below = np.array([np.sum(spectrum < e - 1e-12) for e in grid])
    assert (hist.density * np.diff(hist.edges) * 2 * n).round(12).tolist() == \
        np.diff(below).tolist()
    if L == 5:
        assert est.mean_N[grid.tolist().index(-2.0)] == 0.3


def test_ids_single_realization():
    grid = np.linspace(-4, 4, 9)
    est = ids_monte_carlo(UNIT, CubeSpec(1, 7), grid, 1)
    s = eigensolve(plain_block(sample_field(CubeSpec(1, 7), UNIT, 0)))
    assert est.mean_N.tolist() == (np.searchsorted(s.eigenvalues, grid, "right")
                                   / s.dim).tolist()


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
    assert np.sum(hist.density * np.diff(hist.edges)) == pytest.approx(1.0)


def test_dos_rejects_bad_edges():
    with pytest.raises(ValueError):
        dos_histogram(UNIT, CubeSpec(1, 5), [0.0, 0.0, 1.0], 2)


# the V measures of the count oracles: B is triangular, so no eigenvalue
# sits on a grid energy
COUNT_ORACLE_CASES = [(d, L, mu) for d, L in ((1, 16), (1, 50), (2, 5))
                      for mu in (SiteMeasure.uniform(0, 1),
                                 SiteMeasure.triangular(-1, 2),
                                 SiteMeasure.two_point(0.0, 0.3, 1.5))]


def dense_counts(cube, cfg, R, energies, side):
    """Per realization, the counts read off its computed spectrum."""
    V, B = sample_fields(cube, cfg)(range(R))
    return np.array([np.searchsorted(ev, energies, side)
                     for ev in dense_spectra(cube, V, B)])


@pytest.mark.parametrize("d, L, mu", COUNT_ORACLE_CASES,
                         ids=lambda x: getattr(x, "kind", str(x)))
def test_ids_matches_dense_counts(d, L, mu):
    cfg = DisorderConfig(mu, SiteMeasure.triangular(-1, 1), 5)
    cube = CubeSpec(d, L)
    grid = np.linspace(-7, 7, 41)
    est = ids_monte_carlo(cfg, cube, grid, 12)
    data = dense_counts(cube, cfg, 12, grid, "right") / (2 * cube.site_count)
    assert est.mean_N.tolist() == data.mean(axis=0).tolist()
    assert est.stderr_N.tolist() == (data.std(axis=0, ddof=1) / np.sqrt(12)).tolist()


@pytest.mark.parametrize("d, L, mu", COUNT_ORACLE_CASES,
                         ids=lambda x: getattr(x, "kind", str(x)))
def test_dos_matches_dense_half_open_bins(d, L, mu):
    cfg = DisorderConfig(mu, SiteMeasure.triangular(-1, 1), 5)
    cube = CubeSpec(d, L)
    edges = np.linspace(-7, 7, 29)
    hist = dos_histogram(cfg, cube, edges, 12)
    V, B = sample_fields(cube, cfg)(range(12))
    # [lo, hi[ per bin, read off each computed spectrum
    counts = np.array([[np.sum((lo <= ev) & (ev < hi))
                        for lo, hi in zip(edges[:-1], edges[1:])]
                       for ev in dense_spectra(cube, V, B)])
    scale = 1.0 / (2 * cube.site_count * np.diff(edges))
    assert hist.density.tolist() == (counts.mean(axis=0) * scale).tolist()


def test_dos_top_bin_is_half_open():
    # one site, V = 1, B = 4: eigenvalues -5 and 5, exact ties at the outer
    # edges; the bottom one counts, the top one does not (np.histogram
    # closed the last bin)
    cfg = DisorderConfig(SiteMeasure.point_mass(1), SiteMeasure.point_mass(4), 0)
    hist = dos_histogram(cfg, CubeSpec(1, 2), [-5.0, 0.0, 5.0], 1)
    assert (hist.density * np.diff(hist.edges) * 2).tolist() == [1.0, 0.0]


def test_self_averaging_variance_trend():
    # variance of the counting function shrinks with volume
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 23)
    R = 160
    variances = []
    for L in (20, 40, 80):
        est = ids_monte_carlo(cfg, CubeSpec(1, L), [1.0], R)
        variances.append(est.stderr_N[0] ** 2 * R)
    # var-of-var slack ~ var * sqrt(2/(R-1)) per term, 3 sigma
    for small, large in zip(variances[1:], variances):
        slack = 3.0 * np.hypot(small, large) * np.sqrt(2.0 / (R - 1))
        assert small <= large + slack


# -- counting by inertia ------------------------------------------------------

FIELD_MEASURES = [SiteMeasure.uniform(0, 1), SiteMeasure.triangular(-1, 2),
                  SiteMeasure.two_point(0.0, 0.3, 1.5)]


def dense_spectra(cube, V, B):
    return [eigensolve(assemble_plain(cube, v, b)).eigenvalues for v, b in zip(V, B)]


def assert_counts_match_dense(cube, V, B, energies):
    """count_below equals the dense count at every energy at least 1e-9
    from the dense spectrum, and lies between the dense counts at E -+ 1e-9
    at the others; returns how many counts were compared exactly."""
    checked = 0
    for side in ("left", "right"):
        counts = count_below(cube, V, B, energies, side)
        assert counts.shape == (len(V), len(energies)) and counts.dtype == np.int64
        for row, ev in zip(counts, dense_spectra(cube, V, B)):
            far = np.min(np.abs(ev[:, None] - energies), axis=0) >= 1e-9
            assert np.array_equal(row[far],
                                  np.searchsorted(ev, energies[far], side=side))
            assert np.all(np.searchsorted(ev, energies - 1e-9, side="left") <= row)
            assert np.all(row <= np.searchsorted(ev, energies + 1e-9, side="right"))
            checked += int(far.sum())
    return checked


@pytest.mark.parametrize("L", [2, 3, 12, 50])
@pytest.mark.parametrize("mu", FIELD_MEASURES, ids=lambda m: m.kind)
def test_inertia_counts_match_dense_counts(L, mu):
    cube = CubeSpec(1, L)
    cfg = DisorderConfig(mu, SiteMeasure.triangular(-1, 1), 31)
    V, B = sample_fields(cube, cfg)(range(12))
    energies = np.linspace(-6.5, 6.5, 61)
    assert assert_counts_match_dense(cube, V, B, energies) > 0.9 * 2 * 12 * 61


# the tails fields V in {0, 1}, B = 1.5: at the threshold
# hypot(0, 1.5) + 1 = 2.5, a first site with V = 0 is a zero pivot
DISCRETE = DisorderConfig(SiteMeasure.two_point(0, 0.5, 1),
                          SiteMeasure.point_mass(1.5), 11)


@pytest.mark.parametrize("L", [2, 4, 15, 40])
def test_inertia_counts_match_dense_counts_on_discrete_fields(L):
    cube = CubeSpec(1, L)
    V, B = sample_fields(cube, DISCRETE)(range(40))
    assert (V[:, 0] == 0.0).any()
    energies = np.arange(-6.0, 6.01, 0.25)
    assert assert_counts_match_dense(cube, V, B, energies) > 0.5 * 2 * 40 * 49


@pytest.mark.parametrize("L", [2, 4, 6])
def test_inertia_counts_match_dense_counts_on_half_integer_fields(L):
    # exact ties of every kind: zero pivots with B = 0 and B != 0, S = 0,
    # and zero pivots at consecutive sites
    cube = CubeSpec(1, L)
    rng = np.random.default_rng(L)
    V = rng.choice(np.arange(-2.0, 2.01, 0.5), size=(400, cube.site_count))
    B = rng.choice([-1.0, 0.0, 0.5, 1.0, 1.5], size=V.shape)
    B[:200] = 0.0
    energies = np.arange(-6.0, 6.01, 0.25)
    assert assert_counts_match_dense(cube, V, B, energies) > 0.5 * 2 * 400 * 49


def test_inertia_counts_after_a_rounded_zero_pivot():
    # at E = -1 the fourth site's pivot is a rounding residue (about 8e-16)
    # of an exact zero, so the next Schur complement has entries near 1e15
    # and a c - b^2 cancels to nothing; det A - tr(adj(A) G) + det G does not
    cube = CubeSpec(1, 6)
    V = np.array([[0.0, 1.5, -2.0, 0.0, -1.0]])
    B = np.array([[-1.0, 1.5, -1.0, -1.0, -1.0]])
    assert assert_counts_match_dense(cube, V, B, np.array([-1.0, 1.0])) == 4


def constant_field_spectrum(n, v, b):
    """Spectrum of the plain block of V = v, B = b on n sites:
    +-sqrt((h_k + v)^2 + b^2), h_k = 2 - 2 cos(k pi / (n + 1))."""
    h = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    e = np.hypot(h + v, b)
    return np.concatenate([-e, e])


@pytest.mark.parametrize("L", [2, 4, 15])
def test_inertia_counts_through_coupled_zero_pivots(L):
    # V = 0, B = 1.5: every odd leading section has hypot(2, 1.5) = 2.5 in
    # its spectrum, so E = 2.5 is a zero pivot with B != 0
    cube = CubeSpec(1, L)
    n = cube.site_count
    spectrum = constant_field_spectrum(n, 0.0, 1.5)
    lo, hi = np.sum(spectrum < 2.5 - 1e-12), np.sum(spectrum <= 2.5 + 1e-12)
    V, B = np.zeros((1, n)), np.full((1, n), 1.5)
    below, at_or_below = (count_below(cube, V, B, [2.5], side)[0, 0]
                          for side in ("left", "right"))
    # the whole chain has 2.5 in its spectrum as well; on one site the
    # arithmetic is exact, on more the tie itself is decided by rounding
    assert lo <= below <= at_or_below <= hi
    if n == 1:
        assert (below, at_or_below) == (lo, hi)
    else:
        # only the first site ties: the whole chain is off the tie
        V[0, 1:] = 0.5
        assert assert_counts_match_dense(cube, V, B, np.array([2.5])) == 2


def test_count_below_counts_far_energies_without_overflow():
    # 1e200 squared overflows; past every eigenvalue the count is 0 or 2N
    cube = CubeSpec(1, 9)
    V, B = sample_fields(cube, UNIT)(range(3))
    for side in ("left", "right"):
        counts = count_below(cube, V, B, [-1e200, -7.0, 7.0, 1e200], side)
        assert counts.tolist() == [[0, 0, 18, 18]] * 3


def test_count_below_raises_when_the_recursion_overflows():
    cube = CubeSpec(1, 5)
    V = np.full((1, 5), 1e200)
    with pytest.raises(ArithmeticError, match="floating-point range"):
        count_below(cube, V, np.zeros_like(V), [0.0])


@pytest.mark.parametrize("L", [3, 5, 11])
@pytest.mark.parametrize("v", [0.0, -1.5, -2.0])
def test_inertia_tie_policy_on_a_constant_field(L, v):
    # V = v, B = 0: the spectrum is +-(v + 2 - 2 cos(k pi / (n + 1))), and
    # the half-integer energies hit it exactly where 2 cos(k pi / (n + 1))
    # is an integer.  Zero pivots recur down the chain: at v = -2, E = 0
    # both components vanish at once (S = 0), and at v = -1.5, E = 0.5 a
    # zero in one component follows one in the other.  The arithmetic is
    # exact, so an eigenvalue at E is outside "<" and inside "<=".
    cube = CubeSpec(1, L)
    n = cube.site_count
    spectrum = constant_field_spectrum(n, v, 0.0)
    energies = np.arange(-3.0, 3.01, 0.5)
    ties = np.sum(np.abs(spectrum[:, None] - energies) < 1e-12, axis=0)
    assert ties.any()
    V, B = np.full((1, n), v), np.zeros((1, n))
    below = count_below(cube, V, B, energies, "left")[0]
    at_or_below = count_below(cube, V, B, energies, "right")[0]
    assert below.tolist() == [int(np.sum(spectrum < e - 1e-12)) for e in energies]
    assert at_or_below.tolist() == [int(np.sum(spectrum <= e + 1e-12))
                                    for e in energies]
    assert np.array_equal(at_or_below - below, ties)


def test_inertia_counts_per_realization_do_not_depend_on_the_block():
    cube = CubeSpec(1, 20)
    V, B = sample_fields(cube, UNIT)(range(9))
    energies = [-2.5, 0.0, 0.7, 3.1]
    whole = count_below(cube, V, B, energies)
    rows = [count_below(cube, V[i:i + 1], B[i:i + 1], energies)[0] for i in range(9)]
    assert np.array_equal(whole, np.array(rows))


def test_count_below_dense_at_d2():
    cube = CubeSpec(2, 4)
    V, B = sample_fields(cube, UNIT)(range(3))
    energies = [-1.0, 0.25, 2.0]
    for side in ("left", "right"):
        expected = [np.searchsorted(ev, energies, side=side)
                    for ev in dense_spectra(cube, V, B)]
        assert np.array_equal(count_below(cube, V, B, energies, side), expected)


def mixed_sides_match_single_sides(cube, V, B, energies):
    """count_below with one side per energy equals the single-side calls,
    entry by entry, for two patterns of sides."""
    energies = np.asarray(energies, dtype=float)
    single = {side: count_below(cube, V, B, energies, side)
              for side in ("left", "right")}
    n = len(energies)
    for sides in (np.array(["left", "right"] * n)[:n],
                  np.repeat(["right", "left"], [n // 2, n - n // 2])):
        mixed = count_below(cube, V, B, energies, sides)
        expected = np.where(sides == "right", single["right"], single["left"])
        assert np.array_equal(mixed, expected)
    return single


@pytest.mark.parametrize("v, b", [(0.0, 0.0), (-1.5, 0.0), (-2.0, 0.0), (0.0, 1.5)])
def test_count_below_sides_per_energy_on_the_exact_tie_fields(v, b):
    # the pinned constant fields, whose half-integer energies hit the
    # spectrum and the leading sections' spectra exactly
    cube = CubeSpec(1, 11)
    n = cube.site_count
    V, B = np.full((2, n), v), np.full((2, n), b)
    V[1, 1:] = v + 0.5              # only the first site ties
    single = mixed_sides_match_single_sides(cube, V, B, np.arange(-3.0, 3.01, 0.5))
    # with B = 0 the arithmetic is exact: eigenvalues at E split the sides
    assert b != 0.0 or not np.array_equal(single["left"], single["right"])


@pytest.mark.parametrize("d, L", [(1, 20), (2, 4)])
def test_count_below_sides_per_energy_match_single_sides(d, L):
    cube = CubeSpec(d, L)
    V, B = sample_fields(cube, UNIT)(range(5))
    ev = dense_spectra(cube, V[:1], B[:1])[0]
    # an eigenvalue of realization 0, where the two sides differ
    mixed_sides_match_single_sides(cube, V, B, [-2.5, 0.0, float(ev[3]), 0.7, 3.1])


def test_count_below_rejects_bad_input():
    cube = CubeSpec(1, 5)
    V, B = sample_fields(cube, UNIT)(range(2))
    with pytest.raises(ValueError, match="side"):
        count_below(cube, V, B, [0.0], "both")
    with pytest.raises(ValueError, match="side"):
        count_below(cube, V, B, [0.0, 1.0], np.array(["left", "up"]))
    V[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        count_below(cube, V, B, [0.0])


def test_assemble_plain_writes_the_plain_block():
    cube = CubeSpec(2, 5)
    f = sample_field(cube, UNIT, 4)
    assert np.array_equal(assemble_plain(cube, f.V, f.B), plain_block_on(cube, f))


def field_row(f):
    return f.realization_index, f.cube, f.V.tolist(), f.B.tolist()


@pytest.mark.parametrize("block", [1, 7, 256])
def test_run_realizations_cuts_blocks_and_keeps_order(block, monkeypatch):
    monkeypatch.setattr(spectral, "REALIZATION_BLOCK", block)
    cube = CubeSpec(2, 3)
    # each block is sampled once, its fields (len(rs), N) arrays
    sizes = run_realizations(lambda rs, V, B: [(r, len(rs), V.shape, B.shape)
                                               for r in rs], cube, UNIT, 20)
    assert sizes == [(r, n, (n, 9), (n, 9)) for r in range(20)
                     for n in [min(block, 20 - block * (r // block))]]
    # per_field hands each kernel call its realization's field, in order
    expected = [field_row(sample_field(cube, UNIT, r)) for r in range(20)]
    lifted = per_field(field_row, cube)
    assert run_realizations(lifted, cube, UNIT, 20) == expected
    assert run_realizations(lifted, cube, UNIT, 0) == []
