import math

import numpy as np
import pytest

from blocklab.disorder import (DisorderConfig, SiteMeasure, case_beta,
                               sample_field, site_uniform)
from blocklab.lattice import CubeSpec


def numeric_total_variation(m, n_grid=200001):
    """Independent BV oracle: variation of the density sampled on a fine
    grid that extends past the support (captures the edge jumps)."""
    lo, hi = m.support
    pad = 0.5 * (hi - lo)
    xs = np.linspace(lo - pad, hi + pad, n_grid)
    ys = np.array([m.density(x) for x in xs])
    return float(np.sum(np.abs(np.diff(ys))))


def test_bv_norm_uniform():
    assert SiteMeasure.uniform(0, 1).bv_norm == pytest.approx(2.0)
    assert SiteMeasure.uniform(0, 2).bv_norm == pytest.approx(1.0)


def test_bv_norm_triangular():
    assert SiteMeasure.triangular(0, 1).bv_norm == pytest.approx(4.0)


@pytest.mark.parametrize("m", [SiteMeasure.uniform(0, 1),
                               SiteMeasure.uniform(-1.5, 2.0),
                               SiteMeasure.triangular(0, 1),
                               SiteMeasure.triangular(2, 5)])
def test_bv_norm_matches_numeric_oracle(m):
    assert m.bv_norm == pytest.approx(numeric_total_variation(m), rel=1e-3)


@pytest.mark.parametrize("m", [SiteMeasure.uniform(0, 1),
                               SiteMeasure.triangular(-1, 3)])
def test_density_integrates_to_one(m):
    lo, hi = m.support
    mid = 0.5 * (lo + hi)
    # exact trapezoid on the piecewise-linear density with breakpoint nodes
    total = 0.0
    for a, b in ((lo, mid), (mid, hi)):
        xs = np.linspace(a, b, 20001)
        ys = np.array([m.density(x) for x in xs])
        total += np.trapezoid(ys, xs)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bv_rejected_without_density():
    with pytest.raises(ValueError):
        _ = SiteMeasure.point_mass(0.0).bv_norm
    with pytest.raises(ValueError):
        _ = SiteMeasure.two_point(0, 0.5, 1).bv_norm


def test_support_data():
    assert SiteMeasure.uniform(1, 2).support == (1, 2)
    assert SiteMeasure.point_mass(3).support == (3, 3)
    assert SiteMeasure.two_point(2, 0.25, -1).support == (-1, 2)


def test_case_beta_classification():
    c = case_beta(SiteMeasure.uniform(1, 2))
    assert (c.case, c.beta, c.sign_flip) == (1, 1.0, False)
    c = case_beta(SiteMeasure.uniform(-2, -1))
    assert (c.case, c.beta, c.sign_flip) == (2, -1.0, True)
    c = case_beta(SiteMeasure.uniform(-1, 1))
    assert (c.case, c.beta) == (3, 0.0)
    c = case_beta(SiteMeasure.point_mass(0.0))
    assert c.beta == 0.0


def test_case_beta_rejects_straddling_atoms():
    with pytest.raises(ValueError):
        case_beta(SiteMeasure.two_point(-1, 0.5, 1))


def test_mass_constants_uniform_exact():
    m = SiteMeasure.uniform(1, 3)
    C, kappa = m.mass_constants()
    for eta in (1e-6, 1e-3, 0.1, 0.5, 1.9):
        assert m.mass(1.0, 1.0 + eta) == pytest.approx(C * eta ** kappa, rel=1e-12)


def test_mass_constants_triangular_hold():
    m = SiteMeasure.triangular(0, 1)
    C, kappa = m.mass_constants()
    for eta in (1e-4, 1e-2, 0.2, 0.5):
        assert m.mass(0.0, eta) >= C * eta ** kappa * (1 - 1e-12)


def test_mass_atoms_half_open():
    m = SiteMeasure.two_point(0.0, 0.25, 1.0)
    assert m.mass(0.0, 1.0) == pytest.approx(0.25)      # right end open
    assert m.mass(0.0, 1.0, closed_hi=True) == pytest.approx(1.0)
    assert m.mass(-1.0, 0.0, closed_lo=True, closed_hi=False) == pytest.approx(0.0)


def test_point_mass_field_constant():
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.point_mass(0), 9)
    f = sample_field(CubeSpec(1, 9), cfg, 3)
    assert all(v == 0.0 for v in f.B)


def test_sampling_deterministic():
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(2, 3), 123)
    a = sample_field(CubeSpec(2, 4), cfg, 7)
    b = sample_field(CubeSpec(2, 4), cfg, 7)
    assert np.array_equal(a.V, b.V) and np.array_equal(a.B, b.B)
    c = sample_field(CubeSpec(2, 4), cfg, 8)
    assert not np.array_equal(a.V, c.V)


def test_sampling_restriction_consistent():
    # the same site carries the same value inside any cube that contains it
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 5)
    big = sample_field(CubeSpec(1, 11), cfg, 0)
    small = sample_field(CubeSpec(1, 5), cfg, 0)
    big_sites = big.cube.sites()
    for k, s in enumerate(small.cube.sites()):
        assert small.V[k] == big.V[big_sites.index(s)]
        assert small.B[k] == big.B[big_sites.index(s)]


def test_field_at_reads_sub_regions():
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.triangular(-1, 2), 6)
    big = sample_field(CubeSpec(2, 9, (1, -2)), cfg, 3)
    small = sample_field(CubeSpec(2, 4, (2, -1)), cfg, 3)
    v, b = big.at(small.cube.sites())
    assert np.array_equal(v, small.V) and np.array_equal(b, small.B)
    probes = [(1, -2), (5, 2), (-3, -6)]                 # any order
    v, b = big.at(probes)
    for k, s in enumerate(probes):
        j = big.cube.sites().index(s)
        assert (v[k], b[k]) == (big.V[j], big.B[j])
    with pytest.raises(KeyError):
        big.at([(1, -2), (6, -2)])                       # outside the cube


def test_families_independent_streams():
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 5)
    f = sample_field(CubeSpec(1, 21), cfg, 0)
    assert all(v != b for v, b in zip(f.V, f.B))


def test_uniform_law_of_large_numbers():
    m = SiteMeasure.uniform(0, 1)
    draws = [m.from_uniform(site_uniform(1, k, (0,), "V")) for k in range(100000)]
    assert np.mean(draws) == pytest.approx(0.5, abs=0.01)


def test_values_stay_in_closed_support():
    for m in (SiteMeasure.uniform(-1, 2), SiteMeasure.triangular(0, 1),
              SiteMeasure.two_point(-3, 0.5, 4)):
        lo, hi = m.support
        vals = [m.from_uniform(site_uniform(2, k, (1,), "B")) for k in range(2000)]
        assert min(vals) >= lo and max(vals) <= hi


def test_triangular_sampling_statistics():
    m = SiteMeasure.triangular(0, 1)
    vals = np.array([m.from_uniform(site_uniform(3, k, (0,), "V"))
                     for k in range(50000)])
    assert np.mean(vals) == pytest.approx(0.5, abs=0.01)
    assert np.mean(vals < 0.5) == pytest.approx(0.5, abs=0.01)


def test_two_point_sampling_frequencies():
    m = SiteMeasure.two_point(0.0, 0.3, 1.0)
    vals = np.array([m.from_uniform(site_uniform(4, k, (0,), "V"))
                     for k in range(50000)])
    assert np.mean(vals == 0.0) == pytest.approx(0.3, abs=0.01)


def test_measure_validation():
    with pytest.raises(ValueError):
        SiteMeasure.uniform(2, 2)
    with pytest.raises(ValueError):
        SiteMeasure.two_point(0, 1.5, 1)
    with pytest.raises(ValueError):
        SiteMeasure("gaussian", (0.0, 1.0))


def reference_transform(m, u):
    """The scalar inverse-CDF formulas in plain Python float arithmetic."""
    k, p = m.kind, m.params
    if k == "uniform":
        a, b = p
        return a + u * (b - a)
    if k == "triangular":
        a, b = p
        if u <= 0.5:
            return a + (b - a) * math.sqrt(u / 2.0)
        return b - (b - a) * math.sqrt((1.0 - u) / 2.0)
    if k == "point_mass":
        return p[0]
    v1, prob, v2 = p
    return v1 if u < prob else v2


# triangular(0.1, 0.7): its two branches round differently at u = 0.5
ALL_KINDS = (SiteMeasure.uniform(-0.7, 1.3), SiteMeasure.triangular(0.1, 0.7),
             SiteMeasure.point_mass(0.375), SiteMeasure.two_point(-1.5, 0.3, 2.5))


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("m", ALL_KINDS, ids=lambda m: m.kind)
def test_from_uniform_array_matches_scalar_formulas(m):
    # edges of every branch, then a spread of hash-driven variates
    u = [0.0, 0.5, np.nextafter(0.5, 1.0), 0.3, np.nextafter(0.3, 0.0),
         1.0 - 2.0 ** -53]
    u += [site_uniform(11, k, (k,), "V") for k in range(500)]
    expected = [reference_transform(m, x) for x in u]
    assert bits(m.from_uniform(np.array(u))) == bits(expected)
    scalars = [m.from_uniform(x) for x in u]
    assert all(type(x) is float for x in scalars)
    assert bits(scalars) == bits(expected)


FIELD_CASES = [
    (1, 17, (-40,), ALL_KINDS[0], ALL_KINDS[1]),
    (1, 8, (3,), ALL_KINDS[2], ALL_KINDS[3]),
    (2, 7, (5, -9), ALL_KINDS[1], ALL_KINDS[2]),
    (2, 6, (0, 0), ALL_KINDS[3], ALL_KINDS[0]),
    (3, 5, (-2, 7, 1000), ALL_KINDS[0], ALL_KINDS[3]),
    (3, 4, (1, 1, 1), ALL_KINDS[1], ALL_KINDS[2]),
    # point masses skip the hash: the other family keeps its own stream
    (1, 12, (-7,), ALL_KINDS[0], ALL_KINDS[2]),
    (2, 5, (-3, 4), ALL_KINDS[2], ALL_KINDS[0]),
    (3, 3, (0, 0, -5), ALL_KINDS[2], ALL_KINDS[1]),
    (2, 4, (9, 9), ALL_KINDS[2], ALL_KINDS[2]),
]


@pytest.mark.parametrize("d, L, center, mu_V, mu_B", FIELD_CASES)
@pytest.mark.parametrize("seed, r", [(0, 0), (2 ** 62 + 12345, 2 ** 40 + 7),
                                     (-(2 ** 63), 2 ** 63 - 1)])
def test_sample_field_matches_per_site_oracle(d, L, center, mu_V, mu_B, seed, r):
    cube = CubeSpec(d, L, center)
    f = sample_field(cube, DisorderConfig(mu_V, mu_B, seed), r)
    sites = cube.sites()
    assert (f.cube, f.realization_index) == (cube, r)
    for family, values, m in (("V", f.V, mu_V), ("B", f.B, mu_B)):
        oracle = [m.from_uniform(site_uniform(seed, r, s, family)) for s in sites]
        assert values.dtype == np.float64 and values.shape == (len(sites),)
        assert bits(values) == bits(oracle)
