import math

import numpy as np
import pytest

from blocklab.disorder import from_uniform, sample_fields
from blocklab.lattice import site_index
from blocklab.model import CubeSpec, DisorderConfig, SiteMeasure, case_beta
from oracles import density, sample_field, site_uniform, sites


def numeric_total_variation(m, n_grid=200001):
    """Independent BV oracle: variation of the density sampled on a fine
    grid that extends past the support (captures the edge jumps)."""
    lo, hi = m.support
    pad = 0.5 * (hi - lo)
    xs = np.linspace(lo - pad, hi + pad, n_grid)
    ys = np.array([density(m, x) for x in xs])
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
        ys = np.array([density(m, x) for x in xs])
        total += np.trapezoid(ys, xs)
    assert total == pytest.approx(1.0, abs=1e-12)


def _density_integral(m, lo, hi):
    """The integral of oracles.density over [lo, hi]: trapezoids between
    the breakpoints of the piecewise-linear density, so exact up to
    rounding."""
    a, b = m.support
    nodes = sorted({lo, hi, *(x for x in (a, 0.5 * (a + b), b) if lo < x < hi)})
    return np.trapezoid([density(m, x) for x in nodes], nodes)


@pytest.mark.parametrize("m", [SiteMeasure.triangular(0, 1),
                               SiteMeasure.triangular(-1, 3)])
def test_triangular_cdf_and_mass_integrate_the_density(m):
    # the tails lower bound reads these masses
    a, b = m.support
    xs = np.linspace(a - 0.5, b + 0.5, 41)
    for x in xs:
        assert m.cdf(x) == pytest.approx(_density_integral(m, a - 1.0, x), abs=1e-14)
    for lo, hi in zip(xs[:-5], xs[5:]):
        assert m.mass(lo, hi) == pytest.approx(_density_integral(m, lo, hi), abs=1e-14)
    assert m.mass(b, a) == 0.0


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
    # case 1: inf supp >= 0; case 2: sup supp <= 0, signed; case 3: 0 in supp
    assert case_beta(SiteMeasure.uniform(1, 2)) == 1.0
    assert case_beta(SiteMeasure.uniform(-2, -1)) == -1.0
    assert case_beta(SiteMeasure.uniform(-1, 1)) == 0.0
    assert case_beta(SiteMeasure.point_mass(0.0)) == 0.0


def test_case_beta_rejects_straddling_atoms():
    with pytest.raises(ValueError):
        case_beta(SiteMeasure.two_point(-1, 0.5, 1))


def test_mass_atoms_half_open():
    m = SiteMeasure.two_point(0.0, 0.25, 1.0)
    assert m.mass(0.0, 1.0) == pytest.approx(0.25)      # right end open
    assert m.mass(0.0, 1.0 + 1e-12) == pytest.approx(1.0)
    assert m.mass(-1.0, 0.0) == 0.0                      # left end closed
    assert m.mass(1.0, 2.0) == pytest.approx(0.75)


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
    big_sites = sites(big.cube)
    for k, s in enumerate(sites(small.cube)):
        assert small.V[k] == big.V[big_sites.index(s)]
        assert small.B[k] == big.B[big_sites.index(s)]


def test_field_at_reads_sub_regions():
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.triangular(-1, 2), 6)
    big = sample_field(CubeSpec(2, 9, (1, -2)), cfg, 3)
    small = sample_field(CubeSpec(2, 4, (2, -1)), cfg, 3)
    v, b = big.at(small.cube)
    assert np.array_equal(v, small.V) and np.array_equal(b, small.B)
    probes = [(1, -2), (5, 2), (-3, -6)]                 # any order
    idx = site_index(big.cube, probes, strict=True)
    for k, s in enumerate(probes):
        j = sites(big.cube).index(s)
        assert (big.V[idx[k]], big.B[idx[k]]) == (big.V[j], big.B[j])
    with pytest.raises(KeyError):
        big.at(CubeSpec(2, 4, (5, -2)))                  # leaves the cube at x = 6


ONE_SITE = CubeSpec(1, 2)                                # the site (0,)


def library_draws(m, seed, n, family="V", cube=ONE_SITE):
    """n realizations of measure m at the sites of a cube, drawn by the
    library's sampler in one block: an (n, N) array."""
    V, B = sample_fields(cube, DisorderConfig(m, m, seed), range(n))
    return V if family == "V" else B


def test_families_independent_streams():
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 5)
    f = sample_field(CubeSpec(1, 21), cfg, 0)
    assert all(v != b for v, b in zip(f.V, f.B))


def test_uniform_law_of_large_numbers():
    draws = library_draws(SiteMeasure.uniform(0, 1), 1, 100000)
    assert np.mean(draws) == pytest.approx(0.5, abs=0.01)


def test_values_stay_in_closed_support():
    for m in (SiteMeasure.uniform(-1, 2), SiteMeasure.triangular(0, 1),
              SiteMeasure.two_point(-3, 0.5, 4)):
        lo, hi = m.support
        vals = library_draws(m, 2, 2000, "B", CubeSpec(1, 2, (1,)))
        assert vals.min() >= lo and vals.max() <= hi


def test_triangular_sampling_statistics():
    vals = library_draws(SiteMeasure.triangular(0, 1), 3, 50000)
    assert np.mean(vals) == pytest.approx(0.5, abs=0.01)
    assert np.mean(vals < 0.5) == pytest.approx(0.5, abs=0.01)


def test_two_point_sampling_frequencies():
    vals = library_draws(SiteMeasure.two_point(0.0, 0.3, 1.0), 4, 50000)
    assert np.mean(vals == 0.0) == pytest.approx(0.3, abs=0.01)


@pytest.mark.parametrize("cube", [CubeSpec(1, 65), CubeSpec(2, 9, (3, -4))],
                         ids=["d1", "d2"])
def test_lag1_correlations_vanish(cube):
    # neighbouring sites in canonical order, consecutive realizations and
    # the two families of one draw: each correlation within 4 / sqrt(n)
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 8)
    V, B = sample_fields(cube, cfg, range(2000))
    for a, b in ((V[:, :-1], V[:, 1:]), (V[:-1], V[1:]), (V, B)):
        assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 4.0 / math.sqrt(a.size)


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
    assert bits(from_uniform(m, np.array(u))) == bits(expected)
    scalars = [from_uniform(m, x) for x in u]
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
    ss = sites(cube)
    assert (f.cube, f.realization_index) == (cube, r)
    for family, values, m in (("V", f.V, mu_V), ("B", f.B, mu_B)):
        oracle = [from_uniform(m, site_uniform(seed, r, s, family)) for s in ss]
        assert values.dtype == np.float64 and values.shape == (len(ss),)
        assert bits(values) == bits(oracle)


# the first uniforms of (seed 42, realization 0), in canonical site order:
# any change of the sampler's stream changes them
GOLDEN = [
    (CubeSpec(1, 5),
     [0.7202331007652163, 0.7304283610913548, 0.19869419226900198,
      0.14400258182977443, 0.671402244197535],
     [0.04230998312530376, 0.18808713089938345, 0.7348876516228647,
      0.24244584899252886, 0.3897861797631157]),
    (CubeSpec(2, 3, (4, -7)),
     [0.3031527443395132, 0.5485634878359156, 0.13894196924901447,
      0.8251312881239221, 0.9683987467857845, 0.5144964816215204,
      0.6495509653005397, 0.7505006992873591, 0.11030192037328934],
     [0.12232663797775989, 0.2578332893498746, 0.6311128859874766,
      0.07463236533958761, 0.19383792036515046, 0.5319164345527051,
      0.9826551295704081, 0.9272456136179407, 0.05355720179411638]),
]


@pytest.mark.parametrize("cube, v, b", GOLDEN, ids=["d1", "d2"])
def test_sampler_golden_values(cube, v, b):
    u = SiteMeasure.uniform(0, 1)                # from_uniform(x) is x
    f = sample_field(cube, DisorderConfig(u, u, 42), 0)
    assert bits(f.V) == bits(v) and bits(f.B) == bits(b)


@pytest.mark.parametrize("d, L, center, mu_V, mu_B", FIELD_CASES)
def test_sample_fields_rows_match_sample_field(d, L, center, mu_V, mu_B):
    # any realizations, in any order: row i is realization rs[i] exactly
    cube = CubeSpec(d, L, center)
    cfg = DisorderConfig(mu_V, mu_B, 2 ** 40 + 3)
    rs = [5, 0, 2 ** 62, 5, 17]
    V, B = sample_fields(cube, cfg, rs)
    assert V.shape == B.shape == (len(rs), cube.site_count)
    for i, r in enumerate(rs):
        f = sample_field(cube, cfg, r)
        assert bits(V[i]) == bits(f.V) and bits(B[i]) == bits(f.B)
    empty = sample_fields(cube, cfg, range(0))
    assert [a.shape for a in empty] == [(0, cube.site_count)] * 2
