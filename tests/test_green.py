import numpy as np
import pytest

from blocklab.disorder import DisorderConfig, FieldSample, SiteMeasure
from blocklab.green import (combes_thomas_bound, combes_thomas_check,
                            decay_profile, decay_rate_fit, edi_check, gri_check,
                            resolvent, sli_check)
from blocklab.inequalities import PreconditionError
from blocklab.lattice import CubeSpec, strictly_inside
from blocklab.spectral import eigensolve, plain_block
from oracles import (block_element, block_norm, dist1, edi_check_per_probe,
                     gri_check_per_realization, sample_field,
                     sli_check_per_realization)

GAPPED = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(0, 1), 40)
MIXED = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 41)


def constant_field(cube, v, b):
    n = cube.site_count
    return FieldSample(cube, np.full(n, float(v)), np.full(n, float(b)), 0)


def two_by_two():
    cube = CubeSpec(1, 2)
    return plain_block(constant_field(cube, 1.0, 2.0))


def plain_on(cube, cfg, r):
    f = sample_field(cube, cfg, r)
    return plain_block(f), f


def test_resolvent_2x2_closed_form():
    op = two_by_two()
    g = resolvent(op, 0.0)
    # H^2 = 13 I, so the inverse at E = 0 is H / 13
    assert np.allclose(g.matrix, op / 13.0, atol=1e-14)
    assert g.delta == pytest.approx(np.sqrt(13))


def test_resolvent_rejects_spectrum():
    op = two_by_two()
    e = float(eigensolve(op).eigenvalues[1])
    with pytest.raises(PreconditionError):
        resolvent(op, e)


def test_resolvent_norm_is_inverse_distance():
    op, _ = plain_on(CubeSpec(1, 9), MIXED, 0)
    g = resolvent(op, 0.05)
    assert np.linalg.norm(g.matrix, 2) == pytest.approx(1.0 / g.delta, rel=1e-10)


def test_block_element_identity():
    sites = CubeSpec(1, 5).sites()
    n = len(sites)
    eye = np.eye(2 * n)
    b = block_element(eye, sites, (0,), (0,))
    assert np.array_equal(b.entries, np.eye(2))
    assert block_norm(b) == pytest.approx(np.sqrt(2))
    assert np.all(block_element(eye, sites, (0,), (1,)).entries == 0)


def test_block_element_reads_assembly():
    cube = CubeSpec(1, 5)
    f = sample_field(cube, MIXED, 1)
    b = block_element(plain_block(f), cube.sites(), (0,), (0,))
    k = cube.sites().index((0,))
    assert b.entries[0, 0] == pytest.approx(2.0 + f.V[k])
    assert b.entries[0, 1] == pytest.approx(f.B[k])
    assert b.entries[1, 0] == pytest.approx(f.B[k])
    assert b.entries[1, 1] == pytest.approx(-2.0 - f.V[k])


def test_hs_equality_of_block_norm():
    # Frobenius of the projected operator equals the 2x2 element norm
    cube = CubeSpec(1, 7)
    sites = cube.sites()
    nn = len(sites)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2 * nn, 2 * nn))
    for n, m in (((0,), (1,)), ((-2,), (3,)), ((1,), (1,))):
        i, j = sites.index(n), sites.index(m)
        proj = np.zeros_like(a)
        rows = [i, i + nn]
        cols = [j, j + nn]
        proj[np.ix_(rows, cols)] = a[np.ix_(rows, cols)]
        assert np.linalg.norm(proj, "fro") == pytest.approx(
            block_norm(block_element(a, sites, n, m)), abs=1e-12)


def test_gri_residual_tiny_in_gap():
    c1, c2, c3 = CubeSpec(1, 2), CubeSpec(1, 5), CubeSpec(1, 9)
    f = sample_field(c3, GAPPED, 0)
    assert gri_check(c1, c2, c3, f, 0.0).parameters["residual"] <= 1e-10


def test_gri_blockwise_when_decoupled():
    c1, c2, c3 = CubeSpec(1, 2), CubeSpec(1, 5), CubeSpec(1, 9)
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 1)
    f = sample_field(c3, cfg, 0)
    assert gri_check(c1, c2, c3, f, 0.0).parameters["residual"] <= 1e-12


def test_gri_random_nested_2d():
    rng = np.random.default_rng(7)
    count = 0
    for r in range(40):
        c1 = CubeSpec(2, 2)
        c2 = CubeSpec(2, int(rng.integers(3, 5)))
        c3 = CubeSpec(2, int(rng.integers(6, 8)))
        if not (strictly_inside(c1, c2) and strictly_inside(c2, c3)):
            continue
        f = sample_field(c3, GAPPED, r)
        e = float(rng.uniform(-1.0, 1.0))
        rep = gri_check(c1, c2, c3, f, e)
        assert rep.passed
        count += 1
    assert count >= 30


def test_gri_requires_nesting():
    f = sample_field(CubeSpec(1, 9), GAPPED, 0)
    with pytest.raises(PreconditionError):
        gri_check(CubeSpec(1, 5), CubeSpec(1, 5), CubeSpec(1, 9), f, 0.0)


def test_sli_holds_on_random_instances():
    rng = np.random.default_rng(3)
    for r in range(25):
        d = 1 if r % 2 == 0 else 2
        lengths = (2, 5, 9) if d == 1 else (2, 4, 7)
        c1, c2, c3 = (CubeSpec(d, l) for l in lengths)
        f = sample_field(c3, GAPPED, r)
        e = float(rng.uniform(-1.0, 1.0))
        rep = sli_check(c1, c2, c3, f, e)
        assert rep.passed


def test_sli_degenerate_core():
    # singleton core equal to the interior of the middle cube
    c1, c2, c3 = CubeSpec(1, 2), CubeSpec(1, 3), CubeSpec(1, 7)
    f = sample_field(c3, GAPPED, 5)
    assert sli_check(c1, c2, c3, f, 0.3).passed


def test_sli_explicit_decoupled_case():
    c1, c2, c3 = CubeSpec(1, 2), CubeSpec(1, 5), CubeSpec(1, 9)
    f = constant_field(c3, 1.0, 0.0)
    assert sli_check(c1, c2, c3, f, 0.0).passed


def test_edi_ground_state():
    cube3 = CubeSpec(1, 9)
    region = CubeSpec(1, 3)
    f = sample_field(cube3, GAPPED, 2)
    rep = edi_check(region, cube3, f, eigen_index=0)
    assert rep.passed


def test_edi_all_eigenpairs_all_regions():
    cube3 = CubeSpec(1, 11)
    f = sample_field(cube3, GAPPED, 3)
    dim = 2 * cube3.site_count
    checked = 0
    for j in range(dim):
        for L in (3, 5, 7):
            region = CubeSpec(1, L)
            try:
                rep = edi_check(region, cube3, f, eigen_index=j)
            except PreconditionError:
                continue    # eigenvalue too close to the sub-cube spectrum
            assert rep.passed
            checked += 1
    assert checked > dim


def test_sli_and_edi_read_spectra_solved_by_the_caller(monkeypatch):
    c1, c2, c3 = CubeSpec(1, 2), CubeSpec(1, 5), CubeSpec(1, 9)
    f = sample_field(c3, GAPPED, 6)
    host = eigensolve(plain_block(f), want_vectors=True)
    middle = eigensolve(plain_block(f, c2))
    fresh = [sli_check(c1, c2, c3, f, 0.3).to_json(),
             edi_check(c2, c3, f, 7).to_json()]
    solves = []
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, **kw: solves.append(1))
    given = [sli_check(c1, c2, c3, f, 0.3, spectra=(middle, host)).to_json(),
             edi_check(c2, c3, f, 7, host=host, inner=middle).to_json()]
    assert solves == []
    assert given == fresh


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs).to_json()
    except PreconditionError:
        return "precondition failed"


@pytest.mark.parametrize("d, lengths", [
    (1, (2, 5, 9)), (1, (3, 7, 13)), (1, (5, 5, 9)), (1, (2, 5, 5)),
    (2, (2, 5, 9)), (2, (3, 5, 7)), (2, (5, 5, 9)), (2, (2, 5, 5)),
])
def test_nested_checks_match_the_per_realization_oracle(d, lengths):
    # strict triples and triples with region1 = region2 or region2 = region3
    cubes = tuple(CubeSpec(d, l) for l in lengths)
    c2, c3 = cubes[1:]
    seen = set()
    for r in range(3):
        f = sample_field(c3, GAPPED, r)
        host = eigensolve(plain_block(f), want_vectors=True)
        middle = eigensolve(plain_block(f, c2))
        j = len(host.eigenvalues) // 2 + r
        for e in (0.0, 0.5, 2.0):
            pairs = [
                (gri_check, gri_check_per_realization, (*cubes, f, e), {}),
                (sli_check, sli_check_per_realization, (*cubes, f, e), {}),
                (sli_check, sli_check_per_realization, (*cubes, f, e),
                 {"spectra": (middle, host)}),
            ]
            for lib, oracle, args, kwargs in pairs:
                out = _outcome(lib, *args, **kwargs)
                assert out == _outcome(oracle, *args, **kwargs)
                seen.add(out if isinstance(out, str) else out["name"])
        for kwargs in ({}, {"host": host, "inner": middle}):
            out = _outcome(edi_check, c2, c3, f, j, **kwargs)
            assert out == _outcome(edi_check_per_probe, c2, c3, f, j, **kwargs)
            seen.add(out if isinstance(out, str) else out["name"])
    strict = lengths[0] < lengths[1] < lengths[2]
    assert ("gri_residual" in seen) == ("sli" in seen) == strict
    assert ("edi" in seen) == (lengths[1] < lengths[2])
    assert ("precondition failed" in seen) != strict


def test_edi_interior_support_gives_slack():
    cube3 = CubeSpec(1, 9)
    region = CubeSpec(1, 3)
    f = sample_field(cube3, GAPPED, 4)
    rep = edi_check(region, cube3, f, eigen_index=0)
    assert rep.passed and rep.worst_margin > 0


def test_combes_thomas_diagonal_bound():
    cube = CubeSpec(1, 11)
    profile = decay_profile(sample_field(cube, GAPPED, 0), 0.0)
    diagonal = profile.first == profile.second
    assert np.all(profile.norm[diagonal] <= profile.bound[diagonal] + 1e-12)


def test_combes_thomas_all_pairs():
    cube = CubeSpec(1, 30)
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 9)
    for r in range(5):
        f = sample_field(cube, cfg, r)
        rep = combes_thomas_check(decay_profile(f, 0.0))
        assert rep.passed
        assert rep.parameters["delta"] == pytest.approx(1.0)  # capped at 1


def test_decay_rate_beats_ct_rate():
    cube = CubeSpec(1, 30)
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 9)
    f = sample_field(cube, cfg, 1)
    rate, _ = decay_rate_fit(decay_profile(f, 0.0))
    assert rate < 0
    assert -rate >= 1.0 / 12.0    # delta = 1, d = 1


def test_decay_profile_columns():
    cube = CubeSpec(1, 7)
    profile = decay_profile(sample_field(cube, GAPPED, 6), 0.0)
    sites = cube.sites()
    n = len(sites)
    k = sites.index((0,)) * n + sites.index((2,))
    i, j, dist = profile.first[k], profile.second[k], profile.dist[k]
    assert (sites[i], sites[j], dist) == ((0,), (2,), 2)
    assert profile.norm[k] <= profile.bound[k] + 1e-12


@pytest.mark.parametrize("cube", [CubeSpec(1, 9), CubeSpec(2, 4)])
def test_ct_check_fit_and_profile_match_independent_resolvents(cube):
    op, f = plain_on(cube, GAPPED, 3)
    profile = decay_profile(f, 0.0)

    g = resolvent(op, 0.0)
    delta = min(g.delta, 1.0)
    sites = cube.sites()
    pairs = [(n, m) for n in sites for m in sites]
    norms = np.array([block_norm(block_element(g.matrix, sites, n, m))
                      for n, m in pairs])
    dists = np.array([dist1(n, m) for n, m in pairs])
    caps = np.array([combes_thomas_bound(delta, cube.d, k) for k in dists])
    assert profile.delta == delta
    assert [(sites[i], sites[j], k) for i, j, k in
            zip(profile.first, profile.second, profile.dist)] == \
        [(n, m, k) for (n, m), k in zip(pairs, dists)]
    assert np.allclose(profile.norm, norms, rtol=1e-12, atol=0)
    assert np.array_equal(profile.bound, caps)

    rep = combes_thomas_check(profile)
    assert rep.instances == len(pairs)
    assert rep.parameters == {"E": 0.0, "delta": delta}
    assert rep.worst_margin == pytest.approx(np.min(caps + 1e-12 - norms),
                                             rel=1e-12)

    keep = (norms > 1e-14 * norms.max()) & (dists > 0)
    slope, intercept = np.polyfit(dists[keep].astype(float),
                                  np.log(norms[keep]), 1)
    rate, icept = decay_rate_fit(profile)
    assert rate == pytest.approx(slope, rel=1e-9)
    assert icept == pytest.approx(intercept, rel=1e-9)
