import math
import tracemalloc

import numpy as np
import pytest

from blocklab import green, schur
from blocklab.disorder import FieldSample, sample_fields
from blocklab.green import (DecayProfile, combes_thomas_bound,
                            combes_thomas_check, decay_profile, decay_rate_fit,
                            edi_check, gri_check, nesting, resolvent_columns,
                            sli_check, spectral_distance)
from blocklab.model import (CubeSpec, DisorderConfig, PreconditionError, SiteMeasure,
                            gap_edge, strictly_inside)
from blocklab.spectral import eigensolve, plain_block
import oracles
from oracles import (block_element, block_norm, dist1, edi_check_per_probe,
                     gri_check_per_realization, sample_field,
                     sli_check_per_realization)

GAPPED = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(0, 1), 40)
MIXED = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 41)


def constant_field(cube, v, b):
    n = cube.site_count
    return FieldSample(cube, np.full(n, float(v)), np.full(n, float(b)), 0)


def nestings(*cubes):
    """The Nesting of each cube in the next."""
    return tuple(nesting(inner, outer) for inner, outer in zip(cubes, cubes[1:]))


def two_by_two():
    cube = CubeSpec(1, 2)
    return plain_block(constant_field(cube, 1.0, 2.0))


def plain_on(cube, cfg, r):
    f = sample_field(cube, cfg, r)
    return plain_block(f), f


def dense_resolvent(m, energy):
    """Every column of (m - E)^-1 from `resolvent_columns`."""
    return resolvent_columns(m, [energy], np.arange(len(m)))[0]


def test_resolvent_2x2_closed_form():
    op = two_by_two()
    # H^2 = 13 I, so the inverse at E = 0 is H / 13
    assert np.allclose(dense_resolvent(op, 0.0), op / 13.0, atol=1e-14)
    assert np.allclose(resolvent_columns(op, [0.0], [1])[0], op[:, [1]] / 13.0,
                       atol=1e-14)
    assert spectral_distance(op, 0.0) == pytest.approx(np.sqrt(13))


def test_resolvent_rejects_spectrum():
    op = two_by_two()
    s = eigensolve(op)
    for e in s.eigenvalues:
        for spectrum in (None, s):
            with pytest.raises(PreconditionError):
                spectral_distance(op, float(e), spectrum)


def test_resolvent_norm_is_inverse_distance():
    op, _ = plain_on(CubeSpec(1, 9), MIXED, 0)
    delta = spectral_distance(op, 0.05)
    assert np.linalg.norm(dense_resolvent(op, 0.05), 2) == pytest.approx(
        1.0 / delta, rel=1e-10)


def test_block_element_identity():
    sites = oracles.sites(CubeSpec(1, 5))
    n = len(sites)
    eye = np.eye(2 * n)
    b = block_element(eye, sites, (0,), (0,))
    assert np.array_equal(b.entries, np.eye(2))
    assert block_norm(b) == pytest.approx(np.sqrt(2))
    assert np.all(block_element(eye, sites, (0,), (1,)).entries == 0)


def test_block_element_reads_assembly():
    cube = CubeSpec(1, 5)
    f = sample_field(cube, MIXED, 1)
    b = block_element(plain_block(f), oracles.sites(cube), (0,), (0,))
    k = oracles.sites(cube).index((0,))
    assert b.entries[0, 0] == pytest.approx(2.0 + f.V[k])
    assert b.entries[0, 1] == pytest.approx(f.B[k])
    assert b.entries[1, 0] == pytest.approx(f.B[k])
    assert b.entries[1, 1] == pytest.approx(-2.0 - f.V[k])


def test_hs_equality_of_block_norm():
    # Frobenius of the projected operator equals the 2x2 element norm
    cube = CubeSpec(1, 7)
    sites = oracles.sites(cube)
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
    assert gri_check(*nestings(c1, c2, c3), f, 0.0).parameters["residual"] <= 1e-10


def test_gri_blockwise_when_decoupled():
    c1, c2, c3 = CubeSpec(1, 2), CubeSpec(1, 5), CubeSpec(1, 9)
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 1)
    f = sample_field(c3, cfg, 0)
    assert gri_check(*nestings(c1, c2, c3), f, 0.0).parameters["residual"] <= 1e-12


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
        rep = gri_check(*nestings(c1, c2, c3), f, e)
        assert rep.passed
        count += 1
    assert count >= 30


def test_gri_requires_nesting():
    with pytest.raises(ValueError, match="strictly inside"):
        nestings(CubeSpec(1, 5), CubeSpec(1, 5), CubeSpec(1, 9))


def blocks(f, *cubes):
    """The field's plain blocks on the cubes."""
    return tuple(plain_block(f, c) for c in cubes)


def spectra(f, *cubes):
    """The spectra of the field's plain blocks on the cubes."""
    return tuple(map(eigensolve, blocks(f, *cubes)))


def host_spectrum(f):
    """The spectrum, with eigenvectors, of the field's plain block."""
    return eigensolve(plain_block(f), want_vectors=True)


def test_sli_holds_on_random_instances():
    rng = np.random.default_rng(3)
    for r in range(25):
        d = 1 if r % 2 == 0 else 2
        lengths = (2, 5, 9) if d == 1 else (2, 4, 7)
        c1, c2, c3 = (CubeSpec(d, l) for l in lengths)
        f = sample_field(c3, GAPPED, r)
        e = float(rng.uniform(-1.0, 1.0))
        rep = sli_check(*nestings(c1, c2, c3), blocks(f, c2, c3), e,
                        spectra(f, c2, c3))
        assert rep.passed


def test_sli_degenerate_core():
    # singleton core equal to the interior of the middle cube
    c1, c2, c3 = CubeSpec(1, 2), CubeSpec(1, 3), CubeSpec(1, 7)
    f = sample_field(c3, GAPPED, 5)
    assert sli_check(*nestings(c1, c2, c3), blocks(f, c2, c3), 0.3,
                     spectra(f, c2, c3)).passed


def test_sli_explicit_decoupled_case():
    c1, c2, c3 = CubeSpec(1, 2), CubeSpec(1, 5), CubeSpec(1, 9)
    f = constant_field(c3, 1.0, 0.0)
    assert sli_check(*nestings(c1, c2, c3), blocks(f, c2, c3), 0.0,
                     spectra(f, c2, c3)).passed


def test_edi_ground_state():
    cube3 = CubeSpec(1, 9)
    region = CubeSpec(1, 3)
    f = sample_field(cube3, GAPPED, 2)
    rep = edi_check(nesting(region, cube3), *blocks(f, region), 0, host_spectrum(f),
                    *spectra(f, region))
    assert rep.passed


def test_edi_all_eigenpairs_all_regions():
    cube3 = CubeSpec(1, 11)
    f = sample_field(cube3, GAPPED, 3)
    host = host_spectrum(f)
    dim = 2 * cube3.site_count
    checked = 0
    for j in range(dim):
        for L in (3, 5, 7):
            region = CubeSpec(1, L)
            try:
                rep = edi_check(nesting(region, cube3), *blocks(f, region), j, host,
                                *spectra(f, region))
            except PreconditionError:
                continue    # eigenvalue too close to the sub-cube spectrum
            assert rep.passed
            checked += 1
    assert checked > dim


def test_sli_and_edi_read_spectra_solved_by_the_caller(monkeypatch):
    c1, c2, c3 = CubeSpec(1, 2), CubeSpec(1, 5), CubeSpec(1, 9)
    f = sample_field(c3, GAPPED, 6)
    host = host_spectrum(f)
    middle, = spectra(f, c2)
    expected = [sli_check_per_realization(c1, c2, c3, f, 0.3, (middle, host)).to_json(),
                edi_check_per_probe(c2, c3, f, 7, host, middle).to_json()]
    m2, m3 = blocks(f, c2, c3)
    # given the blocks and their spectra, neither check assembles or solves one
    solves = []
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, **kw: solves.append(1))
    monkeypatch.setattr(green, "plain_block", lambda *a: solves.append(1))
    n12, n23 = nestings(c1, c2, c3)
    given = [sli_check(n12, n23, (m2, m3), 0.3, spectra=(middle, host)).to_json(),
             edi_check(n23, m2, 7, host=host, inner=middle).to_json()]
    assert solves == []
    assert given == expected


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs).to_json()
    except PreconditionError:
        return "precondition failed"


def _nest_or_none(inner, outer):
    """The Nesting of `inner` in `outer`, None where `nesting` refuses it:
    `inner` is not strictly inside."""
    try:
        return nesting(inner, outer)
    except ValueError:
        return None


def _nested_outcome(check, nests, *args):
    """_outcome of a library check on the Nestings `nests`, and the
    oracle's precondition failure where one of them was refused."""
    return "precondition failed" if None in nests else _outcome(check, *nests, *args)


@pytest.mark.parametrize("d, lengths", [
    (1, (2, 5, 9)), (1, (3, 7, 13)), (1, (5, 5, 9)), (1, (2, 5, 5)),
    (2, (2, 5, 9)), (2, (3, 5, 7)), (2, (5, 5, 9)), (2, (2, 5, 5)),
])
def test_nested_checks_match_the_per_realization_oracle(d, lengths):
    # strict triples and triples with region1 = region2 or region2 = region3
    cubes = tuple(CubeSpec(d, l) for l in lengths)
    c2, c3 = cubes[1:]
    nests = tuple(_nest_or_none(inner, outer) for inner, outer in zip(cubes, cubes[1:]))
    seen = set()
    for r in range(3):
        f = sample_field(c3, GAPPED, r)
        host = host_spectrum(f)
        middle, = spectra(f, c2)
        m2, m3 = blocks(f, c2, c3)
        j = len(host.eigenvalues) // 2 + r
        for e in (0.0, 0.5, 2.0):
            for out, expected in (
                    (_nested_outcome(gri_check, nests, f, e),
                     _outcome(gri_check_per_realization, *cubes, f, e)),
                    (_nested_outcome(sli_check, nests, (m2, m3), e, (middle, host)),
                     _outcome(sli_check_per_realization, *cubes, f, e, (middle, host)))):
                assert out == expected
                seen.add(out if isinstance(out, str) else out["name"])
        out = _nested_outcome(edi_check, nests[1:], m2, j, host, middle)
        assert out == _outcome(edi_check_per_probe, c2, c3, f, j, host, middle)
        seen.add(out if isinstance(out, str) else out["name"])
    strict = lengths[0] < lengths[1] < lengths[2]
    assert ("gri_residual" in seen) == ("sli" in seen) == strict
    assert ("edi" in seen) == (lengths[1] < lengths[2])
    assert ("precondition failed" in seen) != strict


def test_edi_interior_support_gives_slack():
    cube3 = CubeSpec(1, 9)
    region = CubeSpec(1, 3)
    f = sample_field(cube3, GAPPED, 4)
    rep = edi_check(nesting(region, cube3), *blocks(f, region), 0, host_spectrum(f),
                    *spectra(f, region))
    assert rep.passed and rep.worst_margin > 0


def test_combes_thomas_diagonal_bound():
    cube = CubeSpec(1, 11)
    profile = decay_profile(sample_field(cube, GAPPED, 0), 0.0, in_gap=False)
    first, second = np.divmod(np.arange(len(profile.norm)), cube.site_count)
    diagonal = first == second
    assert np.all(profile.norm[diagonal]
                  <= profile.bound_by_dist[profile.dist[diagonal]] + 1e-12)


def test_combes_thomas_all_pairs():
    cube = CubeSpec(1, 30)
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 9)
    for r in range(5):
        f = sample_field(cube, cfg, r)
        rep = combes_thomas_check(decay_profile(f, 0.0, in_gap=False))
        assert rep.passed
        assert rep.parameters["delta"] == pytest.approx(1.0)  # capped at 1


def test_decay_rate_beats_ct_rate():
    cube = CubeSpec(1, 30)
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 9)
    f = sample_field(cube, cfg, 1)
    rate, _ = decay_rate_fit(decay_profile(f, 0.0, in_gap=False))
    assert rate < 0
    assert -rate >= 1.0 / 12.0    # delta = 1, d = 1


def test_decay_profile_columns():
    cube = CubeSpec(1, 7)
    profile = decay_profile(sample_field(cube, GAPPED, 6), 0.0, in_gap=False)
    sites = oracles.sites(cube)
    n = len(sites)
    k = sites.index((0,)) * n + sites.index((2,))
    (i, j), dist = divmod(k, n), profile.dist[k]
    assert (sites[i], sites[j], dist) == ((0,), (2,), 2)
    assert profile.norm[k] <= profile.bound_by_dist[dist] + 1e-12


def test_combes_thomas_bound_over_an_array_rounds_as_each_distance_alone():
    dists = np.arange(2000)
    for delta in np.random.default_rng(0).uniform(0.0, 1.0, 10).tolist() + [1.0]:
        for d in (1, 2, 3):
            caps = combes_thomas_bound(delta, d, dists)
            assert np.array_equal(caps, [combes_thomas_bound(delta, d, k)
                                         for k in dists.tolist()])


@pytest.mark.parametrize("cube", [CubeSpec(1, 9), CubeSpec(2, 4)])
def test_ct_check_fit_and_profile_match_independent_resolvents(cube):
    op, f = plain_on(cube, GAPPED, 3)
    profile = decay_profile(f, 0.0, in_gap=False)

    g = np.linalg.inv(op)
    delta = min(float(np.abs(np.linalg.eigvalsh(op)).min()), 1.0)
    sites = oracles.sites(cube)
    pairs = [(n, m) for n in sites for m in sites]
    norms = np.array([block_norm(block_element(g, sites, n, m))
                      for n, m in pairs])
    dists = np.array([dist1(n, m) for n, m in pairs])
    caps = np.array([combes_thomas_bound(delta, cube.d, k) for k in dists])
    assert profile.delta == delta
    assert [(*divmod(k, len(sites)), dist) for k, dist in enumerate(profile.dist)] \
        == [(sites.index(n), sites.index(m), k) for (n, m), k in zip(pairs, dists)]
    assert np.allclose(profile.norm, norms, rtol=1e-12, atol=0)
    assert np.array_equal(profile.bound_by_dist[profile.dist], caps)

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


def test_decay_rate_fit_needs_two_distances():
    def profile(dist, norm):
        norm = np.array(norm)
        return DecayProfile(0.0, 1.0, np.array(dist), norm, norm)
    # the diagonal and the norms below the floor are dropped
    for dist, norm in (([0, 1], [1.0, 0.5]), ([0, 1, 1], [1.0, 0.5, 0.25]),
                       ([0, 1, 2], [1.0, 0.5, 1e-15])):
        with pytest.raises(PreconditionError, match="not enough usable pairs"):
            decay_rate_fit(profile(dist, norm))
    rate, intercept = decay_rate_fit(profile([0, 1, 2, 3], [1.0, 0.5, 0.25, 0.125]))
    assert rate == pytest.approx(-math.log(2.0), rel=1e-15)
    assert intercept == pytest.approx(0.0, abs=1e-15)


# the slice recursion's cases: measures with a gap edge, each with an
# energy exactly 1 inside it, where the exact gate of the ct kind passes;
# the measures of the resolvent-decay benchmark and constant fields (beta
# of case 1), a mu_B with sup supp <= 0 (case 2, edge hypot(3, 4) = 5) and
# a mu_B straddling 0 (case 3, beta = 0)
SLICE_CASES = [(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(0, 1), 0.0),
               (SiteMeasure.point_mass(1), SiteMeasure.point_mass(0), 0.0),
               (SiteMeasure.uniform(3, 4), SiteMeasure.uniform(-5, -4), 4.0),
               (SiteMeasure.uniform(3, 4), SiteMeasure.uniform(-5, -4), -4.0),
               (SiteMeasure.uniform(2, 3), SiteMeasure.uniform(-1, 1), 1.0),
               (SiteMeasure.uniform(2, 3), SiteMeasure.uniform(-1, 1), -1.0)]
SLICE_CUBES = [CubeSpec(1, 15), CubeSpec(2, 9), CubeSpec(3, 6)]


def _gap_edge(mu_V, mu_B):
    return gap_edge(DisorderConfig(mu_V, mu_B))


@pytest.mark.parametrize("cube", SLICE_CUBES + [CubeSpec(1, 31), CubeSpec(2, 12)])
def test_eigensolve_distance_at_the_gate_is_one_up_to_rounding(cube):
    # the gated profile puts the capped distance at 1.0 with no spectrum;
    # eigvalsh is backward stable, each computed eigenvalue within about
    # n u ||m||_2 of an exact one (u the unit roundoff), and ||m||_2 is at
    # most the largest absolute row sum of the symmetric m
    for k, (mu_V, mu_B, energy) in enumerate(SLICE_CASES):
        assert _gap_edge(mu_V, mu_B) - abs(energy) == 1.0
        f = sample_field(cube, DisorderConfig(mu_V, mu_B, 70 + k), 0)
        m = plain_block(f)
        rounding = len(m) * np.finfo(float).eps / 2 * np.abs(m).sum(axis=1).max()
        distance = np.abs(np.linalg.eigvalsh(m) - energy).min()
        assert distance >= 1.0 - rounding, k
        assert decay_profile(f, energy, in_gap=True).delta == 1.0


def slice_order(cube):
    """Index in slice order, (slice k, component c, site j of the slice),
    of every row of the block layout, (c, canonical site k s + j)."""
    n = len(oracles.axis_offsets(cube.L))
    s = cube.site_count // n
    c, k, j = np.indices((2, n, s)).reshape(3, -1)
    return (k * 2 + c) * s + j


@pytest.mark.parametrize("cube", [CubeSpec(1, 9), CubeSpec(2, 7), CubeSpec(3, 5)])
def test_slice_blocks_are_the_diagonal_blocks_of_the_plain_block(cube):
    # every slice block built from the fields equals the one read out of the
    # assembled operator, for several fields and both signs of B, of one
    # field and of a block of realizations at once
    n = len(oracles.axis_offsets(cube.L))
    w = 2 * cube.site_count // n
    order = slice_order(cube)
    for k, cfg in enumerate((GAPPED, MIXED, DisorderConfig(
            SiteMeasure.uniform(-3, 3), SiteMeasure.uniform(-2, 1), 42))):
        V, B = sample_fields(cube, cfg)(range(3))
        blocks = schur.slice_blocks(cube, V, B)
        assert blocks.shape == (3, n, w, w)
        for r in range(3):
            f = sample_field(cube, cfg, r)
            m = np.empty((len(order),) * 2)
            m[np.ix_(order, order)] = plain_block(f)
            dense = np.array([m[j * w:(j + 1) * w, j * w:(j + 1) * w] for j in range(n)])
            assert np.array_equal(schur.slice_blocks(cube, f.V, f.B), dense), (k, r)
            assert np.array_equal(blocks[r], dense), (k, r)


def _traced_peak(fn, *args):
    """fn(*args) and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_slice_blocks_build_no_cube_sized_laplacian():
    # d = 2, L = 44: the N x N Laplacian of the 1,849 sites alone takes
    # 27.4 MB, the slice blocks 2.5 MB
    cube = CubeSpec(2, 44)
    f = sample_field(cube, GAPPED, 0)
    blocks, peak = _traced_peak(schur.slice_blocks, cube, f.V, f.B)
    assert blocks.shape == (43, 86, 86)
    assert peak < 2 * blocks.nbytes


@pytest.mark.parametrize("energy", [2.0, -1.3, 0.0])
def test_resolvent_columns_keep_the_bits_of_one_solve_in_less_memory(energy):
    # the bits of one solve of m - E eye against the identity's columns,
    # the signs of its zeros included.  Against every column the solve's
    # arrays trace about 4 dim^2 doubles; beside them the residual check
    # holds no array of the size of m (with an identity, m - E eye and
    # full-size residual and modulus arrays, the peak was 6 dim^2)
    cube = CubeSpec(2, 16)
    m = plain_block(sample_field(cube, MIXED, 0))
    dim = len(m)
    eye = np.eye(dim)
    for cols in (np.arange(dim), [0, 5, dim - 1]):
        x, peak = _traced_peak(resolvent_columns, m, [energy], cols)
        ref = np.linalg.solve(m - np.array([energy])[:, None, None] * eye, eye[:, cols])
        assert np.array_equal(x, ref) and np.array_equal(np.signbit(x), np.signbit(ref))
        assert peak < (1.5 * dim + 3 * len(x[0, 0])) * dim * 8


@pytest.mark.parametrize("cube", SLICE_CUBES)
def test_slice_resolvent_matches_the_dense_inverse(cube):
    order = slice_order(cube)
    for k, (mu_V, mu_B, energy) in enumerate(SLICE_CASES):
        assert _gap_edge(mu_V, mu_B) - abs(energy) == 1.0
        f = sample_field(cube, DisorderConfig(mu_V, mu_B, 70 + k), 0)
        m = plain_block(f)
        g = green.slice_resolvent(f, energy)[np.ix_(order, order)]
        shifted = oracles.plain_block_on(cube, f) - energy * np.eye(len(m))
        for dense in (dense_resolvent(m, energy), np.linalg.inv(shifted)):
            assert np.abs(g - dense).max() <= 1e-13 * np.abs(g).max(), k


@pytest.mark.parametrize("cube", SLICE_CUBES[1:])
def test_leading_slice_sections_keep_the_gap(cube):
    # the sites of the first j slices span a rectangle, whose plain block
    # has no eigenvalue inside the deterministic gap edge: the recursion's
    # pivots stay bounded by 1 / (edge - |E|)
    sites = oracles.sites(cube)
    for k, (mu_V, mu_B, _) in enumerate(SLICE_CASES):
        edge = _gap_edge(mu_V, mu_B)
        f = sample_field(cube, DisorderConfig(mu_V, mu_B, 70 + k), 0)
        for last in oracles.axis_offsets(cube.L):
            section = [s for s in sites if s[0] <= last]
            eigenvalues = np.linalg.eigvalsh(oracles.plain_block_on(section, f))
            assert np.abs(eigenvalues).min() >= edge * (1.0 - 1e-12), (k, last)


def test_gap_profile_peaks_below_two_resolvents():
    # an in-gap profile holds G and its norm grid: no assembled operator,
    # no layout copy of G, no pair index arrays; the second call reads the
    # per-cube caches the first one filled
    cube = CubeSpec(2, 20)
    dim = 2 * cube.site_count
    assert dim == 722
    f = sample_field(cube, GAPPED, 0)
    decay_profile(f, 0.0, in_gap=True)
    tracemalloc.start()
    try:
        decay_profile(f, 0.0, in_gap=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * dim ** 2 * 8


def test_slice_resolvent_keeps_the_residual_contract(monkeypatch):
    cube = CubeSpec(2, 9)
    f = sample_field(cube, GAPPED, 5)
    green.slice_resolvent(f, 0.0)
    monkeypatch.setattr(schur, "RESOLVENT_RESIDUAL_TOL", -1.0)
    with pytest.raises(ArithmeticError, match="exceeds contract"):
        green.slice_resolvent(f, 0.0)
