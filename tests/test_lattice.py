import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from blocklab import operators
from blocklab.lattice import (dist1_array, inner_boundary, outer_boundary, site_array,
                              site_index, strictly_inside)
from blocklab.model import CubeSpec, axis_count
from oracles import dist1


def brute_sites(d, L, center):
    """Independent enumeration over a bounding box."""
    span = range(-int(L) - 2, int(L) + 3)
    out = []
    for combo in itertools.product(span, repeat=d):
        if all(-L < 2 * k < L for k in combo):
            out.append(tuple(c + k for c, k in zip(center, combo)))
    return sorted(out)


def brute_boundary_sets(site_list):
    inside = set(site_list)
    inner, outer, edges = set(), set(), set()
    for n in inside:
        for j in range(len(n)):
            for step in (1, -1):
                m = n[:j] + (n[j] + step,) + n[j + 1:]
                if m not in inside:
                    inner.add(n)
                    outer.add(m)
                    edges.add((n, m))
                    edges.add((m, n))
    return inner, outer, edges


def rows(a) -> list:
    """The sites of a (k, d) site array, as tuples in its order."""
    return [tuple(s) for s in np.asarray(a).tolist()]


def test_sites_1d_examples():
    assert rows(site_array(CubeSpec(1, 3))) == [(-1,), (0,), (1,)]
    # the open interval drops +-2
    assert rows(site_array(CubeSpec(1, 4))) == [(-1,), (0,), (1,)]
    assert site_array(CubeSpec(2, 3)).shape == (9, 2)


def test_sites_shifted_center():
    assert rows(site_array(CubeSpec(1, 3, (5,)))) == [(4,), (5,), (6,)]


def test_sites_lexicographic_and_unique():
    ss = rows(site_array(CubeSpec(2, 5)))
    assert ss == sorted(set(ss))


def test_empty_cube_rejected():
    with pytest.raises(ValueError):
        site_array(CubeSpec(1, 1.0))
    with pytest.raises(ValueError):
        CubeSpec(2, 0.5).site_count


def test_noninteger_lengths_match_brute_force():
    for L in (1.5, 2.0, 2.5, 3.7, 6.0):
        assert rows(site_array(CubeSpec(1, L))) == brute_sites(1, L, (0,))


def test_boundary_singleton():
    edges = set(oracles.boundary([(0,)]))
    assert edges == {((0,), (1,)), ((1,), (0,)), ((0,), (-1,)), ((-1,), (0,))}
    cube = CubeSpec(1, 2)                      # the site 0 alone
    assert rows(inner_boundary(cube)) == [(0,)]
    assert rows(outer_boundary(cube)) == [(-1,), (1,)]


def test_inner_outer_1d():
    cube = CubeSpec(1, 3)
    assert rows(inner_boundary(cube)) == [(-1,), (1,)]
    assert rows(outer_boundary(cube)) == [(-2,), (2,)]


def test_boundary_counts_2d():
    cube = CubeSpec(2, 3)
    assert len(inner_boundary(cube)) == 8
    assert len(outer_boundary(cube)) == 12


def test_strictly_inside_examples():
    assert strictly_inside(CubeSpec(1, 1.5), CubeSpec(1, 3))
    assert not strictly_inside(CubeSpec(1, 3), CubeSpec(1, 3))
    assert strictly_inside(CubeSpec(2, 3), CubeSpec(2, 5))
    # a margin on one side only is not enough
    assert not strictly_inside(CubeSpec(2, 3, (1, 0)), CubeSpec(2, 5))
    assert oracles.strictly_inside([(0,)], CubeSpec(1, 3))


def test_dist1():
    assert dist1((0,), (0,)) == 0
    assert dist1((1, 2), (-1, 3)) == 3
    assert dist1((5,), (-5,)) == 10


@pytest.mark.parametrize("d,L", [(d, L) for d in (1, 2, 3) for L in range(2, 13)])
def test_boundaries_match_brute_force(d, L):
    cube = CubeSpec(d, L)
    ss = brute_sites(d, L, (0,) * d)
    inner, outer, edges = brute_boundary_sets(ss)
    assert rows(inner_boundary(cube)) == sorted(inner)
    assert rows(outer_boundary(cube)) == sorted(outer)
    assert set(oracles.boundary(ss)) == edges
    # surface-to-volume bound for cubes
    assert len(inner) <= 2 * d * len(ss) ** ((d - 1) / d) + 1e-9


def test_boundary_first_components_partition():
    cube = CubeSpec(2, 4)
    firsts = {n for n, _ in oracles.boundary(cube)}
    assert firsts == set(rows(inner_boundary(cube))) | set(rows(outer_boundary(cube)))


@given(st.integers(1, 3), st.floats(1.2, 9.0), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_cube_invariants(d, L, c0):
    cube = CubeSpec(d, L, (c0,) * d)
    points = site_array(cube)
    assert points.shape == (cube.site_count, d) and cube.site_count > 0
    # every site lies in the open box center + ]-L/2, L/2[^d
    assert np.all(np.abs(2 * (points - c0)) < L)
    assert cube.site_count == len(oracles.axis_offsets(L)) ** d


@given(st.integers(1, 2), st.floats(1.5, 5.0), st.floats(3.0, 12.0))
@settings(max_examples=40, deadline=None)
def test_strict_inclusion_needs_margin(d, L1, L2):
    c1, c2 = CubeSpec(d, L1), CubeSpec(d, L2)
    have = set(oracles.sites(c2))
    expected = all(s in have for pair in oracles.boundary(c1) for s in pair)
    assert strictly_inside(c1, c2) == expected


def test_axis_count_closed_form_matches_offsets():
    lengths = ([float(n) for n in range(2, 80)]
               + [n + 0.5 for n in range(1, 80)]
               + [n / 3.0 for n in range(4, 400)])
    for L in lengths:
        assert axis_count(L) == len(oracles.axis_offsets(L)), L
    with pytest.raises(ValueError):
        axis_count(1.0)


INDEX_CUBES = [CubeSpec(1, 9, (-40,)), CubeSpec(1, 4, (3,)),
               CubeSpec(2, 7, (5, -9)), CubeSpec(2, 6),
               CubeSpec(3, 5, (-2, 7, 1000)), CubeSpec(3, 3.5, (1, 1, 1))]


@pytest.mark.parametrize("cube", INDEX_CUBES, ids=str)
def test_site_index_matches_dict_oracle(cube):
    ss = oracles.sites(cube)
    assert rows(site_array(cube)) == list(ss)
    sub = CubeSpec(cube.d, 2.5, cube.center)          # a sub-cube, off origin
    absent = tuple(c + 50 for c in cube.center)
    shuffled = [ss[k] for k in np.random.default_rng(0).permutation(len(ss))]
    queries = [ss, shuffled, oracles.sites(sub), [absent] + list(ss[:3]) + [absent]]
    for query in queries:
        expected = oracles.site_index(cube, query).tolist()
        assert site_index(cube, np.array(query)).tolist() == expected
    assert site_index(cube, sub).tolist() == oracles.site_index(cube, sub).tolist()
    assert site_index(cube, np.empty((0, cube.d))).tolist() == []


def test_site_index_strict_and_dimension():
    cube = CubeSpec(2, 5, (4, -4))
    assert site_index(cube, [(4, -4), (9, 9)]).tolist() == [12, -1]
    with pytest.raises(KeyError, match=r"\(9, 9\)"):
        site_index(cube, [(4, -4), (9, 9)], strict=True)
    with pytest.raises(ValueError):
        site_index(cube, [(4, -4, 0)])


@pytest.mark.parametrize("cube", INDEX_CUBES, ids=str)
def test_dist1_array_matches_dist1(cube):
    ss = oracles.sites(cube)
    other = oracles.sites(CubeSpec(cube.d, 3, tuple(c + 7 for c in cube.center)))
    a, b = np.array(ss), np.array(other)
    assert dist1_array(a[:, None], b[None]).tolist() == \
        [[dist1(n, m) for m in other] for n in ss]
    pairs = list(zip(ss, reversed(ss)))
    assert dist1_array(np.array([n for n, _ in pairs]),
                       np.array([m for _, m in pairs])).tolist() == \
        [dist1(n, m) for n, m in pairs]


# even and odd lengths, non-integer ones, and 1 < L <= 2 (one site per axis)
ORACLE_LENGTHS = (1.5, 2, 3, 4, 5, 6.5, 7, 9)
ORACLE_CENTERS = {1: [(0,), (3,), (-17,)],
                  2: [(0, 0), (2, -5), (-40, 1)],
                  3: [(0, 0, 0), (1, -2, 3), (-6, 0, 11)]}


def _host_cubes(cube):
    """Ten cubes around `cube`: concentric ones, ones shifted by a step on
    one axis or all, and a far one, each inside or outside."""
    c = np.array(cube.center)
    shifts = [(0,) * cube.d, (1,) + (0,) * (cube.d - 1), (-1,) * cube.d]
    hosts = [CubeSpec(cube.d, L, tuple((c + s).tolist()))
             for s in shifts for L in (cube.L, cube.L + 2, cube.L + 4)]
    return hosts + [CubeSpec(cube.d, cube.L + 4, tuple((c + 40).tolist()))]


@pytest.mark.parametrize("d, L, center", [
    (d, L, center) for d in (1, 2, 3) for L in ORACLE_LENGTHS
    for center in ORACLE_CENTERS[d]])
def test_cube_geometry_matches_set_oracle(d, L, center):
    cube = CubeSpec(d, L, center)
    ss = oracles.sites(cube)
    assert rows(site_array(cube)) == list(ss)
    assert rows(inner_boundary(cube)) == list(oracles.inner_boundary(cube))
    assert rows(outer_boundary(cube)) == list(oracles.outer_boundary(cube))
    # the sites, shuffled, then the outer boundary: absent, one step out
    order = np.random.default_rng(len(ss)).permutation(len(ss))
    query = [ss[k] for k in order] + list(oracles.outer_boundary(cube))
    assert site_index(cube, np.array(query)).tolist() == \
        oracles.site_index(cube, query).tolist()
    hosts = _host_cubes(cube)
    outcomes = [strictly_inside(cube, host) for host in hosts]
    assert outcomes == [oracles.strictly_inside(cube, host) for host in hosts]
    assert True in outcomes and False in outcomes


def test_geometry_memory_is_linear_in_the_sites():
    """site_array, rim_indices, outer_boundary and site_index of every site
    of a d = 1 cube of 2e5 sites peak at under 64 traced bytes per site:
    O(N) arrays, no Python object per site."""
    cube = CubeSpec(1, 2e5)
    n = cube.site_count
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        points = site_array(cube)
        rim = operators.rim_indices.__wrapped__(cube)
        outer = outer_boundary(cube)
        idx = site_index(cube, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(idx, np.arange(n))
    assert rim.tolist() == [0, n - 1, n, 2 * n - 1]
    assert outer.ravel().tolist() == [-(n // 2) - 1, n // 2 + 1]
    assert peak < 64 * n, peak / n
