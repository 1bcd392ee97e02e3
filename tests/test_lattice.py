import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklab.lattice import (CubeSpec, axis_count, boundary, dist1_array,
                              inner_boundary, outer_boundary, site_array,
                              site_index, sites, strictly_inside)
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


def test_sites_1d_examples():
    assert CubeSpec(1, 3).sites() == ((-1,), (0,), (1,))
    assert CubeSpec(1, 4).sites() == ((-1,), (0,), (1,))   # open interval drops +-2
    assert len(CubeSpec(2, 3).sites()) == 9


def test_sites_shifted_center():
    assert CubeSpec(1, 3, (5,)).sites() == ((4,), (5,), (6,))


def test_sites_lexicographic_and_unique():
    ss = CubeSpec(2, 5).sites()
    assert list(ss) == sorted(set(ss))


def test_empty_cube_rejected():
    with pytest.raises(ValueError):
        CubeSpec(1, 1.0).sites()
    with pytest.raises(ValueError):
        CubeSpec(2, 0.5).sites()


def test_noninteger_lengths_match_brute_force():
    for L in (1.5, 2.0, 2.5, 3.7, 6.0):
        assert list(CubeSpec(1, L).sites()) == brute_sites(1, L, (0,))


def test_boundary_singleton():
    edges = set(boundary([(0,)]).pairs)
    assert edges == {((0,), (1,)), ((1,), (0,)), ((0,), (-1,)), ((-1,), (0,))}


def test_inner_outer_1d():
    cube = CubeSpec(1, 3)
    assert inner_boundary(cube) == ((-1,), (1,))
    assert outer_boundary(cube) == ((-2,), (2,))


def test_boundary_counts_2d():
    cube = CubeSpec(2, 3)
    assert len(inner_boundary(cube)) == 8
    assert len(outer_boundary(cube)) == 12


def test_strictly_inside_examples():
    assert strictly_inside([(0,)], CubeSpec(1, 3))
    assert not strictly_inside(CubeSpec(1, 3), CubeSpec(1, 3))
    assert strictly_inside(CubeSpec(2, 3), CubeSpec(2, 5))


def test_dist1():
    assert dist1((0,), (0,)) == 0
    assert dist1((1, 2), (-1, 3)) == 3
    assert dist1((5,), (-5,)) == 10


@pytest.mark.parametrize("d,L", [(d, L) for d in (1, 2, 3) for L in range(2, 13)])
def test_boundaries_match_brute_force(d, L):
    cube = CubeSpec(d, L)
    ss = cube.sites()
    inner, outer, edges = brute_boundary_sets(ss)
    assert set(inner_boundary(ss)) == inner
    assert set(outer_boundary(ss)) == outer
    assert set(boundary(ss).pairs) == edges
    # surface-to-volume bound for cubes
    assert len(inner) <= 2 * d * len(ss) ** ((d - 1) / d) + 1e-9


def test_boundary_first_components_partition():
    cube = CubeSpec(2, 4)
    firsts = {n for n, _ in boundary(cube).pairs}
    assert firsts == set(inner_boundary(cube)) | set(outer_boundary(cube))


@given(st.integers(1, 3), st.floats(1.2, 9.0), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_cube_invariants(d, L, c0):
    cube = CubeSpec(d, L, (c0,) * d)
    ss = cube.sites()
    assert len(ss) == cube.site_count > 0
    assert all(s in cube for s in ss)
    per_axis = len(cube.axis_offsets())
    assert len(ss) == per_axis ** d


@given(st.integers(1, 2), st.floats(1.5, 5.0), st.floats(3.0, 12.0))
@settings(max_examples=40, deadline=None)
def test_strict_inclusion_needs_margin(d, L1, L2):
    c1, c2 = CubeSpec(d, L1), CubeSpec(d, L2)
    expected = set(boundary(c1).endpoints()) <= set(c2.sites())
    assert strictly_inside(c1, c2) == expected


def test_axis_count_closed_form_matches_offsets():
    lengths = ([float(n) for n in range(2, 80)]
               + [n + 0.5 for n in range(1, 80)]
               + [n / 3.0 for n in range(4, 400)])
    for L in lengths:
        assert axis_count(L) == len(CubeSpec(1, L).axis_offsets()), L
    with pytest.raises(ValueError):
        axis_count(1.0)


INDEX_CUBES = [CubeSpec(1, 9, (-40,)), CubeSpec(1, 4, (3,)),
               CubeSpec(2, 7, (5, -9)), CubeSpec(2, 6),
               CubeSpec(3, 5, (-2, 7, 1000)), CubeSpec(3, 3.5, (1, 1, 1))]


def dict_index(region, query):
    """The site -> index dict the lookup replaces, -1 for absent sites."""
    idx = {s: i for i, s in enumerate(sites(region))}
    return [idx.get(tuple(q), -1) for q in query]


@pytest.mark.parametrize("cube", INDEX_CUBES, ids=str)
def test_site_index_matches_dict_oracle(cube):
    ss = cube.sites()
    assert site_array(cube).tolist() == [list(s) for s in ss]
    sub = CubeSpec(cube.d, 2.5, cube.center)          # a sub-cube, off origin
    absent = tuple(c + 50 for c in cube.center)
    shuffled = [ss[k] for k in np.random.default_rng(0).permutation(len(ss))]
    queries = [ss, shuffled, sub.sites(), [absent] + list(ss[:3]) + [absent]]
    for region in (cube, ss, shuffled):       # a cube or its sites, any order
        for query in queries:
            expected = dict_index(cube, query)
            assert site_index(region, query).tolist() == expected
            assert site_index(region, np.array(query)).tolist() == expected
        assert site_index(region, sub).tolist() == dict_index(cube, sub.sites())
    # a region that is not a cube: the inner boundary, with its holes
    ring = inner_boundary(cube) if cube.site_count > 1 else ss
    assert site_index(ring, ss).tolist() == dict_index(ring, ss)
    assert site_index(ring, []).tolist() == []


def test_site_index_strict_and_dimension():
    cube = CubeSpec(2, 5, (4, -4))
    assert site_index(cube, [(4, -4), (9, 9)]).tolist() == [12, -1]
    with pytest.raises(KeyError, match=r"\(9, 9\)"):
        site_index(cube, [(4, -4), (9, 9)], strict=True)
    with pytest.raises(ValueError):
        site_index(cube, [(4, -4, 0)])
    with pytest.raises(KeyError):
        site_index([(0,), (2,)], [(1,)], strict=True)     # gap in the region


@pytest.mark.parametrize("cube", INDEX_CUBES, ids=str)
def test_dist1_array_matches_dist1(cube):
    ss = cube.sites()
    other = CubeSpec(cube.d, 3, tuple(c + 7 for c in cube.center)).sites()
    a, b = site_array(ss), site_array(other)
    assert dist1_array(a[:, None], b[None]).tolist() == \
        [[dist1(n, m) for m in other] for n in ss]
    pairs = list(zip(ss, reversed(ss)))
    assert dist1_array(np.array([n for n, _ in pairs]),
                       np.array([m for _, m in pairs])).tolist() == \
        [dist1(n, m) for n, m in pairs]
