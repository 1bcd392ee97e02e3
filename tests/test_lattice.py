import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklab.lattice import (CubeSpec, axis_count, boundary, dist1,
                              inner_boundary, outer_boundary, sites,
                              strictly_inside)


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
