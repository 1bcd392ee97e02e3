import numpy as np
import pytest

from blocklab import lattice, operators
from blocklab.disorder import FieldSample
from blocklab.lattice import site_index
from blocklab.model import CubeSpec, DisorderConfig, SiteMeasure
from blocklab.operators import (BOUNDARY_CONDITIONS, assemble_bracketing,
                                assemble_plain, block, build_gamma, build_h,
                                build_h0, component_indices)
from blocklab.spectral import plain_block
import oracles
from oracles import (dump_matrix, embed_block, indicator, laplacian_on, plain_block_on,
                     sample_field)

UNIT = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 31)


def constant_field(cube, v, b):
    n = cube.site_count
    return FieldSample(cube, np.full(n, float(v)), np.full(n, float(b)), 0)


def test_h0_simple_1d():
    h = build_h0(CubeSpec(1, 3), "simple")
    assert np.array_equal(h, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    eigs = np.linalg.eigvalsh(h)
    assert eigs == pytest.approx([2 - np.sqrt(2), 2, 2 + np.sqrt(2)])


def test_h0_neumann_1d():
    h = build_h0(CubeSpec(1, 3), "neumann")
    assert np.array_equal(np.diag(h), [1, 2, 1])
    ev, vec = np.linalg.eigh(h)
    assert ev[0] == pytest.approx(0.0, abs=1e-14)
    ground = vec[:, 0]
    assert np.allclose(ground, ground[0])     # constant eigenvector


def test_h0_dirichlet_1d():
    h = build_h0(CubeSpec(1, 3), "dirichlet")
    assert np.array_equal(np.diag(h), [3, 2, 3])


def test_h0_symmetric_exactly():
    for bc in ("simple", "neumann", "dirichlet"):
        m = build_h0(CubeSpec(2, 4), bc)
        assert np.array_equal(m, m.T)


def test_h0_offdiagonal_structure_2d():
    cube = CubeSpec(2, 3)
    h = build_h0(cube, "simple")
    sites = oracles.sites(cube)
    idx = {s: i for i, s in enumerate(sites)}
    for n in sites:
        for m in sites:
            expected = -1.0 if sum(abs(a - b) for a, b in zip(n, m)) == 1 else \
                (4.0 if n == m else 0.0)
            assert h[idx[n], idx[m]] == expected


def test_build_h_zero_potential():
    cube = CubeSpec(1, 5)
    f = constant_field(cube, 0.0, 0.0)
    assert np.array_equal(build_h(cube, "simple", f.V), build_h0(cube, "simple"))


def test_build_h_single_site():
    cube = CubeSpec(1, 2)
    f = constant_field(cube, 1.0, 0.0)
    assert np.array_equal(build_h(cube, "simple", f.V), [[3.0]])


def test_build_h_positive_definite_under_nonneg_v():
    rng_cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.point_mass(0), 1)
    for r in range(20):
        f = sample_field(CubeSpec(1, 8), rng_cfg, r)
        h = build_h(CubeSpec(1, 8), "simple", f.V)
        assert np.linalg.eigvalsh(h)[0] > 0


def test_plain_block_2x2():
    cube = CubeSpec(1, 2)
    f = constant_field(cube, 1.0, 2.0)
    m = plain_block(f)
    assert np.array_equal(m, [[3, 2], [2, -3]])
    assert np.linalg.eigvalsh(m) == pytest.approx([-np.sqrt(13), np.sqrt(13)])


def test_block_layout_and_symmetry():
    cube = CubeSpec(2, 3)
    f = sample_field(cube, UNIT, 0)
    h = build_h(cube, "simple", f.V)
    m = plain_block(f)
    n = len(h)
    assert np.array_equal(m, m.T)
    assert np.array_equal(m[:n, :n], h)
    assert np.array_equal(m[n:, n:], -h)
    off = m[:n, n:]
    assert np.array_equal(off, np.diag(np.diag(off)))
    assert np.diag(off) == pytest.approx(f.B)


def test_beta_zero_reference_is_block_diagonal():
    cube = CubeSpec(1, 5)
    f = sample_field(cube, UNIT, 3)
    h = build_h(cube, "simple", f.V)
    scalar = np.linalg.eigvalsh(h)
    ev = np.linalg.eigvalsh(block(h, 0.0, h))
    assert ev == pytest.approx(np.sort(np.concatenate([scalar, -scalar])))


def test_bracketing_decouples_at_b_zero():
    cube = CubeSpec(1, 3)
    f = constant_field(cube, 0.0, 0.0)
    m = assemble_bracketing(cube, f.V, f.B)
    hd = np.linalg.eigvalsh(build_h0(cube, "dirichlet"))
    hn = np.linalg.eigvalsh(build_h0(cube, "neumann"))
    expected = np.sort(np.concatenate([hd, -hn]))
    assert np.linalg.eigvalsh(m) == pytest.approx(expected)


def test_quadratic_form_bracketing():
    rng = np.random.default_rng(2)
    for d, L in ((1, 9), (2, 4), (1, 10), (2, 3)):
        cube = CubeSpec(d, L)
        hn = build_h0(cube, "neumann")
        h0 = build_h0(cube, "simple")
        hd = build_h0(cube, "dirichlet")
        for _ in range(50):
            v = rng.standard_normal(len(h0))
            assert v @ hn @ v <= v @ h0 @ v + 1e-12
            assert v @ h0 @ v <= v @ hd @ v + 1e-12


def test_gamma_star_graph():
    ambient = CubeSpec(1, 3)
    g = build_gamma(CubeSpec(1, 1.5), ambient)         # the site (0,) alone
    assert np.array_equal(g, oracles.gamma_on([(0,)], ambient))
    sites = oracles.sites(ambient)
    idx = {s: i for i, s in enumerate(sites)}
    nz = {(a, b) for a in sites for b in sites if g[idx[a], idx[b]] != 0}
    assert nz == {((0,), (1,)), ((1,), (0,)), ((0,), (-1,)), ((-1,), (0,))}
    assert np.linalg.norm(g, 2) == pytest.approx(np.sqrt(2))
    assert np.linalg.norm(block(g, 0.0, g), 2) == pytest.approx(np.sqrt(2))


# (inner, ambient) cube pairs at d = 1, 2, 3, off-centre, with one site
# per axis or more
NESTED_PAIRS = [(CubeSpec(1, 1.5, (2,)), CubeSpec(1, 7)),
                (CubeSpec(1, 4, (3,)), CubeSpec(1, 11, (1,))),
                (CubeSpec(2, 3, (1, -1)), CubeSpec(2, 7)),
                (CubeSpec(2, 2, (1, 1)), CubeSpec(2, 6)),
                (CubeSpec(3, 3, (0, 1, 0)), CubeSpec(3, 7)),
                (CubeSpec(3, 2, (5, 5, 5)), CubeSpec(3, 4, (5, 5, 5)))]


@pytest.mark.parametrize("inner, ambient", NESTED_PAIRS, ids=str)
def test_gamma_and_component_indices_match_set_oracles(inner, ambient):
    assert np.array_equal(build_gamma(inner, ambient), oracles.gamma_on(inner, ambient))
    assert component_indices(ambient, inner).tolist() == \
        oracles.component_indices(ambient, inner).tolist()
    assert component_indices(ambient, lattice.outer_boundary(inner)).tolist() == \
        oracles.component_indices(ambient, oracles.outer_boundary(inner)).tolist()
    assert operators.rim_indices(inner).tolist() == \
        oracles.component_indices(inner, oracles.inner_boundary(inner)).tolist()
    with pytest.raises(KeyError):
        component_indices(inner, ambient)


def test_gamma_requires_strict_inclusion():
    with pytest.raises(ValueError):
        build_gamma(CubeSpec(1, 3), CubeSpec(1, 3))


def test_decomposition_identity_exact():
    # block operator on the large cube = direct sum over the split + boundary
    rng_cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 8)
    for d, l2, l3 in ((1, 3, 7), (1, 5, 11), (2, 3, 5)):
        c2, c3 = CubeSpec(d, l2), CubeSpec(d, l3)
        f = sample_field(c3, rng_cfg, d)
        big = plain_block(f)
        inner_sites = oracles.sites(c2)
        rest = tuple(s for s in oracles.sites(c3) if s not in set(inner_sites))
        small = plain_block_on(inner_sites, f)
        comp = plain_block_on(rest, f)
        gamma = build_gamma(c2, c3)
        direct_sum = (embed_block(small, inner_sites, oracles.sites(c3))
                      + embed_block(comp, rest, oracles.sites(c3)))
        residual = np.max(np.abs(big - direct_sum - block(gamma, 0.0, gamma)))
        assert residual <= 1e-14


def test_gamma_boundary_identity_exact():
    # gamma 1_inner = 1_outer gamma 1_innerboundary, entrywise
    c2, c3 = CubeSpec(2, 3), CubeSpec(2, 7)
    g = build_gamma(c2, c3)
    lifted = block(g, 0.0, g)
    _, ind_inner = indicator(c2, c3)
    _, ind_ib = indicator(oracles.inner_boundary(c2), c3)
    _, ind_ob = indicator(oracles.outer_boundary(c2), c3)
    lhs = lifted @ ind_inner
    rhs = ind_ob @ lifted @ ind_ib
    assert np.array_equal(lhs, rhs)


def test_indicator_projections():
    cube = CubeSpec(1, 5)
    one, proj = indicator([(0,), (1,)], cube)
    assert np.array_equal(proj @ proj, proj)
    assert np.trace(one) == 2
    full, full_block = indicator(cube, cube)
    assert np.array_equal(full_block, np.eye(2 * cube.site_count))
    a, _ = indicator([(0,)], cube)
    b, _ = indicator([(1,)], cube)
    assert np.all(a @ b == 0)


def test_dump_matrix_format(tmp_path):
    cube = CubeSpec(1, 3)
    f = constant_field(cube, 1.0, 2.0)
    m = plain_block(f)
    path = tmp_path / "op.txt"
    dump_matrix(m, oracles.sites(cube), path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# site order: (-1) (0) (1)")
    assert "block layout" in lines[0]
    data = np.array([[float(x) for x in line.split()] for line in lines[1:]])
    assert np.array_equal(data, m)


# -- operators on sub-cubes -----------------------------------------------------------


# a field cube at d = 1, 2, 3 and an off-centre sub-cube of it
SUB_CUBES = ((CubeSpec(1, 9), CubeSpec(1, 4, (2,))),
             (CubeSpec(2, 6), CubeSpec(2, 3, (1, -1))),
             (CubeSpec(3, 5), CubeSpec(3, 2.5, (1, 0, -1))))


# one site per axis: no neighbour pairs, the edge of the stride rule
ONE_SITE_CUBES = (CubeSpec(1, 2), CubeSpec(2, 2, (3, -1)), CubeSpec(3, 2))


@pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
def test_h0_on_ragged_regions_equals_its_definition(bc):
    for region in ONE_SITE_CUBES:
        assert np.array_equal(build_h0(region, bc), laplacian_on(region, bc))
    for cube, sub in SUB_CUBES:
        for region in (cube, sub):
            assert np.array_equal(build_h0(region, bc), laplacian_on(region, bc))
        # a region that is no cube: off the diagonal, its Laplacian is the
        # cube's restricted to it
        ragged = oracles.sites(cube)[1:-2]
        idx = oracles.site_index(cube, ragged)
        off = ~np.eye(len(idx), dtype=bool)
        assert np.array_equal(laplacian_on(ragged, bc)[off],
                              build_h0(cube, bc)[np.ix_(idx, idx)][off])


@pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
def test_operators_on_sub_cubes_equal_their_definitions(bc):
    for cube, sub in SUB_CUBES:
        f = sample_field(cube, UNIT, 3)
        # on its own cube the plain block reads the field as it is
        assert np.array_equal(plain_block(f), plain_block(f, cube))
        for region in (cube, sub):
            idx = site_index(cube, region, strict=True)
            v, b = f.V[idx], f.B[idx]
            assert np.array_equal(f.at(region)[0], v)
            assert np.array_equal(f.at(region)[1], b)
            assert np.array_equal(build_h(region, bc, v),
                                  build_h0(region, bc) + np.diag(v))
            hs = build_h0(region, "simple") + np.diag(v)
            plain = np.block([[hs, np.diag(b)], [np.diag(b), -hs]])
            assert np.array_equal(assemble_plain(region, v, b), plain)
            assert np.array_equal(plain_block(f, region), plain)
            assert np.array_equal(plain_block(f, region), plain_block_on(region, f))
            beta = 0.7
            ref = np.block([[hs, beta * np.eye(len(hs))],
                            [beta * np.eye(len(hs)), -hs]])
            assert np.array_equal(block(hs, beta, hs), ref)
            hd = build_h0(region, "dirichlet") + np.diag(v)
            hn = build_h0(region, "neumann") + np.diag(v)
            assert np.array_equal(assemble_bracketing(region, v, b),
                                  np.block([[hd, np.diag(b)], [np.diag(b), -hn]]))
