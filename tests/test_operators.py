import numpy as np
import pytest

from blocklab import disorder, operators
from blocklab.disorder import DisorderConfig, FieldSample, SiteMeasure
from blocklab.lattice import CubeSpec, inner_boundary, outer_boundary, site_index
from blocklab.operators import (BOUNDARY_CONDITIONS, assemble_beta_reference,
                                assemble_block, assemble_bracketing, build_gamma,
                                build_h, build_h0, template)
from oracles import dump_matrix, embed_block, indicator, sample_field

UNIT = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 31)


def constant_field(cube, v, b):
    n = cube.site_count
    return FieldSample(cube, np.full(n, float(v)), np.full(n, float(b)), 0)


def test_h0_simple_1d():
    h = build_h0(CubeSpec(1, 3), "simple")
    assert np.array_equal(h.matrix, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    eigs = np.linalg.eigvalsh(h.matrix)
    assert eigs == pytest.approx([2 - np.sqrt(2), 2, 2 + np.sqrt(2)])


def test_h0_neumann_1d():
    h = build_h0(CubeSpec(1, 3), "neumann")
    assert np.array_equal(np.diag(h.matrix), [1, 2, 1])
    ev, vec = np.linalg.eigh(h.matrix)
    assert ev[0] == pytest.approx(0.0, abs=1e-14)
    ground = vec[:, 0]
    assert np.allclose(ground, ground[0])     # constant eigenvector


def test_h0_dirichlet_1d():
    h = build_h0(CubeSpec(1, 3), "dirichlet")
    assert np.array_equal(np.diag(h.matrix), [3, 2, 3])


def test_h0_symmetric_exactly():
    for bc in ("simple", "neumann", "dirichlet"):
        m = build_h0(CubeSpec(2, 4), bc).matrix
        assert np.array_equal(m, m.T)


def test_h0_offdiagonal_structure_2d():
    cube = CubeSpec(2, 3)
    h = build_h0(cube, "simple")
    idx = {s: i for i, s in enumerate(h.sites)}
    for n in h.sites:
        for m in h.sites:
            expected = -1.0 if sum(abs(a - b) for a, b in zip(n, m)) == 1 else \
                (4.0 if n == m else 0.0)
            assert h.matrix[idx[n], idx[m]] == expected


def test_build_h_zero_potential():
    cube = CubeSpec(1, 5)
    f = constant_field(cube, 0.0, 0.0)
    assert np.array_equal(build_h(cube, "simple", f).matrix,
                          build_h0(cube, "simple").matrix)


def test_build_h_single_site():
    cube = CubeSpec(1, 2)
    f = constant_field(cube, 1.0, 0.0)
    assert np.array_equal(build_h(cube, "simple", f).matrix, [[3.0]])


def test_build_h_positive_definite_under_nonneg_v():
    rng_cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.point_mass(0), 1)
    for r in range(20):
        f = sample_field(CubeSpec(1, 8), rng_cfg, r)
        h = build_h(CubeSpec(1, 8), "simple", f)
        assert np.linalg.eigvalsh(h.matrix)[0] > 0


def test_assemble_block_2x2():
    cube = CubeSpec(1, 2)
    f = constant_field(cube, 1.0, 2.0)
    op = assemble_block(build_h(cube, "simple", f), f)
    assert np.array_equal(op.matrix, [[3, 2], [2, -3]])
    assert np.linalg.eigvalsh(op.matrix) == pytest.approx([-np.sqrt(13), np.sqrt(13)])


def test_block_layout_and_symmetry():
    cube = CubeSpec(2, 3)
    f = sample_field(cube, UNIT, 0)
    h = build_h(cube, "simple", f)
    op = assemble_block(h, f)
    n = h.n
    assert np.array_equal(op.matrix, op.matrix.T)
    assert np.array_equal(op.matrix[:n, :n], h.matrix)
    assert np.array_equal(op.matrix[n:, n:], -h.matrix)
    off = op.matrix[:n, n:]
    assert np.array_equal(off, np.diag(np.diag(off)))
    assert np.diag(off) == pytest.approx(f.B)


def test_beta_zero_reference_is_block_diagonal():
    cube = CubeSpec(1, 5)
    f = sample_field(cube, UNIT, 3)
    h = build_h(cube, "simple", f)
    op = assemble_beta_reference(h, 0.0)
    scalar = np.linalg.eigvalsh(h.matrix)
    block = np.linalg.eigvalsh(op.matrix)
    assert block == pytest.approx(np.sort(np.concatenate([scalar, -scalar])))


def test_bracketing_decouples_at_b_zero():
    cube = CubeSpec(1, 3)
    f = constant_field(cube, 0.0, 0.0)
    op = assemble_bracketing(cube, f)
    hd = np.linalg.eigvalsh(build_h0(cube, "dirichlet").matrix)
    hn = np.linalg.eigvalsh(build_h0(cube, "neumann").matrix)
    expected = np.sort(np.concatenate([hd, -hn]))
    assert np.linalg.eigvalsh(op.matrix) == pytest.approx(expected)


def test_quadratic_form_bracketing():
    rng = np.random.default_rng(2)
    for d, L in ((1, 9), (2, 4), (1, 10), (2, 3)):
        cube = CubeSpec(d, L)
        hn = build_h0(cube, "neumann").matrix
        h0 = build_h0(cube, "simple").matrix
        hd = build_h0(cube, "dirichlet").matrix
        for _ in range(50):
            v = rng.standard_normal(len(h0))
            assert v @ hn @ v <= v @ h0 @ v + 1e-12
            assert v @ h0 @ v <= v @ hd @ v + 1e-12


def test_gamma_star_graph():
    g = build_gamma([(0,)], CubeSpec(1, 3))
    idx = {s: i for i, s in enumerate(g.ambient_sites)}
    nz = {(a, b) for a in g.ambient_sites for b in g.ambient_sites
          if g.gamma[idx[a], idx[b]] != 0}
    assert nz == {((0,), (1,)), ((1,), (0,)), ((0,), (-1,)), ((-1,), (0,))}
    assert g.norm == pytest.approx(np.sqrt(2))
    assert np.linalg.norm(g.lifted, 2) == pytest.approx(g.norm)


def test_gamma_requires_strict_inclusion():
    with pytest.raises(ValueError):
        build_gamma(CubeSpec(1, 3), CubeSpec(1, 3))


def test_decomposition_identity_exact():
    # block operator on the large cube = direct sum over the split + boundary
    rng_cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 8)
    for d, l2, l3 in ((1, 3, 7), (1, 5, 11), (2, 3, 5)):
        c2, c3 = CubeSpec(d, l2), CubeSpec(d, l3)
        f = sample_field(c3, rng_cfg, d)
        big = assemble_block(build_h(c3, "simple", f), f)
        inner_sites = c2.sites()
        rest = tuple(s for s in c3.sites() if s not in set(inner_sites))
        small = assemble_block(build_h(inner_sites, "simple", f), f)
        comp = assemble_block(build_h(rest, "simple", f), f)
        gamma = build_gamma(c2, c3)
        direct_sum = (embed_block(small.matrix, inner_sites, c3.sites())
                      + embed_block(comp.matrix, rest, c3.sites()))
        residual = np.max(np.abs(big.matrix - direct_sum - gamma.lifted))
        assert residual <= 1e-14


def test_gamma_boundary_identity_exact():
    # gamma 1_inner = 1_outer gamma 1_innerboundary, entrywise
    c2, c3 = CubeSpec(2, 3), CubeSpec(2, 7)
    gamma = build_gamma(c2, c3)
    _, ind_inner = indicator(c2, c3)
    _, ind_ib = indicator(inner_boundary(c2.sites()), c3)
    _, ind_ob = indicator(outer_boundary(c2.sites()), c3)
    lhs = gamma.lifted @ ind_inner
    rhs = ind_ob @ gamma.lifted @ ind_ib
    assert np.array_equal(lhs, rhs)


def test_indicator_projections():
    cube = CubeSpec(1, 5)
    one, block = indicator([(0,), (1,)], cube)
    assert np.array_equal(block @ block, block)
    assert np.trace(one) == 2
    full, full_block = indicator(cube, cube)
    assert np.array_equal(full_block, np.eye(2 * cube.site_count))
    a, _ = indicator([(0,)], cube)
    b, _ = indicator([(1,)], cube)
    assert np.all(a @ b == 0)


def test_dump_matrix_format(tmp_path):
    cube = CubeSpec(1, 3)
    f = constant_field(cube, 1.0, 2.0)
    op = assemble_block(build_h(cube, "simple", f), f)
    path = tmp_path / "op.txt"
    dump_matrix(op, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# site order: (-1) (0) (1)")
    assert "block layout" in lines[0]
    data = np.array([[float(x) for x in line.split()] for line in lines[1:]])
    assert np.array_equal(data, op.matrix)


# -- operator templates ------------------------------------------------------------


def template_cases():
    """(field cube, region) pairs at d = 1, 2, 3: the cube itself, an
    off-centre sub-cube, and a region that is no cube, given as a list."""
    for cube, sub in ((CubeSpec(1, 9), CubeSpec(1, 4, (2,))),
                      (CubeSpec(2, 6), CubeSpec(2, 3, (1, -1))),
                      (CubeSpec(3, 5), CubeSpec(3, 2.5, (1, 0, -1)))):
        ragged = list(cube.sites())[1:-2]
        yield cube, cube
        yield cube, sub
        yield cube, ragged


@pytest.mark.parametrize("bc", BOUNDARY_CONDITIONS)
def test_cached_templates_equal_fresh_operators(bc):
    operators._template.cache_clear()
    for cube, region in template_cases():
        f = sample_field(cube, UNIT, 3)
        fresh = build_h0(region, bc)
        idx = site_index(cube, fresh.sites, strict=True)
        v, b = f.V[idx], f.B[idx]
        h = fresh.matrix + np.diag(v)
        for _ in range(2):              # a cold cache, then a warm one
            t = template(region, bc)
            assert t.sites == fresh.sites
            assert np.array_equal(t.matrix, fresh.matrix)
            built = build_h(region, bc, f)
            assert built.sites == fresh.sites
            assert np.array_equal(built.matrix, h)
            assert np.array_equal(assemble_block(built, f).matrix,
                                  np.block([[h, np.diag(b)], [np.diag(b), -h]]))
            assert np.array_equal(f.at(fresh.sites)[0], v)
        hd = build_h0(region, "dirichlet").matrix + np.diag(v)
        hn = build_h0(region, "neumann").matrix + np.diag(v)
        assert np.array_equal(assemble_bracketing(region, f).matrix,
                              np.block([[hd, np.diag(b)], [np.diag(b), -hn]]))


def test_template_matrix_is_read_only():
    cube = CubeSpec(2, 4)
    t = template(cube, "simple")
    with pytest.raises(ValueError, match="read-only"):
        t.matrix[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        t.matrix += 1.0
    # an operator built from it owns its matrix
    h = build_h(cube, "simple", sample_field(cube, UNIT, 0))
    h.matrix[0, 0] += 1.0
    assert np.array_equal(template(cube, "simple").matrix,
                          build_h0(cube, "simple").matrix)
    # so is the cached index of a region in a field cube
    idx = disorder._positions(cube, CubeSpec(2, 2).sites())
    with pytest.raises(ValueError, match="read-only"):
        idx[0] = 0
