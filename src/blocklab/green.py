"""Resolvents, 2x2 matrix elements, and resolvent-decay inequalities.

Covers the geometric resolvent identity across nested regions, the
scale-linking and eigenfunction-decay inequalities consumed by multi-scale
arguments, and the Combes-Thomas bound, all at finite volume with dense
factorizations, or inside the deterministic gap with Schur recursions over
sites or slices, where the gap theorem also bounds the spectral distance
without a spectrum.  The slice recursion builds its blocks from the field
and returns G in slice order, the one matrix of its size in a
Combes-Thomas profile, whose pairs are read by their row-major index.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lattice
from .disorder import FieldSample
from .inequalities import CheckReport, PreconditionError, _require
from .operators import block, build_gamma, component_indices, rim_indices
from .spectral import Spectrum, eigensolve, plain_block

RESOLVENT_RESIDUAL_TOL = 1e-10
SPECTRAL_GUARD_RTOL = 1e-8
# the declared tolerances of the checks: the GRI residual cap's
# coefficient, the relative slack of the SLI and EDI bounds, the absolute
# slack of the Combes-Thomas bound
GRI_COEFF = 1e-9
NESTED_RTOL = 1e-9
CT_ATOL = 1e-12
# decay fits drop block norms below this fraction of the largest one:
# they sit in rounding noise
DECAY_FIT_FLOOR = 1e-14


def spectral_distance(m: np.ndarray, energy: float,
                      spectrum: Spectrum | None = None) -> float:
    """delta, the distance from E to the spectrum of m (solved here unless
    given); within SPECTRAL_GUARD_RTOL of its norm raises PreconditionError."""
    s = spectrum if spectrum is not None else eigensolve(m)
    delta = float(np.min(np.abs(s.eigenvalues - energy)))
    scale = max(s.norm, 1e-300)
    if delta < SPECTRAL_GUARD_RTOL * scale:
        raise PreconditionError(
            f"E={energy} is within {delta:.3e} of the spectrum (guard "
            f"{SPECTRAL_GUARD_RTOL * scale:.3e})")
    return delta


def slice_blocks(field: FieldSample) -> np.ndarray:
    """The diagonal blocks D_k of the plain block of the field on its cube,
    as an (n, 2s, 2s) array over its n slices of fixed first coordinate,
    s = N / n sites each, built from the field with no dense operator.

    Row and column (c, j) of D_k is site j of slice k in component c.  The
    upper block is the s x s Laplacian within a slice, the leading block
    of `operators.template`: 2d on the diagonal and -1 between sites one
    step apart on one of the last d - 1 axes, whose strides in the
    canonical order are 1, n, ..., n^(d-2); built from that geometry in
    small integers, so exactly, with no N x N matrix.  V is added on its
    diagonal by the add `build_h` makes; the lower block is minus it, and
    B lies on both coupling diagonals: the blocks `plain_block` holds, bit
    for bit.
    """
    cube = field.cube
    n = lattice.axis_count(cube.L)
    s = cube.site_count // n
    i = np.arange(s)
    lap = np.zeros((s, s))
    lap[i, i] = 2.0 * cube.d
    for stride in n ** np.arange(cube.d - 1):
        j = i[i // stride % n < n - 1]        # a site with a +1 neighbour on the axis
        lap[j, j + stride] = lap[j + stride, j] = -1.0
    upper = np.repeat(lap[None], n, axis=0)
    upper[:, i, i] += field.V.reshape(n, s)
    d = np.zeros((n, 2 * s, 2 * s))
    d[:, :s, :s] = upper
    d[:, s:, s:] = -upper
    d[:, i, s + i] = d[:, s + i, i] = field.B.reshape(n, s)
    return d


def slice_resolvent(field: FieldSample, energy: float) -> np.ndarray:
    """(H_hat - E)^-1 of the plain block of the field on its cube, in
    slice order, by a Schur sweep over the cube's n slices of fixed first
    coordinate: row and column (k, c, j) is site j of slice k in
    component c.

    With the s = N / n sites of slice k in both components as one block,
    H_hat - E is block tridiagonal: diagonal blocks D_k - E from
    `slice_blocks` and couplings C = diag(-1_s, +1_s) between neighbouring
    slices.  The forward sweep forms P_k = (D_k - C P_(k-1) C)^-1, the
    inverse of the Schur complement of the leading section of slices
    0..k, by one small solve per slice.  The backward recursion gives the
    block rows of G from the last one, G_(n-1,n-1) = P_(n-1):
    G[k, k+1:] = -P_k C G[k+1, k+1:], G[k+1:, k] = G[k, k+1:]^T and
    G_kk = P_k - G[k, k+1] C P_k.  The work is O(N^2 s), against O(N^3)
    for a dense inverse, and G is the one matrix of its size.

    Elimination without pivoting is stable where the P_k stay bounded.
    P_k is the last diagonal block of the inverse of the leading section
    less E, and that section is the plain block on a rectangle, so it
    keeps the deterministic gap: for E inside the gap edge,
    ||P_k|| <= 1 / (edge - |E|).  The caller keeps E there, at least 1
    inside the edge, so ||G|| <= 1 and the residual contract is absolute:
    max |(H_hat - E) G - I| within RESOLVENT_RESIDUAL_TOL, the floor of
    the scale-relative bound of `resolvent_columns`.  It is checked one
    block row at a time, D_k G_k + C G_(k-1) + C G_(k+1) - I, so a
    (2s, 2N) residual is live: beyond it, or not finite, raises
    ArithmeticError.
    """
    d = slice_blocks(field)
    n, w, _ = d.shape
    s, size = w // 2, n * w
    i, eye = np.arange(w), np.eye(w)
    d[:, i, i] -= energy
    c = np.repeat([-1.0, 1.0], s)
    flip = np.outer(c, c)                   # C P C = flip * P
    p = np.empty_like(d)
    p[0] = np.linalg.solve(d[0], eye)
    for j in range(1, n):
        p[j] = np.linalg.solve(d[j] - flip * p[j - 1], eye)
    g = np.empty((size, size))
    g[-w:, -w:] = p[-1]
    for j in range(n - 2, -1, -1):
        lo, mid = j * w, (j + 1) * w
        row = (p[j] * -c) @ g[mid:mid + w, mid:]           # -P C G[k+1, k+1:]
        g[lo:mid, mid:] = row
        g[mid:, lo:mid] = row.T
        g[lo:mid, lo:mid] = p[j] - row[:, :w] @ (c[:, None] * p[j])
    rows = g.reshape(n, w, size)
    for k in range(n):
        r = d[k] @ rows[k]
        # the couplings to both neighbouring slices: C = diag(-1_s, +1_s)
        for near in (k - 1, k + 1):
            if 0 <= near < n:
                r[:s] -= rows[near, :s]
                r[s:] += rows[near, s:]
        r[i, k * w + i] -= 1.0
        resid = np.abs(r, out=r).max()
        if not resid <= RESOLVENT_RESIDUAL_TOL:
            raise ArithmeticError(f"resolvent residual {resid:.2e} exceeds contract")
    return g


def resolvent_columns(m: np.ndarray, energies, columns) -> np.ndarray:
    """The given columns of (m - E)^-1 at every energy, as a
    (len(energies), dim, len(columns)) array, from one stacked LU solve:
    the one dense solve of m - E.  m is symmetric, so column j holds row
    j too.

    The caller keeps every energy off the spectrum.  Residual contract, per
    energy: max |(m - E) X - 1[:, columns]| stays within
    RESOLVENT_RESIDUAL_TOL * max(1, max|m - E| * max|X|), the scale of the
    rounding of a backward-stable solve, since X grows like the inverse
    distance to the spectrum; beyond it ArithmeticError is raised.  The
    residual is formed RESIDUAL_BLOCK_BYTES of columns at a time, and the
    largest moduli as max(max a, -min a), so besides the solve's own
    arrays the check holds no array of the size of X or of m - E.
    """
    energies = np.asarray(energies, dtype=float)
    dim = len(m)
    # m - E eye entry by entry with no identity: m - E * 0 off the diagonal,
    # so that a zero entry takes the sign it takes there, and m - E on it
    shifted = m - (energies * 0.0)[:, None, None]
    i = np.arange(dim)
    shifted[:, i, i] = m[i, i] - energies[:, None]
    columns = np.arange(dim)[columns]
    rhs = np.zeros((dim, len(columns)))
    rhs[columns, np.arange(len(columns))] = 1.0
    x = np.linalg.solve(shifted, rhs)
    resid = np.zeros(len(energies))
    step = max(1, RESIDUAL_BLOCK_BYTES // (8 * dim * len(energies)))
    for lo in range(0, len(columns), step):
        r = shifted @ x[:, :, lo:lo + step]
        r -= rhs[:, lo:lo + step]
        np.maximum(resid, np.abs(r, out=r).max(axis=(1, 2)), out=resid)
    scale = _max_abs(shifted) * _max_abs(x)
    if np.any(resid > RESOLVENT_RESIDUAL_TOL * np.maximum(scale, 1.0)):
        raise ArithmeticError(f"resolvent residual {resid.max():.2e} exceeds contract")
    return x


def _max_abs(a: np.ndarray) -> np.ndarray:
    """max |a| over all but the first axis, with no array of |a|."""
    return np.maximum(a.max(axis=(1, 2)), -a.min(axis=(1, 2)))


# bytes of residual columns per block of `resolvent_columns`
RESIDUAL_BLOCK_BYTES = 2 ** 22

# rows per chunk of `chain_rim_norms`: its arrays take about 256 bytes per
# site and row, so a chunk holds about this many bytes, but never fewer
# than the floor of rows, over which each step of its site loop runs
CHAIN_CHUNK_BYTES = 2 ** 20
CHAIN_CHUNK_ROWS = 64


def chain_rim_norms(V, B, energies, core) -> np.ndarray:
    """d = 1: per row m of the (M, n) fields V and B, the norm
    ||G[core, rim]||_2 of G = (H_hat - E)^-1 at E = energies[m], for the
    plain block of the chain of n sites.  The rim is the two end sites,
    `core` the indices of the core sites, both components of each: the
    norm `suitability_norms` reads off a stacked solve.

    With the two components of each site put together, H_hat - E is block
    tridiagonal with 2x2 blocks D_k and couplings C = diag(-1, 1), as in
    `spectral.count_below`.  The forward and backward Schur complements
    S_k = D_k - C S_(k-1)^-1 C and T_k = D_k - C T_(k+1)^-1 C give the
    block columns of G at the two ends by back-substitution:
    X_(n-1) = S_(n-1)^-1, X_k = -S_k^-1 C X_(k+1), and Y_0 = T_0^-1,
    Y_k = -T_k^-1 C Y_(k-1).  The squared norm is the top eigenvalue of
    the 4x4 Gram matrix of [Y X] over the core, scaled by its largest core
    entry so that it does not underflow.  Everything runs elementwise over
    rows, so a row's norm does not depend on the rows beside it, in chunks
    of about CHAIN_CHUNK_BYTES but at least CHAIN_CHUNK_ROWS rows: at most
    about 34 MB for the 2048 sites of a chain at MAX_BLOCK_DIM.

    The caller keeps every energy off the spectrum.  The recursion is
    stable where the pivots S_k and T_k, inverses of diagonal blocks of
    the inverses of leading and trailing sections of H_hat - E, stay away
    from singular, as inside the deterministic gap.  Residual contract as
    in `resolvent_columns`: max |(H_hat - E) [Y X] - 1[:, rim]| stays
    within RESOLVENT_RESIDUAL_TOL * max(1, max|H_hat - E| * max|[Y X]|),
    else ArithmeticError.
    """
    V = np.asarray(V, dtype=float)
    B = np.asarray(B, dtype=float)
    energies = np.asarray(energies, dtype=float)
    core = np.asarray(core)
    step = max(CHAIN_CHUNK_ROWS, CHAIN_CHUNK_BYTES // (256 * V.shape[1]))
    norms = np.empty(len(V))
    for lo in range(0, len(V), step):
        rows = slice(lo, lo + step)
        norms[rows] = _chain_rim_norms(V[rows].T, B[rows].T, energies[rows], core)
    return norms


def _chain_rim_norms(V, B, E, core):
    """chain_rim_norms on site-major (n, m) fields and m energies."""
    n = len(V)
    a0, b0, c0 = 2.0 + V - E, B, -2.0 - V - E       # D_k = (a0 b0; b0 c0)
    # z[k, i, j]: row i of site k in column j of [Y X]
    z = np.empty((n, 2, 4, len(E)))
    _back_substitute(z[:, :, 2:], _schur_sweep(a0, b0, c0, range(n)),
                     range(n - 1, -1, -1))
    _back_substitute(z[:, :, :2], _schur_sweep(a0, b0, c0, range(n - 1, -1, -1)),
                     range(n))
    # the rows of (H_hat - E) z: D_k z_k + C z_(k-1) + C z_(k+1)
    r = np.empty_like(z)
    r[:, 0] = a0[:, None] * z[:, 0] + b0[:, None] * z[:, 1]
    r[:, 1] = b0[:, None] * z[:, 0] + c0[:, None] * z[:, 1]
    for near, far in ((slice(1, None), slice(None, -1)),
                      (slice(None, -1), slice(1, None))):
        r[near, 0] -= z[far, 0]
        r[near, 1] += z[far, 1]
    eye = np.eye(2)[:, :, None]
    r[0, :, :2] -= eye
    r[-1, :, 2:] -= eye
    resid = np.abs(r).max(axis=(0, 1, 2))
    # the couplings are 1 in modulus
    scale = np.maximum(np.abs(np.array([a0, b0, c0])).max(axis=(0, 1)), 1.0)
    scale *= np.abs(z).max(axis=(0, 1, 2))
    if np.any(resid > RESOLVENT_RESIDUAL_TOL * np.maximum(scale, 1.0)):
        raise ArithmeticError(f"resolvent residual {resid.max():.2e} exceeds contract")
    top = np.abs(z[core]).max(axis=(0, 1, 2))
    top[top == 0.0] = 1.0
    rows = (z[core] / top).reshape(-1, 4, len(E))
    gram = np.einsum("kim,kjm->ijm", rows, rows)
    return top * np.sqrt(np.linalg.eigvalsh(np.moveaxis(gram, -1, 0))[:, -1])


def _schur_sweep(a0, b0, c0, order):
    """The 2x2 Schur complements S of (a0 b0; b0 c0) - C S_prev^-1 C along
    the sites in `order`, as (3, n, m) entries (11, 12, 22) of C S^-1 C,
    the term each passes on."""
    p = np.empty((3,) + a0.shape)
    p11 = p12 = p22 = 0.0
    for k in order:
        a, b, c = a0[k] - p11, b0[k] - p12, c0[k] - p22
        det = a * c - b * b
        p[:, k] = c / det, b / det, a / det
        p11, p12, p22 = p[:, k]
    return p


def _back_substitute(x, p, order):
    """x[k] = -S_k^-1 C x[prev] along the sites in `order`, from the first
    one's S^-1, for p from _schur_sweep: S^-1 = C p C and -S^-1 C = -C p."""
    first, *rest = order
    p11, p12, p22 = p[:, first]
    x[first] = (p11, -p12), (-p12, p22)
    prev = first
    for k in rest:
        p11, p12, p22 = p[:, k]
        u, w = x[prev]
        x[k, 0] = p11 * u + p12 * w
        x[k, 1] = -p12 * u - p22 * w
        prev = k


@dataclass(frozen=True)
class Nesting:
    """A cube strictly inside an enclosing one, as the nested checks read
    it: the indices, in both block components, of the cube (`inside`) and
    of its outer boundary (`rim_out`) in the enclosing one; the block
    Gamma[rim_out, inner boundary] of the lifted boundary operator, and
    the norm of Gamma."""

    inside: np.ndarray
    rim_out: np.ndarray
    gamma: np.ndarray
    gamma_norm: float


@lru_cache(maxsize=8)
def nesting(inner, outer) -> Nesting | None:
    """The read-only Nesting of cube `inner` in cube `outer`, None unless
    `inner` lies strictly inside `outer`; decided once per pair per run
    (`harness.run` clears the cache)."""
    if not lattice.strictly_inside(inner, outer):
        return None
    inside = component_indices(outer, inner)
    rim_out = component_indices(outer, lattice.outer_boundary(inner))
    gamma = build_gamma(inner, outer)
    lifted = block(gamma, 0.0, gamma)[np.ix_(rim_out, inside[rim_indices(inner)])]
    for a in (inside, rim_out, lifted):
        a.flags.writeable = False
    return Nesting(inside, rim_out, lifted, float(np.linalg.norm(gamma, 2)))


def _gri_blocks(region1, region2, region3, field, energy, spectra=(None, None)):
    """G3[i3, r1], G3[i3, o2] and G2[i2, r1] (i: inner boundary, o: outer
    boundary) of the resolvents on region3 and region2, the Nesting of
    region2 in region3, which holds Gamma[o2, i2], and delta2, delta3.
    G is symmetric: each block is read off the rim columns."""
    n12, n23 = nesting(region1, region2), nesting(region2, region3)
    _require(n12 is not None and n23 is not None,
             "need region1 strictly inside region2 strictly inside region3")
    m2, m3 = plain_block(field, region2), plain_block(field, region3)
    delta2, delta3 = (spectral_distance(m, energy, s)
                      for m, s in zip((m2, m3), spectra))
    x2, x3 = (resolvent_columns(m, [energy], rim_indices(region))[0]
              for m, region in ((m2, region2), (m3, region3)))
    r1 = n23.inside[n12.inside]
    return x3[r1].T, x3[n23.rim_out].T, x2[n12.inside].T, n23, delta2, delta3


def gri_check(region1, region2, region3, field: FieldSample,
              energy: float) -> CheckReport:
    """Geometric resolvent identity: its max-entry residual against
    GRI_COEFF (1 + 1/delta2)(1 + 1/delta3).

    The boundary-block of the large resolvent towards the core region must
    equal the chain large-resolvent -> boundary operator -> small-resolvent
    exactly; the residual is pure rounding noise.

    The residual, both spectral distances and the cap are reported as
    parameters.
    """
    lhs, a, b, n23, delta2, delta3 = _gri_blocks(region1, region2, region3,
                                                 field, energy)
    res = float(np.max(np.abs(lhs + a @ n23.gamma @ b)))
    cap = GRI_COEFF * (1.0 + 1.0 / delta2) * (1.0 + 1.0 / delta3)
    rep = CheckReport("gri_residual",
                      parameters={"E": energy, "coeff": GRI_COEFF, "residual": res,
                                  "delta2": delta2, "delta3": delta3,
                                  "cap": cap})
    rep.record(cap - res)
    return rep


def sli_check(region1, region2, region3, field: FieldSample, energy: float,
              spectra: tuple[Spectrum, Spectrum]) -> CheckReport:
    """Boundary-to-core resolvent block bounded through the intermediate scale.

    `spectra` holds the spectra of the plain blocks on region2 and region3,
    which the caller solves once for this check and `edi_check`.
    """
    g3_r1, a, b, n23, _, _ = _gri_blocks(region1, region2, region3, field,
                                         energy, spectra)
    lhs = np.linalg.norm(g3_r1, 2)
    rhs = n23.gamma_norm * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    rep = CheckReport("sli", parameters={"E": energy, "gamma": n23.gamma_norm})
    rep.record(rhs - lhs + NESTED_RTOL * max(lhs, rhs, 1.0))
    return rep


def edi_check(region, cube3, field: FieldSample, eigen_index: int,
              host: Spectrum, inner: Spectrum) -> CheckReport:
    """Eigenfunction mass at every site of the region bounded by resolvent
    times boundary mass.

    The eigenpair comes from the enclosing cube; the identity behind the
    bound is volume-local, so exact finite-volume eigenfunctions stand in
    for generalized eigenfunctions.  `host` (with eigenvectors) and
    `inner` are the spectra of the plain blocks on cube3 and on the region,
    which the caller solves once for this check and `sli_check`.
    """
    nest = nesting(region, cube3)
    _require(nest is not None, "region must be strictly inside the host cube")
    energy = float(host.eigenvalues[eigen_index])
    psi = host.eigenvectors[:, eigen_index]
    m = plain_block(field, region)
    spectral_distance(m, energy, inner)     # raises if E is too close to sigma(m)
    x = resolvent_columns(m, [energy], rim_indices(region))[0]
    n = len(nest.inside) // 2
    rows = np.arange(n) + np.array([[0], [n]])   # the probes' rows in both components
    # per probe the 2-norm of G[probe, rim], read off the rim columns: its
    # largest singular value
    norms = np.linalg.svd(x[rows.T], compute_uv=False)[:, 0]
    lhs = np.hypot(*psi[nest.inside[rows]])
    rhs = nest.gamma_norm * norms * float(np.linalg.norm(psi[nest.rim_out]))
    rep = CheckReport("edi", parameters={"E": energy, "eigen_index": eigen_index,
                                         "gamma": nest.gamma_norm})
    rep.record(rhs - lhs + NESTED_RTOL * np.maximum(np.maximum(lhs, rhs), 1.0))
    return rep


def combes_thomas_bound(delta: float, d: int, distance):
    """(4/delta) exp(-delta |n-m| / (12 d)), the caller's delta capped at
    1, elementwise over a distance or an array of them: one np.exp call,
    which rounds each entry as a call with that distance alone does."""
    return 4.0 / delta * np.exp(-delta * distance / (12.0 * d))


def block_norm_grid(matrix: np.ndarray, n_sites: int) -> np.ndarray:
    """Frobenius norms of all 2x2 elements of a block-space matrix at once."""
    return _norm_grid(matrix ** 2, 1).reshape(n_sites, n_sites)


def _norm_grid(sq: np.ndarray, n: int) -> np.ndarray:
    """The 2x2 element norms of a matrix from its squares `sq`, in the
    slice order of `slice_resolvent` over n slices (the block layout is
    one slice), as an (n, s, n, s) grid: per site pair the root of
    ((uu + ul) + lu) + ll over its four component quadrants, the same
    float operations in the same order in either layout."""
    q = sq.reshape(n, 2, len(sq) // (2 * n), n, 2, -1)
    out = q[:, 0, :, :, 0] + q[:, 0, :, :, 1]
    out += q[:, 1, :, :, 0]
    out += q[:, 1, :, :, 1]
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class DecayProfile:
    """Resolvent decay of one operator on a cube at one energy, one entry
    per ordered pair of its N sites, in row-major order.

    Pair k joins the cube's sites of canonical indices divmod(k, N) at
    1-norm distance dist[k]; norm[k] is the Frobenius norm of its 2x2
    resolvent element and bound_by_dist[dist[k]] the Combes-Thomas bound,
    which depends on a pair only through its distance: one value for each
    distance 0, ..., d (n - 1), n sites per axis.  delta is the spectral
    distance capped at 1, as used in the bound.
    """

    energy: float
    delta: float
    dist: np.ndarray
    norm: np.ndarray
    bound_by_dist: np.ndarray


def decay_profile(field: FieldSample, energy: float,
                  in_gap: bool = False) -> DecayProfile:
    """One resolvent read of the field's plain block at every ordered pair
    of sites of its cube.

    `in_gap` is the caller's word that E lies at least 1 inside the
    deterministic gap edge, in exact arithmetic.  Then no eigenvalue lies
    within 1 of E, the capped distance is 1.0 with no spectrum, and G
    comes from `slice_resolvent`, in slice order, with no dense operator;
    its norms are taken in place, so one profile holds about 1.3 times
    the memory of G at its peak.  That 1.0 is the model operator's capped
    distance: the rounded entries of the matrix may move it by about
    ulp(2d + lam), far below the rounding of an eigensolve.  Otherwise
    `spectral_distance` gives the distance and `resolvent_columns`,
    against every column, gives G.  The pair distances are built once per
    cube and shared by every profile on it."""
    cube = field.cube
    if in_gap:
        delta, g = 1.0, slice_resolvent(field, energy)
        # squared in place, and dropped before the bound is formed
        norm = _norm_grid(np.square(g, out=g), lattice.axis_count(cube.L))
        del g
    else:
        m = plain_block(field)
        delta = min(spectral_distance(m, energy), 1.0)
        norm = block_norm_grid(resolvent_columns(m, [energy], np.arange(len(m)))[0],
                               cube.site_count)
    caps = combes_thomas_bound(delta, cube.d,
                               np.arange(cube.d * (lattice.axis_count(cube.L) - 1) + 1))
    return DecayProfile(energy, delta, _all_pairs(cube), norm.reshape(-1), caps)


@lru_cache(maxsize=8)
def _all_pairs(cube) -> np.ndarray:
    """The 1-norm distance of every ordered pair of the cube's sites, in
    row-major order of their canonical indices, as one int32 array, built
    axis by axis with no pair index arrays; built once per cube and
    shared, so read-only.  `harness.run` clears the cache."""
    n = cube.site_count
    dist = np.zeros((n, n), dtype=np.int32)
    for x in lattice.site_array(cube).T.astype(np.int32):
        step = np.subtract.outer(x, x)
        dist += np.abs(step, out=step)
    dist = dist.reshape(-1)
    dist.flags.writeable = False
    return dist


def combes_thomas_check(profile: DecayProfile) -> CheckReport:
    """Every 2x2 resolvent element of the profile obeys the exponential bound."""
    rep = CheckReport("combes_thomas", parameters={"E": profile.energy,
                                                   "delta": profile.delta})
    rep.record(profile.bound_by_dist[profile.dist] + CT_ATOL - profile.norm)
    return rep


def decay_rate_fit(profile: DecayProfile) -> tuple[float, float]:
    """Least-squares slope and intercept of ln block-norm against distance.

    Entries below DECAY_FIT_FLOOR times the resolvent scale sit in rounding
    noise and are excluded; fewer than two pairs left, or all at one
    distance, is a precondition failure.  The fit is the centred closed
    form, slope = sum (x - x_mean)(y - y_mean) / sum (x - x_mean)^2.
    """
    keep = (profile.norm > DECAY_FIT_FLOOR * profile.norm.max()) & (profile.dist > 0)
    x = profile.dist[keep].astype(float)
    _require(len(x) >= 2 and x.min() < x.max(),
             "not enough usable pairs for a decay fit")
    y = np.log(profile.norm[keep])
    x_mean, y_mean = x.mean(), y.mean()
    x -= x_mean
    slope = (x @ (y - y_mean)) / (x @ x)
    return float(slope), float(y_mean - slope * x_mean)
