"""Block tridiagonal elimination of H_hat - E over the slices of a cube.

Layout.  Cut the cube into its n slices of fixed first coordinate, s = N / n
sites each (s = 1 at d = 1), and put both components of a slice's sites in
one block: row and column (k, c, j) is site j of slice k in component c.
Then H_hat - E of the plain block (H B; B -H) is block tridiagonal, with
2s x 2s diagonal blocks D_k - E (`slice_blocks`) and couplings
C = diag(-1_s, +1_s) between neighbouring slices.  This module alone knows
that layout and eliminates over it: the d = 1 eigenvalue counts
(`chain_counts`), the d = 1 rim norms (`chain_rim_norms`) and the slice
resolvent (`slice_resolvent`).  Each forms the Schur complements
S_k = D_k - E - C S_(k-1)^-1 C of the leading sections of slices 0..k;
S_k^-1 is the last diagonal block of the inverse of that section.  At d = 1,
S = (a b; b c) and C S^-1 C = (c b; b a) / det S are written out: a batched
np.linalg.solve of 2x2 systems takes about ten times as long.

Pivot policy.
- Counting takes det S in whichever of its two forms has the smaller
  rounding bound.  An exactly singular pivot is resolved as the limit s -> 0
  of the counts of (H_hat - E + s), s > 0 for side "left" and s < 0 for
  "right": a zero pivot inside the chain is no eigenvalue and does not bias
  the count, and one at the last site is an eigenvalue at E, counted as the
  side says.  Where the arithmetic is exact, as on constant half-integer
  fields, the counts are the exact ones.  Otherwise counting rounds like an
  eigensolver: a count can differ from one read off a computed spectrum when
  an eigenvalue of the operator, or of a leading section, lies within
  rounding of E.
- The resolvent sweeps run only inside the deterministic gap edge.  Every
  leading and trailing section is a plain block on a rectangle and keeps
  the gap, so ||S_k^-1|| <= 1 / (edge - |E|) and elimination needs no
  pivoting: they use the plain a c - b^2.  Each is held by a residual
  contract against RESOLVENT_RESIDUAL_TOL, read at call time, as
  `green.resolvent_columns` reads it; past it, or not finite, raises
  ArithmeticError.
"""

import numpy as np

from .lattice import neighbour_pairs
from .model import axis_count

RESOLVENT_RESIDUAL_TOL = 1e-10

# rows per chunk of `chain_rim_norms`: its arrays take about 256 bytes per
# site and row, so a chunk holds about this many bytes, but never fewer
# than the floor of rows, over which each step of its site loop runs
CHAIN_CHUNK_BYTES = 2 ** 20
CHAIN_CHUNK_ROWS = 64


def slice_blocks(cube, V, B) -> np.ndarray:
    """The diagonal blocks D_k of the plain blocks of (..., N) fields V and
    B on the cube, as a (..., n, 2s, 2s) array, with no dense operator.

    The upper block is the s x s Laplacian within a slice, the leading
    block of `operators.build_h0`: 2d on the diagonal and -1 between the
    sites one step apart on one of the last d - 1 axes
    (`lattice.neighbour_pairs` of an n^(d-1) box); built in small
    integers, so exactly.  V is added on its diagonal by the add `build_h`
    makes; the lower block is minus it, and B lies on both coupling
    diagonals: the blocks `plain_block` holds, bit for bit.
    """
    n = axis_count(cube.L)
    s = cube.site_count // n
    lead = np.shape(V)[:-1] + (n,)
    i = np.arange(s)
    d = np.zeros(lead + (2 * s, 2 * s))
    d[..., i, i] = 2.0 * cube.d
    lo, hi = neighbour_pairs(n, cube.d - 1)
    d[..., lo, hi] = d[..., hi, lo] = -1.0
    d[..., i, i] += np.reshape(V, lead + (s,))
    d[..., s:, s:] = -d[..., :s, :s]
    d[..., i, s + i] = d[..., s + i, i] = np.reshape(B, lead + (s,))
    return d


# -- counting ----------------------------------------------------------------


# a product that overflows loses to the other form of det S, or the
# recursion raises
@np.errstate(over="ignore")
def chain_counts(cube, V, B, energies, right) -> np.ndarray:
    """d = 1: `spectral.count_below` of the (R, N) fields at every energy,
    `right` the side of each energy as a boolean array: by Sylvester's law
    of inertia and Haynsworth's additivity, the negative eigenvalues of the
    S_k summed over the sites, with G = C S^-1 C passed on, det G = 1 / det S.
    It runs elementwise over realizations and energies and builds no
    matrix, so a realization's counts do not depend on the block it sits
    in.  Fields that drive it out of the floating-point range raise
    ArithmeticError."""
    blocks = slice_blocks(cube, V, B)
    E = energies[None, :]
    shape = (len(blocks), len(energies))
    neg = np.zeros(shape, dtype=np.int64)
    g11 = g12 = g22 = gdet = 0.0
    ties = None
    for n in range(blocks.shape[1]):
        a0 = blocks[:, n, 0, 0, None] - E
        c0 = blocks[:, n, 1, 1, None] - E
        b0 = np.broadcast_to(blocks[:, n, 0, 1, None], shape)
        a, b, c = a0 - g11, b0 - g12, c0 - g22
        # det S two ways, each where its rounding bound is the smaller:
        # a c - b^2, exact where the entries make S exactly singular, and
        # det(A - G) = det A - tr(adj(A) G) + det G, which multiplies no two
        # entries of G, large after a small pivot
        t1, t2, t3 = c0 * g11, b0 * g12, a0 * g22
        d = np.where(np.abs(a * c) + b * b <= np.abs(a0 * c0) + b0 * b0 + np.abs(t1)
                     + 2.0 * np.abs(t2) + np.abs(t3) + np.abs(gdet),
                     a * c - b * b, a0 * c0 - b0 * b0 - (t1 - 2.0 * t2 + t3) + gdet)
        if not np.all(np.isfinite(d)):
            raise ArithmeticError("Schur recursion left the floating-point range")
        if ties is None and np.all(d):
            # det S < 0: one negative eigenvalue; det S > 0: two when a + c < 0
            neg += (d < 0.0) + 2 * ((d > 0.0) & (a + c < 0.0))
            g11, g12, g22, gdet = c / d, b / d, a / d, 1.0 / d
            continue
        inc, (g11, g12, g22, gdet), ties = _tie_site(a0, b0, c0, a, b, c, d,
                                                     ties, right)
        neg += inc
    return neg


def _tie_site(a0, b0, c0, a, b, c, d, ties, right):
    """One site of chain_counts where a pivot, this site's or the previous
    one's, is exactly singular, resolved as the limit s -> 0 of
    (H_hat - E + s), s < 0 where `right` and s > 0 elsewhere.

    A singular S = (a b; b c) has eigenvalues 0 and t = a + c, and the
    shift gives the zero one the sign of s.  C S^-1 C is then of order 1/s
    along C u, u the null vector of S, so the next Schur complement has one
    eigenvalue of the sign of -s, and its other one tends to
    rho = tr(A X) - o, X the projector orthogonal to C u and o = 1/t the
    finite part of C S^-1 C there.  A nonzero rho passes G = C X C / rho on;
    rho = 0 repeats the pair with X -> I - C X C and o = 0.  When S = 0 the
    next Schur complement has both eigenvalues of the sign of -s and passes
    G = 0 on.  `ties` holds, per element, 1 (a rank-one tie pending),
    2 (S = 0 pending) or 0, with X and o; it is None when none is pending.
    """
    shape = d.shape
    if ties is None:
        ties = (np.zeros(shape, dtype=np.int8),) + (np.zeros(shape),) * 4
    mode, x11, x12, x22, o = ties
    r = right.astype(np.int64)     # 1 where s < 0
    regular = (mode == 0) & (d != 0.0)
    fresh = (mode == 0) & (d == 0.0)
    t = a + c
    rho = a0 * x11 + 2.0 * b0 * x12 + c0 * x22 - o
    settled = (mode == 1) & (rho != 0.0)
    nested = (mode == 1) & (rho == 0.0)
    inc = (regular * ((d < 0.0) + 2 * ((d > 0.0) & (t < 0.0)))
           + fresh * ((t < 0.0) + r * (1 + (t == 0.0)))
           + settled * ((1 - r) + (rho < 0.0))
           + nested
           + (mode == 2) * 2 * (1 - r))
    dd = np.where(regular, d, 1.0)
    rr = np.where(settled, rho, 1.0)
    g = (np.where(regular, c / dd, np.where(settled, x11 / rr, 0.0)),
         np.where(regular, b / dd, np.where(settled, -x12 / rr, 0.0)),
         np.where(regular, a / dd, np.where(settled, x22 / rr, 0.0)),
         np.where(regular, 1.0 / dd, 0.0))
    rank1 = fresh & (t != 0.0)
    mode = np.where(rank1 | nested, 1, np.where(fresh, 2, 0)).astype(np.int8)
    if not mode.any():
        return inc, g, None
    tt = np.where(rank1, t, 1.0)
    # X = C S C / t on a fresh tie, I - C X C on a nested one
    ties = (mode,
            np.where(rank1, a / tt, np.where(nested, 1.0 - x11, 0.0)),
            np.where(rank1, -b / tt, np.where(nested, x12, 0.0)),
            np.where(rank1, c / tt, np.where(nested, 1.0 - x22, 0.0)),
            np.where(rank1, 1.0 / tt, 0.0))
    return inc, g, ties


# -- resolvent sweeps ------------------------------------------------------------


def chain_rim_norms(cube, V, B, energies, core) -> np.ndarray:
    """d = 1: per row m of the (M, N) fields V and B on the cube, the norm
    ||G[core, rim]||_2 of G = (H_hat - E)^-1 at E = energies[m].  The rim
    is the two end sites, `core` the indices of the core sites, both
    components of each: the norm `suitability_norms` reads off a stacked
    solve.

    The forward and backward Schur complements S_k and
    T_k = D_k - E - C T_(k+1)^-1 C give the block columns of G at the two
    ends by back-substitution: X_(n-1) = S_(n-1)^-1, X_k = -S_k^-1 C X_(k+1),
    and Y_0 = T_0^-1, Y_k = -T_k^-1 C Y_(k-1).  The squared norm is the top
    eigenvalue of the 4x4 Gram matrix of [Y X] over the core, scaled by its
    largest core entry so that it does not underflow.  Everything runs
    elementwise over rows, so a row's norm does not depend on the rows
    beside it, in chunks of about CHAIN_CHUNK_BYTES but at least
    CHAIN_CHUNK_ROWS rows: at most about 34 MB for the 2048 sites of a
    chain at MAX_BLOCK_DIM.  Its residual contract is the scale-relative
    one of `green.resolvent_columns`, on (H_hat - E) [Y X] - 1[:, rim].
    """
    energies = np.asarray(energies, dtype=float)
    step = max(CHAIN_CHUNK_ROWS, CHAIN_CHUNK_BYTES // (256 * np.shape(V)[1]))
    norms = np.empty(len(V))
    for lo in range(0, len(V), step):
        rows = slice(lo, lo + step)
        norms[rows] = _chain_rim_norms(slice_blocks(cube, V[rows], B[rows]),
                                       energies[rows], core)
    return norms


def _chain_rim_norms(blocks, E, core):
    """chain_rim_norms of the (m, n, 2, 2) slice blocks of m rows and m
    energies, on site-major (n, m) entries D_k - E = (a0 b0; b0 c0)."""
    n = blocks.shape[1]
    a0, c0 = (blocks[:, :, i, i].T - E for i in (0, 1))
    b0 = blocks[:, :, 0, 1].T
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


def slice_resolvent(field, energy: float) -> np.ndarray:
    """(H_hat - E)^-1 of the plain block of the field (a FieldSample) on
    its cube, in the slice layout.

    The forward sweep forms P_k = S_k^-1 by one small solve per slice.  The
    backward recursion gives the block rows of G from the last one,
    G_(n-1,n-1) = P_(n-1): G[k, k+1:] = -P_k C G[k+1, k+1:],
    G[k+1:, k] = G[k, k+1:]^T and G_kk = P_k - G[k, k+1] C P_k.  The work is
    O(N^2 s), against O(N^3) for a dense inverse, and G is the one matrix of
    its size.  The caller keeps E at least 1 inside the gap edge, so
    ||G|| <= 1 and the residual contract is absolute: max |(H_hat - E) G - I|
    within RESOLVENT_RESIDUAL_TOL, the floor of the scale-relative bound of
    `resolvent_columns`, checked one block row at a time,
    D_k G_k + C G_(k-1) + C G_(k+1) - I, so a (2s, 2N) residual is live.
    """
    d = slice_blocks(field.cube, field.V, field.B)
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
