"""Reference implementations that the tests check the library against.

Each one computes a quantity the library also computes, by a slower or
more direct route.  The library's geometry is index arithmetic on cubes;
here it is Python site sets on any region, a cube or a tuple of sites:
sites enumerated from the axis offsets, a site -> index dict, the
boundary pairs, the inner and outer boundaries, strict inclusion, the
block-component indices and the boundary operator built from the pair
list.  The rest: the densities whose variation the BV norms sum,
finite differences for the Feynman-Hellmann sums, a dense solve and an
eigenpair sum for the suitability norm, the eigenvalue rule of a
suitability row, the Combes-Thomas block budget pair by pair, a
variational minimization for the lowest positive block eigenvalue,
explicit 2x2 element reads, block embeddings and indicator projections
for the exact identities, the Laplacian built site by site and the
plain block of a field on any
region (from that Laplacian and one dict lookup), a per-site hash for
the field sampler, a per-pair 1-norm distance, window counts read off a
dense spectrum, and the nested-cube checks with their geometry rebuilt
from site sets on every call, their resolvents from np.linalg.inv, and
one norm per EDI probe, and the default tails length lowered one at a
time until its cube fits the cap.
`sample_field` draws one realization's field, as a one-row block.  None
of them runs in an experiment.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import minimize

from blocklab.asymptotics import TAIL_LENGTH_FLOOR
from blocklab.disorder import FieldSample, sample_fields
from blocklab.green import GRI_COEFF, NESTED_RTOL, SPECTRAL_GUARD_RTOL
from blocklab.inequalities import CheckReport, _require
from blocklab.model import MAX_BLOCK_DIM, CubeSpec, PreconditionError
from blocklab.operators import block
from blocklab.spectral import Spectrum, eigensolve

# -- site sets -------------------------------------------------------------------


def axis_offsets(L: float) -> tuple[int, ...]:
    """Integers k with -L/2 < k < L/2, by enumeration."""
    if L <= 1:
        raise ValueError(f"cube of length {L} contains no sites (need L > 1)")
    lo, hi = -int(L // 2) - 1, int(L // 2) + 1
    return tuple(k for k in range(lo, hi + 1) if -L < 2 * k < L)


def sites(region) -> tuple:
    """Canonical (lexicographic, duplicate-free) site tuple of a region: a
    CubeSpec, enumerated from its axis offsets, or any iterable of integer
    coordinate tuples."""
    if isinstance(region, CubeSpec):
        offs = axis_offsets(region.L)
        return tuple(tuple(c + k for c, k in zip(region.center, combo))
                     for combo in product(offs, repeat=region.d))
    out = sorted({tuple(int(c) for c in s) for s in region})
    if not out:
        raise ValueError("empty region")
    if any(len(s) != len(out[0]) for s in out):
        raise ValueError("sites of mixed dimension")
    return tuple(out)


def site_index(region, query, strict: bool = False) -> np.ndarray:
    """Index in the canonical sites of `region` of every site of `query`
    (a region's sites, or sites in their own order), -1 if absent, read
    off a site -> index dict; with strict, an absent site raises KeyError."""
    idx = {s: i for i, s in enumerate(sites(region))}
    q = (sites(query) if isinstance(query, CubeSpec)
         else [tuple(int(c) for c in s) for s in query])
    out = [idx.get(s, -1) for s in q]
    if strict and -1 in out:
        raise KeyError(f"site {q[out.index(-1)]} is not in the region")
    return np.array(out, dtype=np.int64)


def component_indices(ambient, subset) -> np.ndarray:
    """Indices of the subset's sites (in their order) in both block
    components of the ambient region."""
    base = site_index(ambient, subset, strict=True)
    return np.concatenate([base, base + len(sites(ambient))])


def _neighbours(site):
    for j in range(len(site)):
        for step in (-1, 1):
            yield site[:j] + (site[j] + step,) + site[j + 1:]


def boundary(region) -> tuple:
    """All pairs (n, m), |n-m| = 1, with exactly one endpoint in the
    region, in both orientations, sorted."""
    inside = set(sites(region))
    pairs = []
    for n in sorted(inside):
        for m in _neighbours(n):
            if m not in inside:
                pairs += [(n, m), (m, n)]
    return tuple(sorted(pairs))


def inner_boundary(region) -> tuple:
    """Sites of the region with at least one neighbour outside."""
    inside = set(sites(region))
    return tuple(sorted(n for n in inside
                        if any(m not in inside for m in _neighbours(n))))


def outer_boundary(region) -> tuple:
    """Sites outside the region with at least one neighbour inside."""
    inside = set(sites(region))
    return tuple(sorted({m for n in inside for m in _neighbours(n)
                         if m not in inside}))


def strictly_inside(region1, region2) -> bool:
    """Whether every endpoint of every boundary edge of region1 lies in
    region2."""
    have = set(sites(region2))
    return all(s in have for pair in boundary(region1) for s in pair)


def gamma_on(inner, ambient) -> np.ndarray:
    """The boundary operator of `inner` on l2(ambient), -1 on every
    boundary pair, from the pair list."""
    _require(strictly_inside(inner, ambient), "inner must be strictly inside")
    ends = np.array(boundary(inner))                    # (pairs, 2, d)
    n = len(sites(ambient))
    g = np.zeros((n, n))
    g[site_index(ambient, ends[:, 0]), site_index(ambient, ends[:, 1])] = -1.0
    return g


# -- sampling --------------------------------------------------------------------


def dist1(n, m) -> int:
    """1-norm distance sum_j |n_j - m_j| of two sites."""
    return sum(abs(a - b) for a, b in zip(n, m))


_MASK = (1 << 64) - 1


def _splitmix(z: int) -> int:
    """One SplitMix64 step on a Python int: add the increment, then the
    finalizer, each operation reduced mod 2^64."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _absorb(key: int, words) -> int:
    """Fold signed 64-bit words into a key, one SplitMix64 step per word."""
    for w in words:
        key = _splitmix(key ^ (w & _MASK))
    return key


def sample_field(cube, config, realization_index: int) -> FieldSample:
    """One realization of the V- and B-fields on a cube: the block of
    `sample_fields` that holds that realization alone."""
    V, B = sample_fields(cube, config, (realization_index,))
    return FieldSample(cube, V[0], B[0], realization_index)


def site_uniform(master_seed: int, realization_index: int, site,
                 family: str) -> float:
    """Deterministic uniform [0,1) variate for one site draw.

    The counter hash of the sampler, one site at a time on Python ints:
    the (seed, family) key and the realization index give a realization
    key, the dimension and coordinates give a site key, and the top 53
    bits of two SplitMix64 steps of their xor are the variate.
    """
    if not all(-2 ** 63 <= w < 2 ** 63
               for w in (master_seed, realization_index, *site)):
        raise OverflowError("seed, realization and coordinates are int64")
    key = _absorb(0x5EED5EED5EED5EED, (master_seed, *family.encode("ascii")))
    r_key = _absorb(key, (realization_index,))
    site_key = _absorb(0x5173517351735173, (len(site), *site))
    z = _splitmix(_splitmix(r_key ^ site_key))
    return (z >> 11) * 2.0 ** -53


# -- measures --------------------------------------------------------------------


def density(m, x: float) -> float:
    """Lebesgue density of a uniform or triangular SiteMeasure at x, from
    its parameters."""
    if not m.has_density:
        raise ValueError(f"{m.kind} measure has no density")
    a, b = m.params
    if x < a or x > b:
        return 0.0
    if m.kind == "uniform":
        return 1.0 / (b - a)
    mid = 0.5 * (a + b)
    peak = 2.0 / (b - a)
    if x <= mid:
        return peak * (x - a) / (mid - a)
    return peak * (b - x) / (b - mid)


# -- eigenvalue counts ---------------------------------------------------------


def count_window(s: Spectrum, lo: float, hi: float) -> int:
    """Number of eigenvalues in the half-open window [lo, hi[, read off a
    computed spectrum: an eigenvalue equal to lo counts, one equal to hi
    does not, and no pivot is involved.  The library counts the same
    window by inertia, as count_below(hi) - count_below(lo) with strict
    (side "left") counts."""
    e = s.eigenvalues
    return int(np.searchsorted(e, hi, side="left") - np.searchsorted(e, lo, side="left"))


# -- CSV cells ----------------------------------------------------------------


def csv_cell(x) -> str:
    """The CSV text of one value, rule by rule: bools as 0/1, integers in
    decimal, floats as .17g, anything else by str."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def site_label(site) -> str:
    """The CSV label of a lattice site: its coordinates, space-separated."""
    return " ".join(str(int(c)) for c in site)


# -- block matrices ------------------------------------------------------------


def indicator(subset, ambient) -> tuple[np.ndarray, np.ndarray]:
    """Projections 1_subset and 1 (+) 1 on the ambient region (diagonal 0/1)."""
    diag = np.zeros(len(sites(ambient)))
    diag[site_index(ambient, sites(subset), strict=True)] = 1.0
    scalar = np.diag(diag)
    block = np.diag(np.concatenate([diag, diag]))
    return scalar, block



def embed_block(sub: np.ndarray, sub_sites, ambient_sites) -> np.ndarray:
    """Zero-extend a block matrix on a sub-region to the ambient block space."""
    rows = component_indices(ambient_sites, sub_sites)
    n = len(ambient_sites)
    out = np.zeros((2 * n, 2 * n))
    out[np.ix_(rows, rows)] = sub
    return out


def laplacian_on(region, bc: str = "simple") -> np.ndarray:
    """H0 on a region from its definition, site by site: -1 on neighbour
    pairs; 2d (simple), the neighbours kept inside (neumann) or 4d less
    those (dirichlet) on the diagonal; in canonical site order."""
    index = {s: i for i, s in enumerate(sites(region))}
    n, d = len(index), len(next(iter(index)))
    m = np.zeros((n, n))
    for s, i in index.items():
        for j in range(d):
            k = index.get(s[:j] + (s[j] + 1,) + s[j + 1:])
            if k is not None:
                m[i, k] = m[k, i] = -1.0
    kept = np.count_nonzero(m, axis=1)
    m[np.diag_indices(n)] = {"simple": 2.0 * d, "neumann": kept,
                             "dirichlet": 4.0 * d - kept}[bc]
    return m


def plain_block_on(region, field: FieldSample) -> np.ndarray:
    """The plain block (H  B; B  -H) of the field on any region inside its
    cube, H = H0 + V, from laplacian_on and one site_index lookup."""
    idx = site_index(field.cube, sites(region), strict=True)
    h = laplacian_on(region) + np.diag(field.V[idx])
    b = np.diag(field.B[idx])
    return np.block([[h, b], [b, -h]])


def dump_matrix(matrix, sites, path) -> None:
    """Write an operator matrix on the given sites as text: one row per
    line, space-separated.

    A leading comment line documents the canonical site order (and the
    upper/lower component split for block operators).
    """
    sites_str = " ".join("(" + ",".join(str(c) for c in s) + ")"
                         for s in sites)
    layout = ""
    if matrix.shape[0] == 2 * len(sites):
        layout = (" | block layout: first half upper component,"
                  " second half lower component")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# site order: {sites_str}{layout}\n")
        for row in matrix:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


@dataclass(frozen=True)
class Block2x2:
    """2x2-matrix-valued matrix element of a block operator at a site pair."""

    entries: np.ndarray
    pair: tuple


def block_element(matrix: np.ndarray, sites, n, m) -> Block2x2:
    """Read the 2x2 element at (n, m) from a block-space matrix."""
    n, m = tuple(n), tuple(m)
    i, j = site_index(sites, (n, m), strict=True).tolist()
    nn = len(sites)
    e = np.array([[matrix[i, j], matrix[i, j + nn]],
                  [matrix[i + nn, j], matrix[i + nn, j + nn]]])
    return Block2x2(e, (n, m))


def block_norm(b: Block2x2, kind: str = "frobenius") -> float:
    if kind == "frobenius":
        return float(np.linalg.norm(b.entries, "fro"))
    if kind == "operator":
        return float(np.linalg.norm(b.entries, 2))
    if kind == "max":
        return float(np.max(np.abs(b.entries)))
    raise ValueError(f"unknown 2x2 norm {kind!r}")


# -- Feynman-Hellmann by finite differences --------------------------------------


def _block_eigs_shifted(region, field: FieldSample, k, family, delta):
    """Block spectrum with the field value of the cube's k-th site shifted."""
    v, b = field.V.copy(), field.B.copy()
    (v if family == "V" else b)[k] += delta
    f = FieldSample(field.cube, v, b, field.realization_index)
    return eigensolve(plain_block_on(region, f)).eigenvalues


def fh_derivative_sums_fd(region, field: FieldSample,
                          step: float = 1e-5) -> np.ndarray:
    """Central-difference sum_n (d/dV_n + d/dB_n) E_j for every eigenvalue rank j.

    Eigenvalues are tracked by sort order, which is stable for perturbations
    much smaller than the level spacing.  Costs 4N + 1 eigensolves.
    """
    region_sites = sites(region)
    sums = np.zeros(2 * len(region_sites))
    for k in site_index(field.cube, region_sites, strict=True).tolist():
        for family in ("V", "B"):
            up = _block_eigs_shifted(region, field, k, family, +step)
            dn = _block_eigs_shifted(region, field, k, family, -step)
            sums += (up - dn) / (2.0 * step)
    return sums


# -- suitability by a dense solve --------------------------------------------------


def dense_suitability_norm(op_matrix, energy, rows, cols) -> float:
    """Norm of the resolvent block [rows, cols] from a full dense inverse."""
    dim = op_matrix.shape[0]
    g = np.linalg.solve(op_matrix - energy * np.eye(dim), np.eye(dim))
    return float(np.linalg.norm(g[np.ix_(rows, cols)], 2))


def suitability_row(field: FieldSample, rows, cols, energies, a_L: float, cuts,
                    tol: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """One realization's row of the suitability kernel by the eigenvalue
    rule, from a dense spectrum: per energy the norm of the resolvent block
    [rows, cols] by a full inverse, inf for an energy within tol of the
    spectrum, whose distance is then 0; whether each distance exceeds each
    cut (cut x energy); and the gap event min |lambda| > a_L + L^-1/2."""
    m = plain_block_on(field.cube, field)
    ev = eigensolve(m).eigenvalues
    deltas = np.array([np.min(np.abs(ev - e)) for e in energies])
    off = deltas > tol
    norms = np.array([dense_suitability_norm(m, e, rows, cols) if o else np.inf
                      for e, o in zip(energies, off)])
    far = np.where(off, deltas, 0.0)[None, :] > np.asarray(cuts)[:, None]
    return norms, far, bool(np.min(np.abs(ev)) > a_L + field.cube.L ** -0.5)


def ct_block_budget(cube: CubeSpec, delta: float) -> float:
    """The Frobenius aggregate of the Combes-Thomas bounds
    (4/delta) exp(-delta |n-m| / (12 d)), delta capped at 1, by a loop over
    every pair of an inner boundary site n and a core (inner third) site
    m, in loop order; inf when a term leaves the float range."""
    dcap = min(delta, 1.0)
    rate = dcap / (12.0 * cube.d)
    core = sites(cube.concentric(cube.L / 3.0))
    total = 0.0
    try:
        for n in inner_boundary(cube):
            for m in core:
                total += (4.0 / dcap * math.exp(-rate * dist1(n, m))) ** 2
    except OverflowError:
        return math.inf
    return math.sqrt(total)


def eigenpair_suitability_norms(s: Spectrum, rows, cols, energies) -> np.ndarray:
    """Per energy off the spectrum, the norm of the resolvent block
    [rows, cols] read off the eigenpairs in `s`,
    G[rows, cols] = (V[rows] / (lambda - E)) V[cols]^T, with one 2-norm
    per energy."""
    v_rows, v_cols = s.eigenvectors[rows], s.eigenvectors[cols]
    return np.array([np.linalg.norm((v_rows / (s.eigenvalues - e)) @ v_cols.T, 2)
                     for e in energies])


# -- nested-cube checks, geometry rebuilt per call ------------------------------


def _sub(matrix, ambient_sites, row_sites, col_sites):
    rows = component_indices(ambient_sites, row_sites)
    cols = component_indices(ambient_sites, col_sites)
    return matrix[np.ix_(rows, cols)]


def _resolvent(m, energy, spectrum):
    """(m - E)^-1 from np.linalg.inv, and the distance from E to the
    eigenvalues of m (from `spectrum`, or np.linalg.eigvalsh); within
    SPECTRAL_GUARD_RTOL of their largest modulus raises PreconditionError."""
    ev = np.linalg.eigvalsh(m) if spectrum is None else spectrum.eigenvalues
    delta = float(np.min(np.abs(ev - energy)))
    _require(delta >= SPECTRAL_GUARD_RTOL * max(float(np.max(np.abs(ev))), 1e-300),
             f"E={energy} is within {delta:.3e} of the spectrum")
    return np.linalg.inv(m - energy * np.eye(len(m))), delta


def _nested_resolvents(region1, region2, region3, field, energy,
                       spectra=(None, None)):
    r1 = sites(region1)
    r2 = sites(region2)
    r3 = sites(region3)
    _require(strictly_inside(r1, r2) and strictly_inside(r2, r3),
             "need region1 strictly inside region2 strictly inside region3")
    _require(set(r2) <= set(r3), "region2 must be contained in region3")
    s2, s3 = spectra
    g2, delta2 = _resolvent(plain_block_on(region2, field), energy, s2)
    g3, delta3 = _resolvent(plain_block_on(region3, field), energy, s3)
    return r1, r2, r3, g2, g3, delta2, delta3


def _boundary_blocks(r1, r2, r3, g2, g3):
    """G3[i3, r1], G3[i3, o2] and G2[i2, r1], each read as the transpose of
    its mirror block, since G is symmetric: entry by entry, the columns at
    the inner boundaries that the library solves for."""
    i3, i2, o2 = inner_boundary(r3), inner_boundary(r2), outer_boundary(r2)
    return (_sub(g3, r3, r1, i3).T, _sub(g3, r3, o2, i3).T,
            _sub(g2, r2, r1, i2).T)


def _gri(region1, region2, region3, field, energy):
    r1, r2, r3, g2, g3, delta2, delta3 = _nested_resolvents(region1, region2,
                                                            region3, field, energy)
    gamma = gamma_on(r2, r3)
    lhs, a, b = _boundary_blocks(r1, r2, r3, g2, g3)
    chain = a @ _sub(block(gamma, 0.0, gamma), r3, outer_boundary(r2),
                     inner_boundary(r2)) @ b
    return float(np.max(np.abs(lhs + chain))), delta2, delta3


def gri_check_per_realization(region1, region2, region3, field: FieldSample,
                              energy: float) -> CheckReport:
    """green.gri_check with the nested geometry (boundaries, Gamma and
    index maps) rebuilt from site tuples on every call."""
    res, delta2, delta3 = _gri(region1, region2, region3, field, energy)
    cap = GRI_COEFF * (1.0 + 1.0 / delta2) * (1.0 + 1.0 / delta3)
    rep = CheckReport("gri_residual",
                      parameters={"E": energy, "coeff": GRI_COEFF, "residual": res,
                                  "delta2": delta2, "delta3": delta3,
                                  "cap": cap})
    rep.record(cap - res)
    return rep


def sli_check_per_realization(region1, region2, region3, field: FieldSample,
                              energy: float, spectra) -> CheckReport:
    """green.sli_check with the nested geometry rebuilt on every call."""
    r1, r2, r3, g2, g3, _, _ = _nested_resolvents(region1, region2, region3,
                                                  field, energy, spectra)
    gamma = float(np.linalg.norm(gamma_on(r2, r3), 2))
    g3_r1, a, b = _boundary_blocks(r1, r2, r3, g2, g3)
    lhs = np.linalg.norm(g3_r1, 2)
    rhs = gamma * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    rep = CheckReport("sli", parameters={"E": energy, "gamma": gamma})
    rep.record(rhs - lhs + NESTED_RTOL * max(lhs, rhs, 1.0))
    return rep


def edi_check_per_probe(region, cube3, field: FieldSample, eigen_index: int,
                        host: Spectrum, inner: Spectrum) -> CheckReport:
    """green.edi_check with the geometry rebuilt on every call and one
    2-norm, and one recorded slack, per probe site."""
    r = sites(region)
    r3 = sites(cube3)
    _require(strictly_inside(r, r3),
             "region must be strictly inside the host cube")
    energy = float(host.eigenvalues[eigen_index])
    psi = host.eigenvectors[:, eigen_index]
    g, _ = _resolvent(plain_block_on(region, field), energy, inner)
    gamma = float(np.linalg.norm(gamma_on(r, r3), 2))
    i_r = inner_boundary(r)
    o_r = outer_boundary(r)
    n3 = len(r3)
    probes = r
    psi_out = float(np.linalg.norm(psi[component_indices(r3, o_r)]))
    rep = CheckReport("edi", parameters={"E": energy, "eigen_index": eigen_index,
                                         "gamma": gamma})
    for n, i in zip(probes, site_index(r3, probes, strict=True).tolist()):
        lhs = float(np.hypot(psi[i], psi[i + n3]))
        rhs = gamma * np.linalg.norm(_sub(g, r, (n,), i_r), 2) * psi_out
        rep.record(rhs - lhs + NESTED_RTOL * max(lhs, rhs, 1.0))
    return rep


# -- min-max-max principle ---------------------------------------------------------


def _outer_objective(f: np.ndarray, A: np.ndarray, B: np.ndarray, D: np.ndarray,
                     work: np.ndarray) -> float:
    # inner maximization over g is exact: the largest eigenvalue of the
    # compression [[<f,Af>, (Bf)^T], [Bf, -D]]
    f = f / np.linalg.norm(f)
    bf = B @ f
    work[0, 0] = f @ A @ f
    work[0, 1:] = bf
    work[1:, 0] = bf
    return float(np.linalg.eigvalsh(work)[-1])


def minmaxmax_lambda1(A, B, D, budget: int = 40000, seed: int = 0,
                      stable_starts: int = 3, tol: float = 1e-9) -> float:
    """Smallest positive-branch block eigenvalue by variational minimization.

    The maximization over the lower component is carried out exactly (an
    eigenproblem one dimension larger), the minimization over the upper
    component by repeated local descent from random starts.  Converges when
    `stable_starts` independent starts agree with the best value within
    `tol`; raises if the evaluation budget runs out first.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    D = np.asarray(D, dtype=float)
    n = A.shape[0]
    if n > 8:
        raise PreconditionError(f"matrix size {n} exceeds the supported maximum 8")
    if float(np.linalg.eigvalsh(A + D)[0]) <= 0.0:
        raise PreconditionError("variational principle needs A > -D")
    work = np.empty((1 + n, 1 + n))
    work[1:, 1:] = -D
    if n == 1:
        # objective is constant over the unit sphere {-1, 1}
        return _outer_objective(np.ones(1), A, B, D, work)

    rng = np.random.default_rng(seed)
    spent = 0
    best = np.inf
    agreeing = 0
    scale = max(1.0, float(np.linalg.norm(A, 2)) + float(np.linalg.norm(D, 2)))
    # cap each descent so a stalled start cannot eat the whole budget
    per_start = min(4000, budget)
    while agreeing < stable_starts:
        if spent >= budget:
            raise RuntimeError(
                f"optimization budget {budget} exhausted before {stable_starts} "
                f"starts agreed to {tol:g}")
        f0 = rng.standard_normal(n)
        f0 /= np.linalg.norm(f0)
        res = minimize(_outer_objective, f0, args=(A, B, D, work),
                       method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14,
                                "maxfev": min(per_start, budget - spent)})
        spent += res.nfev
        if res.fun < best - tol * scale:
            best = res.fun
            agreeing = 1
        elif res.fun <= best + tol * scale:
            agreeing += 1
    return float(best)


def default_tail_length(eps: float, d: int) -> int:
    """`asymptotics.default_tail_length` by a loop: from
    max(ceil(10 / sqrt(eps)), TAIL_LENGTH_FLOOR), one length down at a time
    while the block is wider than MAX_BLOCK_DIM and the length is above
    the floor."""
    floor = TAIL_LENGTH_FLOOR
    L = floor if eps <= 0.0 else max(int(math.ceil(10.0 / math.sqrt(eps))), floor)
    while 2 * CubeSpec(d, L).site_count > MAX_BLOCK_DIM and L > floor:
        L -= 1
    return L
