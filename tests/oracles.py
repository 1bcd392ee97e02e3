"""Reference implementations that the tests check the library against.

Each one computes a quantity the library also computes, by a slower or
more direct route: the densities whose variation the BV norms sum,
finite differences for the Feynman-Hellmann sums, a dense solve and an
eigenpair sum for the suitability norm, a variational minimization for
the lowest positive block eigenvalue, explicit 2x2 element reads, block
embeddings and indicator projections for the exact identities, the
Laplacian built site by site and the plain block of a field on any
region (a fresh build_h0 and one site_index lookup), a
per-site hash for the field sampler, a per-pair 1-norm distance, window
counts read off a dense spectrum, and the nested-cube checks with their
geometry rebuilt on every call and one norm per EDI probe.
`sample_field` draws one realization's field, as a one-row block.  None
of them runs in an experiment.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from blocklab import lattice
from blocklab.disorder import FieldSample, sample_fields
from blocklab.green import GRI_COEFF, NESTED_RTOL, resolvent
from blocklab.inequalities import CheckReport, PreconditionError, _require
from blocklab.operators import block, build_gamma, build_h0, component_indices
from blocklab.spectral import Spectrum, eigensolve

# -- sites and sampling ----------------------------------------------------------


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
    decimal, floats as .17g, lattice sites as their coordinates, anything
    else by str."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, tuple):
        return " ".join(str(int(c)) for c in x)
    return str(x)


# -- block matrices ------------------------------------------------------------


def indicator(subset, ambient) -> tuple[np.ndarray, np.ndarray]:
    """Projections 1_subset and 1 (+) 1 on the ambient region (diagonal 0/1)."""
    diag = np.zeros(len(lattice.sites(ambient)))
    diag[lattice.site_index(ambient, lattice.sites(subset), strict=True)] = 1.0
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
    sites = lattice.sites(region)
    n, d = len(sites), len(sites[0])
    m = np.zeros((n, n))
    for i, s in enumerate(sites):
        up = [s[:j] + (s[j] + 1,) + s[j + 1:] for j in range(d)]
        for j in lattice.site_index(sites, up).tolist():
            if j >= 0:
                m[i, j] = m[j, i] = -1.0
    kept = np.count_nonzero(m, axis=1)
    m[np.diag_indices(n)] = {"simple": 2.0 * d, "neumann": kept,
                             "dirichlet": 4.0 * d - kept}[bc]
    return m


def plain_block_on(region, field: FieldSample) -> np.ndarray:
    """The plain block (H  B; B  -H) of the field on any region inside its
    cube, H = H0 + V, from a fresh build_h0 and one site_index lookup."""
    idx = lattice.site_index(field.cube, lattice.sites(region), strict=True)
    h = build_h0(region) + np.diag(field.V[idx])
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
    i, j = lattice.site_index(sites, (n, m), strict=True).tolist()
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
    region_sites = lattice.sites(region)
    sums = np.zeros(2 * len(region_sites))
    for k in lattice.site_index(field.cube, region_sites, strict=True).tolist():
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


def eigenpair_suitability_norms(s: Spectrum, rows, cols,
                                energies) -> tuple[np.ndarray, np.ndarray]:
    """Per energy: the norm of the resolvent block [rows, cols] and the
    distance to the spectrum, read off the eigenpairs in `s`,
    G[rows, cols] = (V[rows] / (lambda - E)) V[cols]^T, with one 2-norm
    per energy.  An energy on the spectrum (within 1e-12 of its scale, at
    least 1) has norm inf and distance 0."""
    ev = s.eigenvalues
    v_rows, v_cols = s.eigenvectors[rows], s.eigenvectors[cols]
    scale = max(np.max(np.abs(ev)), 1.0)
    norms, deltas = [], []
    for e in energies:
        delta = float(np.min(np.abs(ev - e)))
        if delta <= 1e-12 * scale:
            norms.append(np.inf)
            deltas.append(0.0)
            continue
        norms.append(float(np.linalg.norm((v_rows / (ev - e)) @ v_cols.T, 2)))
        deltas.append(delta)
    return np.array(norms), np.array(deltas)


# -- nested-cube checks, geometry rebuilt per call ------------------------------


def _sub(matrix, ambient_sites, row_sites, col_sites):
    rows = component_indices(ambient_sites, row_sites)
    cols = component_indices(ambient_sites, col_sites)
    return matrix[np.ix_(rows, cols)]


def _nested_resolvents(region1, region2, region3, field, energy,
                       spectra=(None, None)):
    r1 = lattice.sites(region1)
    r2 = lattice.sites(region2)
    r3 = lattice.sites(region3)
    _require(lattice.strictly_inside(r1, r2) and lattice.strictly_inside(r2, r3),
             "need region1 strictly inside region2 strictly inside region3")
    _require(set(r2) <= set(r3), "region2 must be contained in region3")
    s2, s3 = spectra
    g2 = resolvent(plain_block_on(region2, field), energy, s2)
    g3 = resolvent(plain_block_on(region3, field), energy, s3)
    return r1, r2, r3, g2, g3


def _gri(region1, region2, region3, field, energy):
    r1, r2, r3, g2, g3 = _nested_resolvents(region1, region2, region3, field, energy)
    gamma = build_gamma(r2, r3)
    i3 = lattice.inner_boundary(r3)
    i2 = lattice.inner_boundary(r2)
    o2 = lattice.outer_boundary(r2)
    lhs = _sub(g3.matrix, r3, i3, r1)
    chain = (_sub(g3.matrix, r3, i3, o2)
             @ _sub(block(gamma, 0.0, gamma), r3, o2, i2)
             @ _sub(g2.matrix, r2, i2, r1))
    return float(np.max(np.abs(lhs + chain))), g2.delta, g3.delta


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
                              energy: float, spectra=(None, None)) -> CheckReport:
    """green.sli_check with the nested geometry rebuilt on every call."""
    r1, r2, r3, g2, g3 = _nested_resolvents(region1, region2, region3, field,
                                            energy, spectra)
    gamma = float(np.linalg.norm(build_gamma(r2, r3), 2))
    i3 = lattice.inner_boundary(r3)
    i2 = lattice.inner_boundary(r2)
    o2 = lattice.outer_boundary(r2)
    lhs = np.linalg.norm(_sub(g3.matrix, r3, i3, r1), 2)
    rhs = (gamma
           * np.linalg.norm(_sub(g3.matrix, r3, i3, o2), 2)
           * np.linalg.norm(_sub(g2.matrix, r2, i2, r1), 2))
    rep = CheckReport("sli", parameters={"E": energy, "gamma": gamma})
    rep.record(rhs - lhs + NESTED_RTOL * max(lhs, rhs, 1.0))
    return rep


def edi_check_per_probe(region, cube3, field: FieldSample, eigen_index: int,
                        host: Spectrum | None = None,
                        inner: Spectrum | None = None) -> CheckReport:
    """green.edi_check with the geometry rebuilt on every call and one
    2-norm, and one recorded slack, per probe site."""
    r = lattice.sites(region)
    r3 = lattice.sites(cube3)
    _require(lattice.strictly_inside(r, r3),
             "region must be strictly inside the host cube")
    if host is None:
        host = eigensolve(plain_block_on(cube3, field), want_vectors=True)
    energy = float(host.eigenvalues[eigen_index])
    psi = host.eigenvectors[:, eigen_index]
    g = resolvent(plain_block_on(region, field), energy, inner)
    gamma = float(np.linalg.norm(build_gamma(r, r3), 2))
    i_r = lattice.inner_boundary(r)
    o_r = lattice.outer_boundary(r)
    n3 = len(r3)
    probes = r
    psi_out = float(np.linalg.norm(psi[component_indices(r3, o_r)]))
    rep = CheckReport("edi", parameters={"E": energy, "eigen_index": eigen_index,
                                         "gamma": gamma})
    for n, i in zip(probes, lattice.site_index(r3, probes, strict=True).tolist()):
        lhs = float(np.hypot(psi[i], psi[i + n3]))
        rhs = gamma * np.linalg.norm(_sub(g.matrix, r, (n,), i_r), 2) * psi_out
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
