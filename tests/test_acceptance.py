"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with pytest -s, and on failure) before asserting.  Tolerances are
pinned here and nowhere else.  Everything is deterministic: field sampling
is a pure function of the seeds fixed below.
"""

import math

import numpy as np
import pytest

from blocklab import asymptotics, green, inequalities, spectral
from blocklab.harness import parse_config, run
from blocklab.inequalities import CheckReport
from blocklab.lattice import strictly_inside
from blocklab.model import (CubeSpec, DisorderConfig, PreconditionError, SiteMeasure,
                            deterministic_radius)
from blocklab.operators import block, build_gamma
from blocklab.spectral import eigensolve, plain_block
import oracles
from oracles import (block_element, block_norm, embed_block, minmaxmax_lambda1,
                     plain_block_on, sample_field)


def verdict(number: int, name: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    assert ok, line


# -- 1: exact identities -------------------------------------------------------


def test_criterion_1_exact_identities():
    rng = np.random.default_rng(1001)
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(0, 1), 11)

    gri = CheckReport("gri")
    triples = 0
    while triples < 100:
        d = 1 if triples % 2 == 0 else 2
        if d == 1:
            lengths = (2, int(rng.integers(4, 7)), int(rng.integers(8, 12)))
        else:
            lengths = (2, int(rng.integers(3, 5)), int(rng.integers(6, 8)))
        cubes = [CubeSpec(d, l) for l in lengths]
        if not (strictly_inside(cubes[0], cubes[1])
                and strictly_inside(cubes[1], cubes[2])):
            continue
        f = sample_field(cubes[2], cfg, triples)
        e = float(rng.uniform(-0.9, 0.9))      # inside the deterministic gap
        gri.absorb(green.gri_check(*cubes, f, e))
        triples += 1

    worst_decomp = 0.0
    for k in range(30):
        d = 1 if k % 2 == 0 else 2
        l2, l3 = (5, 9) if d == 1 else (3, 6)
        c2, c3 = CubeSpec(d, l2), CubeSpec(d, l3)
        f = sample_field(c3, cfg, 500 + k)
        big = plain_block(f)
        inner = oracles.sites(c2)
        rest = tuple(s for s in oracles.sites(c3) if s not in set(inner))
        parts = (embed_block(plain_block_on(inner, f), inner, oracles.sites(c3))
                 + embed_block(plain_block_on(rest, f), rest, oracles.sites(c3)))
        gamma = build_gamma(c2, c3)
        worst_decomp = max(worst_decomp, float(np.max(np.abs(
            big - parts - block(gamma, 0.0, gamma)))))

    worst_hs = 0.0
    sites = oracles.sites(CubeSpec(1, 9))
    nn = len(sites)
    for k in range(50):
        a = rng.standard_normal((2 * nn, 2 * nn))
        grid = green.block_norm_grid(a, nn)
        i, j = rng.integers(0, nn, size=2)
        direct = block_norm(block_element(a, sites, sites[i], sites[j]))
        proj = np.zeros_like(a)
        rows = [i, i + nn]
        cols = [j, j + nn]
        proj[np.ix_(rows, cols)] = a[np.ix_(rows, cols)]
        hs = float(np.linalg.norm(proj, "fro"))
        worst_hs = max(worst_hs, abs(hs - direct), abs(hs - grid[i, j]))

    ok = (gri.passed and gri.instances >= 100
          and worst_decomp <= 1e-14 and worst_hs <= 1e-12)
    verdict(1, "exact-identities", ok,
            f"gri {gri.instances} triples worst slack {gri.worst_margin:.2e}; "
            f"decomposition max {worst_decomp:.2e}; hs defect {worst_hs:.2e}")


# -- 2: deterministic spectral structure ----------------------------------------


def test_criterion_2_spectral_structure():
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(1, 2), 21)
    lam, beta = 1.0, 1.0
    edge = math.sqrt(2.0)
    reports = {name: CheckReport(name) for name in
               ("symmetry", "beta_map", "gap", "half_half", "interlacing",
                "tail_bound", "bracketing", "radius")}
    total = 0
    for d, L, count in ((1, 16, 600), (2, 4, 400)):
        cube = CubeSpec(d, L)
        radius = deterministic_radius(d, cfg.mu_V, cfg.mu_B)
        for r in range(count):
            f = sample_field(cube, cfg, r)
            s = eigensolve(plain_block(f))
            reports["symmetry"].absorb(inequalities.symmetry_check(s))
            es = inequalities.edge_spectra(f, beta)
            reports["beta_map"].absorb(inequalities.beta_map_check(es))
            reports["gap"].record(float(np.min(np.abs(s.eigenvalues))) - edge)
            reports["half_half"].absorb(
                inequalities.half_half_check(es, lam))
            reports["interlacing"].absorb(inequalities.interlacing_check(es))
            reports["tail_bound"].absorb(
                asymptotics.finite_volume_tail_bound(es, lam, 0.3))
            reports["bracketing"].absorb(
                inequalities.bracketing_gap_check(f, lam, beta))
            reports["radius"].absorb(inequalities.radius_check(s, radius))
            total += 1
    violations = {k: v.violations for k, v in reports.items()}
    ok = total >= 1000 and all(v == 0 for v in violations.values())
    verdict(2, "spectral-structure", ok,
            f"{total} realizations, violations {violations}")


# -- 3: deterministic inequalities with computed constants -----------------------


def test_criterion_3_resolvent_inequalities():
    rng = np.random.default_rng(3003)
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(0, 1), 31)

    sli = CheckReport("sli")
    count = 0
    while count < 100:
        d = 1 if count % 2 == 0 else 2
        lengths = (2, 5, 9) if d == 1 else (2, 4, 7)
        cubes = [CubeSpec(d, l) for l in lengths]
        f = sample_field(cubes[2], cfg, count)
        e = float(rng.uniform(-0.9, 0.9))
        spectra = tuple(eigensolve(plain_block(f, c)) for c in cubes[1:])
        sli.absorb(green.sli_check(*cubes, f, e, spectra))
        count += 1

    edi = CheckReport("edi")
    calls = 0
    r = 0
    while calls < 100:
        cube3 = CubeSpec(1, 11)
        f = sample_field(cube3, cfg, 1000 + r)
        r += 1
        dim = 2 * cube3.site_count
        host = eigensolve(plain_block(f), want_vectors=True)
        for region_l in (3, 5, 7):
            region = CubeSpec(1, region_l)
            inner = eigensolve(plain_block(f, region))
            for j in sorted(rng.choice(dim, size=4, replace=False)):
                try:
                    edi.absorb(green.edi_check(region, cube3, f, int(j), host, inner))
                    calls += 1
                except PreconditionError:
                    continue

    ct_cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 33)
    ct = CheckReport("ct")
    cube = CubeSpec(1, 30)
    for r in range(50):
        f = sample_field(cube, ct_cfg, r)
        ct.absorb(green.combes_thomas_check(
            green.decay_profile(f, 0.0)))

    fh_cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 35)
    fh = CheckReport("feynman_hellmann")
    cube = CubeSpec(1, 6)
    for r in range(50):
        f = sample_field(cube, fh_cfg, r)
        fh.absorb(inequalities.feynman_hellmann_report(f, tol=1e-6))
    pairs_per_instance = CubeSpec(1, 30).site_count ** 2
    ok = (sli.passed and sli.instances >= 100
          and edi.passed and calls >= 100
          and ct.passed and ct.instances == 50 * pairs_per_instance
          and fh.passed and fh.instances >= 50)
    verdict(3, "resolvent-inequalities", ok,
            f"sli {sli.instances}/{sli.violations}v; edi {calls} calls/"
            f"{edi.violations}v; ct {ct.instances} pairs/{ct.violations}v; "
            f"fh {fh.instances} eigenvalues/{fh.violations}v "
            f"worst {fh.worst_margin:.2e}")


# -- 4: Wegner estimates ----------------------------------------------------------


def test_criterion_4_wegner():
    cfg = DisorderConfig(SiteMeasure.uniform(0, 1), SiteMeasure.uniform(0, 1), 41)
    cube = CubeSpec(1, 50)
    n_sites = cube.site_count          # 49 sites for L = 50
    R = 2000
    windows = [(1.0, 0.1), (1.0, 0.2), (2.0, 0.1), (2.0, 0.3), (3.0, 0.5)]
    worst = math.inf
    all_pass = True
    for rep in inequalities.wegner_finite_volume(cfg, cube, windows, R):
        eps = rep.parameters["eps"]
        stated = 8 * eps * 50 * 4.0       # the looser stated constant
        all_pass &= rep.passed and rep.parameters["mean"] <= stated
        worst = min(worst, rep.worst_margin)

    dos2 = inequalities.dos_bound_uniform(
        spectral.dos_histogram(cfg, cube, np.linspace(-9, 9, 61), R))

    cfg1 = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 43)
    dos1 = inequalities.dos_bound_energy_dependent(
        spectral.dos_histogram(cfg1, cube, np.linspace(-8, 8, 49), R))

    ok = all_pass and dos2.passed and dos1.passed
    verdict(4, "wegner", ok,
            f"{len(windows)} windows R={R} worst slack {worst:.3g}; "
            f"uniform-bound worst {dos2.worst_margin:.3g}; "
            f"energy-dependent worst {dos1.worst_margin:.3g}")


# -- 5: Lifschitz tails -------------------------------------------------------------


def test_criterion_5_lifschitz_tails():
    cfg = DisorderConfig(SiteMeasure.uniform(1.0, 1.3), SiteMeasure.point_mass(0.0),
                         51)
    curve = asymptotics.tail_curve(cfg, 1, [0.05, 0.08, 0.125, 0.2, 0.3, 0.4, 0.5],
                                   R=800, lengths=[45, 36, 29, 23, 19, 16, 15])
    mono = asymptotics.tail_monotonicity_check(curve)
    fit = asymptotics.tail_exponent_fit(curve)

    lb_cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.uniform(-1, 1),
                            55)
    c0 = asymptotics.c0_estimate([8, 16, 32, 64, 128], 1)
    lb_pass = True
    lb_notes = []
    for eps in (0.5, 0.75, 1.0):
        L = asymptotics.lower_bound_scale(c0.c0_hat, eps)
        rep = asymptotics.lower_bound_probability(lb_cfg, 1, eps, L, R=100000)
        censored = rep.parameters["censored"]
        lb_notes.append(f"eps={eps}{'(censored)' if censored else ''}")
        if not censored:
            lb_pass &= rep.passed
    feasible = sum(1 for n in lb_notes if "censored" not in n)

    ok = (mono.passed and 0.3 <= fit.alpha_hat <= 0.8
          and lb_pass and feasible >= 1)
    verdict(5, "lifschitz-tails", ok,
            f"alpha_hat={fit.alpha_hat:.3f} target 0.5 band [0.3, 0.8], "
            f"{fit.points_used} points ({int(curve.censored.sum())} censored); "
            f"monotone={mono.passed}; lower bound {' '.join(lb_notes)}")


# -- 6: initial-scale estimate --------------------------------------------------------


def test_criterion_6_initial_scale():
    cfg = DisorderConfig(SiteMeasure.uniform(1, 2), SiteMeasure.point_mass(0), 61)
    theta = 1.5
    stats = []
    implication_ok = True
    for L in (12, 24, 48):
        rep, = asymptotics.suitability_probability(cfg, 1, L, [theta], [0.0],
                                                   R=150)
        implication_ok &= rep.implication.passed
        stats.append((L, rep.probability[0], rep.wilson_lo[0], rep.wilson_hi[0]))
    ci_ordered = all(b[3] >= a[2] for a, b in zip(stats, stats[1:]))

    rng = np.random.default_rng(6006)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 5)) if trial < 40 else int(rng.integers(5, 9))
        q = rng.standard_normal((n, n))
        a = q @ q.T + 0.3 * np.eye(n)
        if trial % 2 == 0:
            d_m = a
        else:
            q2 = rng.standard_normal((n, n))
            d_m = q2 @ q2.T + 0.3 * np.eye(n)
        b = rng.standard_normal((n, n))
        b = 0.5 * (b + b.T)
        blk = np.block([[a, b], [b, -d_m]])
        top = float(np.max(np.linalg.eigvalsh(-d_m)))
        ev = np.linalg.eigvalsh(blk)
        oracle = float(ev[ev > top][0])
        est = minmaxmax_lambda1(a, b, d_m, seed=trial)
        worst = max(worst, abs(est - oracle))

    ok = ci_ordered and implication_ok and worst <= 1e-6
    verdict(6, "initial-scale", ok,
            f"suitability {[(L, round(p, 3)) for L, p, _, _ in stats]} "
            f"CI-ordered={ci_ordered}, implication ok={implication_ok}; "
            f"minmaxmax worst |err| {worst:.2e} over 50 matrices")


# -- 7: eigenfunction correlator -------------------------------------------------------


def test_criterion_7_correlator():
    cfg = DisorderConfig(SiteMeasure.uniform(0, 5), SiteMeasure.uniform(0, 1), 71)
    profile = asymptotics.eigenfunction_correlator(cfg, CubeSpec(1, 60),
                                                   (-2.0, 2.0), R=200)
    fit = asymptotics.stretched_fit(profile)
    ok = (not profile.empty) and fit.log_slope < 0
    verdict(7, "correlator", ok,
            f"contributing {profile.contributing}/200, fitted zeta={fit.zeta:.2f}, "
            f"C_zeta={fit.c_zeta:.3g}, log-slope={fit.log_slope:.3f}, "
            f"R^2={fit.r_squared:.3f} (no reference values exist)")


# -- 8: reproducibility ------------------------------------------------------------------


def test_criterion_8_reproducibility(tmp_path):
    text = """
[experiment]
kind = ids
d = 1
L = 9
realizations = 16
seed = 12345

[mu_V]
kind = uniform
a = 0.0
b = 1.0

[mu_B]
kind = uniform
a = 0.0
b = 1.0

[ids]
energies = -3 -1 0 1 3
"""
    runs = {}
    for workers in (1, 8):
        cfg = parse_config(text, workers=workers)
        out = tmp_path / f"w{workers}"
        run(cfg, out)
        runs[workers] = {p.name: p.read_bytes()
                         for p in out.glob("*.csv")}
    identical = runs[1] == runs[8] and len(runs[1]) > 0

    cfg = parse_config(text, workers=1)
    out2 = tmp_path / "again"
    run(cfg, out2)
    repeat = all((out2 / name).read_bytes() == blob
                 for name, blob in runs[1].items())

    ok = identical and repeat
    verdict(8, "reproducibility", ok,
            f"{len(runs[1])} CSV file(s) byte-identical across 1 vs 8 workers "
            f"and across repeat runs: {identical and repeat}")
