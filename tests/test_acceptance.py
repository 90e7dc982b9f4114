"""End-to-end acceptance battery.

Each test prints a single pass/fail line for its criterion.  Scales and
tolerances are pinned; runtimes are asserted only where the criterion
includes one.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from nodalab import cli
from nodalab import analysis as an
from nodalab.fields import SparsePolynomial, field_from_json, make_box_eigenfunction, make_torus_eigenfunction
from nodalab.harmonics import random_solid_harmonic
from nodalab.levelset import (
    Domain,
    default_shell_width,
    extract,
    thin_shell,
    weighted_area,
    weighted_area_error_bound,
)

TORUS_F = make_torus_eigenfunction([((1, 0), 0.0, 1.0)])
TORUS = Domain.torus(2)
X3 = SparsePolynomial(3, {(0, 0, 1): Fraction(1)})

WORKERS = 4


def _criterion(num, desc, ok):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    print(line)
    assert ok, line


def _sphere_max(P, seed=0):
    u = np.random.default_rng(seed).standard_normal((20_000, P.dimension))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return float(np.abs(P.value(u)).max())


@pytest.fixture(scope="module")
def torus_densities():
    """Both 10^7-sample densities and the seconds they took."""
    start = time.time()
    mu = an.value_distribution_density(TORUS_F, "mu", TORUS, 64, 10**7, seed=0, workers=WORKERS)
    sigma = an.value_distribution_density(TORUS_F, "sigma", TORUS, 64, 10**7, seed=0, workers=WORKERS)
    return mu, sigma, time.time() - start


def test_01_torus_density_closed_forms(torus_densities):
    start = time.time()
    mu, sigma, density_s = torus_densities

    def antider(t):  # integral of sqrt(1 - t^2)
        t = np.clip(t, -1, 1)
        return (t * np.sqrt(1 - t**2) + np.arcsin(t)) / 2

    a, b = mu.edges[:-1], mu.edges[1:]
    truth_mu = (2 / math.pi) * (antider(b) - antider(a)) / (b - a)
    sup_err = float(np.abs(mu.density - truth_mu).max())
    mu_ok = sup_err <= 0.02 * (2 / math.pi)

    truth_sigma = (np.arcsin(np.clip(sigma.edges[1:], -1, 1))
                   - np.arcsin(np.clip(sigma.edges[:-1], -1, 1))) / (math.pi * sigma.bin_width)
    interior = np.abs(sigma.centers) <= 0.9
    z = np.abs(sigma.density - truth_sigma) / np.maximum(sigma.density_se, 1e-300)
    sigma_ok = bool(z[interior].max() <= 3.0)
    elapsed = density_s + time.time() - start  # the densities count towards the bound
    _criterion(
        1,
        f"torus densities vs closed forms (mu sup {sup_err:.2e}, sigma max z "
        f"{z[interior].max():.2f}, {elapsed:.0f}s)",
        mu_ok and sigma_ok and elapsed <= 60,
    )


def test_02_unimodality_detector(torus_densities):
    mu, sigma, _ = torus_densities
    mu_rep = an.unimodality_check(mu)
    sigma_rep = an.unimodality_check(sigma)
    _criterion(
        2,
        f"unimodality: mu passes ({mu_rep.passed}), sigma fails ({not sigma_rep.passed})",
        mu_rep.passed and not sigma_rep.passed,
    )


def test_03_curvature_identity_all_presets():
    start = time.time()
    worst = 0.0
    ok = True
    for doc, _ in cli.PRESETS.values():
        field = field_from_json(doc["field"])
        rep = an.curvature_identity_check(field, n_points=1024, seed=0)
        worst = max(worst, rep.discrepancy)
        ok = ok and rep.passed and rep.discrepancy <= 1e-9
    elapsed = time.time() - start
    _criterion(3, f"curvature identity on all presets (max residual {worst:.1e}, {elapsed:.1f}s)",
               ok and elapsed <= 1.0 * 10)  # generous wall-clock margin


def test_04_divergence_identity():
    start = time.time()
    rep_t = an.divergence_identity_check(TORUS_F, 0.0, 0.5, TORUS, n_samples=10**6,
                                         seed=0, h=0.005, workers=WORKERS)
    closed = 4 * math.pi * (math.sqrt(3) / 2 - 1)
    t_ok = (rep_t.passed
            and abs(rep_t.lhs - closed) <= 3 * (rep_t.lhs_error + rep_t.rhs_error) + 1e-3
            and abs(rep_t.rhs - closed) <= 3 * (rep_t.lhs_error + rep_t.rhs_error) + 1e-3)

    f_box = make_box_eigenfunction((1, 0), "neumann")
    box = Domain.box([0.0, 0.0], [1.0, 1.0])
    rep_b = an.divergence_identity_check(f_box, 0.2, 0.6, box, n_samples=10**6,
                                         seed=0, h=0.005, workers=WORKERS)
    elapsed = time.time() - start
    _criterion(
        4,
        f"divergence identity torus ({rep_t.lhs:.4f} vs {closed:.4f}) and box-Neumann "
        f"({rep_b.passed}), {elapsed:.0f}s",
        t_ok and rep_b.passed and elapsed <= 30,
    )


def test_05_monotonicity_formula():
    start = time.time()
    r = np.linspace(0.6, 1.6, 11)
    rep = an.monotonicity_check(X3, 0.5, r, h=0.01)
    truth = math.pi * (1 - 0.25 / r**2)
    pointwise = float(np.abs(rep.values / truth - 1).max())
    x3_ok = rep.passed and pointwise <= 0.01

    violations = 0
    grid = np.round(np.arange(0.7, 1.5001, 0.1), 10)
    for i in range(20):
        n = 2 + (i % 2)
        k = 1 + i % 5
        P = random_solid_harmonic(n, k, seed=100 + i)
        t = 0.2 * _sphere_max(P)
        r_rep = an.monotonicity_check(P, t, grid, h=0.05)
        if not r_rep.passed:
            violations += 1
    elapsed = time.time() - start
    _criterion(
        5,
        f"monotonicity: x3 pointwise {pointwise:.2%}, random-harmonic violations "
        f"{violations}/20, {elapsed:.0f}s",
        x3_ok and violations == 0 and elapsed <= 300,
    )


def test_06_sphere_flux_identity():
    r = np.round(np.arange(0.7, 1.5001, 0.01), 10)
    rep = an.prop51_check(X3, 0.5, r, h=0.01, rel_tol=0.03)
    I = np.asarray(rep.details["I"])
    J = np.asarray(rep.details["J"])
    i_ok = bool(np.allclose(I, math.pi * (r**2 - 0.25), rtol=0.03))
    j_ok = bool(np.allclose(J, math.pi * np.log(r**2 / 0.25), rtol=0.03, atol=0.03))
    _criterion(
        6,
        f"sphere-flux identity (max rel {rep.rel_discrepancy:.2%}; I, J closed forms)",
        rep.passed and i_ok and j_ok,
    )


def test_07_spherical_functional():
    eps = np.linspace(0.1, 0.9, 9)
    rep = an.spherical_monotonicity(X3, eps, n_samples=10**6, seed=0)
    truth = math.pi * (1 - eps**2)
    z = np.abs(np.asarray(rep.values) - truth) / np.asarray(rep.errors)
    x3_ok = rep.passed and float(z.max()) <= 3.0

    failures = 0
    for i in range(10):
        k = 1 + i % 4
        P = random_solid_harmonic(3, k, seed=200 + i)
        egrid = np.linspace(0.1, 0.7, 7) * _sphere_max(P, seed=1)
        r_rep = an.spherical_monotonicity(P, egrid, n_samples=4 * 10**5, seed=300 + i)
        if not r_rep.passed:
            failures += 1
    _criterion(
        7,
        f"spherical superlevel functional (x3 max z {z.max():.2f}; "
        f"{failures}/10 random failures)",
        x3_ok and failures == 0,
    )


def test_08_robin_flux():
    rep = an.robin_identity_check(X3, 0.2, 0.4, h=0.01, quad_nodes=10**6)
    expected = -0.12 * math.pi
    lhs_rel = abs(rep.lhs / expected - 1)
    rhs_rel = abs(rep.rhs / expected - 1)
    _criterion(
        8,
        f"Robin flux identity (lhs off {lhs_rel:.2%}, rhs off {rhs_rel:.2%})",
        rep.passed and lhs_rel <= 0.01 and rhs_rel <= 0.01,
    )


def test_09_cross_method_oracle():
    failures = []
    for i in range(10):
        n = 2 + (i % 2)
        k = 1 + i % 3
        P = random_solid_harmonic(n, k, seed=400 + i)
        t = (0.1 + 0.05 * i) * _sphere_max(P, seed=2)
        dom = Domain.ball([0.0] * n, 1.0)
        mesh = extract(P, t, dom, 0.01 if n == 2 else 0.02)
        lhs = weighted_area(mesh)
        lhs_err = weighted_area_error_bound(mesh)
        est = thin_shell(P, t, None, dom, default_shell_width(dom), 10**6,
                         seed=500 + i, workers=WORKERS)
        if abs(lhs - est.value) > 3 * (lhs_err + est.standard_error):
            failures.append(i)
    _criterion(
        9,
        f"mesh vs thin-shell cross-check on 10 random pairs ({len(failures)} failures)",
        not failures,
    )


def test_10_suite_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli.run(["suite", "--seed", "42", "--out", str(out_a), "--no-plot"])
    code_b = cli.run(["suite", "--seed", "42", "--out", str(out_b), "--no-plot"])
    identical = True
    names = sorted(p.name for p in out_a.iterdir())
    if names != sorted(p.name for p in out_b.iterdir()):
        identical = False
    else:
        for name in names:
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                identical = False
                break
    _criterion(
        10,
        f"suite --seed 42 byte-identical across runs ({len(names)} reports)",
        code_a == 0 and code_b == 0 and identical,
    )
