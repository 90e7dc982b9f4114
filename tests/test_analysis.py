"""Analysis operations: density histograms, identity checks, monotonicity
reports, and input validation."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from nodalab.fields import (
    FieldError,
    GaussianWeight,
    ScalarField,
    SparsePolynomial,
    WeightedField,
    make_box_eigenfunction,
    make_torus_eigenfunction,
)
from nodalab.harmonics import random_solid_harmonic, spherical_values
from nodalab.levelset import Domain, LevelSetError
from nodalab import analysis as an, levelset

TORUS_F = make_torus_eigenfunction([((1, 0), 0.0, 1.0)])
TORUS = Domain.torus(2)
X3 = SparsePolynomial(3, {(0, 0, 1): Fraction(1)})
X2Y2 = SparsePolynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(-1)})
# f = x^2 - 1 with the Gaussian weight on [-4, 4]^2 (the hermite-gaussian preset)
HERMITE = WeightedField(SparsePolynomial(2, {(2, 0): Fraction(1), (0, 0): Fraction(-1)}), GaussianWeight(2))
HERMITE_BOX = Domain.box([-4.0, -4.0], [4.0, 4.0])


def hermite_flux(t):
    """int over {x^2 - 1 = t} in [-4, 4]^2 of |grad f| rho: two lines x = +-a
    with |grad f| = 2a and rho = exp(-(a^2 + y^2) / 2)."""
    a = math.sqrt(1.0 + t)
    return 4.0 * a * math.exp(-0.5 * a * a) * math.sqrt(2.0 * math.pi) * math.erf(4.0 / math.sqrt(2.0))


class TestDensity:
    def test_mu_density_normalizes_to_one(self):
        d = an.value_distribution_density(TORUS_F, "mu", TORUS, 32, 200_000, seed=0)
        assert float(d.density.sum() * d.bin_width) == pytest.approx(1.0, rel=1e-9)

    def test_mu_density_matches_semicircle(self):
        d = an.value_distribution_density(TORUS_F, "mu", TORUS, 32, 400_000, seed=0)
        t = d.centers
        truth = (2 / math.pi) * np.sqrt(np.clip(1 - t**2, 0, None))
        assert np.abs(d.density - truth).max() < 0.03

    def test_sigma_density_matches_arcsine_interior(self):
        d = an.value_distribution_density(TORUS_F, "sigma", TORUS, 32, 400_000, seed=0)
        t = d.centers
        mask = np.abs(t) <= 0.8
        truth = 1 / (math.pi * np.sqrt(1 - t[mask] ** 2))
        assert np.allclose(d.density[mask], truth, atol=4 * d.density_se[mask].max() + 0.01)

    def test_normalization_is_total_measure(self):
        # mu(T^2) = int |grad f|^2 = (2 pi)^2 / 2
        d = an.value_distribution_density(TORUS_F, "mu", TORUS, 16, 400_000, seed=1)
        assert d.normalization == pytest.approx(2 * math.pi**2, rel=0.01)

    def test_deterministic_and_worker_independent(self):
        a = an.value_distribution_density(TORUS_F, "mu", TORUS, 16, 200_000, seed=5, workers=1)
        b = an.value_distribution_density(TORUS_F, "mu", TORUS, 16, 200_000, seed=5, workers=3)
        assert np.array_equal(a.density, b.density)
        assert np.array_equal(a.raw_psi, b.raw_psi)

    @pytest.mark.parametrize("flavor", ["sigma", "mu"])
    def test_samples_outside_the_bins_are_reported(self, flavor):
        # the bins span a pre-pass's values; a wave of 8 modes peaks rarely enough
        # that later samples fall outside them
        modes = ((1, 8), (1, -8), (8, 1), (8, -1), (4, 7), (4, -7), (7, 4), (7, -4))
        amps = np.random.default_rng(65).standard_normal((8, 2))
        wave = make_torus_eigenfunction([(m, a, b) for m, (a, b) in zip(modes, amps)])
        d = an.value_distribution_density(wave, flavor, TORUS, 16, 200_000, seed=0)
        assert d.n_dropped > 0 and d.dropped_weight > 0
        binned = float(d.raw_psi.sum() * d.bin_width)
        assert binned + d.dropped_weight == pytest.approx(d.normalization, rel=1e-12)
        assert d.to_json()["n_dropped"] == d.n_dropped
        assert d.to_json()["dropped_weight"] == d.dropped_weight

    def test_weighted_flavor_runs(self):
        wf = WeightedField(
            SparsePolynomial(2, {(2, 0): Fraction(1), (0, 0): Fraction(-1)}),
            GaussianWeight(2),
        )
        dom = Domain.box([-4.0, -4.0], [4.0, 4.0])
        d = an.value_distribution_density(wf, "weighted", dom, 16, 100_000, seed=0)
        assert float(d.density.sum() * d.bin_width) == pytest.approx(1.0, rel=1e-9)

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError):
            an.value_distribution_density(TORUS_F, "nu", TORUS, 16, 10_000, seed=0)


class TestUnimodality:
    @staticmethod
    def _estimate(density, se=0.001):
        density = np.asarray(density, dtype=float)
        edges = np.linspace(-1, 1, len(density) + 1)
        return an.DensityEstimate(
            edges=edges,
            density=density,
            density_se=np.full_like(density, se),
            raw_psi=density.copy(),
            raw_se=np.full_like(density, se),
            flavor="mu",
            normalization=1.0,
            n_samples=10**6,
            seed=0,
        )

    def test_clean_unimodal_passes(self):
        t = np.linspace(-0.95, 0.95, 32)
        rep = an.unimodality_check(self._estimate(np.exp(-(t**2))))
        assert rep.passed

    def test_bimodal_fails(self):
        t = np.linspace(-0.95, 0.95, 32)
        rep = an.unimodality_check(self._estimate(1 + 0.5 * t**2))
        assert not rep.passed
        assert rep.violation > rep.threshold

    def test_noise_within_threshold_passes(self):
        t = np.linspace(-0.95, 0.95, 32)
        noisy = np.exp(-(t**2)) + 0.001 * np.sin(40 * t)
        rep = an.unimodality_check(self._estimate(noisy, se=0.002))
        assert rep.passed

    def test_torus_mu_passes_sigma_fails(self):
        mu = an.value_distribution_density(TORUS_F, "mu", TORUS, 32, 400_000, seed=0)
        sigma = an.value_distribution_density(TORUS_F, "sigma", TORUS, 32, 400_000, seed=0)
        assert an.unimodality_check(mu).passed
        assert not an.unimodality_check(sigma).passed


class TestCurvatureIdentity:
    @pytest.mark.parametrize(
        "field",
        [
            TORUS_F,
            X3,
            X2Y2,
            make_box_eigenfunction((1, 1), "dirichlet"),
            make_box_eigenfunction((1, 0), "neumann"),
            WeightedField(
                SparsePolynomial(2, {(2, 0): Fraction(1), (0, 0): Fraction(-1)}),
                GaussianWeight(2),
            ),
        ],
    )
    def test_identity_holds_to_machine_precision(self, field):
        rep = an.curvature_identity_check(field, n_points=1024, seed=0)
        assert rep.passed
        assert rep.discrepancy <= 1e-9

    @pytest.mark.parametrize("n_points", [1, 500, 1000, levelset._MC_CHUNK + 1])
    def test_reports_the_points_requested(self, n_points):
        rep = an.curvature_identity_check(X2Y2, n_points=n_points, seed=3)
        assert rep.passed
        assert rep.details["n_points"] == n_points

    def test_no_regular_point_raises(self):
        with pytest.raises(FieldError):
            an.curvature_identity_check(SparsePolynomial(2, {(0, 0): Fraction(1)}), n_points=2000)


class TestDivergenceIdentity:
    def test_torus_closed_form(self):
        rep = an.divergence_identity_check(TORUS_F, 0.0, 0.5, TORUS, n_samples=200_000, seed=0, h=0.005)
        assert rep.passed
        expected = 4 * math.pi * (math.sqrt(3) / 2 - 1)
        assert rep.lhs == pytest.approx(expected, rel=1e-3)

    def test_box_neumann_closed_form(self):
        f = make_box_eigenfunction((1, 0), "neumann")
        dom = Domain.box([0.0, 0.0], [1.0, 1.0])
        rep = an.divergence_identity_check(f, 0.2, 0.6, dom, n_samples=200_000, seed=0, h=0.005)
        assert rep.passed
        expected = -math.pi * (math.sqrt(1 - 0.04) - math.sqrt(1 - 0.36))
        assert rep.lhs == pytest.approx(expected, rel=5e-3)

    def test_weighted_hermite_closed_form(self):
        rep = an.divergence_identity_check(HERMITE, 0.5, 1.5, HERMITE_BOX, n_samples=2e5, seed=0, h=0.02)
        assert rep.passed
        assert rep.lhs == pytest.approx(hermite_flux(1.5) - hermite_flux(0.5), abs=3.0 * rep.lhs_error)

    def test_slab_samples_do_not_depend_on_workers(self, monkeypatch):
        # small chunks and a short thread switch interval widen the window in
        # which worker threads could interleave an update of a shared count
        monkeypatch.setattr(levelset, "_MC_CHUNK", 512)

        def slab_samples(workers):
            rep = an.divergence_identity_check(TORUS_F, 0.0, 0.5, TORUS, n_samples=50_000, h=0.05,
                                               workers=workers)
            return rep.details["slab_samples"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            serial = slab_samples(1)
            threaded = [slab_samples(2) for _ in range(50)]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == [serial] * 50

    def test_empty_slab_raises(self):
        with pytest.raises(LevelSetError):
            an.divergence_identity_check(TORUS_F, 2.0, 3.0, TORUS, n_samples=50_000, seed=0)

    def test_four_dimensions_raise(self):
        torus4 = make_torus_eigenfunction([((1, 0, 0, 0), 0.0, 1.0)])
        with pytest.raises(LevelSetError):
            an.divergence_identity_check(torus4, 0.0, 0.5, n_samples=10**4)

    def test_unweighted_flux_reuses_the_mesh_gradnorms(self, monkeypatch):
        calls = []
        grad_norm = ScalarField.grad_norm
        monkeypatch.setattr(ScalarField, "grad_norm", lambda f, x: calls.append(len(x)) or grad_norm(f, x))
        an.divergence_identity_check(TORUS_F, 0.0, 0.5, TORUS, n_samples=10**4, h=0.05)
        assert len(calls) == 2  # the centroids of each extracted level, once

    def test_levels_must_be_ordered(self):
        with pytest.raises(ValueError):
            an.divergence_identity_check(TORUS_F, 0.5, 0.0, TORUS, n_samples=50_000, seed=0)


class TestDerivativeIdentity:
    def test_torus_gradient_weight(self):
        rep = an.levelset_derivative_check(TORUS_F, 0.5, 0.01, domain=TORUS, h=0.005)
        assert rep.passed and not rep.skipped
        # dpsi/dt of 4 pi sqrt(1-t^2) at t = 1/2
        expected = -4 * math.pi * 0.5 / math.sqrt(0.75)
        assert rep.lhs == pytest.approx(expected, rel=1e-2)

    def test_near_critical_level_is_skipped(self):
        rep = an.levelset_derivative_check(TORUS_F, 0.999, 0.005, domain=TORUS, h=0.005)
        assert rep.skipped

    @pytest.mark.parametrize("t, dt", [(0.5, 0.0), (0.5, -0.01), (0.5, math.nan), (0.5, math.inf),
                                       (math.nan, 0.01), (math.inf, 0.01)])
    def test_level_and_step_must_be_finite(self, t, dt):
        # a non-finite level used to read as near-critical: skipped, and so passed
        with pytest.raises(ValueError, match="finite"):
            an.levelset_derivative_check(TORUS_F, t, dt, domain=TORUS, h=0.005)


class TestNearCriticalFlag:
    def test_regular_level_not_flagged(self):
        assert not an.flag_near_critical(TORUS_F, 0.5, TORUS)

    def test_extremal_level_flagged(self):
        assert an.flag_near_critical(TORUS_F, 1.0, TORUS)

    def test_empty_level_flagged(self):
        assert an.flag_near_critical(TORUS_F, 1.5, TORUS)

    def test_critical_value_flagged(self):
        bowl = SparsePolynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
        assert an.flag_near_critical(bowl, 0.0, Domain.box([-1, -1], [1, 1]))


class TestMonotoneReports:
    def test_increasing_passes(self):
        g = np.arange(5.0)
        rep = an._monotone_report(g, g, np.zeros(5), "non-decreasing")
        assert rep.passed and rep.max_violation == 0.0

    def test_decreasing_fails(self):
        g = np.arange(5.0)
        rep = an._monotone_report(g, -g, np.full(5, 0.01), "non-decreasing")
        assert not rep.passed

    def test_dip_within_errors_passes(self):
        vals = np.array([0.0, 1.0, 0.99, 2.0])
        rep = an._monotone_report(
            np.arange(4.0), vals, np.full(4, 0.01), "non-decreasing"
        )
        assert rep.passed

    def test_non_increasing_direction(self):
        vals = np.array([3.0, 2.0, 2.5])
        rep = an._monotone_report(
            np.arange(3.0), vals, np.zeros(3), "non-increasing"
        )
        assert not rep.passed
        assert rep.max_violation == pytest.approx(0.5)


class TestHomogeneousChecks:
    def test_monotonicity_x3(self):
        r = np.linspace(0.6, 1.6, 11)
        rep = an.monotonicity_check(X3, 0.5, r, h=0.05)
        assert rep.passed
        truth = math.pi * (1 - 0.25 / r**2)
        assert np.allclose(rep.values, truth, rtol=0.01)

    def test_monotonicity_errors_are_the_profile_bounds(self):
        r = np.linspace(0.6, 1.6, 6)
        rep = an.monotonicity_check(X3, 0.5, r, h=0.05)
        (I,), (bound,), _ = levelset.radial_profile(X3, 0.5, r, h=0.05)
        assert np.array_equal(rep.values, I / r**2)
        assert np.array_equal(rep.errors, bound / r**2 + 1e-12 * max(rep.values.max(), 1.0))

    def test_monotonicity_nodal_level_constant(self):
        r = np.linspace(0.5, 1.5, 6)
        rep = an.monotonicity_check(X3, 0.0, r, h=0.05)
        assert rep.passed
        # at t = 0 the density ratio is exactly constant (= pi)
        assert np.allclose(rep.values, math.pi, rtol=5e-3)

    def test_prop51_x3_coarse(self):
        r = np.round(np.arange(0.7, 1.5001, 0.05), 10)
        rep = an.prop51_check(X3, 0.5, r, h=0.02, rel_tol=0.05)
        assert rep.passed
        I = np.asarray(rep.details["I"])
        assert np.allclose(I, math.pi * (r**2 - 0.25), rtol=5e-3)
        J = np.asarray(rep.details["J"])
        assert np.allclose(J, math.pi * np.log(r**2 / 0.25), rtol=5e-3, atol=5e-3)

    def test_four_dimensions_raise(self):
        x4 = SparsePolynomial(4, {(0, 0, 0, 1): Fraction(1)})
        with pytest.raises(LevelSetError):
            an.monotonicity_check(x4, 0.3, np.linspace(0.6, 1.2, 7))
        with pytest.raises(LevelSetError):
            an.prop51_check(x4, 0.3, np.linspace(0.6, 1.2, 7))

    def test_prop51_validates_inputs(self):
        r = np.linspace(0.7, 1.5, 9)
        with pytest.raises(ValueError):
            an.prop51_check(X3, 0.0, r)
        with pytest.raises(ValueError):
            an.prop51_check(X3, 0.5, np.array([0.7, 0.8, 1.5]))

    def test_corollary_x3(self):
        neg, pos = an.corollary_unimodality(X3, np.linspace(-0.9, 0.9, 13), h=0.05)
        assert neg.passed and pos.passed
        assert neg.direction == "non-decreasing"
        assert pos.direction == "non-increasing"

    def test_spherical_functional_x3(self):
        eps = np.linspace(0.1, 0.9, 9)
        rep = an.spherical_monotonicity(X3, eps, n_samples=200_000, seed=0)
        assert rep.passed
        truth = math.pi * (1 - eps**2)
        z = np.abs(np.asarray(rep.values) - truth) / np.asarray(rep.errors)
        assert z.max() < 4.0

    @pytest.mark.parametrize("n", [2, 4])
    def test_spherical_functional_of_x_n(self, n):
        # P = x_n: the functional is omega_(n-1) (1 - eps^2)^((n-1)/2), omega_m = |unit m-ball|
        eps = np.linspace(0.1, 0.9, 9)
        P = SparsePolynomial(n, {(0,) * (n - 1) + (1,): Fraction(1)})
        rep = an.spherical_monotonicity(P, eps, n_samples=10**6, seed=0)
        assert rep.passed
        truth = math.pi ** ((n - 1) / 2) / math.gamma((n + 1) / 2) * (1 - eps**2) ** ((n - 1) / 2)
        z = np.abs(np.asarray(rep.values) - truth) / np.asarray(rep.errors)
        assert z.max() < 4.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_spherical_functional_matches_indicator_matrix(self, n):
        # the (samples x thresholds) indicator-matrix sums on the same samples, over an
        # unsorted grid with a tie and a threshold above max p (an empty superlevel set)
        P = random_solid_harmonic(n, 3, n)
        eps = np.array([0.3, 0.05, 0.15, 0.05, 5.0, 0.1])
        k = 3
        gamma = (n + 2 * k - 2) / k

        def run(rng, size):
            p, g2 = spherical_values(P, levelset._sphere_points(rng, size, n))
            g2 = np.maximum(g2, 0.0)
            positive = p > 0
            dens = np.zeros(size)
            dens[positive] = (g2[positive] + k**2 * p[positive] ** 2) / p[positive] ** gamma
            terms = dens[:, None] * (p[:, None] >= eps[None, :])
            return terms.sum(axis=0), (terms**2).sum(axis=0)

        n_samples = 200_000  # two chunks
        mean, se = levelset._mean_and_se(levelset._map_chunks(run, n_samples, 5), n_samples)
        scale = eps ** ((n + k - 2) / k) * levelset._sphere_area(n)
        rep = an.spherical_monotonicity(P, eps, n_samples=n_samples, seed=5)
        assert rep.values[1] == rep.values[3] > rep.values[0] > 0 and rep.values[4] == 0
        assert np.allclose(rep.values, scale * mean, rtol=1e-12, atol=0)
        assert np.allclose(rep.errors, scale * se, rtol=1e-12, atol=0)

    def test_robin_x3(self):
        rep = an.robin_identity_check(X3, 0.2, 0.4, h=0.02, quad_nodes=400_000)
        assert rep.passed
        assert rep.lhs == pytest.approx(-0.12 * math.pi, rel=0.01)
        assert rep.rhs == pytest.approx(-0.12 * math.pi, rel=0.01)

    def test_robin_rejects_mixed_signs(self):
        with pytest.raises(ValueError):
            an.robin_identity_check(X3, -0.2, 0.4, h=0.05)

    def test_robin_equal_levels_trivial(self):
        rep = an.robin_identity_check(X3, 0.3, 0.3, h=0.05)
        assert rep.passed

    def test_band_integral_oracle(self):
        val, err = an._sphere_band_integral(X3, 0.2, 0.4, 400_000)
        assert val == pytest.approx(0.12 * math.pi, rel=2e-3)
        assert abs(val - 0.12 * math.pi) < max(err, 1e-3)


class TestExploration:
    MIX = SparsePolynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(-1), (1, 0): Fraction(1, 2)})

    def test_requires_harmonic(self):
        bad = SparsePolynomial(2, {(2, 0): Fraction(1)})
        with pytest.raises(Exception):
            an.explore_general_monotonicity(bad, [0.0, 0.0], np.linspace(0.2, 1.0, 5))

    def test_requires_nodal_base_point(self):
        with pytest.raises(Exception):
            an.explore_general_monotonicity(self.MIX, [1.0, 0.0], np.linspace(0.2, 1.0, 5))

    def test_four_dimensions_raise(self):
        x1x2 = SparsePolynomial(4, {(2, 0, 0, 0): Fraction(1), (0, 2, 0, 0): Fraction(-1)})
        with pytest.raises(LevelSetError):
            an.explore_general_monotonicity(x1x2, [0.0] * 4, np.linspace(0.2, 1.0, 5))

    def test_table_structure_and_slopes(self):
        r = np.linspace(0.2, 1.2, 11)
        tab = an.explore_general_monotonicity(self.MIX, [0.0, 0.0], r, h=0.05)
        assert set(tab["exponents"].keys()) == {1.0, 2.0}
        # far from the base point the quadratic part dominates: slope -> 2
        assert abs(tab["loglog_slopes"][-1] - 2.0) < 0.2
        # dividing by r^(n + k - 2) = r^2 keeps the profile non-increasing at
        # most mildly; dividing by r^(n-1) = r must stay monotone here
        assert tab["exponents"][1.0]["violations"] == 0
