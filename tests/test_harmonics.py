"""Harmonic polynomial construction: exact projection, bases, random draws,
and restriction to the sphere."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalab.fields import FieldError, SparsePolynomial
from nodalab.harmonics import (
    harmonic_dimension,
    harmonic_project,
    make_basis,
    monomial_exponents,
    random_solid_harmonic,
    spherical_values,
)

RNG = np.random.default_rng(99)
# exact terms of make_basis(n, k), n <= 4, k <= 4, and of the benchmark's
# random harmonics, as built by Gaussian elimination over Fractions
GOLDEN = json.loads((Path(__file__).parent / "data" / "harmonics_golden.json").read_text())


def _encode(p):
    return [[list(e), str(c)] for e, c in p.terms.items()]


def _unit_vectors(n, count):
    v = RNG.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestExactLinearAlgebra:
    def test_monomial_exponents_count(self):
        assert len(monomial_exponents(3, 4)) == math.comb(6, 4)
        assert all(sum(e) == 4 for e in monomial_exponents(3, 4))


class TestDimensionsAndProjection:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_planar_dimension_is_two(self, k):
        assert harmonic_dimension(2, k) == 2

    @pytest.mark.parametrize("k", range(0, 6))
    def test_spatial_dimension_is_odd(self, k):
        assert harmonic_dimension(3, k) == (2 * k + 1 if k else 1)

    def test_project_x_squared(self):
        q = SparsePolynomial(2, {(2, 0): Fraction(1)})
        h = harmonic_project(q)
        assert h.terms == {(2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)}

    def test_project_closed_forms_in_r3(self):
        r2 = SparsePolynomial.radius_squared(3)
        z2 = SparsePolynomial.monomial(3, (0, 0, 2))
        assert harmonic_project(z2).terms == (z2 - r2.scale(Fraction(1, 3))).terms
        x1_2 = SparsePolynomial.monomial(3, (2, 0, 0))
        expected = x1_2 * x1_2 - (x1_2 * r2).scale(Fraction(6, 7)) + (r2 * r2).scale(Fraction(3, 35))
        assert harmonic_project(x1_2 * x1_2).terms == expected.terms

    def test_project_keeps_harmonic_input(self):
        p = SparsePolynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(-1)})
        assert harmonic_project(p).terms == p.terms

    def test_project_rejects_inhomogeneous(self):
        with pytest.raises(FieldError):
            harmonic_project(SparsePolynomial(2, {(1, 0): 1, (2, 0): 1}))

    @given(
        st.integers(2, 3),
        st.integers(2, 5),
        st.lists(st.integers(-5, 5), min_size=3, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_projection_is_exactly_harmonic(self, n, k, coeffs):
        monos = monomial_exponents(n, k)
        terms = {
            monos[i % len(monos)]: Fraction(c)
            for i, c in enumerate(coeffs)
            if c != 0
        }
        if not terms:
            return
        q = SparsePolynomial(n, terms)
        h = harmonic_project(q)
        assert h.laplacian_poly().is_zero()
        # the removed part is divisible by |x|^2: it vanishes to order k on rays
        # where |x| = 0, equivalently q - h has the right homogeneity
        assert (q - h).is_zero() or (q - h).homogeneous_degree() == k

    @pytest.mark.parametrize("n,k", [(2, 3), (2, 5), (3, 2), (3, 4)])
    def test_basis_has_expected_dimension_and_is_harmonic(self, n, k):
        basis = make_basis(n, k)
        assert len(basis) == harmonic_dimension(n, k)
        for p in basis:
            assert p.laplacian_poly().is_zero()
            assert p.homogeneous_degree() == k

    @pytest.mark.parametrize("key", [k for k in GOLDEN if k.startswith("make_basis")])
    def test_basis_matches_golden_terms(self, key):
        n, k = map(int, key.split()[1:])
        assert [_encode(p) for p in make_basis(n, k)] == GOLDEN[key]


class TestRandomHarmonics:
    def test_deterministic_in_seed(self):
        a = random_solid_harmonic(3, 3, seed=7)
        b = random_solid_harmonic(3, 3, seed=7)
        c = random_solid_harmonic(3, 3, seed=8)
        assert a.terms == b.terms
        assert a.terms != c.terms

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 4), (3, 2), (3, 5)])
    def test_exactly_harmonic_with_unit_scale(self, n, k):
        p = random_solid_harmonic(n, k, seed=11)
        assert p.laplacian_poly().is_zero()
        assert p.coefficient_norm() == pytest.approx(1.0, rel=1e-9)

    def test_homogeneity(self):
        p = random_solid_harmonic(3, 4, seed=2)
        pts = _unit_vectors(3, 10)
        assert np.allclose(p.value(2.0 * pts), 2.0**4 * p.value(pts), rtol=1e-12)

    @pytest.mark.parametrize("key", [k for k in GOLDEN if k.startswith("random_solid_harmonic")])
    def test_benchmark_harmonics_match_golden_terms(self, key):
        n, k, seed = map(int, key.split()[1:])
        assert [_encode(random_solid_harmonic(n, k, seed))] == GOLDEN[key]


class TestSphericalValues:
    def test_x3_restriction(self):
        P = SparsePolynomial(3, {(0, 0, 1): Fraction(1)})
        u = _unit_vectors(3, 100)
        p, g2 = spherical_values(P, u)
        assert np.allclose(p, u[:, 2], rtol=1e-12)
        # |grad_S z|^2 = 1 - z^2 on the unit sphere
        assert np.allclose(g2, 1 - u[:, 2] ** 2, atol=1e-10)

    def test_norm_splitting_identity(self):
        P = random_solid_harmonic(3, 3, seed=4)
        u = _unit_vectors(3, 200)
        p, g2 = spherical_values(P, u)
        total = (P.gradient(u) ** 2).sum(axis=1)
        assert np.allclose(g2 + 9 * p**2, total, rtol=1e-9, atol=1e-12)
