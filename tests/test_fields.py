"""Scalar field primitives: exact polynomial calculus, trig eigenfunctions,
weights, and JSON round-trips."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalab.fields import (
    BOX_DIRICHLET,
    BOX_NEUMANN,
    TORUS,
    ConstantWeight,
    FieldError,
    GaussianWeight,
    GradientNormField,
    SparsePolynomial,
    TrigEigenfunction,
    WeightedField,
    _assemble,
    _norms,
    _phasor,
    _sq_norms,
    field_from_json,
    field_to_json,
    make_box_eigenfunction,
    make_torus_eigenfunction,
)
from nodalab.harmonics import random_solid_harmonic

RNG = np.random.default_rng(1234)


def _fd_gradient(field, x, eps=1e-6):
    g = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = eps
        g[i] = (field.value(x + e) - field.value(x - e)) / (2 * eps)
    return g


def _fd_hessian(field, x, eps=1e-6):
    """Central differences of the exact gradient, one column per coordinate."""
    cols = []
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = eps
        cols.append((field.gradient(x + e) - field.gradient(x - e)) / (2 * eps))
    return np.stack(cols, axis=1)


MULTI_TORUS = make_torus_eigenfunction([((2, 1), 0.3, 1.0), ((1, -2), -0.7, 0.4), ((2, -1), 0.0, 1.1)])
DIRICHLET_3D = TrigEigenfunction(BOX_DIRICHLET, [((1, 2, 2), 0.7), ((2, 2, 1), -1.3)], 3)
NEUMANN_3D = TrigEigenfunction(BOX_NEUMANN, [((0, 0, 3), 1.0), ((2, 2, 1), 0.4)], 3)
# several modes per box; zero entries of k make coincident plane waves
DIRICHLET_2D = TrigEigenfunction(BOX_DIRICHLET, [((1, 8), 0.9), ((8, 1), -0.4), ((4, 7), 1.3), ((7, 4), 0.6)], 2)
NEUMANN_3D_MODES = TrigEigenfunction(
    BOX_NEUMANN, [((0, 0, 3), 1.0), ((2, 2, 1), 0.4), ((0, 3, 0), -0.6), ((2, 1, 2), 0.9)], 3)
# the benchmark's density fields: the 8-mode |m|^2 = 65 random wave and its boxes
WAVE_MODES = ((1, 8), (1, -8), (8, 1), (8, -1), (4, 7), (4, -7), (7, 4), (7, -4))
AMPS = np.random.default_rng(65).standard_normal((8, 2))
WAVE = make_torus_eigenfunction([(m, a, b) for m, (a, b) in zip(WAVE_MODES, AMPS)])
WAVE_DIRICHLET = TrigEigenfunction(BOX_DIRICHLET, list(zip(((1, 8), (8, 1), (4, 7), (7, 4)), AMPS[:4, 0])), 2)
WAVE_NEUMANN = TrigEigenfunction(BOX_NEUMANN, list(zip(((0, 5), (5, 0), (3, 4), (4, 3)), AMPS[:4, 1])), 2)


@st.composite
def small_polynomials(draw, dimension=2, max_degree=4):
    n_terms = draw(st.integers(1, 5))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(0, max_degree)) for _ in range(dimension)
        )
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return SparsePolynomial(dimension, terms)


class TestSparsePolynomial:
    def test_evaluation_matches_manual(self):
        p = SparsePolynomial(2, {(2, 0): Fraction(3), (1, 1): Fraction(-1, 2), (0, 0): Fraction(1)})
        pts = RNG.uniform(-2, 2, size=(50, 2))
        expected = 3 * pts[:, 0] ** 2 - 0.5 * pts[:, 0] * pts[:, 1] + 1
        assert np.allclose(p.value(pts), expected, rtol=1e-14)

    def test_single_point_returns_scalar(self):
        p = SparsePolynomial.monomial(3, (0, 0, 1))
        assert p.value(np.array([0.0, 0.0, 0.7])) == pytest.approx(0.7)

    def test_gradient_hessian_laplacian_consistency(self):
        p = SparsePolynomial(
            3, {(3, 0, 0): Fraction(1), (1, 2, 0): Fraction(2), (0, 0, 4): Fraction(-1)}
        )
        pts = RNG.uniform(-1, 1, size=(20, 3))
        hess = p.hessian(pts)
        assert np.allclose(np.trace(hess, axis1=1, axis2=2), p.laplacian(pts), rtol=1e-12)
        for x in pts[:5]:
            assert np.allclose(p.gradient(x), _fd_gradient(p, x), atol=1e-6)

    def test_jet_matches_exact_rational_arithmetic(self):
        # dyadic points are exact in floating point, so the Fraction sums are
        # the true value and derivatives there
        P = random_solid_harmonic(3, 5, 0)
        pts = RNG.integers(-64, 65, size=(40, 3)) / 64
        polys = [[P], [P.diff(i) for i in range(3)],
                 [[P.diff(i).diff(j) for j in range(3)] for i in range(3)]]
        for order, (got, exact) in enumerate(zip(P.jet(pts, 2), polys)):
            exact = np.array(exact, dtype=object)
            for x, g in zip(pts, got):
                for index, poly in np.ndenumerate(exact):
                    true = sum(c * math.prod(Fraction(v) ** e for v, e in zip(x, exps))
                               for exps, c in poly.terms.items())
                    scale = sum(abs(float(c)) for c in poly.terms.values())
                    assert abs(np.atleast_1d(g)[index] - float(true)) <= 1e-13 * scale, (order, index)

    def test_jet_does_not_depend_on_the_batch(self):
        P = random_solid_harmonic(3, 5, 0)
        pts = np.random.default_rng(5).uniform(-1, 1, size=(200, 3))
        batched = P.jet(pts, 2)
        for i, x in enumerate(pts):
            for got, whole in zip(P.jet(x, 2), batched):
                assert np.array_equal(got, whole[i]), i

    @given(small_polynomials())
    @settings(max_examples=40, deadline=None)
    def test_partials_commute_exactly(self, p):
        assert p.diff(0).diff(1).terms == p.diff(1).diff(0).terms

    @given(small_polynomials())
    @settings(max_examples=40, deadline=None)
    def test_laplacian_poly_matches_evaluated_laplacian(self, p):
        pts = RNG.uniform(-1, 1, size=(8, 2))
        assert np.allclose(p.laplacian_poly().value(pts), p.laplacian(pts), rtol=1e-12, atol=1e-12)

    @given(small_polynomials(), small_polynomials())
    @settings(max_examples=30, deadline=None)
    def test_ring_operations_match_pointwise(self, p, q):
        pts = RNG.uniform(-1, 1, size=(6, 2))
        assert np.allclose((p + q).value(pts), p.value(pts) + q.value(pts), atol=1e-9)
        assert np.allclose((p * q).value(pts), p.value(pts) * q.value(pts), atol=1e-9)

    def test_differentiation_keeps_fractions_exact(self):
        p = SparsePolynomial(2, {(3, 2): Fraction(1, 3)})
        d = p.diff(0)
        assert d.terms == {(2, 2): Fraction(1)}
        assert all(isinstance(c, Fraction) for c in d.terms.values())
        lap = p.laplacian_poly()
        assert all(isinstance(c, Fraction) for c in lap.terms.values())

    def test_mixed_coefficient_arithmetic(self):
        third = SparsePolynomial(1, {(1,): Fraction(1, 3)})
        half = SparsePolynomial(1, {(1,): 0.5})
        ints = SparsePolynomial(1, {(1,): 2})
        # int coefficients become Fractions; Fraction with int stays exact
        assert ints.terms == {(1,): Fraction(2)} and isinstance(ints.terms[(1,)], Fraction)
        exact = (third + ints).terms[(1,)]
        assert exact == Fraction(7, 3) and isinstance(exact, Fraction)
        assert (third * ints).terms == {(2,): Fraction(2, 3)}
        assert third.scale(3).terms == {(1,): Fraction(1)}
        # a float on either side gives float(a) op float(b)
        for a, b in ((third, half), (half, third)):
            total = (a + b).terms[(1,)]
            assert type(total) is float and total == float(Fraction(1, 3)) + 0.5
            product = (a * b).terms[(2,)]
            assert type(product) is float and product == float(Fraction(1, 3)) * 0.5
        scaled = third.scale(0.25).terms[(1,)]
        assert type(scaled) is float and scaled == float(Fraction(1, 3)) * 0.25
        assert half.diff(0).terms == {(0,): 0.5} and type(half.diff(0).terms[(0,)]) is float

    def test_homogeneous_degree(self):
        assert SparsePolynomial.radius_squared(3).homogeneous_degree() == 2
        mixed = SparsePolynomial(2, {(1, 0): 1, (2, 0): 1})
        assert mixed.homogeneous_degree() is None

    def test_invalid_terms_rejected(self):
        with pytest.raises(FieldError):
            SparsePolynomial(2, {(1,): Fraction(1)})
        with pytest.raises(FieldError):
            SparsePolynomial(2, {(-1, 0): Fraction(1)})

    @pytest.mark.parametrize("make", [
        lambda: SparsePolynomial(2.5, {(1, 0): 1}),
        lambda: SparsePolynomial(0, {}),
        lambda: GaussianWeight(3.7),
        lambda: GaussianWeight(math.nan),
        lambda: ConstantWeight(1.5),
        lambda: ConstantWeight(math.inf),
    ], ids=["polynomial-2.5", "polynomial-0", "gaussian-3.7", "gaussian-nan", "constant-1.5",
            "constant-inf"])
    def test_dimension_must_be_a_whole_number(self, make):
        with pytest.raises(FieldError, match="whole number"):
            make()

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_coefficient_rejected(self, c):
        with pytest.raises(FieldError, match="finite"):
            SparsePolynomial(2, {(1, 0): c})
        with pytest.raises(FieldError, match="finite"):
            SparsePolynomial.monomial(2, (1, 0)).scale(c)


class TestTrigEigenfunctions:
    def test_torus_value_and_eigenvalue(self):
        f = make_torus_eigenfunction([((1, 0), 0.0, 1.0)])
        x = np.array([0.3, 0.9])
        assert f.value(x) == pytest.approx(math.sin(2 * math.pi * 0.3), rel=1e-14)
        assert f.laplacian(x) == pytest.approx(-4 * math.pi**2 * f.value(x), rel=1e-12)

    def test_torus_multimode_eigenvalue_relation(self):
        f = make_torus_eigenfunction([((2, 1), 0.3, 1.0), ((1, 2), 0.0, -0.5)])
        pts = RNG.uniform(0, 1, size=(30, 2))
        assert np.allclose(f.laplacian(pts), -4 * math.pi**2 * 5 * f.value(pts), rtol=1e-12)

    def test_torus_periodicity(self):
        f = make_torus_eigenfunction([((2, 3), 0.1, 1.0)])
        pts = RNG.uniform(0, 1, size=(10, 2))
        assert np.allclose(f.value(pts), f.value(pts + [1.0, 2.0]), rtol=1e-10, atol=1e-12)

    def test_box_dirichlet_vanishes_on_boundary(self):
        f = make_box_eigenfunction((2, 1), "dirichlet")
        ys = RNG.uniform(0, 1, 20)
        edge = np.stack([np.zeros(20), ys], axis=1)
        assert np.allclose(f.value(edge), 0.0, atol=1e-14)
        edge2 = np.stack([ys, np.ones(20)], axis=1)
        assert np.allclose(f.value(edge2), 0.0, atol=1e-14)

    def test_box_neumann_normal_derivative_vanishes(self):
        f = make_box_eigenfunction((1, 2), "neumann")
        ys = RNG.uniform(0, 1, 20)
        edge = np.stack([np.zeros(20), ys], axis=1)
        assert np.allclose(f.gradient(edge)[:, 0], 0.0, atol=1e-12)

    @pytest.mark.parametrize("flavor, modes", [
        (TORUS, [((1, 0), math.nan, 1.0)]),
        (TORUS, [((1, 0), 0.0, 1.0), ((0, 1), 0.0, math.inf)]),
        (BOX_DIRICHLET, [((1, 1), math.inf)]),
        (BOX_NEUMANN, [((1, 0), -math.inf)]),
    ], ids=["torus-cos-nan", "torus-sin-inf", "dirichlet-inf", "neumann-minus-inf"])
    def test_non_finite_amplitude_rejected(self, flavor, modes):
        with pytest.raises(FieldError, match="non-finite"):
            TrigEigenfunction(flavor, modes, 2)

    def test_box_eigenvalue(self):
        f = make_box_eigenfunction((1, 1), "dirichlet")
        pts = RNG.uniform(0.1, 0.9, size=(20, 2))
        assert np.allclose(f.laplacian(pts), -2 * math.pi**2 * f.value(pts), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        f = make_box_eigenfunction((2, 1), "neumann")
        for x in RNG.uniform(0.1, 0.9, size=(5, 2)):
            assert np.allclose(f.gradient(x), _fd_gradient(f, x), atol=1e-6)

    @pytest.mark.parametrize(
        "field",
        [DIRICHLET_3D, NEUMANN_3D, DIRICHLET_2D, NEUMANN_3D_MODES],
        ids=["dirichlet", "neumann", "dirichlet-2d", "neumann-modes"],
    )
    def test_box_derivatives_where_a_factor_vanishes(self, field):
        # x_d = j / k_d zeroes the Dirichlet factor sin(pi k_d x_d) (exactly at 0)
        # and the derivative factor of the Neumann cos(pi k_d x_d); the plane-wave
        # sum is checked against the closed-form products there
        dirichlet = field.flavor == BOX_DIRICHLET
        n = field.dimension
        axis = [0.0, 1 / 7, 0.25, 1 / 3, 0.5, 1.0, 0.3]
        pts = np.array(np.meshgrid(*[axis] * n)).reshape(n, -1).T

        def factor(k, x, order):
            arg = math.pi * k * x
            base = [math.sin, math.cos, lambda a: -math.sin(a), lambda a: -math.cos(a)]
            return (math.pi * k) ** order * base[order + (0 if dirichlet else 1)](arg)

        for x, v, g, h in zip(pts, *field.jet(pts, 2)):
            exact_v = 0.0
            exact_g = np.zeros(n)
            exact_h = np.zeros((n, n))
            for k, amp in field.modes:
                exact_v += amp * math.prod(factor(k[d], x[d], 0) for d in range(n))
                for i in range(n):
                    orders = [int(d == i) for d in range(n)]
                    exact_g[i] += amp * math.prod(factor(k[d], x[d], orders[d]) for d in range(n))
                    for j in range(n):
                        orders = [int(d == i) + int(d == j) for d in range(n)]
                        exact_h[i, j] += amp * math.prod(factor(k[d], x[d], orders[d]) for d in range(n))
            assert abs(v - exact_v) <= 1e-14
            assert np.allclose(g, exact_g, rtol=0, atol=1e-12)
            assert np.allclose(h, exact_h, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("field", [WAVE, WAVE_DIRICHLET, WAVE_NEUMANN],
                             ids=["wave", "dirichlet", "neumann"])
    def test_jet_makes_no_libm_trig_call(self, field, monkeypatch):
        # the phasors come from the roots-of-unity table built at import and a
        # Taylor polynomial, so a jet calls neither np.cos nor np.sin
        counted = []

        def counting(fn):
            def wrapped(x, *args, **kwargs):
                counted.append(np.size(x))
                return fn(x, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(np, "cos", counting(np.cos))
        monkeypatch.setattr(np, "sin", counting(np.sin))
        pts = np.random.default_rng(0).uniform(0, 1, size=(100, field.dimension))
        field.jet(pts, 2)
        assert counted == []

    def test_phasor_is_exact_at_large_coordinates(self):
        # the reduction works in turns, so no rounded 2 pi x is ever formed:
        # cos(2 pi x) vanishes at k + 1/4 and is sqrt(1/2) at -1000.125
        f = make_torus_eigenfunction([((1, 0), 1.0, 0.0)])
        for k in (10, 100, 1000, 4096):
            assert abs(f.value([k + 0.25, 0.0])) <= 1e-15, k
        assert abs(f.value([-1000.125, 0.0]) - math.sqrt(0.5)) <= 1e-15
        # from 2^53 on every float is a whole number of turns
        assert f.value([2.0**70, 0.0]) == f.value([-(2.0**64), 0.0]) == 1.0

    def test_phasor_matches_libm_on_the_unit_interval(self):
        x = np.random.default_rng(2).uniform(0, 1, 4096)
        step = np.empty(len(x), dtype=complex)
        work = (*np.empty((4, len(x))), np.empty(len(x), dtype=np.int64), np.empty(len(x), dtype=complex))
        _phasor(x, 1024.0, step, work)
        assert np.abs(step - np.exp(2j * math.pi * x)).max() <= 2e-15
        _phasor(x, 512.0, step, work)
        assert np.abs(step - np.exp(1j * math.pi * x)).max() <= 2e-15

    @pytest.mark.parametrize("flavor, modes", [
        (TORUS, [((1, 0), 1.0, 0.0), ((-1, 0), -1.0, 0.0)]),
        (TORUS, [((1, 2), 0.0, 0.0)]),
        (BOX_DIRICHLET, [((1, 2), 0.5), ((1, 2), -0.5)]),
        (BOX_NEUMANN, [((0, 3), 0.0)]),
        # 0.1 + 0.2 - 0.3 leaves 5.55e-17 in floating point
        (TORUS, [((1, 0), 0.1, 0.0), ((1, 0), 0.2, 0.0), ((-1, 0), -0.3, 0.0)]),
    ], ids=["torus-opposite-waves", "torus-zero", "dirichlet-opposite", "neumann-zero", "torus-decimal-sum"])
    def test_modes_that_cancel_are_rejected(self, flavor, modes):
        with pytest.raises(FieldError, match="identically zero"):
            TrigEigenfunction(flavor, modes, 2)

    def test_wave_above_the_round_off_of_its_sum_is_kept(self):
        # 1 - (1 - 2^-40) = 2^-40 exactly, far above the bound eps (1 + (1 - 2^-40))
        field = TrigEigenfunction(TORUS, [((1, 0), 1.0, 0.0), ((-1, 0), -(1.0 - 2.0**-40), 0.0)], 2)
        assert field._w.tolist() == [2.0**-40]

    @pytest.mark.parametrize("field", [WAVE, WAVE_DIRICHLET, WAVE_NEUMANN],
                             ids=["wave", "dirichlet", "neumann"])
    def test_non_finite_points_give_nan_without_warning(self, field):
        pts = np.array([[np.nan, 0.3], [np.inf, 0.3], [0.3, -np.inf], [0.2, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jet = field.jet(pts, 2)
        for out in jet:
            assert np.isnan(out[:3]).all()
            assert np.isfinite(out[3]).all()


class TestWeightsAndComposites:
    def test_gradient_norm_field_value(self):
        p = SparsePolynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
        g = GradientNormField(p)
        x = np.array([0.3, 0.4])
        assert g.value(x) == pytest.approx(1.0)  # 2 * |x| = 1
        assert np.allclose(g.gradient(x), _fd_gradient(g, x), atol=1e-6)

    def test_gaussian_weight_positive_and_log_gradient(self):
        w = GaussianWeight(2)
        pts = RNG.uniform(-3, 3, size=(40, 2))
        vals = w.value(pts)
        assert np.all(vals > 0)
        # grad log rho = -x for the standard Gaussian weight
        assert np.allclose(w.gradient(pts) / vals[:, None], -pts, rtol=1e-10)

    def test_weighted_laplacian_identity(self):
        base = SparsePolynomial(2, {(2, 0): Fraction(1), (0, 0): Fraction(-1)})
        f = WeightedField(base, GaussianWeight(2))
        pts = RNG.uniform(-2, 2, size=(30, 2))
        expected = base.laplacian(pts) - np.einsum("ni,ni->n", pts, base.gradient(pts))
        assert np.allclose(f.weighted_laplacian(pts), expected, rtol=1e-10, atol=1e-12)

    def test_constant_weight(self):
        w = ConstantWeight(3, 2.5)
        pts = RNG.uniform(-1, 1, size=(7, 3))
        assert np.allclose(w.value(pts), 2.5)
        assert np.allclose(w.gradient(pts), 0.0)
        for c in (math.nan, math.inf):
            with pytest.raises(FieldError, match="finite"):
                ConstantWeight(3, c)


class TestJets:
    @pytest.mark.parametrize(
        "field, lo, hi",
        [(MULTI_TORUS, 0, 1), (DIRICHLET_3D, 0, 1), (NEUMANN_3D, 0, 1), (DIRICHLET_2D, 0, 1),
         (NEUMANN_3D_MODES, 0, 1), (GaussianWeight(3), -2, 2)],
        ids=["torus", "dirichlet", "neumann", "dirichlet-2d", "neumann-modes", "gaussian"],
    )
    def test_hessian_matches_differences_of_gradient(self, field, lo, hi):
        for x in RNG.uniform(lo, hi, size=(5, field.dimension)):
            hess = field.hessian(x)
            assert np.allclose(hess, _fd_hessian(field, x), rtol=0, atol=1e-6 * (1 + np.abs(hess).max()))

    @pytest.mark.parametrize(
        "field",
        [
            SparsePolynomial(3, {(3, 0, 1): Fraction(1, 3), (0, 2, 2): 0.7, (0, 0, 0): 5}),
            MULTI_TORUS,
            DIRICHLET_3D,
            NEUMANN_3D,
            DIRICHLET_2D,
            NEUMANN_3D_MODES,
            GaussianWeight(2),
            ConstantWeight(3, 1.5),
            GradientNormField(MULTI_TORUS),
        ],
        ids=["polynomial", "torus", "dirichlet", "neumann", "dirichlet-2d", "neumann-modes",
             "gaussian", "constant", "gradnorm"],
    )
    def test_jet_matches_value_gradient_hessian(self, field):
        pts = RNG.uniform(-0.9, 0.9, size=(30, field.dimension))
        order = 1 if isinstance(field, GradientNormField) else 2
        views = (field.value, field.gradient, field.hessian)[: order + 1]
        jet = field.jet(pts, order)
        assert len(jet) == order + 1
        for got, view in zip(jet, views):
            assert np.array_equal(got, view(pts))
        # a single point gives the batch's first entry (BLAS may sum it in another order)
        for got, single in zip(jet, field.jet(pts[0], order)):
            assert np.shape(single) == got.shape[1:]
            assert np.allclose(got[0], single, rtol=1e-14, atol=1e-14)
        assert len(field.jet(pts, 0)) == 1
        with pytest.raises(FieldError):
            field.jet(pts, 3)


def _gathered_jet(P, pts, order):
    """A polynomial jet whose every partial gathers a (live terms x points)
    array of power products from the table and sums c * row term by term."""
    exps, coeffs = P._arrays()
    table = np.ones((P.dimension, int(exps.max(initial=0)) + 1, len(pts)))
    for k in range(1, table.shape[1]):
        np.multiply(table[:, k - 1], pts.T, out=table[:, k])

    def partial(alpha):
        w = coeffs.copy()
        for d, a in enumerate(alpha):
            for j in range(a):
                w *= exps[:, d] - j
        live = np.flatnonzero(w)
        low = np.maximum(exps[live] - alpha, 0)
        prod = table[0, low[:, 0]]
        for d in range(1, P.dimension):
            prod *= table[d, low[:, d]]
        out = np.zeros(len(pts))
        for c, row in zip(w[live], prod):
            out += c * row
        return out

    return _assemble(partial, P.dimension, order)


class TestKernels:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("size", [1, 7, (1 << 17) + 1])
    def test_polynomial_jet_matches_gathered_power_products(self, n, size):
        polys = [
            random_solid_harmonic(n, 3, n),
            SparsePolynomial.constant(n, Fraction(-7, 3)),
            SparsePolynomial(n, {(2,) + (0,) * (n - 1): 1, (0,) * n: -1}),  # x^2 - 1
            SparsePolynomial(n, {(3, 1) + (0,) * (n - 2): 0.7, (0, 0) + (2,) * (n - 2): Fraction(1, 3)}),
        ]
        pts = np.random.default_rng(size + n).uniform(-1.5, 1.5, size=(size, n))
        for P in polys:
            for order in (0, 1, 2):
                got, want = P.jet(pts, order), _gathered_jet(P, pts, order)
                assert len(got) == len(want) == order + 1
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), (P, order)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("size", [0, 1, 7, (1 << 17) + 1])
    def test_row_norms_have_numpy_bits(self, n, size):
        rng = np.random.default_rng(size + n)
        X = rng.standard_normal((size, n)) * 10.0 ** rng.integers(-150, 150, size=(size, n))
        for rows in (X, X[::2], X[:, ::-1]):
            assert np.array_equal(_sq_norms(rows), (rows**2).sum(axis=1))
            assert np.array_equal(_norms(rows), np.linalg.norm(rows, axis=1))
        if size:  # one point, as `grad_norm` gets it
            assert _norms(X[0]) == np.linalg.norm(X[0])


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "field",
        [
            SparsePolynomial(2, {(2, 0): Fraction(1, 3), (0, 1): Fraction(-2)}),
            SparsePolynomial(3, {(1, 1, 1): 0.25}),
            make_torus_eigenfunction([((1, 0), 0.0, 1.0), ((0, 1), 0.5, -1.5)]),
            make_box_eigenfunction((2, 1), "dirichlet"),
            make_box_eigenfunction((1, 3), "neumann"),
            GaussianWeight(2),
            ConstantWeight(3, 1.5),
            WeightedField(
                SparsePolynomial(2, {(2, 0): Fraction(1), (0, 0): Fraction(-1)}),
                GaussianWeight(2),
            ),
        ],
    )
    def test_round_trip_preserves_values(self, field):
        clone = field_from_json(field_to_json(field))
        pts = RNG.uniform(-0.9, 0.9, size=(25, field.dimension))
        assert np.allclose(clone.value(pts), field.value(pts), rtol=1e-14, atol=1e-14)
        assert np.allclose(clone.gradient(pts), field.gradient(pts), rtol=1e-12, atol=1e-14)

    def test_fraction_coefficients_survive(self):
        p = SparsePolynomial(2, {(3, 1): Fraction(22, 7)})
        clone = field_from_json(field_to_json(p))
        assert clone.terms == p.terms
        assert isinstance(next(iter(clone.terms.values())), Fraction)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FieldError):
            field_from_json({"kind": "mystery"})

    def test_unknown_box_flavor_rejected(self):
        with pytest.raises(FieldError, match="flavor"):
            field_from_json({"kind": "box", "dimension": 2, "k": [1, 1], "flavor": "dirichlet-typo"})
