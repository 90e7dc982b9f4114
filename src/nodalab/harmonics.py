"""Solid spherical harmonics: k-homogeneous polynomials with exact zero Laplacian.

Construction goes through the Fischer decomposition q = h + |x|^2 g of a
homogeneous polynomial.  The harmonic component has the closed form
h = sum_j c_j |x|^(2j) Delta^j q (Axler, Bourdon & Ramey, Harmonic
Function Theory, ch. 5), evaluated in rational arithmetic, so h carries a
coefficient-level certificate Delta h = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .fields import FieldError, SparsePolynomial, _sq_norms


def monomial_exponents(n, d):
    """All exponent tuples of total degree d in n variables, lexicographic."""
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in monomial_exponents(n - 1, d - first):
            out.append((first,) + rest)
    return out


def harmonic_dimension(n, k):
    """Dimension of the space of k-homogeneous harmonic polynomials in R^n."""

    def nmono(d):
        return math.comb(n + d - 1, d) if d >= 0 else 0

    return nmono(k) - nmono(k - 2)


# ---------------------------------------------------------------------------
# Fischer projection


def harmonic_project(q: SparsePolynomial) -> SparsePolynomial:
    """Harmonic component h of a homogeneous polynomial q = h + |x|^2 g.

    h = sum_{j <= k/2} c_j |x|^(2j) Delta^j q with c_0 = 1 and
    c_j = -c_{j-1} / (2j (n + 2k - 2j - 2)), which makes the Laplacians of
    consecutive terms cancel.  Exact: the returned polynomial has rational
    coefficients with Delta h identically zero at the coefficient level.
    """
    k = q.homogeneous_degree()
    if k is None:
        raise FieldError("harmonic_project requires a homogeneous polynomial")
    n = q.dimension
    r2 = SparsePolynomial.radius_squared(n)
    h = lap = SparsePolynomial(n, {e: Fraction(c) for e, c in q.terms.items()})
    r2j, c = SparsePolynomial.constant(n, 1), Fraction(1)
    for j in range(1, k // 2 + 1):
        lap, r2j = lap.laplacian_poly(), r2j * r2
        c = -c / (2 * j * (n + 2 * k - 2 * j - 2))
        h = h + r2j * lap.scale(c)
    if not h.laplacian_poly().is_zero():
        raise AssertionError("projection failed to produce an exactly harmonic polynomial")
    return h


def make_basis(n, k) -> tuple:
    """Basis of the k-homogeneous harmonic polynomials in R^n, as a tuple: the
    projections of the monomials x^e with e_n <= 1, in `monomial_exponents` order.

    Modulo |x|^2, x_n^2 = -(x_1^2 + ... + x_{n-1}^2), so a monomial with
    e_n >= 2 adds nothing; the rest number exactly dim H_k.
    """
    if n < 2:
        raise FieldError("dimension must be at least 2")
    if k < 0:
        raise FieldError("degree must be non-negative")
    elements = tuple(harmonic_project(SparsePolynomial.monomial(n, e))
                     for e in monomial_exponents(n, k) if e[-1] <= 1)
    expected = harmonic_dimension(n, k)
    if len(elements) != expected:
        raise AssertionError(
            f"harmonic basis for n={n}, k={k} has size {len(elements)}, expected {expected}"
        )
    return elements


def random_solid_harmonic(n, k, seed) -> SparsePolynomial:
    """Seed-deterministic random element of the degree-k harmonic space.

    Coefficients stay rational (Delta P = 0 exactly); the combination is
    rescaled to coefficient norm 1 up to rational rounding of the norm.
    """
    if k < 1:
        raise FieldError("degree must be at least 1")
    basis = make_basis(n, k)
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(len(basis))
    # snap weights to rationals so the combination stays exactly harmonic
    out = SparsePolynomial(n, {})
    for w, p in zip(weights, basis):
        out = out + p.scale(Fraction(round(float(w) * 2**20), 2**20))
    norm = out.coefficient_norm()
    if norm == 0:  # astronomically unlikely; keep deterministic fallback
        return basis[0]
    out = out.scale(Fraction(1) / Fraction(norm).limit_denominator(10**12))
    if not out.laplacian_poly().is_zero():
        raise AssertionError("random harmonic lost exactness")
    return out


def spherical_values(P: SparsePolynomial, pts):
    """Restriction p and squared spherical gradient |grad_S p|^2 of the
    k-homogeneous P at unit vectors, from |grad P|^2 = |grad_S p|^2 + k^2 p^2.

    Round-off can leave |grad_S p|^2 slightly negative; callers clamp it.
    """
    k = P.homogeneous_degree()
    p, g = P.jet(pts, 1)
    return p, _sq_norms(g) - k**2 * p**2
