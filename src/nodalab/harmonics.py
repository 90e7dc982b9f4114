"""Solid spherical harmonics: k-homogeneous polynomials with exact zero Laplacian.

Construction goes through the Fischer decomposition q = h + |x|^2 g of a
homogeneous polynomial, solved as an exact rational linear system, so the
harmonic component carries a coefficient-level certificate Delta h = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import FieldError, SparsePolynomial, _as_points


# ---------------------------------------------------------------------------
# Exact linear algebra over Fractions


def solve_exact(A, b):
    """Solve the square rational system A x = b by Gaussian elimination."""
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise FieldError("singular system in harmonic projection")
        M[col], M[pivot] = M[pivot], M[col]
        inv = M[col][col]
        M[col] = [v / inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def independent_rows(vectors):
    """Indices of a maximal linearly independent subset (exact elimination)."""
    basis = []  # reduced rows, each (leading index, row list)
    chosen = []
    for idx, vec in enumerate(vectors):
        row = [Fraction(v) for v in vec]
        for lead, bvec in basis:
            if row[lead] != 0:
                f = row[lead]
                row = [r - f * b for r, b in zip(row, bvec)]
        lead = next((j for j, v in enumerate(row) if v != 0), None)
        if lead is None:
            continue
        inv = row[lead]
        row = [v / inv for v in row]
        basis.append((lead, row))
        chosen.append(idx)
    return chosen


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
    if k == 0:
        return 1
    if k == 1:
        return n

    def nmono(d):
        return math.comb(n + d - 1, d) if d >= 0 else 0

    return nmono(k) - nmono(k - 2)


# ---------------------------------------------------------------------------
# Fischer projection


def _require_rational(p: SparsePolynomial) -> SparsePolynomial:
    terms = {}
    for e, c in p.terms.items():
        terms[e] = c if isinstance(c, Fraction) else Fraction(c)
    return SparsePolynomial(p.dimension, terms)


def harmonic_project(q: SparsePolynomial) -> SparsePolynomial:
    """Harmonic component h of a homogeneous polynomial q = h + |x|^2 g.

    Exact: the returned polynomial has rational coefficients with
    Delta h identically zero at the coefficient level.
    """
    k = q.homogeneous_degree()
    if k is None:
        raise FieldError("harmonic_project requires a homogeneous polynomial")
    q = _require_rational(q)
    if k < 2 or q.is_zero():
        return q
    n = q.dimension
    lap_q = q.laplacian_poly()
    if lap_q.is_zero():
        return q

    lower = monomial_exponents(n, k - 2)
    index = {e: i for i, e in enumerate(lower)}
    r2 = SparsePolynomial.radius_squared(n)

    # columns: Delta(|x|^2 x^beta) expanded in degree-(k-2) monomials
    m = len(lower)
    A = [[Fraction(0)] * m for _ in range(m)]
    for col, beta in enumerate(lower):
        lap = (r2 * SparsePolynomial.monomial(n, beta)).laplacian_poly()
        for e, c in lap.terms.items():
            A[index[e]][col] = c
    b = [Fraction(0)] * m
    for e, c in lap_q.terms.items():
        b[index[e]] = c

    g_coeffs = solve_exact(A, b)
    g = SparsePolynomial(n, {e: c for e, c in zip(lower, g_coeffs) if c != 0})
    h = q - r2 * g
    if not h.laplacian_poly().is_zero():
        raise AssertionError("projection failed to produce an exactly harmonic polynomial")
    return h


@dataclass(frozen=True)
class HarmonicBasis:
    """Basis of the k-homogeneous harmonic polynomials in R^n."""

    dimension: int
    degree: int
    elements: tuple

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]


def make_basis(n, k) -> HarmonicBasis:
    """Project the monomial basis and reduce to a maximal independent set."""
    if n < 2:
        raise FieldError("dimension must be at least 2")
    if k < 0:
        raise FieldError("degree must be non-negative")
    if k == 0:
        return HarmonicBasis(n, 0, (SparsePolynomial.constant(n, 1),))

    monos = monomial_exponents(n, k)
    index = {e: i for i, e in enumerate(monos)}
    projected = [harmonic_project(SparsePolynomial.monomial(n, e)) for e in monos]

    vectors = []
    for p in projected:
        vec = [Fraction(0)] * len(monos)
        for e, c in p.terms.items():
            vec[index[e]] = c
        vectors.append(vec)
    chosen = independent_rows(vectors)
    elements = tuple(projected[i] for i in chosen)

    expected = harmonic_dimension(n, k)
    if len(elements) != expected:
        raise AssertionError(
            f"harmonic basis for n={n}, k={k} has size {len(elements)}, expected {expected}"
        )
    return HarmonicBasis(n, k, elements)


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


def sphere_decompose(P: SparsePolynomial, u):
    """Restriction p(u) and spherical gradient norm |grad_S p|(u) at a unit vector.

    Uses |grad P|^2 = |grad_S p|^2 + k^2 p^2 on the sphere; negative
    round-off below 1e-12 is clamped to zero.
    """
    k = P.homogeneous_degree()
    if k is None:
        raise FieldError("sphere_decompose requires a homogeneous polynomial")
    pts, single = _as_points(u, P.dimension)
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise FieldError("sphere_decompose requires unit vectors")
    p, g2 = spherical_values(P, pts)
    g2 = np.where(g2 < 0, np.where(g2 > -1e-12, 0.0, g2), g2)
    if np.any(g2 < 0):
        raise FieldError("spherical gradient norm lost more than round-off precision")
    gs = np.sqrt(g2)
    if single:
        return float(p[0]), float(gs[0])
    return p, gs


def spherical_values(P: SparsePolynomial, pts):
    """Restriction p and squared spherical gradient |grad_S p|^2 of the
    k-homogeneous P at unit vectors, from |grad P|^2 = |grad_S p|^2 + k^2 p^2.

    Round-off can leave |grad_S p|^2 slightly negative; callers clamp it.
    """
    k = P.homogeneous_degree()
    p = P.value(pts)
    return p, (P.gradient(pts) ** 2).sum(axis=1) - k**2 * p**2
