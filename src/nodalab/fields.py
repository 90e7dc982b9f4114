"""Scalar fields with exact closed-form derivatives.

Three families are provided: sparse multivariate polynomials (exact
rational coefficients, exact differentiation), trigonometric Laplace
eigenfunctions on the flat torus and on boxes (Dirichlet / Neumann),
and weighted fields pairing a base field with a strictly positive
weight.  All fields are immutable after construction and evaluation is
pure, so concurrent read-only use is safe.

Each family evaluates through one kernel, `jet(x, order)`, which returns
the value, gradient and Hessian up to `order` from shared intermediates:
one table of coordinate powers for a polynomial, one set of cos/sin
phases for a torus field, the per-coordinate factors phi, phi', phi''
combined by the product rule for a box field.  `value`, `gradient` and
`hessian` are views of it; a caller that needs two orders at the same
points asks for one jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi


class FieldError(ValueError):
    """Raised on invalid field construction or evaluation."""


def _as_points(x, dim):
    """Coerce `x` to an (N, dim) float array; report whether it was a single point."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise FieldError(f"expected points of dimension {dim}, got shape {np.asarray(x).shape}")
    return pts, single


@dataclass(frozen=True)
class FieldSample:
    """Value and derivatives of a field at one point."""

    point: np.ndarray
    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    laplacian: float

    def __post_init__(self):
        tr = float(np.trace(self.hessian))
        scale = 1.0 + abs(tr) + abs(self.laplacian)
        if abs(tr - self.laplacian) > 1e-12 * scale:
            raise FieldError(f"laplacian {self.laplacian} inconsistent with hessian trace {tr}")


class ScalarField:
    """A differentiable scalar field on R^n (or the unit torus cell).

    Each family implements `_jet`, which returns the value, gradient and
    Hessian up to a given order from one set of intermediates.  `jet` and
    its views `value`, `gradient` and `hessian` accept a single point (n,)
    or a batch (N, n) and vectorize over the batch.
    """

    dimension: int

    def jet(self, x, order):
        """(value,), (value, gradient) or (value, gradient, hessian) at x,
        for order 0, 1 or 2."""
        if order not in (0, 1, 2):
            raise FieldError(f"jet order must be 0, 1 or 2, got {order!r}")
        pts, single = _as_points(x, self.dimension)
        out = self._jet(pts, order)
        return tuple(o[0] for o in out) if single else tuple(out)

    def _jet(self, pts, order):
        """[value, gradient, hessian][:order + 1] at an (N, n) batch."""
        raise NotImplementedError

    def value(self, x):
        return self.jet(x, 0)[0]

    def gradient(self, x):
        return self.jet(x, 1)[1]

    def hessian(self, x):
        return self.jet(x, 2)[2]

    def laplacian(self, x):
        hess = self.hessian(x)
        return np.trace(hess, axis1=-2, axis2=-1)

    def grad_norm(self, x):
        return np.linalg.norm(self.gradient(x), axis=-1)

    def eval(self, point) -> FieldSample:
        pts, single = _as_points(point, self.dimension)
        if not single:
            raise FieldError("eval takes a single point; use value/gradient for batches")
        value, gradient, hessian = self.jet(pts, 2)
        return FieldSample(
            point=pts[0],
            value=float(value[0]),
            gradient=np.asarray(gradient[0], dtype=float),
            hessian=np.asarray(hessian[0], dtype=float),
            laplacian=float(self.laplacian(pts)[0]),
        )


# `perfbench/spans.py` wraps `value`, `gradient` and `hessian` in each family's
# own class dict, so every family below binds these views itself.
_VIEWS = (ScalarField.value, ScalarField.gradient, ScalarField.hessian)


def _assemble(partial, n, order):
    """[value, gradient, Hessian][:order + 1] from `partial(alpha)`, the
    derivative d^alpha f at every point for an integer multi-index alpha."""
    eye = np.eye(n, dtype=np.int64)
    out = [partial(np.zeros(n, dtype=np.int64))]
    if order >= 1:
        out.append(np.stack([partial(eye[i]) for i in range(n)], axis=-1))
    if order >= 2:
        hess = np.empty(out[0].shape + (n, n))
        for i in range(n):
            for j in range(i, n):
                hess[:, i, j] = hess[:, j, i] = partial(eye[i] + eye[j])
        out.append(hess)
    return out


# ---------------------------------------------------------------------------
# Sparse polynomials


def _coeff_add(a, b):
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(b, int):
        b = Fraction(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def _coeff_mul(a, b):
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(b, int):
        b = Fraction(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return float(a) * float(b)


def _to_coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    return float(c)


class SparsePolynomial(ScalarField):
    """Multivariate polynomial stored as {exponent tuple: coefficient}.

    Coefficients are `Fraction` whenever possible, so that differentiation
    and the Laplacian are exact; floats are only introduced by explicit
    float input or at evaluation time.
    """

    def __init__(self, dimension, terms):
        if dimension < 1:
            raise FieldError("dimension must be positive")
        self.dimension = int(dimension)
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.dimension:
                raise FieldError(f"exponent {exps} has wrong length for dimension {dimension}")
            if any(e < 0 for e in exps):
                raise FieldError(f"negative exponent in {exps}")
            coeff = _to_coeff(coeff)
            if exps in clean:
                coeff = _coeff_add(clean[exps], coeff)
            clean[exps] = coeff
        self.terms = {e: c for e, c in sorted(clean.items()) if c != 0}
        self._cache = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, dimension, c):
        return cls(dimension, {(0,) * dimension: c})

    @classmethod
    def coordinate(cls, dimension, i, coeff=1):
        exps = [0] * dimension
        exps[i] = 1
        return cls(dimension, {tuple(exps): coeff})

    @classmethod
    def monomial(cls, dimension, exps, coeff=1):
        return cls(dimension, {tuple(exps): coeff})

    @classmethod
    def radius_squared(cls, dimension):
        terms = {}
        for i in range(dimension):
            exps = [0] * dimension
            exps[i] = 2
            terms[tuple(exps)] = Fraction(1)
        return cls(dimension, terms)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SparsePolynomial):
            other = SparsePolynomial.constant(self.dimension, other)
        if other.dimension != self.dimension:
            raise FieldError("dimension mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = _coeff_add(terms.get(e, Fraction(0)), c)
        return SparsePolynomial(self.dimension, terms)

    def __sub__(self, other):
        if not isinstance(other, SparsePolynomial):
            other = SparsePolynomial.constant(self.dimension, other)
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return self.scale(other)
        if other.dimension != self.dimension:
            raise FieldError("dimension mismatch")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = _coeff_mul(c1, c2)
                terms[e] = _coeff_add(terms.get(e, Fraction(0)), c)
        return SparsePolynomial(self.dimension, terms)

    __rmul__ = __mul__

    def scale(self, s):
        s = _to_coeff(s)
        return SparsePolynomial(self.dimension, {e: _coeff_mul(c, s) for e, c in self.terms.items()})

    def diff(self, i):
        """Exact partial derivative with respect to coordinate i."""
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            terms[tuple(new)] = _coeff_mul(coeff, exps[i])
        return SparsePolynomial(self.dimension, terms)

    def laplacian_poly(self):
        out = SparsePolynomial(self.dimension, {})
        for i in range(self.dimension):
            out = out + self.diff(i).diff(i)
        return out

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if inhomogeneous."""
        degs = {sum(e) for e in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def coefficient_norm(self):
        return math.sqrt(sum(float(c) ** 2 for c in self.terms.values()))

    # -- evaluation ---------------------------------------------------------

    def _arrays(self):
        if self._cache is None:
            if self.terms:
                exps = np.array(list(self.terms.keys()), dtype=np.int64)
                coeffs = np.array([float(c) for c in self.terms.values()])
            else:
                exps = np.zeros((0, self.dimension), dtype=np.int64)
                coeffs = np.zeros(0)
            self._cache = (exps, coeffs)
        return self._cache

    def _jet(self, pts, order):
        exps, coeffs = self._arrays()
        # table[d, k] = x_d^k for k up to the largest exponent, by repeated multiplication
        table = np.ones((self.dimension, int(exps.max(initial=0)) + 1, len(pts)))
        for k in range(1, table.shape[1]):
            np.multiply(table[:, k - 1], pts.T, out=table[:, k])

        def partial(alpha):
            # sum_t c_t prod_d (e_td)_(alpha_d) x_d^(e_td - alpha_d), with the
            # falling factorial (e)_a, which vanishes when a > e
            w = coeffs.copy()
            for d, a in enumerate(alpha):
                for j in range(a):
                    w *= exps[:, d] - j
            live = np.flatnonzero(w)
            low = np.maximum(exps[live] - alpha, 0)
            prod = table[0, low[:, 0]]
            for d in range(1, self.dimension):
                prod *= table[d, low[:, d]]
            return w[live] @ prod

        return _assemble(partial, self.dimension, order)

    value, gradient, hessian = _VIEWS

    def __repr__(self):
        parts = [f"{c}*x^{e}" for e, c in self.terms.items()]
        return f"SparsePolynomial({self.dimension}, {' + '.join(parts) or '0'})"

    def __eq__(self, other):
        return (
            isinstance(other, SparsePolynomial)
            and self.dimension == other.dimension
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dimension, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))


# ---------------------------------------------------------------------------
# Trigonometric eigenfunctions

TORUS = "torus"
BOX_DIRICHLET = "box-dirichlet"
BOX_NEUMANN = "box-neumann"


class TrigEigenfunction(ScalarField):
    """Closed-form Laplace eigenfunction on the flat torus or the unit box.

    Torus modes are (integer vector m, cosine amplitude, sine amplitude)
    giving f = sum a_m cos(2 pi m.x) + b_m sin(2 pi m.x).  Box modes are
    (integer vector k, amplitude) product states, sin factors for Dirichlet
    and cos factors for Neumann.  All modes must share the eigenvalue.
    """

    def __init__(self, flavor, modes, dimension):
        if flavor not in (TORUS, BOX_DIRICHLET, BOX_NEUMANN):
            raise FieldError(f"unknown flavor {flavor!r}")
        if not modes:
            raise FieldError("empty mode list")
        self.flavor = flavor
        self.dimension = int(dimension)

        if flavor == TORUS:
            norm2 = None
            clean = []
            for m, a, b in modes:
                m = tuple(int(v) for v in m)
                if len(m) != dimension:
                    raise FieldError("mode dimension mismatch")
                mm = sum(v * v for v in m)
                if norm2 is None:
                    norm2 = mm
                elif mm != norm2:
                    raise FieldError(f"mixed |m|^2 values: {norm2} vs {mm}")
                clean.append((m, float(a), float(b)))
            if all(a == 0.0 and b == 0.0 for _, a, b in clean):
                raise FieldError("all amplitudes vanish")
            self.modes = tuple(clean)
            self.eigenvalue = 4.0 * math.pi**2 * norm2
            self._m = np.array([m for m, _, _ in clean], dtype=float)
            self._a = np.array([a for _, a, _ in clean])
            self._b = np.array([b for _, _, b in clean])
        else:
            norm2 = None
            clean = []
            for k, amp in modes:
                k = tuple(int(v) for v in k)
                if len(k) != dimension:
                    raise FieldError("mode dimension mismatch")
                if flavor == BOX_DIRICHLET and any(v <= 0 for v in k):
                    raise FieldError("Dirichlet modes need strictly positive k entries")
                if flavor == BOX_NEUMANN and (any(v < 0 for v in k) or all(v == 0 for v in k)):
                    raise FieldError("Neumann modes need non-negative k, not all zero")
                kk = sum(v * v for v in k)
                if norm2 is None:
                    norm2 = kk
                elif kk != norm2:
                    raise FieldError(f"mixed sum k_i^2 values: {norm2} vs {kk}")
                clean.append((k, float(amp)))
            self.modes = tuple(clean)
            self.eigenvalue = math.pi**2 * norm2

    # -- evaluation ---------------------------------------------------------

    def _torus_parts(self, pts):
        phases = TWO_PI * (pts @ self._m.T)  # (N, K)
        return np.cos(phases), np.sin(phases)

    def _box_factors(self, pts, k):
        # per-coordinate factor, first and second derivative
        karr = np.array(k, dtype=float)
        arg = math.pi * karr[None, :] * pts
        if self.flavor == BOX_DIRICHLET:
            fac = np.sin(arg)
            dfac = math.pi * karr * np.cos(arg)
        else:
            fac = np.cos(arg)
            dfac = -math.pi * karr * np.sin(arg)
        d2fac = -((math.pi * karr) ** 2) * fac
        return fac, dfac, d2fac

    def _jet(self, pts, order):
        if self.flavor == TORUS:
            c, s = self._torus_parts(pts)
            out = [None]
            if order >= 1:
                # d/dx_i of a cos + b sin = 2 pi m_i (-a sin + b cos)
                out.append((c * self._b[None, :] - s * self._a[None, :]) @ (TWO_PI * self._m))
            if order >= 2:
                amp = -(c * self._a[None, :] + s * self._b[None, :])  # (N,K)
                mm = TWO_PI**2 * np.einsum("ki,kj->kij", self._m, self._m)
                out.append(np.einsum("nk,kij->nij", amp, mm))
            # the value last, so the gradient's (N, K) temporaries are freed before
            # the long-lived (N,) value array is allocated (lower peak RSS)
            out[0] = c @ self._a + s @ self._b
            return out
        cols = np.arange(self.dimension)
        total = [0.0] * (order + 1)
        for k, amp in self.modes:
            # product rule: d^alpha of amp prod_d phi(pi k_d x_d) is amp prod_d phi^(alpha_d)
            fac = np.stack(self._box_factors(pts, k)[: order + 1])
            jet = _assemble(lambda alpha: amp * fac[alpha, :, cols].prod(axis=0),
                            self.dimension, order)
            total = [t + j for t, j in zip(total, jet)]
        return total

    value, gradient, hessian = _VIEWS

    def laplacian(self, x):
        # exact eigenvalue relation
        return -self.eigenvalue * self.value(x)


def make_torus_eigenfunction(modes, dimension=None):
    """Build a torus eigenfunction from (m, cos_amp, sin_amp) modes.

    All modes must share |m|^2; the eigenvalue is 4 pi^2 |m|^2.
    """
    modes = list(modes)
    if not modes:
        raise FieldError("empty mode list")
    if dimension is None:
        dimension = len(modes[0][0])
    return TrigEigenfunction(TORUS, modes, dimension)


def make_box_eigenfunction(k, flavor, amplitude=1.0):
    """Product eigenfunction on [0,1]^n: sin factors (Dirichlet) or cos (Neumann)."""
    k = tuple(int(v) for v in k)
    if flavor not in ("dirichlet", "neumann"):
        raise FieldError(f"flavor must be 'dirichlet' or 'neumann', got {flavor!r}")
    name = BOX_DIRICHLET if flavor == "dirichlet" else BOX_NEUMANN
    return TrigEigenfunction(name, [(k, amplitude)], len(k))


# ---------------------------------------------------------------------------
# Weighted fields


class GaussianWeight(ScalarField):
    """rho(x) = exp(-|x|^2 / 2), the standard Gaussian weight (un-normalized)."""

    def __init__(self, dimension):
        self.dimension = int(dimension)

    def _jet(self, pts, order):
        rho = np.exp(-0.5 * (pts**2).sum(axis=1))
        out = [rho]
        if order >= 1:
            out.append(-pts * rho[:, None])
        if order >= 2:
            eye = np.eye(self.dimension)
            out.append((np.einsum("ni,nj->nij", pts, pts) - eye[None, :, :]) * rho[:, None, None])
        return out

    value, gradient, hessian = _VIEWS


class GradientNormField(ScalarField):
    """rho = |grad f| of a base field, with gradient (hess f . grad f)/|grad f|.

    The Hessian of rho is not provided; none of the identity checks need it.
    """

    def __init__(self, base: ScalarField):
        self.base = base
        self.dimension = base.dimension

    def _jet(self, pts, order):
        if order > 1:
            raise NotImplementedError("second derivatives of |grad f| are not provided")
        _, g, *hess = self.base.jet(pts, order + 1)
        norm = np.linalg.norm(g, axis=-1)
        if order == 0:
            return [norm]
        hg = np.einsum("nij,nj->ni", hess[0], g)
        with np.errstate(divide="ignore", invalid="ignore"):
            return [norm, np.where(norm[:, None] > 0, hg / norm[:, None], 0.0)]

    value, gradient = _VIEWS[:2]


class ConstantWeight(ScalarField):
    """A constant positive weight."""

    def __init__(self, dimension, c=1.0):
        self.dimension = int(dimension)
        self.c = float(c)

    def _jet(self, pts, order):
        shape = (len(pts),)
        return [np.full(shape, self.c)] + [np.zeros(shape + (self.dimension,) * k)
                                           for k in range(1, order + 1)]

    value, gradient, hessian = _VIEWS


class WeightedField:
    """A base field together with a strictly positive weight rho.

    The weighted Laplacian is L f = Delta f + <grad(log rho), grad f>.
    """

    def __init__(self, base: ScalarField, weight: ScalarField):
        if base.dimension != weight.dimension:
            raise FieldError("base/weight dimension mismatch")
        self.base = base
        self.weight = weight
        self.dimension = base.dimension

    def weight_values(self, x):
        rho = self.weight.value(x)
        if np.any(np.asarray(rho) <= 0):
            raise FieldError("weight must be strictly positive on evaluated points")
        return rho

    # evaluation delegates to the unweighted base field
    def value(self, x):
        return self.base.value(x)

    def gradient(self, x):
        return self.base.gradient(x)

    def hessian(self, x):
        return self.base.hessian(x)

    def laplacian(self, x):
        return self.base.laplacian(x)

    def grad_norm(self, x):
        return self.base.grad_norm(x)

    def weighted_laplacian(self, x):
        """L f = Delta f + <grad rho, grad f> / rho, vectorized over points."""
        pts, single = _as_points(x, self.dimension)
        rho = self.weight_values(pts)
        gf = self.base.gradient(pts)
        grho = self.weight.gradient(pts)
        out = self.base.laplacian(pts) + np.einsum("ni,ni->n", grho, gf) / rho
        return out[0] if single else out


def weighted_laplacian(wf: WeightedField, point):
    """Weighted Laplacian of wf.base at `point` (scalar for a single point)."""
    out = wf.weighted_laplacian(point)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema ({"kind": ...}):
#   polynomial: {"kind": "polynomial", "dimension": n,
#                "terms": [{"exponents": [..], "coefficient": "p/q" | "1.5"}]}
#   torus:      {"kind": "torus", "dimension": n,
#                "modes": [{"m": [..], "cos": "a", "sin": "b"}]}
#   box:        {"kind": "box", "dimension": n, "k": [..],
#                "flavor": "dirichlet" | "neumann", "amplitude": "1"}
#   gaussian:   {"kind": "gaussian", "dimension": n}
#   constant:   {"kind": "constant", "dimension": n, "value": "1"}
#   weighted:   {"kind": "weighted", "base": {...}, "weight": {...}}


def _coeff_to_str(c):
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)
    return repr(float(c))


def _coeff_from_str(s):
    s = str(s)
    if "/" in s:
        return Fraction(s)
    if any(ch in s for ch in ".eE"):
        return float(s)
    return Fraction(int(s))


def field_to_json(field):
    """Serialize a field (or WeightedField) to a JSON-ready dict."""
    if isinstance(field, WeightedField):
        return {
            "kind": "weighted",
            "base": field_to_json(field.base),
            "weight": field_to_json(field.weight),
        }
    if isinstance(field, SparsePolynomial):
        return {
            "kind": "polynomial",
            "dimension": field.dimension,
            "terms": [
                {"exponents": list(e), "coefficient": _coeff_to_str(c)}
                for e, c in field.terms.items()
            ],
        }
    if isinstance(field, TrigEigenfunction):
        if field.flavor == TORUS:
            return {
                "kind": "torus",
                "dimension": field.dimension,
                "modes": [
                    {"m": list(m), "cos": repr(a), "sin": repr(b)} for m, a, b in field.modes
                ],
            }
        flavor = "dirichlet" if field.flavor == BOX_DIRICHLET else "neumann"
        if len(field.modes) != 1:
            return {
                "kind": "box",
                "dimension": field.dimension,
                "flavor": flavor,
                "modes": [{"k": list(k), "amplitude": repr(a)} for k, a in field.modes],
            }
        (k, amp), = field.modes
        return {
            "kind": "box",
            "dimension": field.dimension,
            "flavor": flavor,
            "k": list(k),
            "amplitude": repr(amp),
        }
    if isinstance(field, GaussianWeight):
        return {"kind": "gaussian", "dimension": field.dimension}
    if isinstance(field, ConstantWeight):
        return {"kind": "constant", "dimension": field.dimension, "value": repr(field.c)}
    raise FieldError(f"cannot serialize field of type {type(field).__name__}")


def field_from_json(doc):
    """Inverse of `field_to_json`."""
    kind = doc.get("kind")
    if kind == "polynomial":
        terms = {
            tuple(t["exponents"]): _coeff_from_str(t["coefficient"]) for t in doc["terms"]
        }
        return SparsePolynomial(doc["dimension"], terms)
    if kind == "torus":
        modes = [(tuple(m["m"]), float(m["cos"]), float(m["sin"])) for m in doc["modes"]]
        return TrigEigenfunction(TORUS, modes, doc["dimension"])
    if kind == "box":
        flavor = BOX_DIRICHLET if doc["flavor"] == "dirichlet" else BOX_NEUMANN
        if "modes" in doc:
            modes = [(tuple(m["k"]), float(m["amplitude"])) for m in doc["modes"]]
        else:
            modes = [(tuple(doc["k"]), float(doc.get("amplitude", 1.0)))]
        return TrigEigenfunction(flavor, modes, doc["dimension"])
    if kind == "gaussian":
        return GaussianWeight(doc["dimension"])
    if kind == "constant":
        return ConstantWeight(doc["dimension"], float(doc.get("value", 1.0)))
    if kind == "weighted":
        return WeightedField(field_from_json(doc["base"]), field_from_json(doc["weight"]))
    raise FieldError(f"unknown field kind {kind!r}")
