"""Scalar fields with exact closed-form derivatives.

Three families are provided: sparse multivariate polynomials (exact
rational coefficients, exact differentiation), trigonometric Laplace
eigenfunctions on the flat torus and on boxes (Dirichlet / Neumann),
and weighted fields pairing a base field with a strictly positive
weight.  All fields are immutable after construction and evaluation is
pure, so concurrent read-only use is safe.

Each family evaluates through one kernel, `jet(x, order)`, which returns
the value, gradient and Hessian up to `order` from shared intermediates.
A polynomial builds one table of coordinate powers x_d^k by repeated
multiplication.  A trigonometric eigenfunction, torus or box, is stored as
plane waves f = Re sum_j w_j exp(i omega m_j.x); its jet takes one phasor
exp(i omega x_d) per axis, from a table of roots of unity and a short
Taylor polynomial rather than libm cos and sin, and raises it to the powers
the waves need by repeated multiplication, so the trig work per point does
not grow with the number of modes.  It runs in blocks of points, so its
(waves x points) array stays a few MB.  `value`, `gradient` and `hessian` are
views of the jet; a caller that needs two orders at the same points asks
for one jet.
"""

from __future__ import annotations

import itertools
import math
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


def _whole_dimension(dimension):
    """A dimension as an int; anything but a whole number >= 1 (2.5, nan) is a FieldError."""
    if not (dimension >= 1 and dimension % 1 == 0):
        raise FieldError(f"dimension must be a whole number >= 1, got {dimension!r}")
    return int(dimension)


def _sq_norms(X):
    """Squared Euclidean norms along the last axis of X, summed column by column:
    the bits of (X**2).sum(axis=-1) for fewer than 8 columns (NumPy sums 8 or
    more pairwise), with no array of squares the size of X."""
    s = np.square(X[..., 0])
    for d in range(1, X.shape[-1]):
        s += np.square(X[..., d])
    return s


def _norms(X):
    """Euclidean norms along the last axis of X: np.linalg.norm(X, axis=-1) by `_sq_norms`."""
    return np.sqrt(_sq_norms(X))


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
        return _norms(self.gradient(x))


# `perfbench/spans.py` wraps `value`, `gradient` and `hessian` in each family's
# own class dict, so every family below binds these views itself.
_VIEWS = (ScalarField.value, ScalarField.gradient, ScalarField.hessian)


def _assemble(partial, n, order):
    """[value, gradient, Hessian][:order + 1] from `partial(alpha)`, the
    derivative d^alpha f at every point for an integer multi-index alpha.

    Each entry is its own `partial` call, so an output has the same bits
    whichever order asked for it: polynomials sum falling-factorial-weighted
    power products, plane waves take Re(w (i omega m)^alpha . exp(i omega m.x)).
    """
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


def _to_coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    c = float(c)
    if not math.isfinite(c):
        raise FieldError(f"coefficient must be finite, got {c!r}")
    return c


class SparsePolynomial(ScalarField):
    """Multivariate polynomial stored as {exponent tuple: coefficient}.

    Coefficients are `Fraction` whenever possible, so that differentiation
    and the Laplacian are exact; floats are only introduced by explicit
    float input or at evaluation time.
    """

    def __init__(self, dimension, terms):
        self.dimension = _whole_dimension(dimension)
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.dimension:
                raise FieldError(f"exponent {exps} has wrong length for dimension {dimension}")
            if any(e < 0 for e in exps):
                raise FieldError(f"negative exponent in {exps}")
            coeff = _to_coeff(coeff)
            if exps in clean:
                coeff = clean[exps] + coeff
            clean[exps] = coeff
        self.terms = {e: c for e, c in sorted(clean.items()) if c != 0}
        self._cache = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, dimension, c):
        return cls(dimension, {(0,) * dimension: c})

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
            terms[e] = terms.get(e, 0) + c
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
                terms[e] = terms.get(e, 0) + c1 * c2
        return SparsePolynomial(self.dimension, terms)

    __rmul__ = __mul__

    def scale(self, s):
        s = _to_coeff(s)
        return SparsePolynomial(self.dimension, {e: c * s for e, c in self.terms.items()})

    def diff(self, i):
        """Exact partial derivative with respect to coordinate i."""
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            terms[tuple(new)] = coeff * exps[i]
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
            # term by term, in a fixed order: a BLAS product, or einsum at a single
            # point, sums in an order (and so to last bits) set by the batch size.
            # Each term is built in one reused row, not gathered as (terms x points).
            out, term = np.zeros(len(pts)), np.empty(len(pts))
            for c, row in zip(w[live].tolist(), low.tolist()):
                term.fill(1.0)
                for d, k in enumerate(row):
                    if k:
                        term *= table[d, k]
                term *= c
                out += term
            return out

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

# exp(2 pi i u) is reduced by a table of T-th roots of unity (Tang, ACM TOMS
# 15(2), 1989): with n = rint(u T) and r = u T - n, both exact for a power of
# two T, exp(2 pi i u) = exp(2 pi i n / T) exp(i phi) with phi = 2 pi r / T and
# |phi| <= pi / T, where Taylor polynomials of degree 8 (cos) and 7 (sin)
# leave a truncation error below 1e-20.
_TURN_STEPS = 1024
_PHI_PER_STEP = TWO_PI / _TURN_STEPS
_COS_TAYLOR = (1 / 40320, -1 / 720, 1 / 24, -1 / 2)  # cos(phi) - 1, Horner in phi^2
_SIN_TAYLOR = (-1 / 5040, 1 / 120, -1 / 6)  # sin(phi) / phi - 1, Horner in phi^2
# points per block of a plane-wave jet: 0.5 MB of (waves x block) array per
# wave, not 2 MB as for a whole 2^17-point Monte Carlo chunk.  Blocks of 2^14
# points ran a jet faster alone but a wave-density round slower, with 5x the
# page faults: their smaller buffers left glibc's dynamic mmap threshold low,
# so memory went back to the system and was faulted in again for every chunk.
_WAVE_BLOCK = 1 << 15


def _roots_of_unity(size):
    """exp(2 pi i k / size) for k < size: cos and sin of the first octant,
    the other entries by exact swaps and sign changes."""
    octant = TWO_PI * np.arange(size // 8 + 1) / size
    cos, sin = np.cos(octant), np.sin(octant)
    k = np.arange(size // 4)
    fold = np.minimum(k, size // 4 - k)
    quarter = np.where(k <= size // 8, cos[fold] + 1j * sin[fold], sin[fold] + 1j * cos[fold])
    return np.concatenate([quarter, 1j * quarter, -quarter, -1j * quarter])


_ROOTS = _roots_of_unity(_TURN_STEPS)


def _phasor(x, steps, out, work):
    """out = exp(2 pi i u) with u T = x steps, for a power of two `steps`.

    `work` holds four float buffers, an int64 and a complex one of len(x);
    the Taylor sums run on contiguous floats, not on strided views of `out`.
    A non-finite x gives NaN without a floating-point warning.
    """
    v, phi2, cos, sin, index, root = work
    np.multiply(x, steps, out=v)  # exact: a power of two
    np.rint(v, out=phi2)
    with np.errstate(invalid="ignore"):
        np.subtract(v, phi2, out=v)  # r, exact; NaN for a non-finite x
        # from 2^62 on every float is a multiple of T, so clipping there keeps
        # n mod T and the int64 cast in range; a NaN casts to a meaningless index
        np.clip(phi2, -2.0**62, 2.0**62, out=phi2)
        np.copyto(index, phi2, casting="unsafe")
    np.bitwise_and(index, _TURN_STEPS - 1, out=index)  # n mod T
    np.take(_ROOTS, index, out=root, mode="clip")  # in range: clip skips the check
    np.multiply(v, _PHI_PER_STEP, out=v)  # phi
    np.multiply(v, v, out=phi2)
    for terms, acc in ((_COS_TAYLOR, cos), (_SIN_TAYLOR, sin)):
        np.multiply(phi2, terms[0], out=acc)
        for c in terms[1:]:
            acc += c
            acc *= phi2
    sin *= v
    sin += v
    out.real, out.imag = cos, sin
    # root (1 + (cos phi - 1) + i sin phi), adding the small part last
    out *= root
    out += root


def _plane_waves(flavor, modes, dimension):
    """(turns, m, w) with f = Re sum_j w_j exp(2 pi i turns m_j.x), one entry
    per distinct wave vector up to sign; waves that cancel are dropped.  A
    wave merged from k weights w_i cancels when |sum w_i| is within the
    round-off of that sum, (k - 1) eps sum |w_i|; for k = 1 only when w = 0.

    A torus mode a cos(2 pi m.x) + b sin(2 pi m.x) is the wave (m, a - ib).  A
    box mode amp prod_d phi(pi k_d x_d) expands by sin t = (e^{it} - e^{-it})/2i
    and cos t = (e^{it} + e^{-it})/2 into 2^n waves (s_1 k_1, ..., s_n k_n) over
    sign patterns s; s and -s merge into one, and so does each sign of a k_d = 0.
    """
    waves = {}

    def add(m, w):
        # Re(w e^{-i t}) = Re(conj(w) e^{i t}): keep the first non-zero entry positive
        if next((v for v in m if v), 0) < 0:
            m, w = tuple(-v for v in m), w.conjugate()
        total, count, size = waves.get(m, (0, 0, 0.0))
        waves[m] = (total + w, count + 1, size + abs(w))

    if flavor == TORUS:
        turns = 1.0
        for m, a, b in modes:
            add(m, complex(a, -b))
    else:
        turns = 0.5
        # the weight of e^{+it} and e^{-it} in one factor
        half = {1: 1 / 2j, -1: -1 / 2j} if flavor == BOX_DIRICHLET else {1: 0.5, -1: 0.5}
        for k, amp in modes:
            for signs in itertools.product((1, -1), repeat=dimension):
                add(tuple(s * v for s, v in zip(signs, k)), amp * math.prod(half[s] for s in signs))
    live = [(m, w) for m, (w, k, size) in waves.items() if abs(w) > (k - 1) * np.finfo(float).eps * size]
    m = np.array([m for m, _ in live], dtype=np.int64).reshape(len(live), dimension)
    return turns, m, np.array([w for _, w in live], dtype=complex)


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
        self.dimension = _whole_dimension(dimension)
        clean = []
        for k, *amps in modes:
            k = tuple(int(v) for v in k)
            if len(k) != dimension:
                raise FieldError("mode dimension mismatch")
            if flavor == BOX_DIRICHLET and any(v <= 0 for v in k):
                raise FieldError("Dirichlet modes need strictly positive k entries")
            if flavor == BOX_NEUMANN and (any(v < 0 for v in k) or all(v == 0 for v in k)):
                raise FieldError("Neumann modes need non-negative k, not all zero")
            amps = tuple(map(float, amps))
            if not all(map(math.isfinite, amps)):
                raise FieldError(f"mode {k} has a non-finite amplitude")
            clean.append((k, *amps))
        norms = {sum(v * v for v in k) for k, *_ in clean}
        if len(norms) > 1:
            raise FieldError(f"modes of different |m|^2: {sorted(norms)}")
        self.modes = tuple(clean)
        turns, self._m, self._w = _plane_waves(flavor, self.modes, self.dimension)
        if not len(self._w):
            raise FieldError("the modes cancel: the field is identically zero")
        self._omega = TWO_PI * turns
        self._steps = _TURN_STEPS * turns  # u T = x steps in `_phasor`, with u = turns x
        self.eigenvalue = self._omega**2 * norms.pop()

    # -- evaluation ---------------------------------------------------------

    def _jet(self, pts, order):
        # per axis d and power k >= 1: the waves with m_jd = k and with m_jd = -k
        axes = [(d, [(np.flatnonzero(column == k), np.flatnonzero(column == -k))
                     for k in range(1, int(np.abs(column).max(initial=0)) + 1)])
                for d, column in enumerate(self._m.T) if column.any()]
        # the first axis on which a wave moves sets its row, later axes multiply it
        lead = np.where(self._m.any(axis=1), np.argmax(self._m != 0, axis=1), -1)
        freq = 1j * self._omega * self._m
        size = min(len(pts), _WAVE_BLOCK)
        complex_work = np.empty((4 + len(self._w), size), dtype=complex)
        float_work, index = np.empty((4, size)), np.empty(size, dtype=np.int64)
        complex_work[4:][lead < 0] = 1  # a wave with m_j = 0 is constant
        out = [np.empty((len(pts),) + (self.dimension,) * k) for k in range(order + 1)]
        for start in range(0, len(pts), _WAVE_BLOCK):
            x = pts[start:start + _WAVE_BLOCK]
            step, higher, conj, root = complex_work[:4, :len(x)]
            # waves[j] = exp(i omega m_j.x), one axis factor at a time
            waves = complex_work[4:, :len(x)]
            for d, powers in axes:
                _phasor(x[:, d], self._steps, step, (*float_work[:, :len(x)], index[:len(x)], root))
                power = step
                for k, (plus, minus) in enumerate(powers, 1):
                    if k > 1:
                        power = np.multiply(power, step, out=higher)
                    if len(minus):
                        np.conjugate(power, out=conj)  # one conj per power
                    for factor, js in ((power, plus), (conj, minus)):
                        for j in js:
                            if lead[j] == d:
                                waves[j] = factor
                            else:
                                waves[j] *= factor
            # d^alpha f = Re(c . waves) with c_j = w_j prod_d (i omega m_jd)^alpha_d, one
            # product per output row, so a row has the same bits at every order
            rows = _assemble(lambda alpha: ((self._w * np.prod(freq**alpha, axis=1)) @ waves).real,
                             self.dimension, order)
            for whole, row in zip(out, rows):
                whole[start:start + len(x)] = row
        return out

    value, gradient, hessian = _VIEWS

    def laplacian(self, x):
        # exact eigenvalue relation
        return -self.eigenvalue * self.value(x)


def make_torus_eigenfunction(modes):
    """Build a torus eigenfunction from (m, cos_amp, sin_amp) modes.

    All modes must share |m|^2; the eigenvalue is 4 pi^2 |m|^2.
    """
    modes = list(modes)
    if not modes:
        raise FieldError("empty mode list")
    return TrigEigenfunction(TORUS, modes, len(modes[0][0]))


def make_box_eigenfunction(k, flavor):
    """Product eigenfunction on [0,1]^n: sin factors (Dirichlet) or cos (Neumann)."""
    k = tuple(int(v) for v in k)
    if flavor not in ("dirichlet", "neumann"):
        raise FieldError(f"flavor must be 'dirichlet' or 'neumann', got {flavor!r}")
    name = BOX_DIRICHLET if flavor == "dirichlet" else BOX_NEUMANN
    return TrigEigenfunction(name, [(k, 1.0)], len(k))


# ---------------------------------------------------------------------------
# Weighted fields


class GaussianWeight(ScalarField):
    """rho(x) = exp(-|x|^2 / 2), the standard Gaussian weight (un-normalized)."""

    def __init__(self, dimension):
        self.dimension = _whole_dimension(dimension)

    def _jet(self, pts, order):
        rho = np.exp(-0.5 * _sq_norms(pts))
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
        norm = _norms(g)
        if order == 0:
            return [norm]
        hg = np.einsum("nij,nj->ni", hess[0], g)
        with np.errstate(divide="ignore", invalid="ignore"):
            return [norm, np.where(norm[:, None] > 0, hg / norm[:, None], 0.0)]

    value, gradient = _VIEWS[:2]


class ConstantWeight(ScalarField):
    """A constant positive weight."""

    def __init__(self, dimension, c=1.0):
        self.dimension = _whole_dimension(dimension)
        self.c = float(c)
        if not math.isfinite(self.c):
            raise FieldError(f"constant weight must be finite, got {self.c!r}")

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
        if doc["flavor"] not in ("dirichlet", "neumann"):
            raise FieldError(f"box flavor must be 'dirichlet' or 'neumann', got {doc['flavor']!r}")
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
