"""Correctness checks on program outputs.

Every check compares an output against an independent computation (a
closed form, an identity, a second method) or a property the method must
have, with a tolerance taken from the output's own error estimate.  Checks
are pure functions of numbers, so the benchmark's tests can feed them
deliberately wrong inputs and watch them fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def _check(name, passed, detail):
    return Check(name, bool(passed), detail)


def close(name, value, reference, tol):
    """|value - reference| <= tol, elementwise for arrays."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    tol = np.asarray(tol, dtype=float)
    gap = np.abs(value - reference)
    worst = float(np.max(gap - tol))
    return _check(name, np.all(gap <= tol) and np.all(np.isfinite(value)),
                  f"max(|value - ref| - tol) = {worst:.3g}")


def at_most(name, value, bound, tol):
    """value <= bound + tol, elementwise for arrays."""
    excess = np.asarray(value, dtype=float) - np.asarray(bound, dtype=float) - np.asarray(tol)
    worst = float(np.max(excess))
    return _check(name, worst <= 0.0, f"max(value - bound - tol) = {worst:.3g}")


def agree(name, a, a_err, b, b_err, k=3.0):
    """Two estimates of one quantity agree within k times their summed error bars."""
    return close(name, a, b, k * (np.asarray(a_err) + np.asarray(b_err)))


def non_decreasing(name, values, errors, k=3.0):
    """values[i] <= values[j] + k (err_i + err_j) for every i < j."""
    v = np.asarray(values, dtype=float)
    e = np.asarray(errors, dtype=float)
    drop = v[:, None] - v[None, :] - k * (e[:, None] + e[None, :])
    later = np.triu(np.ones((len(v), len(v)), dtype=bool), 1)
    worst = float(np.max(np.where(later, drop, -np.inf), initial=-np.inf))
    return _check(name, worst <= 0.0 and len(v) > 1, f"worst drop beyond tolerance {worst:.3g}")


def constant(name, values, errors, k=3.0):
    """Every pair of values agrees within k (err_i + err_j)."""
    v = np.asarray(values, dtype=float)
    e = np.asarray(errors, dtype=float)
    gap = np.abs(v[:, None] - v[None, :]) - k * (e[:, None] + e[None, :])
    worst = float(gap.max())
    return _check(name, worst <= 0.0, f"worst pairwise gap beyond tolerance {worst:.3g}")


def total_measure(name, density, expected, k=4.0):
    """mu(M) of a density estimate against an independent value.

    The standard error of mu(M) is taken as the root sum of squares of the
    per-bin standard errors of the raw pushforward density times the bin
    width; bins are negatively correlated, so this over-states it.
    """
    se = math.sqrt(float(((density.raw_se * density.bin_width) ** 2).sum()))
    ok = abs(density.normalization - expected) <= k * se
    return _check(name, ok, f"mu(M) = {density.normalization:.6g}, expected {expected:.6g}, "
                            f"se {se:.3g}")


def bin_averages(name, density, cdf, z_max=5.0):
    """Normalized density against bin averages (cdf(b) - cdf(a)) / (b - a).

    With 64 bins a 5-sigma band gives a false alarm about once in 10^4 runs.
    """
    e = density.edges
    ref = (cdf(e[1:]) - cdf(e[:-1])) / (e[1:] - e[:-1])
    se = np.maximum(density.density_se, 1e-12 * np.abs(ref).max())
    z = np.abs(density.density - ref) / se
    return _check(name, float(z.max()) <= z_max, f"max |z| over bins = {float(z.max()):.3g}")


def mode_at_zero(name, density, k=3.0):
    """The bin holding 0 is within k combined standard errors of the highest bin."""
    i0 = int(np.searchsorted(density.edges, 0.0, side="right") - 1)
    top = int(np.argmax(density.density))
    d, se = density.density, density.density_se
    gap = float(d[top] - d[i0])
    tol = k * math.hypot(float(se[top]), float(se[i0]))
    return _check(name, gap <= tol, f"mode bin center {density.centers[top]:.3g}, "
                                    f"gap to bin at 0 {gap:.3g} (tol {tol:.3g})")


def reported(name, passed, expect=True):
    """The program's own verdict is the expected one."""
    return _check(name, bool(passed) == expect, f"reported passed={bool(passed)}, expected {expect}")


def arcsine_cdf(t):
    """CDF of sin(2 pi x) for uniform x: values under surface measure."""
    return 0.5 + np.arcsin(np.clip(t, -1.0, 1.0)) / math.pi


def semicircle_cdf(t):
    """CDF of the density (2/pi) sqrt(1 - t^2): values of sin(2 pi x) under mu."""
    t = np.clip(t, -1.0, 1.0)
    return 0.5 + (t * np.sqrt(1.0 - t * t) + np.arcsin(t)) / math.pi
