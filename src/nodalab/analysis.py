"""Value-distribution densities, identity checks and monotonicity reports.

Statistical pass/fail thresholds are uniformly 3x the combined standard
error (or the documented mesh error bound); the distribution mode is
pinned at zero, so unimodality is tested as monotonicity on each side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .fields import (
    FieldError,
    SparsePolynomial,
    TrigEigenfunction,
    WeightedField,
    TORUS,
    BOX_DIRICHLET,
    _norms,
    _sq_norms,
)
from .harmonics import spherical_values
from .levelset import (
    Domain,
    JsonRecord,
    LevelSetError,
    _chunk_rng,
    _critical_floor,
    _map_chunks,
    _mean_and_se,
    _sphere_area,
    _sphere_points,
    default_shell_width,
    extract,
    mesh_quadrature,
    radial_profile,
)


# ---------------------------------------------------------------------------
# Report records


@dataclass
class DensityEstimate(JsonRecord):
    """Binned value-distribution density with per-bin standard errors.

    `density` integrates to ~1 over the bins; `raw_psi` is the
    un-normalized pushforward density (vol * mean weight per bin / width),
    which for the mu flavor estimates the level-set integral of |grad f|.
    The bins span the values of a pre-pass, so later samples can fall
    outside them: `n_dropped` counts those, and `dropped_weight` is their
    share of `normalization`, which still includes them.
    """

    edges: np.ndarray
    density: np.ndarray
    density_se: np.ndarray
    raw_psi: np.ndarray
    raw_se: np.ndarray
    flavor: str
    normalization: float  # mu(M), the total measure
    n_samples: int
    seed: int
    n_dropped: int = 0
    dropped_weight: float = 0.0

    @property
    def centers(self):
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def bin_width(self):
        return float(self.edges[1] - self.edges[0])


@dataclass
class UnimodalityReport(JsonRecord):
    """Mode pinned at zero; V is the worst wrong-way jump on either side."""

    violation: float
    threshold: float
    passed: bool
    mode_location: float = 0.0


@dataclass
class MonotonicityReport(JsonRecord):
    grid: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    direction: str  # "non-decreasing" | "non-increasing"
    max_violation: float
    tolerance: float
    passed: bool


@dataclass
class IdentityReport(JsonRecord):
    lhs: float
    lhs_error: float
    rhs: float
    rhs_error: float
    discrepancy: float
    rel_discrepancy: float
    tolerance: float
    passed: bool
    skipped: bool = False
    details: dict = dataclass_field(default_factory=dict)


def _identity_report(lhs, lhs_err, rhs, rhs_err, extra_tol=0.0, details=None):
    disc = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    tol = 3.0 * (lhs_err + rhs_err) + extra_tol
    return IdentityReport(
        lhs=float(lhs),
        lhs_error=float(lhs_err),
        rhs=float(rhs),
        rhs_error=float(rhs_err),
        discrepancy=float(disc),
        rel_discrepancy=float(disc / scale),
        tolerance=float(tol),
        passed=bool(disc <= tol),
        details=details or {},
    )


def default_domain(field):
    """Natural domain for preset checks: torus cell, unit box, or unit ball."""
    base = field.base if isinstance(field, WeightedField) else field
    if isinstance(base, TrigEigenfunction):
        if base.flavor == TORUS:
            return Domain.torus(base.dimension)
        return Domain.box([0.0] * base.dimension, [1.0] * base.dimension)
    if isinstance(field, WeightedField):
        return Domain.box([-3.0] * base.dimension, [3.0] * base.dimension)
    return Domain.ball([0.0] * base.dimension, 1.0)


# ---------------------------------------------------------------------------
# Value distribution density


def value_distribution_density(field, flavor, domain, bins, n_samples, seed, workers=1):
    """Monte Carlo pushforward histogram of f under sigma, mu, or the
    weighted measure |grad f|^2 rho.

    Sampling is uniform over the domain with per-sample weight 1 (sigma),
    |grad f|^2 (mu), or |grad f|^2 rho (weighted); chunked deterministic
    sub-seeding makes the result independent of worker count.
    """
    if flavor not in ("sigma", "mu", "weighted"):
        raise ValueError(f"unknown measure flavor {flavor!r}")
    if bins < 10:
        raise ValueError("need at least 10 bins")
    n_samples = int(n_samples)
    if n_samples < 10**4:
        raise ValueError("need at least 10^4 samples")
    if flavor == "weighted" and not isinstance(field, WeightedField):
        raise FieldError("weighted flavor requires a WeightedField")
    base = field.base if isinstance(field, WeightedField) else field

    # seeded pre-pass fixes the bin range
    pre = domain.sample(10**5, _chunk_rng(seed, 1 << 31))
    pre_vals = base.value(pre)
    vmin, vmax = float(pre_vals.min()), float(pre_vals.max())
    if vmax - vmin < 1e-300:
        raise FieldError("degenerate value range: inf f = sup f")
    edges = np.linspace(vmin, vmax, bins + 1)
    width = edges[1] - edges[0]
    vol = domain.volume()

    def run(rng, size):
        pts = domain.sample(size, rng)
        if flavor == "sigma":
            vals, w = base.value(pts), np.ones(size)
        else:
            vals, g = base.jet(pts, 1)
            w = np.einsum("ij,ij->i", g, g)
            if flavor == "weighted":
                w = w * field.weight_values(pts)
        idx = np.floor((vals - vmin) / width).astype(np.int64)
        np.clip(idx, 0, bins - 1, out=idx)
        in_range = (vals >= vmin) & (vals <= vmax)
        iw = np.where(in_range, w, 0.0)
        hist = np.bincount(idx, weights=iw, minlength=bins)
        return (hist, np.bincount(idx, weights=iw * iw, minlength=bins), w.sum(),
                size - np.count_nonzero(in_range), w[~in_range].sum())

    chunks = _map_chunks(run, n_samples, seed, workers)
    mean, se = _mean_and_se(chunks, n_samples)
    raw = vol * mean / width
    raw_se = vol * se / width
    mu_M = vol * sum(c[2] for c in chunks) / n_samples
    return DensityEstimate(
        edges=edges,
        density=raw / mu_M,
        density_se=raw_se / mu_M,
        raw_psi=raw,
        raw_se=raw_se,
        flavor=flavor,
        normalization=float(mu_M),
        n_samples=n_samples,
        seed=int(seed),
        n_dropped=int(sum(c[3] for c in chunks)),
        dropped_weight=float(vol * sum(c[4] for c in chunks) / n_samples),
    )


def unimodality_check(d: DensityEstimate) -> UnimodalityReport:
    """Monotone-up on [min, 0], monotone-down on [0, max], mode fixed at 0.

    V is the largest wrong-direction pairwise gap of the normalized
    density; the threshold is 3x the largest pairwise combined SE.
    """
    centers = d.centers
    if not (d.edges[0] < 0.0 < d.edges[-1]):
        raise ValueError("bins must cover zero")
    psi = d.density
    se = d.density_se
    violation = max(_decrease_violation(psi[centers <= 0.0]),
                    _decrease_violation(psi[centers >= 0.0][::-1]))

    top = np.sort(se)[-2:] if len(se) >= 2 else np.array([0.0, se.max(initial=0.0)])
    threshold = 3.0 * math.sqrt(float((top**2).sum()))
    return UnimodalityReport(
        violation=violation, threshold=threshold, passed=violation <= threshold
    )


# ---------------------------------------------------------------------------
# Curvature and level-set derivative identities


def _level_curvature(field, pts, g, hess):
    """Geometry of the level sets of f through regular points `pts`, with g, hess
    = grad f, Hess f there: (unit normal N, |grad f|, Hess f(N, N), mean
    curvature H, Delta f), where H = -(Delta f - Hess f(N, N)) / |grad f|."""
    norms = _norms(g)
    lap = field.laplacian(pts)
    N = g / norms[:, None]
    hNN = np.einsum("ni,nij,nj->n", N, hess, N)
    return N, norms, hNN, -(lap - hNN) / norms, lap


def curvature_identity_check(field, n_points=1024, seed=0, domain=None):
    """max |H_rho + Delta f| over the regular points among n_points random
    points, with rho = |grad f|.

    H_rho is assembled from the mean-curvature formula for implicit
    hypersurfaces, so the residual measures floating-point cancellation
    of the pointwise identity (machine precision for smooth fields).
    """
    base = field.base if isinstance(field, WeightedField) else field
    if domain is None:
        domain = default_domain(field)
    n_points = int(n_points)

    def run(rng, size):
        pts = domain.sample(size, rng)
        _, g, hess = base.jet(pts, 2)
        norms = _norms(g)
        regular = (norms > 0) & (norms >= _critical_floor(norms))
        if not regular.any():
            return 0.0, 0
        pts = pts[regular]
        _, norms, hNN, H, lap = _level_curvature(base, pts, g[regular], hess[regular])
        H_rho = norms * H - hNN  # <grad |grad f|, N> = Hess f(N, N)
        return float(np.abs(H_rho + lap).max()), len(pts)

    chunks = _map_chunks(run, n_points, seed)
    collected = sum(c[1] for c in chunks)
    if collected == 0:
        raise FieldError(f"no regular point among {n_points} samples")
    max_resid = max(c[0] for c in chunks)
    tol = 1e-9
    return IdentityReport(
        lhs=max_resid,
        lhs_error=0.0,
        rhs=0.0,
        rhs_error=0.0,
        discrepancy=max_resid,
        rel_discrepancy=max_resid,
        tolerance=tol,
        passed=max_resid <= tol,
        details={"n_points": int(collected), "seed": int(seed)},
    )


def flag_near_critical(field, t, domain, seed=0):
    """Heuristic near-critical level detector.

    A level is flagged when its thin shell cannot be populated (empty or
    extremal level), when the shell's median gradient norm drops below 5%
    of the global median (critical value), or when more than 1% of shell
    samples sit below 1e-3 of the global median (partial degeneracy).
    """
    delta = default_shell_width(domain)
    pts = domain.sample(200_000, _chunk_rng(seed, 1 << 30))
    vals = field.value(pts)
    med_global = float(np.median(field.grad_norm(pts)))
    if t >= float(vals.max()) or t <= float(vals.min()):
        return True  # outside (or at the edge of) the observed range
    v_range = float(vals.max() - vals.min())
    for _ in range(8):
        shell = np.abs(vals - t) < delta
        if shell.sum() >= 100:
            norms = field.grad_norm(pts[shell])
            med = float(np.median(norms))
            if med_global == 0 or med < 0.05 * med_global:
                return True
            return float((norms < 1e-3 * med_global).mean()) > 0.01
        if delta > 0.05 * v_range:
            break
        delta *= 4.0
    return True  # empty or unresolvable shell: treat as suspicious


def levelset_derivative_check(field, t, dt, domain=None, h=0.01, seed=0):
    """Central difference of A(s) = int_{Z_s} |grad f| against the weighted
    mean curvature integral -int_{Z_t} H_rho / |grad f| with rho = |grad f|,
    H_rho = |grad f| H - Hess f(N, N): the eigenfunction derivative identity
    dA/dt = int_{Z_t} Delta f / |grad f|.  Both sides are `mesh_quadrature`
    integrals with its error bounds.  t must be finite, and dt finite and
    positive.
    """
    if not (math.isfinite(t) and math.isfinite(dt) and dt > 0):
        raise ValueError(f"need a finite level t and a finite and positive step dt, got {t!r}, {dt!r}")
    base = field.base if isinstance(field, WeightedField) else field
    if domain is None:
        domain = default_domain(field)

    for s in (t - dt, t, t + dt):
        if flag_near_critical(base, s, domain, seed=seed):
            return IdentityReport(
                lhs=0.0, lhs_error=0.0, rhs=0.0, rhs_error=0.0,
                discrepancy=0.0, rel_discrepancy=0.0, tolerance=0.0,
                passed=True, skipped=True,
                details={"reason": f"level {s} flagged near-critical"},
            )

    a_plus, e_plus = mesh_quadrature(extract(base, t + dt, domain, h))
    a_minus, e_minus = mesh_quadrature(extract(base, t - dt, domain, h))
    lhs = (a_plus - a_minus) / (2.0 * dt)
    lhs_err = (e_plus + e_minus) / (2.0 * dt)

    def h_rho_over_gradnorm(pts, gradnorms, floor):
        _, norms, hNN, H, _ = _level_curvature(base, pts, *base.jet(pts, 2)[1:])
        return (norms * H - hNN) / norms

    flux, rhs_err = mesh_quadrature(extract(base, t, domain, h), h_rho_over_gradnorm)
    rhs = -flux

    # central-difference truncation, second-order
    scale = max(abs(lhs), abs(rhs), 1.0)
    return _identity_report(lhs, lhs_err, rhs, rhs_err, extra_tol=dt**2 * scale,
                            details={"t": t, "dt": dt, "h": h})


def divergence_identity_check(field, t1, t2, domain=None, n_samples=10**6, seed=0,
                              h=0.01, workers=1):
    """Flux balance across the slab {t1 < f < t2}: level-set integrals of
    |grad f| (times rho in the weighted case) versus the volume integral
    of Delta f (resp. L f d sigma)."""
    if not t1 < t2:
        raise ValueError("need t1 < t2")
    base = field.base if isinstance(field, WeightedField) else field
    weighted = isinstance(field, WeightedField)
    if domain is None:
        domain = default_domain(field)
    if (
        isinstance(base, TrigEigenfunction)
        and base.flavor == BOX_DIRICHLET
        and np.sign(t1) != np.sign(t2)
    ):
        raise ValueError("Dirichlet case requires sgn(t1) = sgn(t2)")

    def weighted_flux(pts, gradnorms, floor):
        return gradnorms * field.weight_values(pts)

    lhs_weight = weighted_flux if weighted else None
    flux1, err1 = mesh_quadrature(extract(base, t1, domain, h), lhs_weight)
    flux2, err2 = mesh_quadrature(extract(base, t2, domain, h), lhs_weight)
    lhs = flux2 - flux1
    lhs_err = err2 + err1
    vol = domain.volume()
    n_samples = int(n_samples)

    def rhs_chunk(rng, size):
        # each chunk returns its slab hits: no state is shared between threads
        pts = domain.sample(size, rng)
        vals = base.value(pts)
        inside = (vals > t1) & (vals < t2)
        out = np.zeros(size)
        if inside.any():
            sub = pts[inside]
            if weighted:
                out[inside] = field.weighted_laplacian(sub) * field.weight_values(sub)
            else:
                out[inside] = base.laplacian(sub)
        v = vol * out
        return v.sum(), (v * v).sum(), int(inside.sum())

    chunks = _map_chunks(rhs_chunk, n_samples, seed, workers)
    slab_samples = sum(c[2] for c in chunks)
    if slab_samples == 0:
        raise LevelSetError(f"empty slab {{{t1} < f < {t2}}}")
    mean, se = _mean_and_se(chunks, n_samples)
    return _identity_report(lhs, lhs_err, mean, se,
                            details={"t1": t1, "t2": t2, "slab_samples": slab_samples})


# ---------------------------------------------------------------------------
# Monotonicity formula machinery


def _decrease_violation(vals):
    """Largest drop (earlier - later)_+ over all pairs of `vals`: 0 exactly
    when the sequence is non-decreasing."""
    run = np.maximum.accumulate(vals)
    return float(np.max(run[:-1] - vals[1:], initial=0.0))


def _monotone_report(grid, values, errors, direction):
    vals = np.asarray(values, dtype=float)
    if direction == "non-decreasing":
        violation = _decrease_violation(vals)
    elif direction == "non-increasing":
        violation = _decrease_violation(-vals)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    errors = np.asarray(errors, dtype=float)
    tolerance = 3.0 * float(errors.max(initial=0.0))
    return MonotonicityReport(
        grid=np.asarray(grid, dtype=float),
        values=vals,
        errors=errors,
        direction=direction,
        max_violation=violation,
        tolerance=tolerance,
        passed=violation <= tolerance,
    )


def _homogeneous_data(P):
    k = P.homogeneous_degree()
    if k is None:
        raise FieldError("expected a homogeneous polynomial")
    return P.dimension, k


def prop51_check(P, t0, r_grid, h=0.01, h_min=None, rel_tol=0.03):
    """Sphere-flux identity on {P = t0}: central differences of
    I(r) - k^2 t0^2 J(r) against (n+k-2) I(r) / r."""
    n, k = _homogeneous_data(P)
    if t0 == 0:
        raise ValueError("t0 must be a nonzero regular value")
    r_grid = np.asarray(r_grid, dtype=float)
    steps = np.diff(r_grid)
    if len(r_grid) < 3 or np.any(steps <= 0):
        raise ValueError("need an increasing r-grid with at least 3 points")
    dr = float(steps[0])
    if not np.allclose(steps, dr, rtol=1e-9):
        raise ValueError("r-grid must be uniform for central differences")

    def w_J(cents, gradnorms, floor):
        # near-critical facets are bounded by the flagging floor instead of failing
        return 1.0 / (_sq_norms(cents) * np.maximum(gradnorms, floor))

    (I, J), _, info = radial_profile(P, t0, r_grid, h=h, h_min=h / 8.0 if h_min is None else h_min,
                                     weight_fns=(None, w_J))
    G = I - k**2 * t0**2 * J
    dG = (G[2:] - G[:-2]) / (2.0 * dr)
    rhs = (n + k - 2) * I[1:-1] / r_grid[1:-1]
    scale = max(float(np.abs(rhs).max(initial=0.0)), 1e-300)
    rel = np.abs(dG - rhs) / np.maximum(np.abs(rhs), 1e-3 * scale)
    max_rel = float(rel.max(initial=0.0))
    return IdentityReport(
        lhs=float(dG[np.argmax(rel)]) if len(rel) else 0.0,
        lhs_error=0.0,
        rhs=float(rhs[np.argmax(rel)]) if len(rel) else 0.0,
        rhs_error=0.0,
        discrepancy=max_rel,
        rel_discrepancy=max_rel,
        tolerance=float(rel_tol),
        passed=max_rel <= rel_tol,
        details={
            "r": r_grid, "I": I, "J": J,
            "dG": dG, "rhs": rhs,
            "n_flagged_facets": info["n_flagged"],
        },
    )


def monotonicity_check(P, t, r_grid, h=0.02, h_min=None):
    """F(r) = I(r) / r^(n+k-2) for the level set {P = t}, checked to be
    non-decreasing within the error bounds of `radial_profile`."""
    n, k = _homogeneous_data(P)
    if k < 1:
        raise FieldError("degree must be at least 1")
    e = n + k - 2
    r_grid = np.asarray(r_grid, dtype=float)
    (I,), (bound,), _ = radial_profile(P, t, r_grid, h=h, h_min=h_min)
    F = I / r_grid**e
    errors = bound / r_grid**e + 1e-12 * max(float(F.max(initial=0.0)), 1.0)
    return _monotone_report(r_grid, F, errors, "non-decreasing")


def corollary_unimodality(P, t_grid, h=0.02):
    """psi(t) = int_{Z_t in B(0,1)} |grad P| over a t-grid: non-decreasing
    report on t <= 0, non-increasing on t >= 0."""
    n, k = _homogeneous_data(P)
    if k < 1:
        raise FieldError("degree must be at least 1")
    t_grid = np.asarray(t_grid, dtype=float)
    ball = Domain.ball([0.0] * n, 1.0)
    psi = np.empty(len(t_grid))
    err = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        psi[i], err[i] = mesh_quadrature(extract(P, float(t), ball, h))
    err += 1e-12
    neg = t_grid <= 0.0
    pos = t_grid >= 0.0
    rep_neg = _monotone_report(t_grid[neg], psi[neg], err[neg], "non-decreasing")
    rep_pos = _monotone_report(t_grid[pos], psi[pos], err[pos], "non-increasing")
    return rep_neg, rep_pos


def spherical_monotonicity(P, eps_grid, n_samples=10**6, seed=0):
    """Superlevel functional of the spherical restriction p on S^(n-1):
    eps^((n+k-2)/k) * int_{p >= eps} (|grad_S p|^2 + k^2 p^2) / p^((n+2k-2)/k),
    estimated with one shared Monte Carlo sample across the eps-grid."""
    n, k = _homogeneous_data(P)
    if k < 1:
        raise FieldError("degree must be at least 1")
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.any(eps_grid <= 0):
        raise ValueError("eps-grid must be positive")
    e_exp = (n + k - 2) / k
    gamma = (n + 2 * k - 2) / k
    area = _sphere_area(n)
    n_samples = int(n_samples)
    # a sample in cell c lies at or above exactly the c smallest thresholds, so the
    # sums over p >= eps are suffix sums of per-cell sums, read back in the
    # caller's order by rank (tied thresholds share one)
    sorted_eps = np.sort(eps_grid)
    rank = np.searchsorted(sorted_eps, eps_grid)

    def run(rng, size):
        p, g2 = spherical_values(P, _sphere_points(rng, size, n))
        g2 = np.maximum(g2, 0.0)
        positive = p > 0
        dens = np.zeros(size)
        dens[positive] = (g2[positive] + k**2 * p[positive] ** 2) / p[positive] ** gamma
        cell = np.searchsorted(sorted_eps, p, side="right")
        sums = []
        for w in (dens, dens * dens):
            suffix = np.cumsum(np.bincount(cell, weights=w, minlength=len(eps_grid) + 1)[::-1])
            sums.append(suffix[-2::-1][rank])  # entry i: cells i+1..E, where p >= sorted_eps[i]
        return tuple(sums)

    mean, se = _mean_and_se(_map_chunks(run, n_samples, seed), n_samples)
    values = eps_grid**e_exp * area * mean
    ses = eps_grid**e_exp * area * se
    return _monotone_report(eps_grid, values, ses, "non-increasing")


# ---------------------------------------------------------------------------
# Robin boundary remark


def _sphere_band_integral(P, t_lo, t_hi, nodes):
    """Deterministic integral of P over {t_lo < P < t_hi} on the unit sphere
    (n = 3 equal-area grid) or unit circle (n = 2)."""
    n = P.dimension
    t_amp = max(abs(t_lo), abs(t_hi))
    if n == 3:
        # cylindrical-area grid (dsigma = dz dphi); cells cut by the band
        # boundary are refined, so the indicator error is O(cell / refine)
        mz = max(128, int(round(math.sqrt(nodes / 2))))
        mphi = 2 * mz
        refine = 16
        dz, dphi = 2.0 / mz, 2.0 * math.pi / mphi

        def sphere_eval(Z, PHI):
            s = np.sqrt(np.maximum(1.0 - Z**2, 0.0))
            pts = np.stack([s * np.cos(PHI), s * np.sin(PHI), Z], axis=-1)
            return P.value(pts.reshape(-1, 3)).reshape(Z.shape)

        z_mid = -1.0 + (np.arange(mz) + 0.5) * dz
        phi_mid = (np.arange(mphi) + 0.5) * dphi
        V = sphere_eval(*np.meshgrid(z_mid, phi_mid, indexing="ij"))
        z_edge = -1.0 + np.arange(mz + 1) * dz
        phi_edge = np.arange(mphi + 1) * dphi
        C = sphere_eval(*np.meshgrid(z_edge, phi_edge, indexing="ij"))
        corners = np.stack([C[:-1, :-1], C[1:, :-1], C[:-1, 1:], C[1:, 1:], V])
        cmin, cmax = corners.min(axis=0), corners.max(axis=0)
        spread = cmax - cmin
        strad = ((cmin - spread <= t_lo) & (t_lo <= cmax + spread)) | (
            (cmin - spread <= t_hi) & (t_hi <= cmax + spread)
        )
        inside = (cmin > t_lo) & (cmax < t_hi) & ~strad
        integral = float(V[inside].sum()) * dz * dphi

        iz, ip = np.nonzero(strad)
        if len(iz):
            off = (np.arange(refine) + 0.5) / refine
            Zs = z_edge[iz][:, None, None] + off[None, :, None] * dz
            Ps = phi_edge[ip][:, None, None] + off[None, None, :] * dphi
            Zs, Ps = np.broadcast_arrays(Zs, Ps)
            vals = sphere_eval(Zs, Ps)
            band = (vals > t_lo) & (vals < t_hi)
            integral += float(vals[band].sum()) * dz * dphi / refine**2
        err = 2.0 * (dz / refine) * t_amp * (2.0 * math.pi) + 4.0 * math.pi * dz * dphi
        return integral, err
    if n == 2:
        m = max(4096, int(nodes))
        theta = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        wq = 2.0 * math.pi / m
        vals = P.value(pts)
        band = (vals > t_lo) & (vals < t_hi)
        integral = float(vals[band].sum() * wq)
        err = 4.0 * wq * t_amp
        return integral, err
    raise FieldError("sphere band quadrature supports n in {2, 3}")


def robin_identity_check(P, t1, t2, h=0.01, quad_nodes=10**6):
    """Robin-boundary flux identity on the unit ball for a solid harmonic:
    psi(t2) - psi(t1) = -k * int over the spherical band {t1 < P < t2}."""
    n, k = _homogeneous_data(P)
    if k < 1:
        raise FieldError("degree must be at least 1")
    if t1 == t2:
        return _identity_report(0.0, 0.0, 0.0, 0.0, details={"t1": t1, "t2": t2})
    if t1 * t2 <= 0:
        raise ValueError("t1 and t2 must have the same (nonzero) sign")
    lo, hi = min(t1, t2), max(t1, t2)
    ball = Domain.ball([0.0] * n, 1.0)

    psi2, err2 = mesh_quadrature(extract(P, t2, ball, h))
    psi1, err1 = mesh_quadrature(extract(P, t1, ball, h))
    lhs = psi2 - psi1
    band, band_err = _sphere_band_integral(P, lo, hi, quad_nodes)
    rhs = -k * band * (1.0 if t2 > t1 else -1.0)
    report = _identity_report(lhs, err1 + err2, rhs, k * band_err,
                              details={"t1": t1, "t2": t2, "psi_t1": psi1, "psi_t2": psi2})
    # the remark's sign statement: moving away from the nodal level shrinks psi
    expected_negative = 0 < t1 < t2
    expected_positive = t1 < t2 < 0
    sign_ok = (lhs < 0) if expected_negative else (lhs > 0) if expected_positive else True
    report.details["lhs_sign_ok"] = bool(sign_ok)
    if not sign_ok:
        report.passed = False
    return report


# ---------------------------------------------------------------------------
# Exploration: non-homogeneous harmonic nodal sets


def explore_general_monotonicity(f, x0, r_grid, h=0.02):
    """Tabulate r -> r^-e * int_{Z_0 in B(x0, r)} |grad f| for the candidate
    exponents e in {n - 1, n + k - 2}, k the degree of f, with local log-log
    slopes and monotone-violation counts.

    Exploratory output only; no pass/fail is attached.
    """
    if not isinstance(f, SparsePolynomial):
        raise FieldError("exploration requires a polynomial field")
    if not f.laplacian_poly().is_zero():
        raise FieldError("field must be exactly harmonic")
    x0 = np.asarray(x0, dtype=float)
    if abs(float(f.value(x0))) > 1e-10:
        raise FieldError("x0 must lie on the nodal set (|f(x0)| <= 1e-10)")
    n = f.dimension
    k_top = f.total_degree()
    exponents = sorted({n - 1, n + k_top - 2})
    r_grid = np.asarray(r_grid, dtype=float)

    (I,), _, info = radial_profile(f, 0.0, r_grid, center=x0, h=h)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(r_grid)
        log_I = np.where(I > 0, np.log(np.maximum(I, 1e-300)), np.nan)
        slopes = np.diff(log_I) / np.diff(log_r)

    table = {
        "r": r_grid,
        "I": I,
        "loglog_slopes": slopes,
        "exponents": {},
        "n_facets": info["n_facets"],
        "n_flagged": info["n_flagged"],
    }
    for e in exponents:
        vals = I / r_grid ** float(e)
        drop = np.diff(vals)
        # count strict decreases beyond round-off
        tol = 1e-12 * max(float(np.abs(vals).max(initial=0.0)), 1.0)
        table["exponents"][float(e)] = {
            "values": vals,
            "violations": int((drop < -tol).sum()),
        }
    return table
