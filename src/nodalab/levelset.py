"""Level-set extraction and weighted (n-1)-dimensional quadrature.

Meshes for {f = t} are built on a uniform grid by one Kuhn-simplex
marcher for 2D and 3D: each cell splits into the n! simplices of the axis
permutations, and each distinct crossing grid edge is bisected once and
shared by the facets that meet it.  Domain clipping uses recursive facet
subdivision and centroid classification, an O(h) geometric error model.
Radial profiles refine facets to diameter h_min in closed form, from one
barycentric sub-facet centroid table per (vertices per facet, depth).
A coarea thin-shell Monte Carlo estimator gives level-set integrals by an
independent method, to check the meshes against.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .fields import FieldError

# irrational grid-origin shift: keeps level values off the grid nodes
_GRID_SHIFT = 0.2360679774997897
# first-order quadrature error model: |error| <= this * h * sum(area*|w|)
MESH_ERR_COEFF = 0.5
# facets with |grad f| below this fraction of the mesh gradient scale are flagged
NEAR_CRITICAL_FRACTION = 1e-6

_BISECT_STEPS = 30
_MC_CHUNK = 1 << 17


class LevelSetError(ValueError):
    """Raised on invalid level-set requests."""


# ---------------------------------------------------------------------------
# Domains


def _sphere_points(rng, n, d):
    """n uniform points on the unit sphere S^(d-1): normalised Gaussians."""
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


def _sphere_area(d):
    """|S^(d-1)| = 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


@dataclass(frozen=True)
class Domain:
    """Box, ball, or unit torus cell in R^n."""

    kind: str
    dimension: int
    lo: tuple = ()
    hi: tuple = ()
    center: tuple = ()
    radius: float = 0.0

    @classmethod
    def box(cls, lo, hi):
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        if len(lo) != len(hi) or not all(-math.inf < a < b < math.inf for a, b in zip(lo, hi)):
            raise LevelSetError("box needs finite lo < hi componentwise")
        return cls(kind="box", dimension=len(lo), lo=lo, hi=hi)

    @classmethod
    def ball(cls, center, radius):
        center = tuple(float(v) for v in np.atleast_1d(center))
        if not (0 < radius < math.inf and all(map(math.isfinite, center))):
            raise LevelSetError("ball needs a finite center and a finite positive radius")
        return cls(kind="ball", dimension=len(center), center=center, radius=float(radius))

    @classmethod
    def torus(cls, dimension):
        if not (dimension >= 1 and dimension % 1 == 0):
            raise LevelSetError(f"torus dimension must be a positive whole number, got {dimension!r}")
        dimension = int(dimension)
        return cls(
            kind="torus",
            dimension=dimension,
            lo=(0.0,) * dimension,
            hi=(1.0,) * dimension,
        )

    def bbox(self):
        if self.kind == "ball":
            c = np.array(self.center)
            return c - self.radius, c + self.radius
        return np.array(self.lo), np.array(self.hi)

    def volume(self):
        if self.kind == "ball":
            n = self.dimension
            return math.pi ** (n / 2) * self.radius**n / math.gamma(n / 2 + 1)
        lo, hi = self.bbox()
        return float(np.prod(hi - lo))

    def diameter(self):
        if self.kind == "ball":
            return 2.0 * self.radius
        lo, hi = self.bbox()
        return float(np.linalg.norm(hi - lo))

    def sample(self, n, rng):
        """n uniform points as an (n, dim) array, scaled and shifted in place."""
        d = self.dimension
        if self.kind == "ball":
            dirs = _sphere_points(rng, n, d)
            dirs *= (self.radius * rng.random(n) ** (1.0 / d))[:, None]
            dirs += self.center
            return dirs
        lo, hi = self.bbox()
        r = rng.random((n, d))
        r *= hi - lo
        r += lo
        return r

    def signed_distance(self, X):
        """Negative inside, positive outside; -inf everywhere for the torus."""
        X = np.atleast_2d(X)
        if self.kind == "torus":
            return np.full(len(X), -np.inf)
        if self.kind == "ball":
            return np.linalg.norm(X - np.array(self.center), axis=1) - self.radius
        lo, hi = self.bbox()
        return np.maximum(lo - X, X - hi).max(axis=1)

    def to_json(self):
        if self.kind == "ball":
            return {"kind": "ball", "center": list(self.center), "radius": self.radius}
        if self.kind == "torus":
            return {"kind": "torus", "dimension": self.dimension}
        return {"kind": "box", "lo": list(self.lo), "hi": list(self.hi)}

    @classmethod
    def from_json(cls, doc):
        kind = doc["kind"]
        if kind == "ball":
            return cls.ball(doc["center"], doc["radius"])
        if kind == "torus":
            return cls.torus(doc["dimension"])
        if kind == "box":
            return cls.box(doc["lo"], doc["hi"])
        raise LevelSetError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# Report records and Monte Carlo estimates


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


class JsonRecord:
    """Dataclass mixin: `to_json` maps every field through `_jsonable`."""

    def to_json(self):
        return {f.name: _jsonable(getattr(self, f.name)) for f in dataclass_fields(self)}


@dataclass(frozen=True)
class MCEstimate(JsonRecord):
    """Monte Carlo value with a standard error from the sample variance."""

    value: float
    standard_error: float
    n_samples: int
    seed: int


def _chunk_rng(seed, chunk):
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, chunk]))


def _map_chunks(fn, n_samples, seed, workers=1):
    """[fn(rng, size) for each chunk of n_samples], in chunk order.

    Chunk i holds up to _MC_CHUNK samples drawn from its own generator
    `_chunk_rng(seed, i)`; worker threads only split the chunks, so a caller
    that reduces the results in order is independent of `workers`.
    """
    sizes = [min(_MC_CHUNK, n_samples - start) for start in range(0, n_samples, _MC_CHUNK)]
    rngs = [_chunk_rng(seed, i) for i in range(len(sizes))]
    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, rngs, sizes))
    return list(map(fn, rngs, sizes))


def mc_mean(domain, integrand, n_samples, seed, workers=1):
    """Chunked MC mean of `integrand` over uniform points; worker-count independent."""
    n_samples = int(n_samples)

    def run(rng, size):
        v = np.asarray(integrand(domain.sample(size, rng)), dtype=float)
        return v.sum(), (v * v).sum()

    return _mean_and_se(_map_chunks(run, n_samples, seed, workers), n_samples)


def _mean_and_se(chunks, n_samples):
    """Elementwise mean and standard error from per-chunk (sum, sum of squares, ...) in chunk order."""
    mean = sum(c[0] for c in chunks) / n_samples
    var = np.maximum(sum(c[1] for c in chunks) / n_samples - mean * mean, 0.0)
    return mean, np.sqrt(var / n_samples)


def thin_shell(field, t, g, domain, delta, n_samples, seed, workers=1):
    """Coarea thin-shell estimate of the level-set integral of g over {f = t}.

    Uses int_{Z_t} g ~= (2 delta)^{-1} int_{|f-t|<delta} g |grad f|; bias is
    O(delta^2) at regular values.  A delta so large that the shell is
    dominated by critical points is not detected.  `g` is a weight as in
    `_apply_weight`, called with floor 0.
    """
    if delta <= 0:
        raise LevelSetError("delta must be positive")
    n_samples = int(n_samples)
    if n_samples < 1000:
        raise LevelSetError("need at least 10^3 samples")
    vol = domain.volume()

    def integrand(pts):
        inside = np.abs(field.value(pts) - t) < delta
        out = np.zeros(len(pts))
        if inside.any():
            sub = pts[inside]
            grads = field.grad_norm(sub)
            out[inside] = _apply_weight(g, sub, grads, 0.0) * grads
        return vol * out / (2.0 * delta)

    mean, se = mc_mean(domain, integrand, n_samples, seed, workers)
    return MCEstimate(value=mean, standard_error=se, n_samples=n_samples, seed=int(seed))


def default_shell_width(domain):
    """0.5e-3 of the domain diameter: O(delta^2) bias below MC noise at N=1e6."""
    return 0.5 * domain.diameter() * 1e-3


# ---------------------------------------------------------------------------
# Meshes


@dataclass
class LevelSetMesh:
    """Facets of {f = t} with areas, centroids and |grad f| samples."""

    level: float
    dimension: int
    resolution: float
    vertices: np.ndarray  # (F, verts_per_facet, dim)
    areas: np.ndarray  # (F,)
    centroids: np.ndarray  # (F, dim)
    gradnorms: np.ndarray  # (F,)
    n_flagged: int = 0

    @property
    def n_facets(self):
        return len(self.areas)

    def is_empty(self):
        return self.n_facets == 0


def _apply_weight(weight, pts, gradnorms, floor):
    """The one weight protocol of the level-set integrals: None is |grad f|
    (the `gradnorms` sampled at `pts`), anything else a callable
    (pts, gradnorms, floor) -> weights, floor being the |grad f| below which
    a point counts as near-critical."""
    return gradnorms if weight is None else weight(pts, gradnorms, floor)


def mesh_quadrature(mesh, weight=None):
    """(sum(area * w), MESH_ERR_COEFF * h * sum(area * |w|)): the level-set
    integral of `weight` by facet centroids and its first-order error bound.

    `weight` is as in `_apply_weight`: None takes the stored facet samples of
    |grad f|, a callable gets the centroids, those samples and the mesh's
    `_critical_floor`.
    """
    if mesh.is_empty():
        return 0.0, 0.0
    w = _apply_weight(weight, mesh.centroids, mesh.gradnorms, _critical_floor(mesh.gradnorms))
    return (float((mesh.areas * w).sum()),
            MESH_ERR_COEFF * mesh.resolution * float((mesh.areas * np.abs(w)).sum()))


def weighted_area(mesh, weight=None):
    """Level-set integral of `weight` (default |grad f|) by `mesh_quadrature`."""
    return mesh_quadrature(mesh, weight)[0]


def weighted_area_error_bound(mesh, weight=None):
    """Error bound of `weighted_area` by `mesh_quadrature`."""
    return mesh_quadrature(mesh, weight)[1]


def _critical_floor(gradnorms):
    """|grad f| below which a facet counts as near-critical:
    NEAR_CRITICAL_FRACTION of the largest sample (0 for none)."""
    return NEAR_CRITICAL_FRACTION * float(gradnorms.max()) if len(gradnorms) else 0.0


def _facet_geometry(verts):
    """(areas, centroids) of `extract`'s facets: segments (nv=2) in 2D, triangles (nv=3) in 3D."""
    centroids = verts.mean(axis=1)
    if verts.shape[1] == 2:
        areas = np.linalg.norm(verts[:, 1] - verts[:, 0], axis=1)
    else:
        cross = np.cross(verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0])
        areas = 0.5 * np.linalg.norm(cross, axis=-1)
    return areas, centroids


def _facet_diameters(verts):
    if verts.shape[1] == 2:
        return np.linalg.norm(verts[:, 1] - verts[:, 0], axis=1)
    a = np.linalg.norm(verts[:, 1] - verts[:, 0], axis=1)
    b = np.linalg.norm(verts[:, 2] - verts[:, 1], axis=1)
    c = np.linalg.norm(verts[:, 0] - verts[:, 2], axis=1)
    return np.maximum(a, np.maximum(b, c))


def _split_facets(verts):
    """Halve segments, quadrisect triangles."""
    if verts.shape[1] == 2:
        mid = 0.5 * (verts[:, 0] + verts[:, 1])
        return np.concatenate(
            [
                np.stack([verts[:, 0], mid], axis=1),
                np.stack([mid, verts[:, 1]], axis=1),
            ]
        )
    m01 = 0.5 * (verts[:, 0] + verts[:, 1])
    m12 = 0.5 * (verts[:, 1] + verts[:, 2])
    m02 = 0.5 * (verts[:, 0] + verts[:, 2])
    return np.concatenate(
        [
            np.stack([verts[:, 0], m01, m02], axis=1),
            np.stack([m01, verts[:, 1], m12], axis=1),
            np.stack([m02, m12, verts[:, 2]], axis=1),
            np.stack([m01, m12, m02], axis=1),
        ]
    )


def _subfacet_centroids(nv, depth):
    """Barycentric centroids of the 2^((nv-1) depth) sub-facets that `depth`
    rounds of `_split_facets` cut from a facet with nv vertices."""
    verts = np.eye(nv)[None]
    for _ in range(depth):
        verts = _split_facets(verts)
    return verts.mean(axis=1)


def streamed_radial_sums(field, mesh, center, r_grid, h_min, weight_fns):
    """Cumulative radial profiles of the mesh refined to facet diameter h_min.

    A facet of depth L (the least L >= 0 with diam / 2^L <= h_min) splits into
    2^((n-1)L) congruent sub-facets: centroids `_subfacet_centroids(n, L)`,
    area / 2^((n-1)L) each.  None is built; the centroids go, at most
    _MC_CHUNK at a time, to `field.grad_norm` and into the `r_grid` cells by
    distance from `center`, and each weight of `weight_fns` (as in
    `_apply_weight`, with the mesh's `_critical_floor`) is integrated;
    |grad f| below that floor is flagged.  Returns (profiles, bounds,
    n_flagged), each bound the cumulative `mesh_quadrature` error bound
    MESH_ERR_COEFF * h * sum(area * |w|) of its profile."""
    r_grid = np.asarray(r_grid, dtype=float)
    bins = len(r_grid)
    sums = [np.zeros(bins) for _ in weight_fns]
    abs_sums = [np.zeros(bins) for _ in weight_fns]
    floor = _critical_floor(mesh.gradnorms)
    flagged = 0
    nv = mesh.vertices.shape[1]
    # L = ceil(log2(diam / h_min)) without round-off: diam / h_min = m 2^e, m in [0.5, 1)
    mant, expo = np.frexp(_facet_diameters(mesh.vertices) / h_min)
    depths = np.maximum(expo - (mant == 0.5), 0)
    for depth in np.unique(depths).tolist():
        table = _subfacet_centroids(nv, depth)
        verts = mesh.vertices[depths == depth]
        areas = np.ldexp(mesh.areas[depths == depth], -(nv - 1) * depth)
        # whole tables of several facets per batch, or slices of one facet's table
        step = max(1, _MC_CHUNK // len(table))
        for f0, s0 in itertools.product(range(0, len(verts), step), range(0, len(table), _MC_CHUNK)):
            part = table[s0:s0 + _MC_CHUNK]
            cents = (part @ verts[f0:f0 + step]).reshape(-1, mesh.dimension)
            gradnorms = field.grad_norm(cents)
            flagged += int((gradnorms < floor).sum())  # none when floor is 0
            idx = np.searchsorted(r_grid, np.linalg.norm(cents - center, axis=1), side="left")
            for s, a, fn in zip(sums, abs_sums, weight_fns):
                # in place: no name keeps the weights alive, and |contrib| needs no second array
                contrib = np.repeat(areas[f0:f0 + step], len(part))
                contrib *= _apply_weight(fn, cents, gradnorms, floor)
                s += np.bincount(idx, weights=contrib, minlength=bins + 1)[:bins]
                a += np.bincount(idx, weights=np.abs(contrib, out=contrib), minlength=bins + 1)[:bins]
    coeff = MESH_ERR_COEFF * mesh.resolution
    return [np.cumsum(s) for s in sums], [coeff * np.cumsum(a) for a in abs_sums], flagged


def _clip_facets(verts, domain, h_min):
    """Keep facet parts inside the domain: subdivide near the boundary,
    classify by centroid.  Geometric error is O(h_min) in the boundary band."""
    if domain.kind == "torus" or len(verts) == 0:
        return verts
    kept = []
    work = verts
    while len(work):
        diam = _facet_diameters(work)
        sd = domain.signed_distance(work.mean(axis=1))
        inside = sd < -diam
        outside = sd > diam
        boundary = ~(inside | outside)
        kept.append(work[inside])
        small = boundary & (diam <= h_min)
        kept.append(work[small & (sd < 0)])
        work = work[boundary & (diam > h_min)]
        if len(work):
            work = _split_facets(work)
    return np.concatenate(kept) if kept else verts[:0]


# -- grid + bisection -------------------------------------------------------


def _grid_axes(domain, h):
    lo, hi = domain.bbox()
    axes = []
    for d in range(domain.dimension):
        if domain.kind == "torus":
            cells = max(2, round((hi[d] - lo[d]) / h))
            step = (hi[d] - lo[d]) / cells
            start = lo[d] - _GRID_SHIFT * step
            axes.append(start + step * np.arange(cells + 1))
        else:
            start = lo[d] - _GRID_SHIFT * h
            cells = int(math.ceil((hi[d] - start) / h)) + 1
            axes.append(start + h * np.arange(cells + 1))
    return axes


def _bisect_edges(field, t, lo, hi):
    """Locate f = t along edges from f < t points `lo` to f >= t points `hi`."""
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        neg = (field.value(mid) - t) < 0
        lo = np.where(neg[:, None], mid, lo)
        hi = np.where(neg[:, None], hi, mid)
    return 0.5 * (lo + hi)


def _simplex_facets(n):
    """Facets of {f = t} in an n-simplex, per sign code of its n+1 corners
    (bit k set: f >= t at corner k), as (F, n, 2) arrays of crossing edges,
    each edge a (negative corner, positive corner) pair."""
    table = {}
    for code in range(1, 2 ** (n + 1) - 1):
        first = code & 1
        # corner 0's side against the other side; k positive corners cut k(n+1-k) edges
        same = [c for c in range(n + 1) if (code >> c) & 1 == first]
        other = [c for c in range(n + 1) if (code >> c) & 1 != first]
        edges = [(b, a) if first else (a, b) for a in same for b in other]
        if len(edges) == n:  # segment in 2D, triangle in 3D
            facets = [edges]
        else:  # 2-2 split in 3D: quad (a0b0, a0b1, a1b1, a1b0) cut along a0b0-a1b1
            facets = [[edges[0], edges[1], edges[3]], [edges[0], edges[3], edges[2]]]
        table[code] = np.array(facets)
    return table


_SIMPLEX_FACETS = {n: _simplex_facets(n) for n in (2, 3)}


def _extract_grid(field, t, axes):
    """(F, n, n) facet vertices of {f = t} on the grid `axes`, n in {2, 3}.

    Each grid cell is split into the n! Kuhn simplices of the permutations of
    the axes (consistent across cells); each distinct crossing grid edge is
    bisected once and shared by the facets that meet it.
    """
    n = len(axes)
    shape = tuple(len(a) for a in axes)
    # signs of f - t (zero counts as positive), evaluated in blocks of whole
    # planes along the last axis so that a block holds about _MC_CHUNK points
    positive = np.empty(shape, dtype=bool)
    step = max(1, _MC_CHUNK // math.prod(shape[:-1]))
    for k in range(0, shape[-1], step):
        block = np.meshgrid(*axes[:-1], axes[-1][k : k + step], indexing="ij")
        pts = np.stack([g.ravel() for g in block], axis=1)
        positive[..., k : k + step] = (field.value(pts) - t >= 0).reshape(block[0].shape)

    # cells with corners of both signs
    n_pos = np.zeros(tuple(s - 1 for s in shape), dtype=np.uint8)
    for corner in itertools.product((0, 1), repeat=n):
        n_pos += positive[tuple(slice(c, s - 1 + c) for c, s in zip(corner, shape))]
    cells = np.ravel_multi_index(np.nonzero((n_pos > 0) & (n_pos < 2**n)), shape)

    strides = np.array([math.prod(shape[d + 1 :]) for d in range(n)])
    offsets = np.array([np.cumsum([0, *strides[list(p)]]) for p in itertools.permutations(range(n))])
    corners = (cells[:, None, None] + offsets).reshape(-1, n + 1)
    codes = positive.ravel()[corners] @ (1 << np.arange(n + 1))
    # (F, n, 2) flat grid indices of the crossing edges of each facet
    edges = np.concatenate(
        [corners[codes == c][:, facets].reshape(-1, n, 2) for c, facets in _SIMPLEX_FACETS[n].items()]
    )
    size = math.prod(shape)
    keys, inverse = np.unique(edges[..., 0] * size + edges[..., 1], return_inverse=True)

    def coords(flat):
        return np.stack([a[i] for a, i in zip(axes, np.unravel_index(flat, shape))], axis=1)

    verts = np.empty((len(keys), n))
    for start in range(0, len(keys), _MC_CHUNK):
        lo, hi = np.divmod(keys[start : start + _MC_CHUNK], size)
        verts[start : start + _MC_CHUNK] = _bisect_edges(field, t, coords(lo), coords(hi))
    return verts[inverse.reshape(edges.shape[:2])]


def extract(field, t, domain, h, h_min=None):
    """Mesh of {f = t} intersected with the domain at grid resolution h.

    Vertices are located by up to 30 bisection steps of f - t along grid
    edges; facet |grad f| is sampled at centroids.  Dimensions 2 and 3.
    """
    n = field.dimension
    if n != domain.dimension:
        raise FieldError("field/domain dimension mismatch")
    if n not in (2, 3):
        raise LevelSetError(f"mesh extraction supports dimensions 2 and 3, not {n}")
    if not (math.isfinite(h) and h > 0):
        raise LevelSetError(f"resolution must be finite and positive, got {h!r}")
    if h_min is None:
        h_min = h / 4.0

    axes = _grid_axes(domain, h)
    verts = _extract_grid(field, t, axes)
    verts = _clip_facets(verts, domain, h_min)
    areas, centroids = _facet_geometry(verts)
    keep = areas > 0
    verts, areas, centroids = verts[keep], areas[keep], centroids[keep]
    gradnorms = field.grad_norm(centroids)
    floor = _critical_floor(gradnorms)
    n_flagged = int((gradnorms < floor).sum()) if floor > 0 else 0
    return LevelSetMesh(
        level=float(t),
        dimension=n,
        resolution=float(h),
        vertices=verts,
        areas=areas,
        centroids=centroids,
        gradnorms=gradnorms,
        n_flagged=n_flagged,
    )


# ---------------------------------------------------------------------------
# Radial profiles


def radial_profile(field, t, r_grid, center=None, h=0.02, h_min=None, weight_fns=(None,)):
    """Cumulative profiles I(r_j) = integral over {f = t} within the ball
    B(center, r_j) of each weight in `weight_fns` (each None for |grad f| or
    a callable (centroids, gradnorms, floor) -> weights, as in
    `_apply_weight`), with their cumulative error bounds
    MESH_ERR_COEFF * h * sum(area * |w|).

    One `extract` mesh of the largest ball, at resolution h, is refined to
    facet diameter h_min (default h / 4) and binned by centroid radius, so a
    profile of a non-negative weight is non-decreasing in j.  Dimensions 2
    and 3, as `extract`.  Returns (profiles, bounds, {"n_facets",
    "n_flagged"}).
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or len(r_grid) == 0 or np.any(np.diff(r_grid) <= 0) or r_grid[0] <= 0:
        raise LevelSetError("r-grid must be strictly increasing and positive")
    center = np.zeros(field.dimension) if center is None else np.asarray(center, dtype=float)
    if h_min is None:
        h_min = h / 4.0
    mesh = extract(field, t, Domain.ball(center, float(r_grid[-1])), h, h_min=h_min)
    profiles, bounds, flagged = streamed_radial_sums(field, mesh, center, r_grid, h_min, weight_fns)
    return profiles, bounds, {"n_facets": mesh.n_facets, "n_flagged": flagged}
