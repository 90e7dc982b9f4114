"""Domains, Monte Carlo quadrature, mesh extraction and radial profiles."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nodalab.fields import ScalarField, SparsePolynomial, make_torus_eigenfunction
from nodalab.levelset import (
    _MC_CHUNK,
    MESH_ERR_COEFF,
    Domain,
    LevelSetError,
    _critical_floor,
    _grid_axes,
    _sphere_area,
    _sphere_points,
    _split_facets,
    _subfacet_centroids,
    default_shell_width,
    extract,
    mc_mean,
    mesh_quadrature,
    radial_profile,
    streamed_radial_sums,
    thin_shell,
    weighted_area,
    weighted_area_error_bound,
)

CIRCLE = SparsePolynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
SPHERE = SparsePolynomial(3, {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)})
X3 = SparsePolynomial(3, {(0, 0, 1): Fraction(1)})


class TestDomain:
    def test_volumes(self):
        assert Domain.box([0, 0], [2, 3]).volume() == pytest.approx(6.0)
        assert Domain.ball([0, 0], 1.0).volume() == pytest.approx(math.pi)
        assert Domain.ball([0, 0, 0], 2.0).volume() == pytest.approx(4 / 3 * math.pi * 8)
        assert Domain.torus(2).volume() == pytest.approx(1.0)

    def test_diameters(self):
        assert Domain.ball([1, 1], 0.5).diameter() == pytest.approx(1.0)
        assert Domain.box([0, 0], [1, 1]).diameter() == pytest.approx(math.sqrt(2))

    def test_sampling_stays_inside(self):
        rng = np.random.default_rng(0)
        for dom in (Domain.ball([0.5, -1], 2.0), Domain.box([0, 0, 0], [1, 2, 3])):
            pts = dom.sample(5000, rng)
            assert pts.shape == (5000, dom.dimension)
            assert (dom.signed_distance(pts) < 0).all()

    @pytest.mark.parametrize("dom", [Domain.box([-1.0, 0.5], [2.0, 0.75]), Domain.torus(2),
                                     Domain.ball([0.5, -1.0, 3.0], 1.5)], ids=["box", "torus", "ball"])
    def test_sampling_in_place_keeps_the_bits(self, dom):
        # scaling and shifting in place is the same arithmetic as lo + r (hi - lo)
        # and center + dirs radii, so a seed gives the same points
        got = dom.sample(1000, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        if dom.kind == "ball":
            dirs = _sphere_points(rng, 1000, 3)
            radii = dom.radius * rng.random(1000) ** (1.0 / 3)
            expected = np.array(dom.center) + dirs * radii[:, None]
        else:
            lo, hi = dom.bbox()
            expected = lo + rng.random((1000, 2)) * (hi - lo)
        assert np.array_equal(got, expected)

    def test_ball_sampling_is_uniform(self):
        # fraction inside half the radius should be (1/2)^n
        rng = np.random.default_rng(1)
        dom = Domain.ball([0.0, 0.0], 1.0)
        pts = dom.sample(200_000, rng)
        frac = (np.linalg.norm(pts, axis=1) < 0.5).mean()
        assert frac == pytest.approx(0.25, abs=0.01)

    @pytest.mark.parametrize("d, area", [(1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi), (4, 2 * math.pi**2)])
    def test_unit_sphere_area_and_points(self, d, area):
        assert _sphere_area(d) == pytest.approx(area, rel=1e-15)
        pts = _sphere_points(np.random.default_rng(0), 1000, d)
        assert pts.shape == (1000, d)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_signed_distance(self):
        dom = Domain.ball([0.0, 0.0], 1.0)
        assert dom.signed_distance(np.array([[0.0, 0.0]]))[0] == pytest.approx(-1.0)
        assert dom.signed_distance(np.array([[2.0, 0.0]]))[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("make", [
        lambda: Domain.box([0, 0], [1, math.inf]),
        lambda: Domain.box([math.nan, 0], [1, 1]),
        lambda: Domain.ball([0, 0], math.nan),
        lambda: Domain.ball([0, 0], math.inf),
        lambda: Domain.ball([math.inf, 0], 1.0),
        lambda: Domain.torus(2.5),
        lambda: Domain.torus(math.nan),
        lambda: Domain.torus(0),
        lambda: Domain.from_json({"kind": "sphere", "center": [0, 0], "radius": 1}),
    ], ids=["box-inf", "box-nan", "ball-nan-radius", "ball-inf-radius", "ball-inf-center",
            "torus-fraction", "torus-nan", "torus-zero", "unknown-kind"])
    def test_invalid_domains_rejected(self, make):
        with pytest.raises(LevelSetError):
            make()

    def test_json_round_trip(self):
        for dom in (Domain.ball([0.5, 1.0], 2.0), Domain.box([0, 0], [1, 2]), Domain.torus(3)):
            clone = Domain.from_json(dom.to_json())
            assert clone.kind == dom.kind
            assert clone.dimension == dom.dimension
            assert clone.volume() == pytest.approx(dom.volume())


class TestMonteCarlo:
    def test_mc_mean_box_coordinate(self):
        dom = Domain.box([0, 0], [1, 1])
        mean, se = mc_mean(dom, lambda p: p[:, 0], 400_000, seed=3)
        assert abs(mean - 0.5) < 4 * se

    def test_worker_count_does_not_change_result(self):
        dom = Domain.ball([0.0, 0.0], 1.0)
        r1 = mc_mean(dom, lambda p: p[:, 0] ** 2, 300_000, seed=5, workers=1)
        r4 = mc_mean(dom, lambda p: p[:, 0] ** 2, 300_000, seed=5, workers=4)
        assert r1 == r4

    def test_seed_determinism(self):
        dom = Domain.torus(2)
        a = mc_mean(dom, lambda p: np.sin(p[:, 0]), 100_000, seed=9)
        b = mc_mean(dom, lambda p: np.sin(p[:, 0]), 100_000, seed=9)
        assert a == b

    def test_thin_shell_circle_length(self):
        dom = Domain.box([-1, -1], [1, 1])
        est = thin_shell(CIRCLE, 0.25, lambda p, g, floor: np.ones(len(p)), dom,
                         default_shell_width(dom), 10**6, seed=0)
        assert abs(est.value - math.pi) < 4 * est.standard_error

    def test_thin_shell_weight_gets_points_gradnorms_and_zero_floor(self):
        dom = Domain.box([-1, -1], [1, 1])
        seen = []

        def weight(pts, gradnorms, floor):
            seen.append(floor)
            assert np.allclose(gradnorms, CIRCLE.grad_norm(pts), rtol=1e-12)
            return gradnorms

        est = thin_shell(CIRCLE, 0.25, weight, dom, default_shell_width(dom), 10**4, seed=1)
        assert est == thin_shell(CIRCLE, 0.25, None, dom, default_shell_width(dom), 10**4, seed=1)
        assert seen and set(seen) == {0.0}

    def test_thin_shell_none_weight_uses_gradnorm(self):
        # int_{|x|^2 = 1/4} |grad| = 2 * 0.5 * (2 pi 0.5) = pi
        dom = Domain.box([-1, -1], [1, 1])
        est = thin_shell(CIRCLE, 0.25, None, dom, default_shell_width(dom), 10**6, seed=1)
        assert abs(est.value - math.pi) < 4 * est.standard_error

    def test_thin_shell_validates_inputs(self):
        dom = Domain.box([-1, -1], [1, 1])
        with pytest.raises(LevelSetError):
            thin_shell(CIRCLE, 0.25, None, dom, -0.1, 10**6, seed=0)
        with pytest.raises(LevelSetError):
            thin_shell(CIRCLE, 0.25, None, dom, 0.01, 10, seed=0)


class TestExtraction:
    def test_circle_length(self):
        m = extract(CIRCLE, 0.25, Domain.box([-1, -1], [1, 1]), 0.01)
        assert m.areas.sum() == pytest.approx(math.pi, rel=1e-3)

    def test_sphere_area(self):
        m = extract(SPHERE, 0.25, Domain.box([-1] * 3, [1] * 3), 0.04)
        assert m.areas.sum() == pytest.approx(math.pi, rel=5e-3)
        assert m.centroids.shape == (m.n_facets, 3)
        # centroids lie near the sphere of radius 1/2
        assert np.allclose(np.linalg.norm(m.centroids, axis=1), 0.5, atol=0.03)

    def test_ball_clipping_chord(self):
        line = SparsePolynomial(2, {(1, 0): Fraction(1)})
        m = extract(line, 0.5, Domain.ball([0.0, 0.0], 1.0), 0.01)
        assert m.areas.sum() == pytest.approx(math.sqrt(3), rel=2e-3)

    def test_ball_clipping_disc(self):
        m = extract(X3, 0.0, Domain.ball([0.0, 0.0, 0.0], 1.0), 0.05)
        assert m.areas.sum() == pytest.approx(math.pi, rel=5e-3)

    def test_torus_periodic_level(self):
        f = make_torus_eigenfunction([((1, 0), 0.0, 1.0)])
        m = extract(f, 0.5, Domain.torus(2), 0.01)
        assert m.areas.sum() == pytest.approx(2.0, rel=1e-6)
        # weighted by |grad f|: 4 pi sqrt(1 - t^2)
        assert weighted_area(m) == pytest.approx(4 * math.pi * math.sqrt(0.75), rel=1e-4)

    def test_empty_level(self):
        m = extract(CIRCLE, -1.0, Domain.box([-1, -1], [1, 1]), 0.05)
        assert m.is_empty()
        assert weighted_area(m) == 0.0
        assert weighted_area_error_bound(m) == 0.0
        torus = make_torus_eigenfunction([((1, 0), 0.0, 1.0)])
        for field, t, dom in ((CIRCLE, -1.0, Domain.box([-1, -1], [1, 1])),
                              (SPHERE, -1.0, Domain.ball([0.0, 0.0, 0.0], 1.0)),
                              (torus, 2.0, Domain.torus(2))):
            m = extract(field, t, dom, 0.05)
            n = field.dimension
            assert m.vertices.shape == (0, n, n)
            assert m.areas.shape == (0,) and m.centroids.shape == (0, n) and m.gradnorms.shape == (0,)
            assert m.n_flagged == 0
            assert mesh_quadrature(m) == (0.0, 0.0)

    def test_quadrature_weight_protocol(self):
        m = extract(CIRCLE, 0.25, Domain.box([-1, -1], [1, 1]), 0.02)
        floors = []

        def signed(pts, gradnorms, floor):
            floors.append(floor)
            return np.where(pts[:, 0] > 0, gradnorms, -gradnorms)

        value, bound = mesh_quadrature(m, signed)
        assert floors == [_critical_floor(m.gradnorms)]
        # the halves cancel; the bound integrates |w| = |grad f|
        assert abs(value) < 1e-2 * weighted_area(m)
        assert bound == weighted_area_error_bound(m)
        assert bound == MESH_ERR_COEFF * m.resolution * float((m.areas * m.gradnorms).sum())

    def test_non_finite_resolution_raises(self):
        for h in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(LevelSetError):
                extract(CIRCLE, 0.25, Domain.box([-1, -1], [1, 1]), h)

    def test_gradnorms_match_field(self):
        m = extract(CIRCLE, 0.25, Domain.box([-1, -1], [1, 1]), 0.02)
        assert np.allclose(m.gradnorms, CIRCLE.grad_norm(m.centroids), rtol=1e-12)

    def test_error_bound_scales_with_h(self):
        m1 = extract(CIRCLE, 0.25, Domain.box([-1, -1], [1, 1]), 0.02)
        m2 = extract(CIRCLE, 0.25, Domain.box([-1, -1], [1, 1]), 0.01)
        assert weighted_area_error_bound(m2) < weighted_area_error_bound(m1)

    def test_vertices_lie_on_level_set(self):
        m = extract(CIRCLE, 0.25, Domain.box([-1, -1], [1, 1]), 0.05)
        v = m.vertices.reshape(-1, 2)
        assert np.abs(CIRCLE.value(v) - 0.25).max() < 1e-8

    def test_each_crossing_edge_is_bisected_once(self):
        class Counted(ScalarField):
            dimension = 3
            points = 0

            def value(self, x):
                self.points += len(x)
                return SPHERE.value(x)

            def gradient(self, x):
                return SPHERE.gradient(x)

        f = Counted()
        domain = Domain.box([-1] * 3, [1] * 3)
        m = extract(f, 0.25, domain, 0.1)
        grid_points = math.prod(len(a) for a in _grid_axes(domain, 0.1))
        distinct = len(np.unique(m.vertices.reshape(-1, 3), axis=0))
        assert m.n_facets > 0
        assert f.points <= grid_points + 30 * distinct

    def test_sphere_mesh_is_closed(self):
        m = extract(SPHERE, 0.25, Domain.box([-1] * 3, [1] * 3), 0.1)
        edges = Counter()
        for tri in m.vertices:
            corners = [tuple(v) for v in tri]
            for a, b in ((0, 1), (1, 2), (2, 0)):
                edges[frozenset((corners[a], corners[b]))] += 1
        assert set(edges.values()) == {2}


class TestSubdivisionAndProfiles:
    @pytest.mark.parametrize("nv", [2, 3])
    def test_subfacet_table_matches_repeated_splitting(self, nv):
        # a random segment in 2D, a random triangle in 3D
        verts = np.random.default_rng(nv).standard_normal((1, nv, nv))
        fine = verts
        for depth in range(5):
            table = _subfacet_centroids(nv, depth)
            assert table.shape == (2 ** ((nv - 1) * depth), nv)
            assert np.allclose(table @ verts[0], fine.mean(axis=1), rtol=0, atol=1e-14)
            fine = _split_facets(fine)

    @pytest.mark.parametrize("field", [CIRCLE, SPHERE], ids=["circle", "sphere"])
    def test_refinement_preserves_area(self, field):
        n = field.dimension
        m = extract(field, 0.25, Domain.box([-1] * n, [1] * n), 0.1)
        r = np.array([0.3, 0.6, 2.0])  # the last ball covers the whole mesh
        ones = [lambda c, g, floor: np.ones(len(c))]
        (vals,), (bound,), _ = streamed_radial_sums(field, m, np.zeros(n), r, 0.02, ones)
        assert vals[-1] == pytest.approx(m.areas.sum(), rel=1e-12)
        assert bound[-1] == pytest.approx(MESH_ERR_COEFF * m.resolution * m.areas.sum(), rel=1e-12)

    def test_bounds_are_cumulative_mesh_quadrature_bounds_of_abs_weight(self):
        m = extract(SPHERE, 0.25, Domain.box([-1] * 3, [1] * 3), 0.1)
        r = np.array([0.3, 0.51, 2.0])

        def signed(c, g, floor):
            return np.where(c[:, 2] > 0, g, -g)

        (vals, gvals), (bound, gbound), _ = streamed_radial_sums(
            SPHERE, m, np.zeros(3), r, 0.05, [signed, None])
        # a sign change leaves |w| = |grad f| and so the bound unchanged
        assert np.array_equal(bound, gbound)
        assert np.all(np.diff(bound) >= 0) and bound[0] == 0.0
        assert abs(vals[-1]) < 1e-3 * gvals[-1]  # the halves cancel up to the grid asymmetry
        assert np.allclose(gbound, MESH_ERR_COEFF * m.resolution * gvals, rtol=1e-14)
        assert gbound[-1] == pytest.approx(mesh_quadrature(m, signed)[1], rel=1e-3)

    def test_refined_batches_stay_within_the_chunk(self):
        class Counted(ScalarField):
            dimension = 3
            points = 0
            largest = 0

            def value(self, x):
                return SPHERE.value(x)

            def gradient(self, x):
                return SPHERE.gradient(x)

            def grad_norm(self, x):
                self.points += len(x)
                self.largest = max(self.largest, len(x))
                return SPHERE.grad_norm(x)

        f = Counted()
        m = extract(SPHERE, 0.25, Domain.box([-1] * 3, [1] * 3), 0.1)
        r = np.array([0.3, 0.6, 2.0])
        streamed_radial_sums(f, m, np.zeros(3), r, m.resolution / 16, [None])
        assert f.points > _MC_CHUNK
        assert 0 < f.largest <= _MC_CHUNK

    def test_radial_profile_monotone_and_matches_closed_form(self):
        r = np.linspace(0.6, 1.4, 9)
        (vals,), (bound,), info = radial_profile(X3, 0.5, r, h=0.02)
        assert np.all(np.diff(vals) >= 0)
        assert np.allclose(bound, MESH_ERR_COEFF * 0.02 * vals, rtol=1e-14)
        truth = math.pi * (r**2 - 0.25)
        assert np.allclose(vals, truth, rtol=5e-3)

    def test_streamed_sums_equal_radial_profile(self):
        r = np.linspace(0.6, 1.4, 9)
        mesh = extract(X3, 0.5, Domain.ball([0.0] * 3, 1.4), 0.05, h_min=0.0125)
        (vals,), (bound,), _ = streamed_radial_sums(
            X3, mesh, np.zeros(3), r, 0.0125, [lambda c, g, floor: g]
        )
        (direct,), (direct_bound,), _ = radial_profile(X3, 0.5, r, h=0.05, h_min=0.0125)
        assert np.allclose(vals, direct, rtol=1e-10)
        assert np.allclose(bound, direct_bound, rtol=1e-10)

    def test_profile_of_an_empty_level_is_zero(self):
        profiles, bounds, info = radial_profile(X3, 5.0, np.array([0.5, 1.0]), h=0.1,
                                                weight_fns=(None, lambda c, g, floor: 1 / g))
        assert [p.tolist() for p in profiles] == [[0.0, 0.0], [0.0, 0.0]]
        assert [b.tolist() for b in bounds] == [[0.0, 0.0], [0.0, 0.0]]
        assert info == {"n_facets": 0, "n_flagged": 0}

    def test_profile_rejects_bad_grid(self):
        with pytest.raises(LevelSetError):
            radial_profile(X3, 0.5, np.array([1.0, 0.5]), h=0.05)
