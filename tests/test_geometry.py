import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaowork import geometry
from chaowork.geometry import BilliardGeometry

from reference import NoHit, Wall, area, contains, contains_with_tol, first_hit, reflect


def unit_vector(theta):
    return np.array([math.cos(theta), math.sin(theta)])


def interior_points(geom, rng, n):
    """Uniform interior points for property checks (plain rejection)."""
    w, h = geom.bounding_box
    out = []
    while len(out) < n:
        q = rng.random(2) * [w, h]
        if contains(geom, q):
            out.append(q)
    return np.array(out)


class TestContains:
    def test_rectangle_interior(self, geom):
        assert contains(geom, (0.5, 0.5))

    def test_outside_bounding_box(self, geom):
        assert not contains(geom, (3.0, 0.5))

    def test_point_just_inside_arc(self, geom):
        # Just inside the quarter circle, verified against the circle equation
        # in extended precision.
        f = 1.0 - 1e-9
        q = (1.0 + math.cos(math.pi / 4) * f, math.sin(math.pi / 4) * f)
        x, y = np.longdouble(q[0]), np.longdouble(q[1])
        assert (x - 1.0) ** 2 + y**2 < np.longdouble(1.0)
        assert contains(geom, q)

    def test_point_just_outside_arc(self, geom):
        f = 1.0 + 1e-9
        q = (1.0 + math.cos(math.pi / 4) * f, math.sin(math.pi / 4) * f)
        assert not contains(geom, q)

    def test_contains_many_matches_scalar(self, geom, rng):
        qs = rng.random((200, 2)) * [2.5, 1.2]
        batch = geometry.contains_many(geom, qs)
        scalar = np.array([contains(geom, q) for q in qs])
        assert np.array_equal(batch, scalar)


class TestArea:
    @pytest.mark.parametrize(
        "r,l,expected",
        [
            (1.0, 1.0, 1.0 + math.pi / 4),
            (1.0, 0.0, math.pi / 4),
            (2.0, 3.0, 6.0 + math.pi),
        ],
    )
    def test_closed_form(self, r, l, expected):
        assert area(BilliardGeometry(r=r, l=l)) == pytest.approx(expected, abs=0, rel=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BilliardGeometry(r=0.0, l=1.0)
        with pytest.raises(ValueError):
            BilliardGeometry(r=1.0, l=-0.1)


class TestFirstHit:
    def test_axis_aligned_to_bottom(self, geom):
        hit = first_hit(geom, (0.5, 0.5), (0.0, -1.0))
        assert hit.wall_id == Wall.BOTTOM
        assert hit.path_length == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(hit.point, [0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(hit.inward_normal, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 1.4])
    def test_ray_from_arc_center(self, geom, theta):
        # Any ray from the arc center travels exactly r before hitting the arc.
        hit = first_hit(geom, (1.0, 0.0), unit_vector(theta))
        assert hit.path_length == pytest.approx(1.0, abs=1e-12)

    def test_against_ray_marching_oracle(self, geom):
        origin = np.array([0.2, 0.4])
        d = np.array([1.0, 1.0]) / math.sqrt(2.0)
        hit = first_hit(geom, origin, d)
        # Independent dense march: step until the point leaves the closed region.
        step = 1e-6
        t = 0.0
        while contains(geom, origin + (t + step) * d):
            t += step
        assert hit.path_length == pytest.approx(t, abs=1e-5)

    def test_no_hit_from_outside(self, geom):
        with pytest.raises(NoHit):
            first_hit(geom, (5.0, 5.0), (1.0, 0.0))

    def test_hit_point_satisfies_wall_equation(self, geom, rng):
        pts = interior_points(geom, rng, 100)
        for q in pts:
            theta = rng.random() * 2.0 * math.pi
            hit = first_hit(geom, q, unit_vector(theta))
            x, y = hit.point
            tol = geometry.TOL_GEOM * 10
            if hit.wall_id == Wall.BOTTOM:
                assert abs(y) < tol
            elif hit.wall_id == Wall.LEFT:
                assert abs(x) < tol
            elif hit.wall_id == Wall.TOP:
                assert abs(y - geom.r) < tol and x <= geom.l + tol
            else:
                assert abs((x - geom.l) ** 2 + y**2 - geom.r**2) < tol


class TestReflect:
    def test_flat_wall_specular(self):
        d = np.array([1.0, -1.0]) / math.sqrt(2.0)
        out = reflect(d, np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-15)

    def test_normal_incidence_reverses(self):
        n = unit_vector(0.7)
        out = reflect(-n, n)
        np.testing.assert_allclose(out, n, atol=1e-15)

    def test_outgoing_direction_rejected(self):
        with pytest.raises(ValueError):
            reflect(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    @given(
        th_d=st.floats(0.0, 2.0 * math.pi),
        th_n=st.floats(0.0, 2.0 * math.pi),
    )
    def test_norm_and_tangential_component(self, th_d, th_n):
        d = unit_vector(th_d)
        n = unit_vector(th_n)
        dn = float(d @ n)
        if dn >= -1e-9:
            return
        out = reflect(d, n)
        assert abs(np.hypot(out[0], out[1]) - 1.0) < 1e-12
        # (out - d) is parallel to n: its tangential part vanishes.
        diff = out - d
        tangent = np.array([-n[1], n[0]])
        assert abs(diff @ tangent) < 1e-12
        assert out @ n > 0.0

    @given(th_d=st.floats(0.0, 2.0 * math.pi), th_n=st.floats(0.0, 2.0 * math.pi))
    def test_against_extended_precision_formula(self, th_d, th_n):
        d = unit_vector(th_d)
        n = unit_vector(th_n)
        if float(d @ n) >= -1e-9:
            return
        out = reflect(d, n)
        dl = d.astype(np.longdouble)
        nl = n.astype(np.longdouble)
        ref = dl - 2.0 * (dl @ nl) * nl
        assert float(np.abs(out - ref.astype(float)).max()) < 1e-14


class TestBounceLoop:
    def test_containment_over_many_bounces(self, geom):
        # 10^4 bounces keep the point inside the closed region within tolerance.
        q = np.array([0.3, 0.3])
        d = unit_vector(0.8473)
        for _ in range(10_000):
            hit = first_hit(geom, q, d)
            d = reflect(d, hit.inward_normal)
            d /= np.hypot(d[0], d[1])
            q = hit.point + geometry.WALL_NUDGE * hit.inward_normal
            assert contains_with_tol(geom, q)
        assert abs(np.hypot(d[0], d[1]) - 1.0) < 1e-12

    def test_corner_hit_uses_bisector(self, geom):
        # Straight into the (0, 0) corner: the bisector normal sends it back.
        d = -unit_vector(math.pi / 4)
        hit = first_hit(geom, (0.5, 0.5), d)
        assert hit.corner
        np.testing.assert_allclose(hit.inward_normal, unit_vector(math.pi / 4), atol=1e-9)
