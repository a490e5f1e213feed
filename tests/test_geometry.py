import math

import numpy as np
import pytest

from geoscale.errors import DegenerateGeometryError, InvariantViolationError
from geoscale.geometry import (
    EARTH_RADIUS_KM,
    LonLatRect,
    MultiPolygon,
    PolygonWithHoles,
    Ring,
    clip_multipolygon_to_rect,
    clip_ring_to_rect,
    geometry_from_geojson,
    intersection_area,
    polygon_area,
    rect_ring,
    ring_area,
    spherical_rect_area,
)

STUDY = LonLatRect(-5.8, 49.9, -1.2, 52.2)


class TestSphericalRectArea:
    def test_degenerate_rect_is_zero(self):
        assert spherical_rect_area(LonLatRect(1.0, 2.0, 1.0, 2.0)) == 0.0

    def test_one_degree_square_at_equator(self):
        rect = LonLatRect(0.0, 0.0, 1.0, 1.0)
        expected = (EARTH_RADIUS_KM ** 2 * math.radians(1.0)
                    * math.sin(math.radians(1.0)))
        assert spherical_rect_area(rect) == pytest.approx(expected, rel=1e-12)
        assert spherical_rect_area(rect) == pytest.approx(12363.7, abs=0.1)

    def test_study_box_area(self):
        # denominator sanity value reused by the acceptance suite
        expected = (EARTH_RADIUS_KM ** 2 * math.radians(4.6)
                    * (math.sin(math.radians(52.2)) - math.sin(math.radians(49.9))))
        assert spherical_rect_area(STUDY) == pytest.approx(expected, rel=1e-12)
        assert 7.5e4 < spherical_rect_area(STUDY) < 9e4


class TestRingArea:
    def test_too_few_distinct_vertices(self):
        with pytest.raises(DegenerateGeometryError):
            Ring([(0, 0), (1, 1), (0, 0), (1, 1)])

    def test_square_matches_rect_area(self):
        rect = LonLatRect(0.0, 0.0, 1.0, 1.0)
        assert ring_area(rect_ring(rect)) == pytest.approx(
            spherical_rect_area(rect), rel=1e-3)

    def test_orientation_does_not_matter(self):
        cw = Ring([(0, 0), (0, 1), (1, 1), (1, 0)])
        ccw = Ring([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert ring_area(cw) == pytest.approx(ring_area(ccw), rel=1e-12)


class TestPolygonArea:
    def test_polygon_equal_to_its_hole_is_zero(self):
        ring = rect_ring(LonLatRect(0, 0, 1, 1))
        poly = PolygonWithHoles(ring, (ring,))
        assert polygon_area(poly) == 0.0

    def test_two_disjoint_squares_add(self):
        a = PolygonWithHoles(rect_ring(LonLatRect(0, 0, 1, 1)))
        b = PolygonWithHoles(rect_ring(LonLatRect(5, 0, 6, 1)))
        total = polygon_area(MultiPolygon.of(a, b))
        assert total == pytest.approx(2 * polygon_area(a), rel=1e-12)

    def test_hole_reduces_area(self):
        outer = rect_ring(LonLatRect(0, 0, 2, 2))
        hole = rect_ring(LonLatRect(0.5, 0.5, 1.5, 1.5))
        with_hole = polygon_area(PolygonWithHoles(outer, (hole,)))
        assert with_hole == pytest.approx(
            ring_area(outer) - ring_area(hole), rel=1e-12)

    def test_malformed_holes_raise(self):
        outer = rect_ring(LonLatRect(0, 0, 1, 1))
        big_hole = rect_ring(LonLatRect(-1, -1, 3, 3))
        with pytest.raises(InvariantViolationError):
            polygon_area(PolygonWithHoles(outer, (big_hole,)))


class TestClipping:
    def test_ring_fully_inside_unchanged(self):
        ring = rect_ring(LonLatRect(1, 1, 2, 2))
        clipped = clip_ring_to_rect(ring, LonLatRect(0, 0, 5, 5))
        assert clipped is not None
        assert set(clipped.coords) == set(ring.coords)

    def test_ring_fully_outside_empty(self):
        ring = rect_ring(LonLatRect(10, 10, 11, 11))
        assert clip_ring_to_rect(ring, LonLatRect(0, 0, 5, 5)) is None

    def test_half_overlap_halves_area(self):
        ring = rect_ring(LonLatRect(0, 0, 1, 1))
        clipped = clip_ring_to_rect(ring, LonLatRect(0.5, -1, 9, 9))
        assert clipped is not None
        assert ring_area(clipped) == pytest.approx(0.5 * ring_area(ring), rel=1e-9)

    def test_triangle_clip(self):
        tri = Ring([(0, 0), (2, 0), (0, 2)])
        clipped = clip_ring_to_rect(tri, LonLatRect(0, 0, 3, 1))
        assert clipped is not None
        # trapezoid (0,0),(2,0),(1,1),(0,1): shoelace gives 1.5 unit squares
        assert ring_area(clipped) == pytest.approx(
            1.5 * ring_area(rect_ring(LonLatRect(0, 0, 1, 1))), rel=1e-3)

    def test_multipolygon_hole_clipping(self):
        outer = rect_ring(LonLatRect(0, 0, 2, 2))
        hole = rect_ring(LonLatRect(0.5, 0.5, 1.5, 1.5))
        m = MultiPolygon.of(PolygonWithHoles(outer, (hole,)))
        rect = LonLatRect(0, 0, 1, 2)
        clipped = clip_multipolygon_to_rect(m, rect)
        expected = (intersection_area(MultiPolygon.of(PolygonWithHoles(outer)), rect)
                    - intersection_area(MultiPolygon.of(PolygonWithHoles(hole)), rect))
        assert polygon_area(clipped) == pytest.approx(expected, rel=1e-9)


class TestIntersectionArea:
    def test_bounded_by_both_inputs(self):
        m = MultiPolygon.of(PolygonWithHoles(rect_ring(LonLatRect(0, 0, 2, 2))))
        rect = LonLatRect(1, 1, 5, 5)
        a = intersection_area(m, rect)
        assert a <= polygon_area(m) + 1e-9
        assert a <= spherical_rect_area(rect) + 1e-9
        assert a >= 0.0

    def test_monotone_in_rect(self):
        m = MultiPolygon.of(PolygonWithHoles(Ring([(0, 0), (3, 1), (1, 3)])))
        small = LonLatRect(0.5, 0.5, 1.5, 1.5)
        big = LonLatRect(0.0, 0.0, 3.0, 3.0)
        assert intersection_area(m, small) <= intersection_area(m, big)


class TestAreaConservation:
    @pytest.mark.parametrize("x", [1, 2, 3, 7])
    def test_partition_conserves_polygon_area(self, x):
        rng = np.random.default_rng(123)
        for _ in range(20):
            # random convex-ish polygon inside a known enclosing rect
            n = rng.integers(3, 8)
            angles = np.sort(rng.uniform(0, 2 * math.pi, size=n))
            radius = rng.uniform(0.3, 1.4)
            cx, cy = rng.uniform(-2, 2), rng.uniform(49, 53)
            ring = Ring([(cx + radius * math.cos(a), cy + radius * math.sin(a))
                         for a in angles])
            m = MultiPolygon.of(PolygonWithHoles(ring))
            enclosing = LonLatRect(cx - 2, cy - 2, cx + 2, cy + 2)
            total = 0.0
            for i in range(x):
                for j in range(x):
                    cell = LonLatRect(
                        enclosing.min_lon + enclosing.width * i / x,
                        enclosing.min_lat + enclosing.height * j / x,
                        enclosing.min_lon + enclosing.width * (i + 1) / x,
                        enclosing.min_lat + enclosing.height * (j + 1) / x)
                    total += intersection_area(m, cell)
            assert total == pytest.approx(polygon_area(m), rel=1e-6)


class TestGeoJson:
    def test_polygon_roundtrip(self):
        geom = {"type": "Polygon",
                "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]}
        m = geometry_from_geojson(geom)
        assert len(m.polygons) == 1
        assert polygon_area(m) == pytest.approx(
            spherical_rect_area(LonLatRect(0, 0, 1, 1)), rel=1e-9)

    def test_multipolygon_with_hole(self):
        geom = {"type": "MultiPolygon", "coordinates": [
            [[[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]],
             [[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5], [0.5, 0.5]]],
        ]}
        m = geometry_from_geojson(geom)
        assert len(m.polygons[0].holes) == 1

    def test_unsupported_type_raises(self):
        with pytest.raises(DegenerateGeometryError):
            geometry_from_geojson({"type": "Point", "coordinates": [0, 0]})
