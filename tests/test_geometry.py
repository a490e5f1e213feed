import math

import numpy as np
import pytest

from geoscale.errors import DataError
from geoscale.geometry import (
    EARTH_RADIUS_KM,
    LonLatRect,
    MultiPolygon,
    PolygonWithHoles,
    Ring,
    geometry_from_geojson,
    grid_intersection_areas,
    intersection_area,
    polygon_area,
    position,
    rect_ring,
    ring_area,
    spherical_rect_area,
)

STUDY = LonLatRect(-5.8, 49.9, -1.2, 52.2)


class TestPosition:
    def test_lon_lat_floats_with_any_altitude_ignored(self):
        assert position([1, 2]) == position([1.0, 2.0, 30.5, "m"]) == (1.0, 2.0)
        assert all(type(v) is float for v in position([1, 2]))
        assert position([-180, -90]) == (-180.0, -90.0)
        assert position([180, 90]) == (180.0, 90.0)

    @pytest.mark.parametrize("value, error", [
        ([180.5, 0], ValueError), ([-181, 0], ValueError), ([0, 90.5], ValueError),
        ([0, -1e6], ValueError), ([math.nan, 0], ValueError), ([0, math.inf], ValueError),
        ([0], ValueError), (["1", 0], TypeError), ([0, True], TypeError),
        ([None, 0], TypeError), (5, TypeError), ([10 ** 400, 0], OverflowError),
    ])
    def test_anything_else_raises(self, value, error):
        with pytest.raises(error):
            position(value)

    def test_ring_and_geojson_vertices_are_positions(self):
        for bad in ([0, 95.0], [181.0, 0]):
            with pytest.raises(ValueError, match="out of range"):
                Ring([[0, 0], [1, 0], bad, [0, 1]])
            with pytest.raises(ValueError, match="out of range"):
                geometry_from_geojson({"type": "Polygon", "coordinates": [
                    [[0, 0], [1, 0], bad, [0, 1]]]})


class TestLonLatRect:
    @pytest.mark.parametrize("k", range(4))
    def test_nan_bound_raises(self, k):
        bounds = [0.0, 0.0, 1.0, 1.0]
        bounds[k] = math.nan
        with pytest.raises(ValueError, match="no bound may be NaN"):
            LonLatRect(*bounds)

    def test_min_above_max_raises(self):
        for bounds in ([1, 0, 0, 1], [0, 1, 1, 0]):
            with pytest.raises(ValueError, match="rect min must not exceed max"):
                LonLatRect(*bounds)

    def test_intersect(self):
        rect = LonLatRect(0, 0, 2, 2)
        assert rect.intersect(LonLatRect(1, -1, 3, 1)) == LonLatRect(1, 0, 2, 1)
        assert rect.intersect(LonLatRect(2, 2, 3, 3)) == LonLatRect(2, 2, 2, 2)
        assert rect.intersect(LonLatRect(2.5, 0, 3, 1)) is None
        assert rect.intersect(LonLatRect(0, 2.5, 1, 3)) is None


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
        with pytest.raises(DataError, match="needs at least 3 distinct vertices, got 2"):
            Ring([(0, 0), (1, 1), (0, 0), (1, 1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex(self, bad):
        for k in range(4):
            vertices = [[0, 0], [1, 0], [1, 1], [0, 1]]
            vertices[k] = [bad, 0] if k % 2 else [0, bad]
            with pytest.raises(ValueError, match=r"position \(.*\) is out of range"):
                Ring(vertices)

    def test_altitude_is_ignored(self):
        """A GeoJSON position is [lon, lat, *rest]: an altitude changes nothing."""
        assert Ring([[0, 0, 12.5], [1, 0, -3], [1, 1], [0, 1, 0, 7]]) == Ring(
            [(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(ValueError):
            Ring([[0], [1, 0], [1, 1], [0, 1]])

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
        poly = MultiPolygon.of(PolygonWithHoles(ring, (ring,)))
        assert polygon_area(poly) == 0.0

    def test_two_disjoint_squares_add(self):
        a = PolygonWithHoles(rect_ring(LonLatRect(0, 0, 1, 1)))
        b = PolygonWithHoles(rect_ring(LonLatRect(5, 0, 6, 1)))
        total = polygon_area(MultiPolygon.of(a, b))
        assert total == pytest.approx(2 * polygon_area(MultiPolygon.of(a)), rel=1e-12)

    def test_hole_reduces_area(self):
        outer = rect_ring(LonLatRect(0, 0, 2, 2))
        hole = rect_ring(LonLatRect(0.5, 0.5, 1.5, 1.5))
        with_hole = polygon_area(MultiPolygon.of(PolygonWithHoles(outer, (hole,))))
        assert with_hole == pytest.approx(
            ring_area(outer) - ring_area(hole), rel=1e-12)

    def test_malformed_holes_raise(self):
        outer = rect_ring(LonLatRect(0, 0, 1, 1))
        big_hole = rect_ring(LonLatRect(-1, -1, 3, 3))
        with pytest.raises(DataError, match="hole area .* exceeds outer area"):
            polygon_area(MultiPolygon.of(PolygonWithHoles(outer, (big_hole,))))


def _poly(ring: Ring) -> MultiPolygon:
    return MultiPolygon.of(PolygonWithHoles(ring))


class TestClipping:
    def test_ring_fully_inside_keeps_its_area(self):
        m = _poly(rect_ring(LonLatRect(1, 1, 2, 2)))
        assert intersection_area(m, LonLatRect(0, 0, 5, 5)) == polygon_area(m)

    def test_ring_fully_outside_empty(self):
        m = _poly(rect_ring(LonLatRect(10, 10, 11, 11)))
        assert intersection_area(m, LonLatRect(0, 0, 5, 5)) == 0.0

    def test_half_overlap_halves_area(self):
        m = _poly(rect_ring(LonLatRect(0, 0, 1, 1)))
        assert intersection_area(m, LonLatRect(0.5, -1, 9, 9)) == pytest.approx(
            0.5 * polygon_area(m), rel=1e-9)

    def test_triangle_clip(self):
        tri = _poly(Ring([(0, 0), (2, 0), (0, 2)]))
        # trapezoid (0,0),(2,0),(1,1),(0,1): shoelace gives 1.5 unit squares
        assert intersection_area(tri, LonLatRect(0, 0, 3, 1)) == pytest.approx(
            1.5 * ring_area(rect_ring(LonLatRect(0, 0, 1, 1))), rel=1e-3)

    def test_multipolygon_hole_clipping(self):
        outer = rect_ring(LonLatRect(0, 0, 2, 2))
        hole = rect_ring(LonLatRect(0.5, 0.5, 1.5, 1.5))
        m = MultiPolygon.of(PolygonWithHoles(outer, (hole,)))
        rect = LonLatRect(0, 0, 1, 2)
        expected = (intersection_area(_poly(outer), rect)
                    - intersection_area(_poly(hole), rect))
        assert intersection_area(m, rect) == pytest.approx(expected, rel=1e-9)


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


def _star(cx, cy, r_out, r_in, n=7):
    pts = []
    for k in range(2 * n):
        r = r_out if k % 2 == 0 else r_in
        a = math.pi * k / n
        pts.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return Ring(pts)


# Concave rings, holes, a MultiPolygon, and vertices on the grid lines of
# the 4x4 and 8x8 grids over (0, 0)-(4, 4).
SWEEP_GEOMETRIES = {
    "concave_L_on_lines": _poly(Ring(
        [(1, 1), (3, 1), (3, 2), (2, 2), (2, 3), (1, 3)])),
    "star": _poly(_star(2.2, 1.9, 1.6, 0.55)),
    "hole_on_lines": MultiPolygon.of(PolygonWithHoles(
        rect_ring(LonLatRect(0.5, 0.5, 3.5, 3.5)),
        (Ring([(2, 1), (3, 2), (2, 3), (1, 2)]),))),
    "multipolygon": MultiPolygon.of(
        PolygonWithHoles(_star(1.0, 3.0, 0.9, 0.3),
                         (Ring([(0.9, 2.9), (1.1, 2.9), (1.0, 3.1)]),)),
        PolygonWithHoles(Ring([(3.0, 0.25), (4.6, -0.4), (3.75, 1.5)])),
        PolygonWithHoles(rect_ring(LonLatRect(2.5, 2.5, 3.5, 3.0)),
                         (rect_ring(LonLatRect(2.75, 2.5, 3.0, 3.0)),))),
}


class TestGridIntersectionAreas:
    @pytest.mark.parametrize("name", sorted(SWEEP_GEOMETRIES))
    @pytest.mark.parametrize("nx, ny", [(1, 1), (3, 5), (4, 4), (8, 8), (13, 7)])
    def test_cells_sum_to_the_polygon_area(self, name, nx, ny):
        """Every geometry lies inside (-0.5, -0.5)-(4.6, 4.0), so the cells
        of any grid over that rect share out its whole area, which
        polygon_area finds without clipping."""
        m = SWEEP_GEOMETRIES[name]
        areas = grid_intersection_areas(m, np.linspace(-0.5, 4.6, nx + 1).tolist(),
                                        np.linspace(-0.5, 4.0, ny + 1).tolist())
        assert [len(column) for column in areas] == [ny] * nx
        assert math.fsum(map(math.fsum, areas)) == pytest.approx(polygon_area(m),
                                                                  rel=1e-12)

    @pytest.mark.parametrize("name", sorted(SWEEP_GEOMETRIES))
    @pytest.mark.parametrize("nx, ny", [(3, 5), (4, 4), (8, 8), (13, 7)])
    def test_equals_the_one_cell_sweep(self, name, nx, ny):
        """Sweeping a whole grid gives each cell the area intersection_area
        finds for that cell alone."""
        m = SWEEP_GEOMETRIES[name]
        lon_edges = np.linspace(0.0, 4.0, nx + 1).tolist()
        lat_edges = np.linspace(0.0, 4.0, ny + 1).tolist()
        areas = grid_intersection_areas(m, lon_edges, lat_edges)
        for i in range(nx):
            for j in range(ny):
                cell = LonLatRect(lon_edges[i], lat_edges[j],
                                  lon_edges[i + 1], lat_edges[j + 1])
                assert areas[i][j] == intersection_area(m, cell)

    @pytest.mark.parametrize("nx, ny", [(1, 4), (4, 4), (3, 5)])
    def test_repeated_vertex_changes_no_area(self, nx, ny):
        """A repeated vertex, and the repeat the clip emits where a vertex
        lies on a band edge, add exact zeros to the area sum."""
        from geoscale.geometry import _clip_slab

        plain = [(0.5, 0.5), (3.5, 1.0), (2.0, 3.0), (0.5, 2.0)]
        repeated = plain[:2] + plain[1:]
        clipped = _clip_slab(plain, 1, 1.0, 2.0)   # (3.5, 1.0) is on the edge
        assert any(a == b for a, b in zip(clipped, clipped[1:]))
        lon_edges = np.linspace(0.0, 4.0, nx + 1).tolist()
        lat_edges = np.linspace(0.0, 4.0, ny + 1).tolist()
        areas = grid_intersection_areas(_poly(Ring(repeated)), lon_edges, lat_edges)
        assert areas == grid_intersection_areas(_poly(Ring(plain)), lon_edges, lat_edges)
        assert math.fsum(map(math.fsum, areas)) > 0.0

    def test_rect_overlaps_are_the_closed_form(self):
        """A rect polygon overlaps a cell in a rect, whose area
        spherical_rect_area gives without clipping."""
        rng = np.random.default_rng(7)
        lon_edges = np.linspace(-5.8, -1.2, 9).tolist()
        lat_edges = np.linspace(49.9, 52.2, 6).tolist()
        for _ in range(40):
            lons = np.sort(rng.uniform(-6.5, -0.5, 2))
            lats = np.sort(rng.uniform(49.5, 52.6, 2))
            rect = LonLatRect(lons[0], lats[0], lons[1], lats[1])
            areas = grid_intersection_areas(_poly(rect_ring(rect)), lon_edges, lat_edges)
            for i in range(len(lon_edges) - 1):
                for j in range(len(lat_edges) - 1):
                    overlap = rect.intersect(LonLatRect(lon_edges[i], lat_edges[j],
                                                        lon_edges[i + 1], lat_edges[j + 1]))
                    expected = 0.0 if overlap is None else spherical_rect_area(overlap)
                    assert areas[i][j] == pytest.approx(expected, rel=1e-12, abs=1e-9)


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
        with pytest.raises(DataError, match="unsupported geometry type: 'Point'"):
            geometry_from_geojson({"type": "Point", "coordinates": [0, 0]})
