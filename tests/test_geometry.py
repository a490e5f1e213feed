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
    grid_areas,
    intersection_area,
    polygon_area,
    polygon_areas,
    position,
    rect_ring,
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
        assert polygon_area(_poly(rect_ring(rect))) == pytest.approx(
            spherical_rect_area(rect), rel=1e-3)

    def test_orientation_does_not_matter(self):
        cw = Ring([(0, 0), (0, 1), (1, 1), (1, 0)])
        ccw = Ring([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert polygon_area(_poly(cw)) == pytest.approx(polygon_area(_poly(ccw)), rel=1e-12)


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
            polygon_area(_poly(outer)) - polygon_area(_poly(hole)), rel=1e-12)

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
            1.5 * polygon_area(_poly(rect_ring(LonLatRect(0, 0, 1, 1)))), rel=1e-3)

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
        areas = _batched([m], np.linspace(-0.5, 4.6, nx + 1).tolist(),
                         np.linspace(-0.5, 4.0, ny + 1).tolist())[0].tolist()
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
        areas = _batched([m], lon_edges, lat_edges)[0].tolist()
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
        xy, _, _ = _clip_slab(np.array(plain).T, np.array([0, len(plain)]), 1,
                              np.array([1.0]), np.array([2.0]))   # (3.5, 1.0) is on the edge
        clipped = list(zip(*xy.tolist()))
        assert any(a == b for a, b in zip(clipped, clipped[1:]))
        lon_edges = np.linspace(0.0, 4.0, nx + 1).tolist()
        lat_edges = np.linspace(0.0, 4.0, ny + 1).tolist()
        areas = _batched([_poly(Ring(repeated))], lon_edges, lat_edges)[0].tolist()
        assert areas == _batched([_poly(Ring(plain))], lon_edges, lat_edges)[0].tolist()
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
            areas = _batched([_poly(rect_ring(rect))], lon_edges, lat_edges)[0].tolist()
            for i in range(len(lon_edges) - 1):
                for j in range(len(lat_edges) - 1):
                    overlap = rect.intersect(LonLatRect(lon_edges[i], lat_edges[j],
                                                        lon_edges[i + 1], lat_edges[j + 1]))
                    expected = 0.0 if overlap is None else spherical_rect_area(overlap)
                    assert areas[i][j] == pytest.approx(expected, rel=1e-12, abs=1e-9)


# The ring-by-ring Sutherland-Hodgman clipper that grid_areas replaced,
# kept as the reference the batched pass must match float for float.

def _ref_edge_mean_sin(lat1_rad, lat2_rad):
    d = lat2_rad - lat1_rad
    if abs(d) < 1e-9:
        return math.sin(0.5 * (lat1_rad + lat2_rad))
    return (math.cos(lat1_rad) - math.cos(lat2_rad)) / d


def _ref_signed_area(coords):
    n = len(coords)
    terms = []
    for k in range(n):
        lon1, lat1 = coords[k]
        lon2, lat2 = coords[(k + 1) % n]
        terms.append(math.radians(lon2 - lon1)
                     * _ref_edge_mean_sin(math.radians(lat1), math.radians(lat2)))
    return EARTH_RADIUS_KM * EARTH_RADIUS_KM * math.fsum(terms)


def _ref_net_area(outer, holes):
    result = outer - holes
    if result < -1e-9 * max(outer, 1.0):
        raise DataError(f"hole area {holes} exceeds outer area {outer}")
    return max(result, 0.0)


def _ref_polygon_area(m):
    return math.fsum(
        _ref_net_area(abs(_ref_signed_area(p.outer.coords)),
                      math.fsum(abs(_ref_signed_area(h.coords)) for h in p.holes))
        for p in m.polygons)


def _ref_clip_half_plane(coords, axis, bound, keep_below):
    out = []
    for k in range(len(coords)):
        cur, prev = coords[k], coords[k - 1]
        if keep_below:
            cur_in, prev_in = cur[axis] <= bound, prev[axis] <= bound
        else:
            cur_in, prev_in = cur[axis] >= bound, prev[axis] >= bound
        if cur_in != prev_in:
            t = (bound - prev[axis]) / (cur[axis] - prev[axis])
            free = prev[1 - axis] + t * (cur[1 - axis] - prev[1 - axis])
            out.append((bound, free) if axis == 0 else (free, bound))
        if cur_in:
            out.append(cur)
    return out


def _ref_clip_slab(coords, axis, lo, hi):
    coords = _ref_clip_half_plane(coords, axis, lo, keep_below=False)
    return _ref_clip_half_plane(coords, axis, hi, keep_below=True)


def _ref_band_area(piece, min_lat, max_lat):
    coords = _ref_clip_slab(piece, 1, min_lat, max_lat)
    if len(set(coords)) < 3:
        return 0.0
    area = abs(_ref_signed_area(coords))
    return area if area >= 1e-12 else 0.0


def _ref_grid_areas(m, lon_edges, lat_edges):
    bands = list(zip(lat_edges[:-1], lat_edges[1:]))
    areas = []
    for min_lon, max_lon in zip(lon_edges[:-1], lon_edges[1:]):
        pieces = []
        for p in m.polygons:
            piece = _ref_clip_slab(p.outer.coords, 0, min_lon, max_lon)
            if piece:
                pieces.append((piece, [_ref_clip_slab(h.coords, 0, min_lon, max_lon)
                                       for h in p.holes]))
        column = []
        for min_lat, max_lat in bands:
            net = []
            for piece, holes in pieces:
                outer = _ref_band_area(piece, min_lat, max_lat)
                if outer:
                    net.append(_ref_net_area(outer, math.fsum(
                        _ref_band_area(h, min_lat, max_lat) for h in holes)))
            column.append(max(math.fsum(net), 0.0))
        areas.append(column)
    return areas


def _snapped(rng, pts, lon_edges, lat_edges, p_snap):
    """pts with some coordinates moved onto the nearest grid line (or both,
    onto a grid corner) and some vertices repeated."""
    out = []
    for lon, lat in pts:
        u = rng.random()
        if u < 2 * p_snap:
            lon = min(lon_edges, key=lambda e: abs(e - lon))
        if p_snap <= u < 3 * p_snap:
            lat = min(lat_edges, key=lambda e: abs(e - lat))
        out += [(lon, lat)] * (2 if rng.random() < 0.1 else 1)
    return out


def _jittered_polygon(rng, cx, cy, r, lon_edges, lat_edges, holes=0):
    """A star-shaped ring around (cx, cy) with jittered angles and radii,
    snapped and repeated vertices, and holes scaled down from it."""
    n = int(rng.integers(3, 14))
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, n))
    radii = r * rng.uniform(0.35, 1.0, n)
    pts = [(cx + q * math.cos(a), cy + q * math.sin(a)) for a, q in zip(angles, radii)]
    pts = _snapped(rng, pts, lon_edges, lat_edges, 0.15)
    rings = []
    for s in rng.uniform(0.2, 0.6, holes):
        hole = [(cx + s * (lon - cx), cy + s * (lat - cy)) for lon, lat in pts]
        rings.append(_snapped(rng, hole, lon_edges, lat_edges, 0.05))
    # a small ring may snap onto fewer than 3 distinct vertices: not a ring
    rings = [Ring(r) for r in rings if len(set(r)) >= 3]
    if len(set(pts)) < 3:
        pts = [(cx, cy), (cx + r, cy), (cx, cy + r)]
    return PolygonWithHoles(Ring(pts), tuple(rings))


def _sliver(rng, lon_edges, lat_edges):
    """A thin triangle reaching 1e-15 to 1e-9 degrees past a grid line: the
    pieces beyond it fall on either side of the sliver rule."""
    edge = lon_edges[int(rng.integers(len(lon_edges)))]
    lat = rng.uniform(lat_edges[0], lat_edges[-1])
    over = 10.0 ** rng.uniform(-15, -9)
    return PolygonWithHoles(Ring([(edge - 1e-3, lat), (edge + over, lat + 1e-3),
                                  (edge - 1e-3, lat + 2e-3)]))


def _random_geometries(rng, lon_edges, lat_edges):
    """One of each: a multipolygon with holes inside the grid, a geometry
    straddling the grid's edge, one wholly outside it, slivers, one with
    coarse rings, seven small polygons around one grid corner, a rect with
    five small holes there, and an empty geometry."""
    (x0, x1), (y0, y1) = (lon_edges[0], lon_edges[-1]), (lat_edges[0], lat_edges[-1])
    w, h = x1 - x0, y1 - y0
    cx, cy = lon_edges[(len(lon_edges) - 1) // 2], lat_edges[(len(lat_edges) - 1) // 2]

    def inside(scale, holes=0):
        return _jittered_polygon(rng, rng.uniform(x0, x1), rng.uniform(y0, y1),
                                 scale * min(w, h), lon_edges, lat_edges, holes)

    def near_corner(n):
        return [_jittered_polygon(rng, cx + rng.uniform(-0.05, 0.05) * w,
                                  cy + rng.uniform(-0.05, 0.05) * h, 0.04 * min(w, h),
                                  lon_edges, lat_edges) for _ in range(n)]

    return [
        MultiPolygon.of(inside(0.3, holes=1), inside(0.15, holes=2), inside(0.1)),
        MultiPolygon.of(_jittered_polygon(rng, x1 + rng.uniform(-0.2, 0.2) * w,
                                          rng.uniform(y0, y1), 0.4 * min(w, h),
                                          lon_edges, lat_edges, holes=1)),
        MultiPolygon.of(_jittered_polygon(rng, x0 - 0.6 * w, y1 + 0.6 * h, 0.3 * w,
                                          lon_edges, lat_edges)),
        MultiPolygon.of(*(_sliver(rng, lon_edges, lat_edges) for _ in range(3))),
        MultiPolygon.of(inside(0.9), inside(0.5, holes=1)),
        MultiPolygon.of(*near_corner(7)),
        MultiPolygon.of(PolygonWithHoles(
            rect_ring(LonLatRect(cx - 0.07 * w, cy - 0.07 * h, cx + 0.07 * w, cy + 0.07 * h)),
            tuple(p.outer for p in near_corner(5)))),
        MultiPolygon(()),
    ]


def _batched(geoms, lon_edges, lat_edges) -> np.ndarray:
    g, i, j, a = grid_areas(geoms, lon_edges, lat_edges)
    dense = np.zeros((len(geoms), len(lon_edges) - 1, len(lat_edges) - 1))
    dense[g, i, j] = a
    return dense


def _outcome(fn, *args):
    """fn's result, or the message of the DataError it raised."""
    try:
        return fn(*args)
    except DataError as e:
        return f"DataError: {e}"


class TestBatchedPassEqualsScalarClip:
    """grid_areas, polygon_areas and polygon_area give every cell and
    geometry the float the ring-by-ring clipper gives, on seeded random
    jittered polygons."""

    @pytest.mark.parametrize("seed", range(16))
    def test_every_cell_is_the_same_float(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = (int(v) for v in rng.integers(1, 9, 2))
        x0, y0 = rng.uniform(-4.0, -2.0), rng.uniform(49.0, 52.0)
        lon_edges = np.linspace(x0, x0 + rng.uniform(0.5, 2.5), nx + 1).tolist()
        lat_edges = np.linspace(y0, y0 + rng.uniform(0.5, 2.5), ny + 1).tolist()
        geoms = _random_geometries(rng, lon_edges, lat_edges)
        expected = [_outcome(_ref_grid_areas, m, lon_edges, lat_edges) for m in geoms]
        fine = [k for k, e in enumerate(expected) if not isinstance(e, str)]
        assert len(fine) >= 4
        # the geometries the scalar clip accepts, all in one call
        got = _batched([geoms[k] for k in fine], lon_edges, lat_edges)
        for row, k in enumerate(fine):
            assert got[row].tolist() == expected[k]
        for k in set(range(len(geoms))) - set(fine):
            assert _outcome(_batched, [geoms[k]], lon_edges, lat_edges) == expected[k]
        # and every geometry's whole area, all in one call, with two whose
        # holes exceed their outer rings put in among them
        first = geoms[0].polygons[0]
        wide = rect_ring(LonLatRect(lon_edges[0], lat_edges[0], lon_edges[-1], lat_edges[-1]))
        geoms[2:2] = [MultiPolygon.of(PolygonWithHoles(first.outer, (wide,)))]
        geoms.append(MultiPolygon.of(first, PolygonWithHoles(first.outer, (wide, wide)),
                                     PolygonWithHoles(first.outer, (wide,))))
        areas, bad = polygon_areas(geoms)
        assert sorted(bad) == [2, len(geoms) - 1]
        for k, m in enumerate(geoms):
            expected_area = _outcome(_ref_polygon_area, m)
            assert (f"DataError: {bad[k]}" if k in bad else areas[k]) == expected_area
            assert math.isnan(areas[k]) == (k in bad)
            assert _outcome(polygon_area, m) == expected_area
            for p in m.polygons:
                assert polygon_area(_poly(p.outer)) == abs(_ref_signed_area(p.outer.coords))

    def test_holes_too_large_raise_as_the_scalar_clip(self):
        """Holes that poke out of their outer ring exceed its pieces in
        cells (0, 2) and (1, 0): both passes name the first cell a walk
        over columns, then bands, meets, and the first geometry with one."""
        outer = Ring([(1.9, 0), (4, 0), (4, 4), (0.9, 4), (0.9, 1), (1.9, 1)])
        m = MultiPolygon.of(PolygonWithHoles(
            outer, (rect_ring(LonLatRect(1.2, 0.2, 2.5, 0.8)),
                    rect_ring(LonLatRect(0.2, 2.2, 1.5, 2.8)))))
        later = MultiPolygon.of(PolygonWithHoles(
            rect_ring(LonLatRect(0.9, 0.0, 4.0, 4.0)),
            (rect_ring(LonLatRect(0.1, 0.1, 1.5, 0.9)),)))
        edges = [0.0, 1.0, 2.0, 3.0, 4.0]
        message = _outcome(_ref_grid_areas, m, edges, edges)
        assert message.startswith("DataError: hole area")
        assert _outcome(_ref_grid_areas, later, edges, edges) not in (message, None)
        assert _outcome(_batched, [_poly(rect_ring(STUDY)), m, later],
                        edges, edges) == message

    def test_sliver_pieces_are_dropped(self):
        """A triangle reaching 1e-13 degrees past a grid line leaves a piece
        of positive area under 1e-12 km^2 there, which counts as none."""
        ring = Ring([(0.999, 0.5), (1.0 + 1e-13, 0.501), (0.999, 0.502)])
        piece = _ref_clip_slab(_ref_clip_slab(ring.coords, 0, 1.0, 2.0), 1, 0.0, 1.0)
        assert 0.0 < abs(_ref_signed_area(piece)) < 1e-12
        edges = [0.0, 1.0, 2.0]
        areas = _batched([_poly(ring)], edges, [0.0, 1.0])[0]
        assert areas.tolist() == _ref_grid_areas(_poly(ring), edges, [0.0, 1.0])
        assert areas[1, 0] == 0.0 and areas[0, 0] > 0.0


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
