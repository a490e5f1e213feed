"""Spherical polygon areas and rectangle clipping.

All areas are in km^2 on the authalic sphere (R = 6371.0072 km).  Polygon
edges are straight lines in lon/lat space and areas are evaluated with the
exact equal-area line integral along those edges, so splitting a polygon
across a rectangular partition conserves total area to machine precision.
For axis-aligned rectangles the integral reduces to the closed form in
:func:`spherical_rect_area`.

Self-intersecting rings are not detected; the signed-area result is taken
as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, fsum, radians, sin
from typing import Iterable, Union

from .errors import DegenerateGeometryError, InvariantViolationError

# Authalic sphere radius: areas come out in true km^2.
EARTH_RADIUS_KM = 6371.0072

# Clipped slivers below this area (km^2) are discarded.
_SLIVER_AREA_KM2 = 1e-12


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 longitude/latitude pair in degrees."""

    lon: float
    lat: float

    def __post_init__(self) -> None:
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon}")
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")


@dataclass(frozen=True)
class LonLatRect:
    """Axis-aligned lon/lat rectangle. Zero-extent rects are legal (point places)."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self) -> None:
        if self.min_lon > self.max_lon or self.min_lat > self.max_lat:
            raise ValueError("rect min must not exceed max")

    @property
    def width(self) -> float:
        return self.max_lon - self.min_lon

    @property
    def height(self) -> float:
        return self.max_lat - self.min_lat

    def is_degenerate(self) -> bool:
        return self.width == 0.0 and self.height == 0.0

    def contains_point(self, lon: float, lat: float) -> bool:
        return (self.min_lon <= lon <= self.max_lon
                and self.min_lat <= lat <= self.max_lat)

    def contains_rect(self, other: "LonLatRect") -> bool:
        return (self.min_lon <= other.min_lon and other.max_lon <= self.max_lon
                and self.min_lat <= other.min_lat and other.max_lat <= self.max_lat)

    def intersect(self, other: "LonLatRect") -> "LonLatRect | None":
        lo_lon = max(self.min_lon, other.min_lon)
        hi_lon = min(self.max_lon, other.max_lon)
        lo_lat = max(self.min_lat, other.min_lat)
        hi_lat = min(self.max_lat, other.max_lat)
        if lo_lon > hi_lon or lo_lat > hi_lat:
            return None
        return LonLatRect(lo_lon, lo_lat, hi_lon, hi_lat)


class Ring:
    """A closed sequence of vertices. The closing vertex is implicit."""

    __slots__ = ("coords",)

    def __init__(self, vertices: Iterable) -> None:
        coords = []
        for v in vertices:
            if isinstance(v, GeoPoint):
                coords.append((v.lon, v.lat))
            else:
                lon, lat = v
                coords.append((float(lon), float(lat)))
        if len(coords) > 1 and coords[0] == coords[-1]:
            coords = coords[:-1]
        if len(set(coords)) < 3:
            raise DegenerateGeometryError(
                f"ring needs at least 3 distinct vertices, got {len(set(coords))}")
        self.coords = tuple(coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.coords == other.coords

    def __repr__(self) -> str:
        return f"Ring({list(self.coords)!r})"


@dataclass(frozen=True)
class PolygonWithHoles:
    outer: Ring
    holes: tuple = ()


@dataclass(frozen=True)
class MultiPolygon:
    polygons: tuple = ()

    @staticmethod
    def of(*polygons: PolygonWithHoles) -> "MultiPolygon":
        return MultiPolygon(tuple(polygons))


def spherical_rect_area(r: LonLatRect) -> float:
    """Exact spherical area of an axis-aligned lon/lat rectangle, km^2."""
    return (EARTH_RADIUS_KM * EARTH_RADIUS_KM
            * radians(r.max_lon - r.min_lon)
            * (sin(radians(r.max_lat)) - sin(radians(r.min_lat))))


def _edge_mean_sin(lat1_rad: float, lat2_rad: float) -> float:
    """Average of sin(lat) along an edge linear in latitude."""
    d = lat2_rad - lat1_rad
    if abs(d) < 1e-9:
        return sin(0.5 * (lat1_rad + lat2_rad))
    return (cos(lat1_rad) - cos(lat2_rad)) / d


def _signed_area(coords) -> float:
    n = len(coords)
    terms = []
    for k in range(n):
        lon1, lat1 = coords[k]
        lon2, lat2 = coords[(k + 1) % n]
        terms.append(radians(lon2 - lon1) * _edge_mean_sin(radians(lat1), radians(lat2)))
    return EARTH_RADIUS_KM * EARTH_RADIUS_KM * fsum(terms)


def ring_area(r: Ring) -> float:
    """Absolute area of a ring whose edges are straight in lon/lat, km^2."""
    if len(r.coords) < 3:
        raise DegenerateGeometryError("ring has fewer than 3 vertices")
    return abs(_signed_area(r.coords))


Geometry = Union[PolygonWithHoles, MultiPolygon]


def polygon_area(p: Geometry) -> float:
    """Area of a polygon (outer minus holes) or sum over a MultiPolygon, km^2."""
    if isinstance(p, MultiPolygon):
        return fsum(polygon_area(poly) for poly in p.polygons)
    outer = ring_area(p.outer)
    holes = fsum(ring_area(h) for h in p.holes)
    result = outer - holes
    if result < -1e-9 * max(outer, 1.0):
        raise InvariantViolationError(
            f"hole area {holes} exceeds outer area {outer}")
    return max(result, 0.0)


def _clip_half_plane(coords, axis: int, bound: float, keep_below: bool):
    """Clip an open coordinate list against one axis-aligned half-plane."""
    if not coords:
        return []
    out = []
    n = len(coords)
    for k in range(n):
        cur = coords[k]
        prev = coords[k - 1]
        if keep_below:
            cur_in = cur[axis] <= bound
            prev_in = prev[axis] <= bound
        else:
            cur_in = cur[axis] >= bound
            prev_in = prev[axis] >= bound
        if cur_in != prev_in:
            # Edge crosses the boundary; interpolate the crossing point.
            t = (bound - prev[axis]) / (cur[axis] - prev[axis])
            crossing = (
                prev[0] + t * (cur[0] - prev[0]),
                prev[1] + t * (cur[1] - prev[1]),
            )
            if axis == 0:
                crossing = (bound, crossing[1])
            else:
                crossing = (crossing[0], bound)
            out.append(crossing)
        if cur_in:
            out.append(cur)
    return out


def _dedupe(coords):
    out = []
    for c in coords:
        if not out or c != out[-1]:
            out.append(c)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def clip_ring_to_rect(r: Ring, rect: LonLatRect) -> Ring | None:
    """Sutherland-Hodgman clip of a ring against an axis-aligned rect.

    Returns None when there is no overlap or the clipped remainder is a
    sliver below 1e-12 km^2.
    """
    coords = list(r.coords)
    coords = _clip_half_plane(coords, 0, rect.min_lon, keep_below=False)
    coords = _clip_half_plane(coords, 0, rect.max_lon, keep_below=True)
    coords = _clip_half_plane(coords, 1, rect.min_lat, keep_below=False)
    coords = _clip_half_plane(coords, 1, rect.max_lat, keep_below=True)
    coords = _dedupe(coords)
    if len(set(coords)) < 3:
        return None
    if abs(_signed_area(coords)) < _SLIVER_AREA_KM2:
        return None
    return Ring(coords)


def clip_multipolygon_to_rect(m: Geometry, rect: LonLatRect) -> MultiPolygon:
    """Clip every outer ring and every hole independently against the rect."""
    if isinstance(m, PolygonWithHoles):
        m = MultiPolygon((m,))
    out = []
    for poly in m.polygons:
        outer = clip_ring_to_rect(poly.outer, rect)
        if outer is None:
            continue
        holes = tuple(h for h in (clip_ring_to_rect(hole, rect) for hole in poly.holes)
                      if h is not None)
        out.append(PolygonWithHoles(outer, holes))
    return MultiPolygon(tuple(out))


def intersection_area(m: Geometry, rect: LonLatRect) -> float:
    """Area of the overlap between a (multi)polygon and a rect, km^2."""
    return max(polygon_area(clip_multipolygon_to_rect(m, rect)), 0.0)


def rect_ring(rect: LonLatRect) -> Ring:
    """The boundary of a rect as a counter-clockwise ring."""
    return Ring([
        (rect.min_lon, rect.min_lat),
        (rect.max_lon, rect.min_lat),
        (rect.max_lon, rect.max_lat),
        (rect.min_lon, rect.max_lat),
    ])


def geometry_bounds(m: Geometry) -> LonLatRect:
    """Envelope of all outer-ring vertices."""
    if isinstance(m, PolygonWithHoles):
        m = MultiPolygon((m,))
    lons = [lon for poly in m.polygons for lon, _ in poly.outer.coords]
    lats = [lat for poly in m.polygons for _, lat in poly.outer.coords]
    if not lons:
        raise DegenerateGeometryError("empty geometry has no bounds")
    return LonLatRect(min(lons), min(lats), max(lons), max(lats))


def geometry_from_geojson(geom: dict) -> MultiPolygon:
    """Convert a GeoJSON Polygon/MultiPolygon geometry object.

    Ring orientation is ignored; the first ring of each polygon is the
    outer boundary and the rest are holes.
    """
    gtype = geom.get("type")
    if gtype == "Polygon":
        poly_coords = [geom["coordinates"]]
    elif gtype == "MultiPolygon":
        poly_coords = geom["coordinates"]
    else:
        raise DegenerateGeometryError(f"unsupported geometry type: {gtype!r}")
    polygons = []
    for rings in poly_coords:
        if not rings:
            continue
        outer = Ring(rings[0])
        holes = tuple(Ring(h) for h in rings[1:])
        polygons.append(PolygonWithHoles(outer, holes))
    return MultiPolygon(tuple(polygons))

