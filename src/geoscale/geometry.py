"""Spherical polygon areas and rectangle clipping.

All areas are in km^2 on the authalic sphere (R = 6371.0072 km).  Polygon
edges are straight lines in lon/lat space and areas are evaluated with the
exact equal-area line integral along those edges, so splitting a polygon
across a rectangular partition conserves total area to machine precision.
For axis-aligned rectangles the integral reduces to the closed form in
:func:`spherical_rect_area`.

A polygon meets a grid by Sutherland-Hodgman clipping: each ring is clipped
once per column between its meridians, and each piece once per cell
between the cell's parallels.  Clipped pieces below 1e-12 km^2 are dropped,
and a cell with under 1e-9 km^2 of land counts as open water.

Every vertex is a GeoJSON position (see :func:`position`).  Self-intersecting
rings are not detected; the signed-area result is taken as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, fsum, radians, sin
from typing import Iterable

from .errors import DataError

# Authalic sphere radius: areas come out in true km^2.
EARTH_RADIUS_KM = 6371.0072

# Clipped slivers below this area (km^2) are discarded.
_SLIVER_AREA_KM2 = 1e-12

# Land cells and census units with no more area than this (km^2) have none:
# the cell counts as open water, the unit is skipped.
MIN_AREA_KM2 = 1e-9


def is_number(value) -> bool:
    """Whether a decoded JSON value is a number: an int or a float, not a
    bool and not a string.  Every coordinate and count must be one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def position(value) -> tuple:
    """A GeoJSON position [lon, lat, *rest] (RFC 7946 section 4) as (lon, lat)
    floats in degrees, lon in [-180, 180] and lat in [-90, 90]; any altitude
    is ignored.  Raises TypeError for a non-number (see is_number),
    OverflowError for an int too large for a float, else ValueError."""
    lon, lat, *_ = value
    if not (is_number(lon) and is_number(lat)):
        raise TypeError("position is not a pair of numbers")
    lon, lat = float(lon), float(lat)
    if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
        raise ValueError(f"position ({lon}, {lat}) is out of range")
    return lon, lat


@dataclass(frozen=True)
class LonLatRect:
    """Axis-aligned lon/lat rectangle. Zero-extent rects are legal (point places)."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self) -> None:
        if not (self.min_lon <= self.max_lon and self.min_lat <= self.max_lat):
            raise ValueError("rect min must not exceed max, and no bound may be NaN")

    @property
    def width(self) -> float:
        return self.max_lon - self.min_lon

    @property
    def height(self) -> float:
        return self.max_lat - self.min_lat

    def intersect(self, other: "LonLatRect") -> "LonLatRect | None":
        try:
            return LonLatRect(
                max(self.min_lon, other.min_lon), max(self.min_lat, other.min_lat),
                min(self.max_lon, other.max_lon), min(self.max_lat, other.max_lat))
        except ValueError:   # the rects do not meet
            return None


class Ring:
    """A closed sequence of positions (see position). The closing vertex is implicit."""

    __slots__ = ("coords",)

    def __init__(self, vertices: Iterable) -> None:
        coords = [position(v) for v in vertices]
        if len(coords) > 1 and coords[0] == coords[-1]:
            coords = coords[:-1]
        if len(set(coords)) < 3:
            raise DataError(
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
    return abs(_signed_area(r.coords))


def polygon_area(p: MultiPolygon) -> float:
    """Sum over the polygons of outer-ring area minus hole areas, km^2."""
    return fsum(_net_area(ring_area(poly.outer), fsum(ring_area(h) for h in poly.holes))
                for poly in p.polygons)


def _net_area(outer: float, holes: float) -> float:
    """Outer-ring area less the summed hole areas, floored at zero."""
    result = outer - holes
    if result < -1e-9 * max(outer, 1.0):
        raise DataError(f"hole area {holes} exceeds outer area {outer}")
    return max(result, 0.0)


def _clip_half_plane(coords, axis: int, bound: float, keep_below: bool) -> list:
    """Clip an open coordinate sequence against one axis-aligned half-plane."""
    out = []
    for k in range(len(coords)):
        cur = coords[k]
        prev = coords[k - 1]
        if keep_below:
            cur_in = cur[axis] <= bound
            prev_in = prev[axis] <= bound
        else:
            cur_in = cur[axis] >= bound
            prev_in = prev[axis] >= bound
        if cur_in != prev_in:
            # Edge crosses the boundary: the crossing lies on it, so only
            # the other coordinate is interpolated.
            t = (bound - prev[axis]) / (cur[axis] - prev[axis])
            free = prev[1 - axis] + t * (cur[1 - axis] - prev[1 - axis])
            out.append((bound, free) if axis == 0 else (free, bound))
        if cur_in:
            out.append(cur)
    return out


def _clip_slab(coords, axis: int, lo: float, hi: float) -> list:
    """The part of an open coordinate sequence with lo <= coordinate <= hi
    on one axis (0 longitude, 1 latitude): two Sutherland-Hodgman steps."""
    coords = _clip_half_plane(coords, axis, lo, keep_below=False)
    return _clip_half_plane(coords, axis, hi, keep_below=True)


def _band_area(piece, min_lat: float, max_lat: float) -> float:
    """Absolute area of the part of a column piece between two parallels,
    km^2: 0.0 when there is no overlap or the remainder is a sliver below
    1e-12 km^2."""
    coords = _clip_slab(piece, 1, min_lat, max_lat)
    if len(set(coords)) < 3:
        return 0.0
    area = abs(_signed_area(coords))
    return area if area >= _SLIVER_AREA_KM2 else 0.0


def grid_intersection_areas(m: MultiPolygon, lon_edges: list, lat_edges: list
                            ) -> list[list[float]]:
    """Area of the overlap between the multipolygon and every cell of the
    grid given by its edges: ``areas[i][j]`` for the cell between
    lon_edges[i:i+2] and lat_edges[j:j+2], km^2.

    Each ring is clipped once per column against the column's meridians and
    the piece once per cell against the cell's parallels.  A hole is clipped
    like its outer ring and its area subtracted from the outer piece's.
    """
    bands = list(zip(lat_edges[:-1], lat_edges[1:]))
    areas = []
    for min_lon, max_lon in zip(lon_edges[:-1], lon_edges[1:]):
        pieces = []
        for p in m.polygons:
            piece = _clip_slab(p.outer.coords, 0, min_lon, max_lon)
            if piece:
                pieces.append((piece, [_clip_slab(h.coords, 0, min_lon, max_lon)
                                       for h in p.holes]))
        column = []
        for min_lat, max_lat in bands:
            net = []
            for piece, holes in pieces:
                outer = _band_area(piece, min_lat, max_lat)
                if outer:
                    net.append(_net_area(outer, fsum(_band_area(h, min_lat, max_lat)
                                                     for h in holes)))
            column.append(max(fsum(net), 0.0))
        areas.append(column)
    return areas


def intersection_area(m: MultiPolygon, rect: LonLatRect) -> float:
    """Area of the overlap between a multipolygon and a rect, km^2: the
    one cell of :func:`grid_intersection_areas` over the rect."""
    return grid_intersection_areas(m, [rect.min_lon, rect.max_lon],
                                   [rect.min_lat, rect.max_lat])[0][0]


def _rect_corners(rect: LonLatRect) -> list:
    """The corners of a rect, counter-clockwise from (min_lon, min_lat)."""
    return [[rect.min_lon, rect.min_lat], [rect.max_lon, rect.min_lat],
            [rect.max_lon, rect.max_lat], [rect.min_lon, rect.max_lat]]


def rect_ring(rect: LonLatRect) -> Ring:
    """The boundary of a rect as a counter-clockwise ring."""
    return Ring(_rect_corners(rect))


def rect_geojson(rect: LonLatRect) -> dict:
    """A rect as a GeoJSON Polygon with one closed counter-clockwise ring."""
    corners = _rect_corners(rect)
    return {"type": "Polygon", "coordinates": [corners + corners[:1]]}


def geometry_bounds(m: MultiPolygon) -> LonLatRect:
    """Envelope of all outer-ring vertices."""
    lons = [lon for poly in m.polygons for lon, _ in poly.outer.coords]
    lats = [lat for poly in m.polygons for _, lat in poly.outer.coords]
    if not lons:
        raise DataError("empty geometry has no bounds")
    return LonLatRect(min(lons), min(lats), max(lons), max(lats))


def geometry_from_geojson(geom: dict) -> MultiPolygon:
    """Convert a GeoJSON Polygon/MultiPolygon geometry object.

    Ring orientation is ignored; the first ring of each polygon is the
    outer boundary and the rest are holes.
    """
    if not isinstance(geom, dict):
        raise DataError("geometry is not a GeoJSON object")
    gtype = geom.get("type")
    if gtype == "Polygon":
        poly_coords = [geom["coordinates"]]
    elif gtype == "MultiPolygon":
        poly_coords = geom["coordinates"]
    else:
        raise DataError(f"unsupported geometry type: {gtype!r}")
    polygons = []
    for rings in poly_coords:
        if not rings:
            continue
        outer = Ring(rings[0])
        holes = tuple(Ring(h) for h in rings[1:])
        polygons.append(PolygonWithHoles(outer, holes))
    return MultiPolygon(tuple(polygons))

