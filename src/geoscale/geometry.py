"""Spherical polygon areas and rectangle clipping.

All areas are in km^2 on the authalic sphere (R = 6371.0072 km).  Polygon
edges are straight lines in lon/lat space and areas are evaluated with the
exact equal-area line integral along those edges, so splitting a polygon
across a rectangular partition conserves total area to machine precision.
For axis-aligned rectangles the integral reduces to the closed form in
:func:`spherical_rect_area`.

Every ring of every geometry is laid out once in a flat vertex table, and
one routine measures all the rings of a table at once: whole polygons
(:func:`polygon_areas`) and their clipped pieces alike, with sin and cos
through :func:`libm`, never a numpy ufunc, whose rounding may vary by CPU,
and ``math.fsum`` per ring.  Polygons meet a grid in one batched pass
(:func:`grid_areas`): each (ring, column) pair it can touch is clipped
between the column's meridians, and each (piece, band) pair between the
band's parallels, by Sutherland-Hodgman steps done as array operations over
all pairs at once, with the arithmetic of a ring-by-ring clip, so every cell
gets the same float.  Clipped pieces below 1e-12 km^2 are dropped, and a
cell with no more than 1e-9 km^2 of land counts as open water.

Every vertex is a GeoJSON position (see :func:`position`).  Self-intersecting
rings are not detected; the signed-area result is taken as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import cos, fsum, pi, radians, sin
from typing import Iterable, Sequence

import numpy as np

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

    def meets(self, other: "LonLatRect") -> bool:
        """Whether the closed rects share a point."""
        return (self.min_lon <= other.max_lon and other.min_lon <= self.max_lon
                and self.min_lat <= other.max_lat and other.min_lat <= self.max_lat)

    def intersect(self, other: "LonLatRect") -> "LonLatRect | None":
        if not self.meets(other):
            return None
        return LonLatRect(
            max(self.min_lon, other.min_lon), max(self.min_lat, other.min_lat),
            min(self.max_lon, other.max_lon), min(self.max_lat, other.max_lat))


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


# math.radians(v) is v * (pi / 180) in one rounding; so is v * _DEG.
_DEG = pi / 180.0
_R2 = EARTH_RADIUS_KM * EARTH_RADIUS_KM


def spherical_rect_area(r: LonLatRect) -> float:
    """Exact spherical area of an axis-aligned lon/lat rectangle, km^2."""
    return (_R2 * radians(r.max_lon - r.min_lon)
            * (sin(radians(r.max_lat)) - sin(radians(r.min_lat))))


def libm(f, values) -> np.ndarray:
    """f at every element of an array or sequence, one float at a time
    through the C library, as a float64 array.  numpy's vectorised ufuncs
    pick a SIMD kernel by CPU and need not round like libm: with numpy 2.4
    on AVX-512, np.log10 differs from math.log10 in 2-20% of float64 inputs
    and np.power from pow in about 5%, which would change the bytes of
    fits.csv and the anomaly maps."""
    return np.array([f(v) for v in np.asarray(values, dtype=float).tolist()], dtype=float)


def _ring_table(geoms: Sequence[MultiPolygon]):
    """Every ring of the geometries in one flat vertex table: the (2, n)
    lon/lat columns, the offsets (ring k is columns offsets[k] to
    offsets[k + 1]), and per ring its geometry, its polygon (numbered across
    the geometries) and whether it is a hole."""
    coords, geom, poly, hole = [], [], [], []
    polygons = [(g, p) for g, m in enumerate(geoms) for p in m.polygons]
    for k, (g, p) in enumerate(polygons):
        rings = (p.outer, *p.holes)
        coords += [r.coords for r in rings]
        geom += [g] * len(rings)
        poly += [k] * len(rings)
        hole += [False] + [True] * len(p.holes)
    xy = np.array(list(chain.from_iterable(coords)), dtype=float).reshape(-1, 2).T
    offsets = np.concatenate(([0], np.cumsum([len(c) for c in coords], dtype=np.intp)))
    return xy, offsets, np.array(geom, np.intp), np.array(poly, np.intp), np.array(hole, bool)


def _edge_mean_sin(lat: np.ndarray, ahead: np.ndarray) -> np.ndarray:
    """The average of sin(latitude) along each edge from lat[k] to
    lat[ahead[k]] (radians), latitude linear along it: (cos a - cos b) /
    (b - a), or sin((a + b) / 2) where |b - a| < 1e-9."""
    rise = lat[ahead] - lat
    flat = np.abs(rise) < 1e-9
    mean_sin = np.empty(len(lat))
    mean_sin[flat] = libm(sin, 0.5 * (lat[flat] + lat[ahead][flat]))
    cos_lat = libm(cos, lat)
    steep = ~flat
    mean_sin[steep] = (cos_lat[steep] - cos_lat[ahead][steep]) / rise[steep]
    return mean_sin


def _signed_areas(xy: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The signed area of every ring of a table, km^2: R^2 times the
    exactly rounded sum (math.fsum) of the ring's edge terms, each
    radians(lon2 - lon1) * _edge_mean_sin.  A ring with under 3 distinct
    vertices sums to exactly 0: each edge A->B has an edge B->A of
    opposite term."""
    n = xy.shape[1]
    ahead = np.arange(1, n + 1)
    ahead[offsets[1:] - 1] = offsets[:-1]
    lon = xy[0]
    terms = ((lon[ahead] - lon) * _DEG * _edge_mean_sin(xy[1] * _DEG, ahead)).tolist()
    bounds = offsets.tolist()
    return _R2 * np.array([fsum(terms[a:b]) for a, b in zip(bounds, bounds[1:])])


def _net_area(outer: np.ndarray, holes: np.ndarray):
    """Outer-ring areas less their summed hole areas, floored at zero, and
    a DataError for each whose holes exceed it (by more than 1e-9 of it, or
    of 1 km^2), keyed by its index in ascending order."""
    result = outer - holes
    return np.maximum(result, 0.0), {
        k: DataError(f"hole area {float(holes[k])} exceeds outer area {float(outer[k])}")
        for k in np.flatnonzero(result < -1e-9 * np.maximum(outer, 1.0)).tolist()}


def polygon_areas(geoms: Sequence[MultiPolygon]):
    """The area of each multipolygon, km^2, all in one pass: per polygon
    its outer ring's area less the fsum of its holes' (see _net_area), fsum
    over the polygons.  Returns the areas and, keyed by geometry index, the
    DataError naming the first polygon whose holes exceed its outer ring;
    such a geometry's area is NaN."""
    xy, offsets, geom, poly, hole = _ring_table(geoms)
    ring = np.abs(_signed_areas(xy, offsets))
    # a polygon's rings are one run of the table, its outer ring first
    outer, holes = _fsum_runs(np.where(hole, ring, 0.0), poly)
    net, errors = _net_area(ring[outer], holes)
    first, sums = _fsum_runs(net, geom[outer])
    areas = np.zeros(len(geoms))
    areas[geom[outer[first]]] = sums
    # a geometry's first polygon whose holes exceed its outer ring names it
    bad = {int(geom[outer[k]]): error for k, error in reversed(errors.items())}
    areas[list(bad)] = np.nan
    return areas, bad


def polygon_area(m: MultiPolygon) -> float:
    """The area of a multipolygon, km^2: the one-geometry case of
    :func:`polygon_areas`, whose DataError it raises."""
    areas, bad = polygon_areas([m])
    if bad:
        raise bad[0]
    return float(areas[0])


def _clip(xy: np.ndarray, offsets: np.ndarray, axis: int, bound: np.ndarray,
          keep_below: bool):
    """One Sutherland-Hodgman step on every ring of a table: the part of
    ring k where coordinate `axis` (0 lon, 1 lat) is <= bound[k]
    (keep_below) or >= bound[k].  Each edge prev -> cur that crosses the
    line adds its crossing, then cur if cur is kept.  Returns the clipped
    table and the indices of the rings that kept a vertex, the others
    dropped."""
    n, lengths = xy.shape[1], np.diff(offsets)
    behind = np.arange(-1, n - 1)
    behind[offsets[:-1]] = offsets[1:] - 1
    c, b = xy[axis], np.repeat(bound, lengths)
    kept = c <= b if keep_below else c >= b
    cross = kept != kept[behind]
    count = cross + kept.astype(np.intp)
    end = np.cumsum(count)
    out = np.empty((2, int(end[-1]) if n else 0))
    at = np.flatnonzero(cross)
    prev, put = behind[at], end[at] - count[at]
    # the crossing lies on the line, so only the other coordinate is
    # interpolated
    t = (b[at] - c[prev]) / (c[at] - c[prev])
    o = xy[1 - axis]
    out[axis, put] = b[at]
    out[1 - axis, put] = o[prev] + t * (o[at] - o[prev])
    at = np.flatnonzero(kept)
    out[:, end[at] - 1] = xy[:, at]
    sizes = np.add.reduceat(count, offsets[:-1]) if n else lengths
    live = np.flatnonzero(sizes)
    return out, np.concatenate(([0], np.cumsum(sizes[live]))), live


def _clip_slab(xy: np.ndarray, offsets: np.ndarray, axis: int, lo: np.ndarray,
               hi: np.ndarray):
    """The part of ring k of a table with lo[k] <= coordinate <= hi[k] on
    one axis: two _clip steps.  Returns the clipped table and the indices of
    the rings left."""
    xy, offsets, live = _clip(xy, offsets, axis, lo, keep_below=False)
    xy, offsets, left = _clip(xy, offsets, axis, hi[live], keep_below=True)
    return xy, offsets, live[left]


def _slab_pairs(xy: np.ndarray, offsets: np.ndarray, axis: int, edges: np.ndarray):
    """Ring k copied once for each slab s, between edges[s] and edges[s + 1]
    on one axis, that its closed extent meets; it clips to nothing in any
    other.  Returns the copies' table and each copy's ring and slab."""
    c = xy[axis]
    lo = np.minimum.reduceat(c, offsets[:-1]) if len(c) else c
    hi = np.maximum.reduceat(c, offsets[:-1]) if len(c) else c
    first = np.searchsorted(edges[1:], lo, "left")
    count = np.maximum(np.searchsorted(edges[:-1], hi, "right") - first, 0)
    ring = np.repeat(np.arange(len(count)), count)
    slab = first[ring] + np.arange(len(ring)) - np.repeat(np.cumsum(count) - count, count)
    lengths = np.diff(offsets)[ring]
    copies = np.concatenate(([0], np.cumsum(lengths)))
    at = np.arange(copies[-1]) + np.repeat(offsets[ring] - copies[:-1], lengths)
    return xy[:, at], copies, ring, slab


def grid_areas(geoms: Sequence[MultiPolygon], lon_edges, lat_edges):
    """The overlap of each multipolygon with the cells of the grid given by
    the ascending edges, km^2: the arrays (geometry, i, j, area) over the
    cells (i, j), between lon_edges[i:i + 2] and lat_edges[j:j + 2], where
    it is positive, ordered by geometry, i and j.

    Every (ring, column) pair the ring can touch is clipped between the
    column's meridians and every (piece, band) pair between the band's
    parallels, all pairs at once.  A piece of under 1e-12 km^2 counts as
    none.  A polygon's area in a cell is its outer piece's less its hole
    pieces' (see _net_area), taken where the outer piece has area, and a
    cell's area is the fsum over the polygons, floored at zero.
    """
    lon_edges = np.asarray(lon_edges, dtype=float)
    lat_edges = np.asarray(lat_edges, dtype=float)
    xy, offsets, geom, poly, hole = _ring_table(geoms)
    xy, offsets, ring, col = _slab_pairs(xy, offsets, 0, lon_edges)
    xy, offsets, left = _clip_slab(xy, offsets, 0, lon_edges[col], lon_edges[col + 1])
    ring, col = ring[left], col[left]
    xy, offsets, piece, band = _slab_pairs(xy, offsets, 1, lat_edges)
    xy, offsets, left = _clip_slab(xy, offsets, 1, lat_edges[band], lat_edges[band + 1])
    ring, col, band = ring[piece[left]], col[piece[left]], band[left]
    area = np.abs(_signed_areas(xy, offsets))
    area = np.where(area >= _SLIVER_AREA_KM2, area, 0.0)

    # each polygon's pieces in a cell, its outer piece first, in the order a
    # walk over columns, then bands, then polygons meets them
    g, p = geom[ring], poly[ring]
    nx, ny = len(lon_edges) - 1, len(lat_edges) - 1
    some = np.flatnonzero(area > 0.0)
    some = some[np.lexsort((hole[ring[some]], p[some], band[some], col[some], g[some]))]
    inner = hole[ring[some]]
    starts, holes = _fsum_runs(np.where(inner, area[some], 0.0),
                               (p[some] * nx + col[some]) * ny + band[some])
    led = ~inner[starts]   # a polygon's holes count only where its outer piece has area
    outer = some[starts[led]]
    net, errors = _net_area(area[outer], holes[led])
    if errors:
        raise next(iter(errors.values()))
    cells, total = _fsum_runs(net, (g[outer] * nx + col[outer]) * ny + band[outer])
    kept = total > 0.0   # a cell of no area is left out, as one of less would be
    at = outer[cells[kept]]
    return g[at], col[at], band[at], total[kept]


def _fsum_runs(values: np.ndarray, keys: np.ndarray):
    """The exactly rounded sum (math.fsum) of the values of each run of
    equal non-negative keys: each run's first index, and its sum."""
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    ends = np.append(starts[1:], len(keys))
    sums, listed = values[starts], values.tolist()
    for k in np.flatnonzero(ends - starts > 1).tolist():
        sums[k] = fsum(listed[starts[k]:ends[k]])
    return starts, sums


def intersection_area(m: MultiPolygon, rect: LonLatRect) -> float:
    """Area of the overlap between a multipolygon and a rect, km^2: the
    one cell of :func:`grid_areas` over the rect."""
    area = grid_areas([m], [rect.min_lon, rect.max_lon], [rect.min_lat, rect.max_lat])[3]
    return float(area.sum())   # of one cell at most


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

