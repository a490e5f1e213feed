"""Regular X-by-X grids over the study rect with fractional mass accumulation.

Tweets contribute 1 unit of mass each, spread over the grid cells their
bounding box overlaps (f_jb = overlap area / box area).  Users contribute
1 unit each, spread as f_jb / N_t(i) over their records.  Census population
is apportioned to cells proportionally to polygon-cell intersection area.
Densities are the accumulators divided by per-cell land area.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateGeometryError, DomainError
from .geometry import Geometry, LonLatRect, geometry_bounds, grid_intersection_areas
from .ingest import Corpus, LocatedRecord, PopulationUnit

# Land slivers below this area (km^2) count as open water.
_MIN_LAND_AREA_KM2 = 1e-9

# Place boxes binned per batch: bounds the (batch, X) overlap arrays.
_BOX_BATCH = 1024


@dataclass(frozen=True)
class GridSpec:
    study: LonLatRect
    x: int

    def __post_init__(self) -> None:
        if self.x < 1:
            raise ConfigError("grid side must be >= 1")
        if self.study.width <= 0 or self.study.height <= 0:
            raise ConfigError("study rect must have positive extent")


class DensityGrid:
    """X-by-X grid of land areas, fractional accumulators and densities.

    Arrays are indexed [i, j] with i the longitude index and j the latitude
    index, both in [0, X).  Cell membership for points is half-open
    [min, max) per axis except the last row/column, which is closed.
    """

    def __init__(self, spec: GridSpec, land_area: np.ndarray) -> None:
        self.spec = spec
        x = spec.x
        self.lon_edges = np.linspace(spec.study.min_lon, spec.study.max_lon, x + 1)
        self.lat_edges = np.linspace(spec.study.min_lat, spec.study.max_lat, x + 1)
        self.land_area = land_area
        self.n_t = np.zeros((x, x))
        self.n_u = np.zeros((x, x))
        self.n_p = np.zeros((x, x))
        self.n_y = np.zeros((x, x))
        self.has_youth = False
        self.t: Optional[np.ndarray] = None
        self.u: Optional[np.ndarray] = None
        self.p: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None

    def cell_rect(self, i: int, j: int) -> LonLatRect:
        return LonLatRect(self.lon_edges[i], self.lat_edges[j],
                          self.lon_edges[i + 1], self.lat_edges[j + 1])


def build_grid(spec: GridSpec, land: Geometry) -> DensityGrid:
    """Compute per-cell land area from the land geometry; accumulators zeroed.

    Cells over open water (including slivers below 1e-9 km^2) get area 0.
    """
    x = spec.x
    area = np.zeros((x, x))
    grid = DensityGrid(spec, area)
    try:
        bounds = geometry_bounds(land)
    except DegenerateGeometryError:   # no land at all
        return grid
    cells, a = _cell_areas(grid, land, bounds)
    area[cells] = np.where(a >= _MIN_LAND_AREA_KM2, a, 0.0)
    return grid


def _cell_index_range(grid: DensityGrid, rect: LonLatRect
                      ) -> tuple[int, int, int, int]:
    """Indices of grid cells whose rect can overlap the given rect (clipped
    to the grid; may be an empty range when disjoint)."""
    x = grid.spec.x
    i0 = int(np.searchsorted(grid.lon_edges, rect.min_lon, side="right")) - 1
    i1 = int(np.searchsorted(grid.lon_edges, rect.max_lon, side="left")) - 1
    j0 = int(np.searchsorted(grid.lat_edges, rect.min_lat, side="right")) - 1
    j1 = int(np.searchsorted(grid.lat_edges, rect.max_lat, side="left")) - 1
    return (max(i0, 0), min(max(i1, i0), x - 1),
            max(j0, 0), min(max(j1, j0), x - 1))


def _cell_areas(grid: DensityGrid, geom: Geometry, bounds: LonLatRect
                ) -> tuple[tuple[slice, slice], np.ndarray]:
    """Intersection areas of a geometry with the cells its bounds can
    overlap: the cells as a pair of slices, and the areas over them."""
    i0, i1, j0, j1 = _cell_index_range(grid, bounds)
    areas = grid_intersection_areas(geom, grid.lon_edges[i0:i1 + 2].tolist(),
                                    grid.lat_edges[j0:j1 + 2].tolist())
    cells = (slice(i0, i1 + 1), slice(j0, j1 + 1))
    return cells, np.array(areas).reshape(i1 + 1 - i0, j1 + 1 - j0)


def _accumulate_points(target: np.ndarray, grid: DensityGrid,
                       lons: np.ndarray, lats: np.ndarray,
                       weights: np.ndarray) -> None:
    s = grid.spec.study
    inside = ((lons >= s.min_lon) & (lons <= s.max_lon)
              & (lats >= s.min_lat) & (lats <= s.max_lat))
    lons, lats, weights = lons[inside], lats[inside], weights[inside]
    np.add.at(target, (_cell_of(lons, grid.lon_edges),
                       _cell_of(lats, grid.lat_edges)), weights)


def _cell_of(v: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Index k of the cell [edges[k], edges[k + 1]) holding each value, the
    last cell closed: searchsorted(edges, v, "right") - 1 capped at X - 1.
    The arithmetic guess is off by one only where rounding moved a value
    across an edge, so one step each way makes it exact at a third of the
    cost of searchsorted on unsorted values."""
    x = len(edges) - 1
    k = np.minimum(((v - edges[0]) / (edges[-1] - edges[0]) * x).astype(np.int64),
                   x - 1)
    k -= v < edges[k]
    k += (v >= edges[k + 1]) & (k < x - 1)
    return k


def _sin_lat(lat: float) -> float:
    return math.sin(math.radians(lat))


def _overlaps(lo: np.ndarray, hi: np.ndarray, m_lo: np.ndarray,
              m_hi: np.ndarray, edges: np.ndarray, m_edges: np.ndarray
              ) -> np.ndarray:
    """(boxes, X) overlap of each interval [lo, hi] with each grid interval,
    measured in m (the coordinate itself, or sin(lat)): each end is the
    box's own where it lies inside the cell and the cell edge otherwise."""
    a = np.where(lo[:, None] >= edges[None, :-1], m_lo[:, None], m_edges[None, :-1])
    b = np.where(hi[:, None] <= edges[None, 1:], m_hi[:, None], m_edges[None, 1:])
    return np.maximum(b - a, 0.0)


def _accumulate(target: np.ndarray, grid: DensityGrid, corpus: Corpus,
                weights: np.ndarray) -> None:
    """Add each row's weight: the boxes first, _BOX_BATCH at a time, then the
    points, each in row order.  A box's share of a cell factorises as
    f_lon(i) * f_lat(j), the overlap fractions of its longitude extent and
    of its extent in sin(lat), so the cell masses are F_lon^T diag(w) F_lat."""
    box = corpus.is_box
    boxes, box_w = corpus.take(box), weights[box]
    sin_edges = np.array([_sin_lat(e) for e in grid.lat_edges])
    for k in range(0, len(boxes), _BOX_BATCH):
        b = slice(k, k + _BOX_BATCH)
        lon0, lon1, lat0, lat1 = boxes.lon0[b], boxes.lon1[b], boxes.lat0[b], boxes.lat1[b]
        s0, s1 = boxes.sin0[b], boxes.sin1[b]
        f_lon = _overlaps(lon0, lon1, lon0, lon1, grid.lon_edges, grid.lon_edges) \
            / (lon1 - lon0)[:, None]
        f_lat = _overlaps(lat0, lat1, s0, s1, grid.lat_edges, sin_edges) \
            / (s1 - s0)[:, None]
        target += (f_lon * box_w[b, None]).T @ f_lat
    point = ~box
    if point.any():
        _accumulate_points(target, grid, corpus.lon0[point], corpus.lat0[point],
                           weights[point])


def accumulate_tweets(grid: DensityGrid, records) -> DensityGrid:
    """Add one unit of tweet mass per record (a Corpus or LocatedRecords),
    spread by f_jb for boxes."""
    corpus = Corpus.of(records)
    _accumulate(grid.n_t, grid, corpus, np.ones(len(corpus)))
    return grid


def _accumulate_user_mass(grid: DensityGrid, corpus: Corpus) -> None:
    """Add one unit of user mass per user, spread as f_jb / N_t(i), with the
    rows in user-id order."""
    corpus = corpus.take(np.argsort(corpus.user, kind="stable"))
    _accumulate(grid.n_u, grid, corpus, 1.0 / corpus.user_counts()[corpus.user])


def group_by_user(records: Sequence[LocatedRecord]) -> list[tuple[str, list]]:
    """(user_id, records) pairs, users in order of their first record."""
    by_user: dict[str, list] = defaultdict(list)
    for r in records:
        by_user[r.user_id].append(r)
    return list(by_user.items())


def accumulate_users(grid: DensityGrid, groups: Sequence[tuple[str, list]]
                     ) -> DensityGrid:
    """Add one unit of user mass per user of the (user_id, records) groups."""
    records: list[LocatedRecord] = []
    for user_id, recs in groups:
        if not recs:
            raise ValueError(f"empty user group: {user_id}")
        records.extend(recs)
    _accumulate_user_mass(grid, Corpus.of(records))
    return grid


def apportion_population(grid: DensityGrid, units: Sequence[PopulationUnit]
                         ) -> list[str]:
    """Spread each unit's population over cells proportionally to the
    intersection area with the unit polygon.  Returns diagnostics for
    skipped zero-area units."""
    diags: list[str] = []
    for unit in units:
        total_area = unit.area
        if total_area <= _MIN_LAND_AREA_KM2:
            diags.append(f"unit {unit.unit_id}: zero geometric area, skipped")
            continue
        if unit.bounds.intersect(grid.spec.study) is None:
            continue
        cells, a = _cell_areas(grid, unit.geometry, unit.bounds)
        has_youth = unit.population_18_35 is not None
        if has_youth:
            grid.has_youth = True
        hit = a > 0.0
        share = a[hit] / total_area
        grid.n_p[cells][hit] += unit.population * share
        if has_youth:
            grid.n_y[cells][hit] += unit.population_18_35 * share
    return diags


def densities(grid: DensityGrid) -> list[str]:
    """Divide accumulators by land area.  Cells with zero land area carry
    NaN densities; nonzero mass over water is reported as a diagnostic."""
    diags: list[str] = []
    a = grid.land_area
    live = a > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        grid.t = np.where(live, grid.n_t / a, np.nan)
        grid.u = np.where(live, grid.n_u / a, np.nan)
        grid.p = np.where(live, grid.n_p / a, np.nan)
        grid.y = np.where(live, grid.n_y / a, np.nan) if grid.has_youth else None
    wet_mass = (~live) & ((grid.n_t > 0) | (grid.n_u > 0) | (grid.n_p > 0))
    for i, j in zip(*np.nonzero(wet_mass)):
        diags.append(f"cell ({i},{j}): mass over water (A=0), excluded")
    return diags


def density_histogram(grid: DensityGrid, quantity: str, bins
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of log10(density) over land cells with positive values."""
    arr = {"T": grid.t, "U": grid.u, "P": grid.p, "Y": grid.y}.get(quantity)
    if arr is None:
        raise DomainError(f"no density values for quantity {quantity!r}")
    vals = arr[np.isfinite(arr) & (arr > 0)]
    return np.histogram(np.log10(vals), bins=bins)


def run_grid_pipeline(spec: GridSpec, land: Geometry, records,
                      units: Sequence[PopulationUnit]) -> DensityGrid:
    """Build the grid, accumulate tweets, users and population from records
    (a Corpus or LocatedRecords), and derive densities."""
    corpus = Corpus.of(records)
    grid = build_grid(spec, land)
    accumulate_tweets(grid, corpus)
    _accumulate_user_mass(grid, corpus)
    apportion_population(grid, units)
    densities(grid)
    return grid


_CSV_COLUMNS = ["i", "j", "min_lon", "min_lat", "max_lon", "max_lat",
                "A_km2", "N_t", "N_u", "N_p", "N_y", "T", "U", "P", "Y"]


def grid_to_csv(grid: DensityGrid, path) -> None:
    def fmt(v) -> str:
        if v is None or (isinstance(v, float) and not math.isfinite(v)):
            return ""
        return repr(float(v))

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_COLUMNS)
        x = grid.spec.x
        for i in range(x):
            for j in range(x):
                rect = grid.cell_rect(i, j)
                row = [i, j, repr(rect.min_lon), repr(rect.min_lat),
                       repr(rect.max_lon), repr(rect.max_lat),
                       fmt(grid.land_area[i, j]),
                       fmt(grid.n_t[i, j]), fmt(grid.n_u[i, j]),
                       fmt(grid.n_p[i, j]),
                       fmt(grid.n_y[i, j]) if grid.has_youth else "",
                       fmt(grid.t[i, j]) if grid.t is not None else "",
                       fmt(grid.u[i, j]) if grid.u is not None else "",
                       fmt(grid.p[i, j]) if grid.p is not None else "",
                       fmt(grid.y[i, j]) if grid.y is not None else ""]
                w.writerow(row)
