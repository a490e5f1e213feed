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

from .errors import ConfigError, DomainError
from .geometry import (
    Geometry,
    LonLatRect,
    geometry_bounds,
    intersection_area,
    polygon_area,
    spherical_rect_area,
)
from .ingest import LocatedRecord, PopulationUnit

# Land slivers below this area (km^2) count as open water.
_MIN_LAND_AREA_KM2 = 1e-9


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
    except Exception:
        return grid
    i0, i1, j0, j1 = _cell_index_range(grid, bounds)
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            a = intersection_area(land, grid.cell_rect(i, j))
            area[i, j] = a if a >= _MIN_LAND_AREA_KM2 else 0.0
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


def _accumulate_points(target: np.ndarray, grid: DensityGrid,
                       lons: np.ndarray, lats: np.ndarray,
                       weights: np.ndarray) -> None:
    s = grid.spec.study
    x = grid.spec.x
    inside = ((lons >= s.min_lon) & (lons <= s.max_lon)
              & (lats >= s.min_lat) & (lats <= s.max_lat))
    lons, lats, weights = lons[inside], lats[inside], weights[inside]
    ii = np.minimum(((lons - s.min_lon) / s.width * x).astype(np.int64), x - 1)
    jj = np.minimum(((lats - s.min_lat) / s.height * x).astype(np.int64), x - 1)
    np.add.at(target, (ii, jj), weights)


def _accumulate_box(target: np.ndarray, grid: DensityGrid,
                    box: LonLatRect, weight: float) -> None:
    total = spherical_rect_area(box)
    if total <= 0.0:
        raise DomainError("zero-area box must arrive as a point")
    i0, i1, j0, j1 = _cell_index_range(grid, box)
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            inter = box.intersect(grid.cell_rect(i, j))
            if inter is None:
                continue
            f = spherical_rect_area(inter) / total
            if f > 0.0:
                target[i, j] += weight * f


def _accumulate(target: np.ndarray, grid: DensityGrid,
                records: Sequence[LocatedRecord],
                weights: Sequence[float]) -> None:
    pts_lon, pts_lat, pts_w = [], [], []
    for r, w in zip(records, weights):
        if r.point is not None:
            pts_lon.append(r.point[0])
            pts_lat.append(r.point[1])
            pts_w.append(w)
        else:
            _accumulate_box(target, grid, r.box, w)
    if pts_lon:
        _accumulate_points(target, grid, np.asarray(pts_lon), np.asarray(pts_lat),
                           np.asarray(pts_w))


def accumulate_tweets(grid: DensityGrid, records: Sequence[LocatedRecord]
                      ) -> DensityGrid:
    """Add one unit of tweet mass per record, spread by f_jb for boxes."""
    _accumulate(grid.n_t, grid, records, np.ones(len(records)))
    return grid


def group_by_user(records: Sequence[LocatedRecord]) -> list[tuple[str, list]]:
    """(user_id, records) pairs sorted by user id."""
    by_user: dict[str, list] = defaultdict(list)
    for r in records:
        by_user[r.user_id].append(r)
    return sorted(by_user.items())


def accumulate_users(grid: DensityGrid, groups: Sequence[tuple[str, list]]
                     ) -> DensityGrid:
    """Add one unit of user mass per user, spread as f_jb / N_t(i)."""
    records: list[LocatedRecord] = []
    weights: list[float] = []
    for user_id, recs in groups:
        if not recs:
            raise ValueError(f"empty user group: {user_id}")
        w = 1.0 / len(recs)
        records.extend(recs)
        weights.extend([w] * len(recs))
    _accumulate(grid.n_u, grid, records, weights)
    return grid


def apportion_population(grid: DensityGrid, units: Sequence[PopulationUnit]
                         ) -> list[str]:
    """Spread each unit's population over cells proportionally to the
    intersection area with the unit polygon.  Returns diagnostics for
    skipped zero-area units."""
    diags: list[str] = []
    for unit in units:
        total_area = polygon_area(unit.geometry)
        if total_area <= _MIN_LAND_AREA_KM2:
            diags.append(f"unit {unit.unit_id}: zero geometric area, skipped")
            continue
        bounds = geometry_bounds(unit.geometry)
        if bounds.intersect(grid.spec.study) is None:
            continue
        i0, i1, j0, j1 = _cell_index_range(grid, bounds)
        has_youth = unit.population_18_35 is not None
        if has_youth:
            grid.has_youth = True
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                a = intersection_area(unit.geometry, grid.cell_rect(i, j))
                if a <= 0.0:
                    continue
                share = a / total_area
                grid.n_p[i, j] += unit.population * share
                if has_youth:
                    grid.n_y[i, j] += unit.population_18_35 * share
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


def run_grid_pipeline(spec: GridSpec, land: Geometry,
                      records: Sequence[LocatedRecord],
                      units: Sequence[PopulationUnit]) -> DensityGrid:
    """Build the grid, accumulate tweets, users and population, and derive
    densities."""
    grid = build_grid(spec, land)
    accumulate_tweets(grid, records)
    accumulate_users(grid, group_by_user(records))
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
