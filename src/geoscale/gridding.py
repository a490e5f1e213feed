"""Regular X-by-X grids over the study rect with fractional mass accumulation.

Tweets contribute 1 unit of mass each, spread over the grid cells their
bounding box overlaps (f_jb = overlap area / box area).  Users contribute
1 unit each, spread as f_jb / N_t(i) over their records.  Census population
is apportioned to cells proportionally to polygon-cell intersection area.
A grid holds only these counts and its land area; densities derives each
density from them on demand.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .geometry import (
    MIN_AREA_KM2,
    LonLatRect,
    MultiPolygon,
    grid_areas,
    libm,
)
from .ingest import Corpus, LocatedRecord, PopulationUnit

# Place boxes binned per batch: bounds the (batch, X) overlap arrays.
_BOX_BATCH = 1024
# Points binned per batch: bounds their gathered coordinates and cells.
_POINT_BATCH = 1 << 13
# the density of each count: tweets, users, residents and youth
DENSITY_LETTERS = "TUPY"
# X-by-X float arrays of a DensityGrid: land area and the four counts
_GRID_ARRAYS = 5


@dataclass(frozen=True)
class GridSpec:
    """X-by-X equal lon/lat cells over a study rect of positive extent with
    position corners (see geometry.position): cell (i, j), i the lon index
    and j the lat index, spans lon_edges[i:i + 2] by lat_edges[j:j + 2]."""

    study: LonLatRect
    x: int

    def __post_init__(self) -> None:
        if self.x < 1:
            raise ConfigError(f"grid side must be >= 1, got {self.x}")
        s = self.study
        if not (-180.0 <= s.min_lon < s.max_lon <= 180.0
                and -90.0 <= s.min_lat < s.max_lat <= 90.0):
            raise ConfigError(f"study rect {astuple(s)} must have positive extent, "
                              f"longitudes in [-180, 180] and latitudes in [-90, 90]")

    @cached_property
    def lon_edges(self) -> np.ndarray:
        return np.linspace(self.study.min_lon, self.study.max_lon, self.x + 1)

    @cached_property
    def lat_edges(self) -> np.ndarray:
        return np.linspace(self.study.min_lat, self.study.max_lat, self.x + 1)

    def cell_rect(self, i: int, j: int) -> LonLatRect:
        lon, lat = self.lon_edges, self.lat_edges
        return LonLatRect(float(lon[i]), float(lat[j]),
                          float(lon[i + 1]), float(lat[j + 1]))


class DensityGrid:
    """X-by-X grid of land areas and fractional counts: tweets n_t, users
    n_u, residents n_p and youth n_y, which is None when no youth counts
    reached the grid.  Densities come from the counts through densities.

    Arrays are indexed [i, j] with i the longitude index and j the latitude
    index, both in [0, X).  Cell membership for points is half-open
    [min, max) per axis except the last row/column, which is closed.
    """

    def __init__(self, spec: GridSpec, land_area: np.ndarray) -> None:
        self.spec = spec
        self.lon_edges, self.lat_edges = spec.lon_edges, spec.lat_edges
        self.land_area = land_area
        self.n_t = np.zeros((spec.x, spec.x))
        self.n_u = np.zeros((spec.x, spec.x))
        self.n_p = np.zeros((spec.x, spec.x))
        self.n_y: Optional[np.ndarray] = None


def check_grid_memory(x: int) -> None:
    """Raise MemoryError unless this host can hold the X-by-X arrays of a
    grid: a block of their size is reserved and freed again, so that a
    side too large is found before any input is read."""
    try:
        np.empty((_GRID_ARRAYS, x, x))
    except ValueError as exc:   # more bytes than an array may hold
        raise MemoryError(f"a {x}-by-{x} grid is too large: {exc}") from exc


def build_grid(spec: GridSpec, land: MultiPolygon) -> DensityGrid:
    """Compute per-cell land area from the land geometry; counts zeroed.

    Cells over open water (no more than MIN_AREA_KM2 of land) get area 0.
    """
    area = np.zeros((spec.x, spec.x))
    _, i, j, a = grid_areas([land], spec.lon_edges, spec.lat_edges)
    area[i, j] = np.where(a > MIN_AREA_KM2, a, 0.0)
    return DensityGrid(spec, area)


def _accumulate_points(target: np.ndarray, spec: GridSpec,
                       lons: np.ndarray, lats: np.ndarray,
                       weights: np.ndarray) -> None:
    s = spec.study
    inside = ((lons >= s.min_lon) & (lons <= s.max_lon)
              & (lats >= s.min_lat) & (lats <= s.max_lat))
    lons, lats, weights = lons[inside], lats[inside], weights[inside]
    np.add.at(target, (_cell_of(lons, spec.lon_edges),
                       _cell_of(lats, spec.lat_edges)), weights)


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


def _overlaps(lo: np.ndarray, hi: np.ndarray, m_lo: np.ndarray,
              m_hi: np.ndarray, edges: np.ndarray, m_edges: np.ndarray
              ) -> np.ndarray:
    """(boxes, X) overlap of each interval [lo, hi] with each grid interval,
    measured in m (the coordinate itself, or sin(lat)): each end is the
    box's own where it lies inside the cell and the cell edge otherwise."""
    a = np.where(lo[:, None] >= edges[None, :-1], m_lo[:, None], m_edges[None, :-1])
    b = np.where(hi[:, None] <= edges[None, 1:], m_hi[:, None], m_edges[None, 1:])
    return np.maximum(b - a, 0.0)


def _accumulate(target: np.ndarray, spec: GridSpec, corpus: Corpus,
                weights: np.ndarray, rows: Optional[np.ndarray] = None) -> None:
    """Add the weight of each row, weights indexed by row, taking the rows
    in the order of the index array rows (None: row order): the boxes
    first, _BOX_BATCH at a time, then the points, _POINT_BATCH at a time.
    A batch gathers only its own rows, and a point batch only their two
    coordinates, so the corpus is never copied.  A box's share of a cell
    factorises as f_lon(i) * f_lat(j), the overlap fractions of its
    longitude extent and of its extent in sin(lat), so the cell masses are
    F_lon^T diag(w) F_lat."""
    if rows is None:
        rows = np.arange(len(corpus))
    box = corpus.is_box[rows]
    box_rows, point_rows = rows[box], rows[~box]
    del rows, box
    sin_edges = libm(lambda e: math.sin(math.radians(e)), spec.lat_edges)
    for k in range(0, len(box_rows), _BOX_BATCH):
        b = box_rows[k:k + _BOX_BATCH]
        lon0, lon1, s0, s1 = corpus.lon0[b], corpus.lon1[b], corpus.sin0[b], corpus.sin1[b]
        lat0, lat1 = corpus.lat0[b], corpus.lat1[b]
        f_lon = _overlaps(lon0, lon1, lon0, lon1, spec.lon_edges, spec.lon_edges) \
            / (lon1 - lon0)[:, None]
        f_lat = _overlaps(lat0, lat1, s0, s1, spec.lat_edges, sin_edges) \
            / (s1 - s0)[:, None]
        target += (f_lon * weights[b, None]).T @ f_lat
    for k in range(0, len(point_rows), _POINT_BATCH):
        p = point_rows[k:k + _POINT_BATCH]
        _accumulate_points(target, spec, corpus.lon0[p], corpus.lat0[p], weights[p])


def accumulate_tweets(grid: DensityGrid, records) -> DensityGrid:
    """Add one unit of tweet mass per record (a Corpus or LocatedRecords),
    spread by f_jb for boxes."""
    corpus = Corpus.of(records)
    _accumulate(grid.n_t, grid.spec, corpus, np.ones(len(corpus)))
    return grid


def _accumulate_user_mass(grid: DensityGrid, corpus: Corpus) -> None:
    """Add one unit of user mass per user, spread as f_jb / N_t(i), with the
    rows in user-id order."""
    _accumulate(grid.n_u, grid.spec, corpus, 1.0 / corpus.user_counts()[corpus.user],
                np.argsort(corpus.user, kind="stable"))


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


def apportion_population(grid: DensityGrid, units: Sequence[PopulationUnit]) -> None:
    """Spread each unit's population over cells proportionally to the
    intersection area with the unit polygon; a unit of at most MIN_AREA_KM2
    has none to spread over.  Youth counts are spread too if every unit that
    reaches the grid carries one; else grid.n_y becomes None, as a partial
    youth layer would undercount.

    All units that reach the grid are clipped into their cells in one
    batched pass (geometry.grid_areas), and each cell adds its units'
    shares one at a time in unit order (np.add.at applies repeated indices
    in turn)."""
    reaching = [u for u in units if u.area > MIN_AREA_KM2
                and u.bounds.meets(grid.spec.study)]
    if any(u.population_18_35 is None for u in reaching):
        grid.n_y = None
    elif reaching and grid.n_y is None and not grid.n_p.any():
        # youth starts only on a grid without population, so that it
        # covers every unit on it
        grid.n_y = np.zeros_like(grid.n_p)
    k, i, j, a = grid_areas([u.geometry for u in reaching],
                            grid.spec.lon_edges, grid.spec.lat_edges)

    def per_cell(attr: str) -> np.ndarray:
        return np.array([getattr(u, attr) for u in reaching], dtype=float)[k]

    share = a / per_cell("area")
    np.add.at(grid.n_p, (i, j), per_cell("population") * share)
    if grid.n_y is not None:
        np.add.at(grid.n_y, (i, j), per_cell("population_18_35") * share)


def densities(grid: DensityGrid, letters: str = DENSITY_LETTERS
              ) -> tuple[Optional[np.ndarray], ...]:
    """The density of each letter's count, in order: T tweets, U users,
    P residents and Y youth.  A density is count / land area on land and
    NaN where the land area is 0; Y is None on a grid without youth counts.
    Derived on each call, so it follows the counts."""
    counts = {"T": grid.n_t, "U": grid.n_u, "P": grid.n_p, "Y": grid.n_y}
    a = grid.land_area
    live = a > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return tuple(None if counts[d] is None else np.where(live, counts[d] / a, np.nan)
                     for d in letters)


def water_mass(grid: DensityGrid) -> list[str]:
    """One diagnostic per cell without land that holds tweet, user or
    resident mass, which no density counts."""
    wet = (grid.land_area <= 0.0) & ((grid.n_t > 0) | (grid.n_u > 0) | (grid.n_p > 0))
    return [f"cell ({i},{j}): mass over water (A=0), excluded"
            for i, j in zip(*np.nonzero(wet))]


def run_grid_pipeline(spec: GridSpec, land: MultiPolygon, records: Corpus,
                      units: Sequence[PopulationUnit]) -> DensityGrid:
    """Build the grid and bin the tweets, users and population of the
    records and units into its counts."""
    grid = build_grid(spec, land)
    accumulate_tweets(grid, records)
    _accumulate_user_mass(grid, records)
    apportion_population(grid, units)
    return grid


def _csv_value(v):
    """A value as written to CSV: empty for None and non-finite floats,
    repr(float(v)) for other floats (numpy scalars too), anything else as
    csv writes it."""
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v)) if math.isfinite(v) else ""
    return v


def _write_rows(path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write the header, then each row of values through _csv_value."""
    _write_rows(path, header, ([_csv_value(v) for v in row] for row in rows))


def cells_to_csv(spec: GridSpec, layers: dict, path) -> None:
    """One row per cell, i-major: i, j, the cell's edges and its value in
    each named (X, X) layer; a layer of None is an empty column.  The same
    text as write_csv gives these rows, built a column at a time."""
    x = spec.x
    lon = list(map(_csv_value, spec.lon_edges.tolist()))
    lat = list(map(_csv_value, spec.lat_edges.tolist()))
    ii, jj = [i for i in range(x) for _ in range(x)], list(range(x)) * x
    columns = [ii, jj, [lon[i] for i in ii], [lat[j] for j in jj],
               [lon[i + 1] for i in ii], [lat[j + 1] for j in jj]]
    columns += [[""] * (x * x) if a is None
                else list(map(_csv_value, a.ravel().tolist())) for a in layers.values()]
    _write_rows(path, ["i", "j", "min_lon", "min_lat", "max_lon", "max_lat", *layers],
                zip(*columns))


# json's text for the floats whose repr it does not write
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(values: list) -> list[str]:
    """Numbers as json writes them: repr, but NaN, Infinity and -Infinity
    for the non-finite floats."""
    return [_JSON_NON_FINITE.get(s, s) for s in map(repr, values)]


# A rect Feature as json.dump(feature, indent=2, sort_keys=True) writes it
# at the depth of a FeatureCollection's features, up to its properties: the
# ring's corners counter-clockwise from (min_lon, min_lat), as rect_geojson
# gives them, filled from (min_lon, min_lat, max_lon, min_lat, max_lon,
# max_lat, min_lon, max_lat, min_lon, min_lat).
_CORNER = "            [\n              %s,\n              %s\n            ]"
_FEATURE_HEAD = ('    {\n      "geometry": {\n        "coordinates": [\n          [\n'
                 + ",\n".join([_CORNER] * 5)
                 + '\n          ]\n        ],\n        "type": "Polygon"\n      },\n'
                 '      "properties": {\n')
_FEATURE_TAIL = '\n      },\n      "type": "Feature"\n    }'


def cells_to_geojson(spec: GridSpec, cells: np.ndarray, layers: dict, path) -> None:
    """A FeatureCollection with one rectangle Feature per True cell of the
    (X, X) bool array cells, i-major, whose properties are i, j and the
    cell's value in each named (X, X) layer of numbers.  The file holds
    exactly what json.dump(collection, fh, indent=2, sort_keys=True) and a
    newline write, filled into one text template per feature."""
    ii, jj = np.nonzero(cells)
    lon = _json_numbers(spec.lon_edges.tolist())
    lat = _json_numbers(spec.lat_edges.tolist())
    values = {name: a[cells].tolist() for name, a in layers.items()}
    values.update(i=ii.tolist(), j=jj.tolist())
    names = sorted(values)
    template = _FEATURE_HEAD + ",\n".join(
        "        %s: %%s" % json.dumps(name).replace("%", "%%") for name in names
    ) + _FEATURE_TAIL
    columns = [_json_numbers(values[name]) for name in names]
    features = [template % (lon[i], lat[j], lon[i + 1], lat[j], lon[i + 1], lat[j + 1],
                            lon[i], lat[j + 1], lon[i], lat[j], *props)
                for i, j, *props in zip(values["i"], values["j"], *columns)]
    body = '[\n%s\n  ]' % ",\n".join(features) if features else "[]"
    with open(path, "w") as fh:
        fh.write('{\n  "features": %s,\n  "type": "FeatureCollection"\n}\n' % body)


def grid_to_csv(grid: DensityGrid, path) -> None:
    t, u, p, y = densities(grid)
    cells_to_csv(grid.spec, {
        "A_km2": grid.land_area, "N_t": grid.n_t, "N_u": grid.n_u, "N_p": grid.n_p,
        "N_y": grid.n_y, "T": t, "U": u, "P": p, "Y": y}, path)
