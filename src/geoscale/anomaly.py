"""Anomalies against fitted trends: measured minus predicted density, its
normalised (relative) form, map exports and the anomaly-anomaly correlation.

Caps apply only to exported values; statistics always use the raw ones.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, UnavailableError
from .gridding import DensityGrid, GridSpec
from .scaling import FitResult, fit_power_law, select_cells


def predict(fit: FitResult, x: float) -> float:
    """Trend prediction 10^log10_prefactor * x^exponent."""
    if x <= 0:
        raise DomainError(f"prediction needs x > 0, got {x}")
    return 10.0 ** fit.log10_prefactor * x ** fit.exponent


def anomaly_abs(measured: float, predicted: float) -> float:
    """Signed difference between measured and predicted density."""
    return measured - predicted


def anomaly_rel(measured: float, predicted: float) -> float:
    """Difference normalised by the geometric mean of both densities, so a
    rural 4-vs-2 cell is exactly as anomalous as an urban 40000-vs-20000
    one."""
    if measured <= 0 or predicted <= 0:
        raise DomainError("relative anomaly needs both values > 0")
    return (measured - predicted) / math.sqrt(predicted * measured)


@dataclass
class AnomalyGrid:
    spec: GridSpec
    kind: str                   # "TU" | "YP"
    abs_cap: float
    rel_cap: float
    measured: np.ndarray
    predicted: np.ndarray
    a_abs: np.ndarray           # NaN on masked cells
    a_rel: np.ndarray
    masked: np.ndarray          # bool
    mask_rule: str

    @property
    def a_abs_capped(self) -> np.ndarray:
        return np.clip(self.a_abs, -self.abs_cap, self.abs_cap)

    @property
    def a_rel_capped(self) -> np.ndarray:
        return np.clip(self.a_rel, -self.rel_cap, self.rel_cap)


def anomaly_map(grid: DensityGrid, fit: FitResult, kind: str = "TU",
                abs_cap: float = 1000.0, rel_cap: float = 2.0,
                min_t_density: float = 1.0, min_p_density: float = 1.0
                ) -> AnomalyGrid:
    """Per-cell anomalies of measured vs trend-predicted density.

    TU compares measured tweet density against the T-vs-U fit applied to
    user density; YP compares measured youth density against the Y-vs-P fit
    applied to population density.  Cells below the tweet or population
    density thresholds, or where either side of the comparison is
    nonpositive, are masked.
    """
    if kind == "TU":
        measured_arr, driver_arr = grid.t, grid.u
    elif kind == "YP":
        if not grid.has_youth or grid.y is None:
            raise UnavailableError("no youth densities on this grid")
        measured_arr, driver_arr = grid.y, grid.p
    else:
        raise DomainError(f"unknown anomaly kind: {kind!r}")
    if measured_arr is None or grid.t is None or grid.p is None:
        raise DomainError("densities must be computed before mapping anomalies")

    x = grid.spec.x
    with np.errstate(invalid="ignore"):
        # NaN densities (water cells) compare False and stay masked
        density_ok = ((grid.land_area > 0)
                      & (grid.t >= min_t_density)
                      & (grid.p >= min_p_density))
        usable = density_ok & (measured_arr > 0) & (driver_arr > 0)

    measured = np.where(usable, measured_arr, np.nan)
    predicted = np.full((x, x), np.nan)
    ii, jj = np.nonzero(usable)
    for i, j in zip(ii, jj):
        predicted[i, j] = predict(fit, driver_arr[i, j])

    a_abs = measured - predicted
    with np.errstate(invalid="ignore"):
        a_rel = (measured - predicted) / np.sqrt(predicted * measured)

    rule = (f"masked unless T >= {min_t_density}/km^2, P >= {min_p_density}/km^2, "
            f"measured > 0 and predictor > 0")
    return AnomalyGrid(grid.spec, kind, abs_cap, rel_cap, measured, predicted,
                       a_abs, a_rel, ~usable, rule)


def youth_fit(grid: DensityGrid, min_tweets: float = 1.0,
              min_population: float = 1.0) -> FitResult:
    """Power-law fit of youth density against population density."""
    if not grid.has_youth:
        raise UnavailableError("grid has no youth population data")
    cells = select_cells(grid, min_tweets, min_population)
    pts = [(c[2], c[3]) for c in cells if c[2] > 0 and c[3] > 0]
    return fit_power_law(pts, "Y_vs_P")


@dataclass(frozen=True)
class CorrelationResult:
    pearson_r: float
    n: int
    pairs: np.ndarray  # shape (n, 2), raw (uncapped) values


def anomaly_correlation(a: AnomalyGrid, b: AnomalyGrid, which: str = "abs"
                        ) -> CorrelationResult:
    """Pearson correlation between two anomaly grids over cells unmasked in
    both, using raw (uncapped) values.  ``which`` picks abs-vs-abs or
    rel-vs-rel pairing."""
    if a.spec != b.spec:
        raise ValueError("anomaly grids have different specs")
    if which == "abs":
        va, vb = a.a_abs, b.a_abs
    elif which == "rel":
        va, vb = a.a_rel, b.a_rel
    else:
        raise ValueError(f"unknown pairing: {which!r}")
    both = ~(a.masked | b.masked)
    xs = va[both]
    ys = vb[both]
    ok = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[ok], ys[ok]
    if len(xs) < 3:
        raise InsufficientDataError(f"need >= 3 paired cells, got {len(xs)}")
    r = float(np.corrcoef(xs, ys)[0, 1])
    return CorrelationResult(r, len(xs), np.column_stack([xs, ys]))


_CSV_COLUMNS = ["i", "j", "min_lon", "min_lat", "max_lon", "max_lat",
                "measured", "predicted", "A_abs", "A_abs_capped",
                "A_rel", "A_rel_capped", "masked"]


def anomaly_to_csv(a: AnomalyGrid, path) -> None:
    edges = DensityGrid(a.spec, np.zeros((a.spec.x, a.spec.x)))
    abs_c = a.a_abs_capped
    rel_c = a.a_rel_capped

    def fmt(v: float) -> str:
        return "" if not math.isfinite(v) else repr(float(v))

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_COLUMNS)
        for i in range(a.spec.x):
            for j in range(a.spec.x):
                rect = edges.cell_rect(i, j)
                w.writerow([i, j, repr(rect.min_lon), repr(rect.min_lat),
                            repr(rect.max_lon), repr(rect.max_lat),
                            fmt(a.measured[i, j]), fmt(a.predicted[i, j]),
                            fmt(a.a_abs[i, j]), fmt(abs_c[i, j]),
                            fmt(a.a_rel[i, j]), fmt(rel_c[i, j]),
                            int(a.masked[i, j])])


def anomaly_to_geojson(a: AnomalyGrid) -> dict:
    """One rectangle feature per unmasked cell, ready for choropleth tools."""
    edges = DensityGrid(a.spec, np.zeros((a.spec.x, a.spec.x)))
    abs_c = a.a_abs_capped
    rel_c = a.a_rel_capped
    features = []
    for i in range(a.spec.x):
        for j in range(a.spec.x):
            if a.masked[i, j]:
                continue
            rect = edges.cell_rect(i, j)
            ring = [[rect.min_lon, rect.min_lat], [rect.max_lon, rect.min_lat],
                    [rect.max_lon, rect.max_lat], [rect.min_lon, rect.max_lat],
                    [rect.min_lon, rect.min_lat]]
            features.append({
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {
                    "i": int(i), "j": int(j),
                    "measured": float(a.measured[i, j]),
                    "predicted": float(a.predicted[i, j]),
                    "A_abs": float(a.a_abs[i, j]),
                    "A_abs_capped": float(abs_c[i, j]),
                    "A_rel": float(a.a_rel[i, j]),
                    "A_rel_capped": float(rel_c[i, j]),
                },
            })
    return {"type": "FeatureCollection", "features": features}
