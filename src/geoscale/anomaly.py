"""Anomalies against fitted trends: measured minus predicted density, its
normalised (relative) form, map exports and the anomaly-anomaly correlation.

Caps apply only to exported values; statistics always use the raw ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InsufficientDataError
from .gridding import DensityGrid, GridSpec, cells_to_csv, cells_to_geojson, densities
from .scaling import FitResult, cell_indices, fit_exponent, relation_densities


def predict(fit: FitResult, x: float) -> float:
    """Trend prediction 10^log10_prefactor * x^exponent."""
    if x <= 0:
        raise DataError(f"prediction needs x > 0, got {x}")
    # One value at a time through the C library's pow (float and numpy-scalar
    # ** alike): the vectorised np.power (numpy 2.4, AVX-512) differs from it
    # in about 5% of float64 inputs, which would change the bytes of
    # anomaly_*.csv.
    return 10.0 ** fit.log10_prefactor * x ** fit.exponent


def anomaly_rel(measured: float, predicted: float) -> float:
    """Difference normalised by the geometric mean of both densities, so a
    rural 4-vs-2 cell is exactly as anomalous as an urban 40000-vs-20000
    one."""
    if measured <= 0 or predicted <= 0:
        raise DataError("relative anomaly needs both values > 0")
    return (measured - predicted) / math.sqrt(predicted * measured)


def check_map_settings(abs_cap: float, rel_cap: float, min_t_density: float,
                       min_p_density: float) -> None:
    """Raise ConfigError unless both caps are > 0 (inf for no cap) and both
    mask densities are >= 0; NaN is neither."""
    if not (abs_cap > 0 and rel_cap > 0):
        raise ConfigError("abs_cap and rel_cap must be > 0")
    if not (min_t_density >= 0 and min_p_density >= 0):
        raise ConfigError("mask densities must be >= 0")


@dataclass
class AnomalyGrid:
    spec: GridSpec
    relation: str               # the fit's, e.g. "T_vs_U" or "Y_vs_P"
    abs_cap: float
    rel_cap: float
    measured: np.ndarray
    predicted: np.ndarray
    a_abs: np.ndarray           # NaN on masked cells
    a_rel: np.ndarray
    masked: np.ndarray          # bool

    @property
    def a_abs_capped(self) -> np.ndarray:
        return np.clip(self.a_abs, -self.abs_cap, self.abs_cap)

    @property
    def a_rel_capped(self) -> np.ndarray:
        return np.clip(self.a_rel, -self.rel_cap, self.rel_cap)


def anomaly_map(grid: DensityGrid, fit: FitResult,
                abs_cap: float = 1000.0, rel_cap: float = 2.0,
                min_t_density: float = 1.0, min_p_density: float = 1.0
                ) -> AnomalyGrid:
    """Per-cell anomalies of measured vs trend-predicted density.

    The fit's relation "Y_vs_X" compares measured density y against the fit
    applied to density x: tweets against users for the T-vs-U fit, youth
    against population for the Y-vs-P one.  Cells below the tweet or
    population density thresholds, or where either side of the comparison
    is nonpositive, are masked.  The settings must pass check_map_settings.
    """
    check_map_settings(abs_cap, rel_cap, min_t_density, min_p_density)
    measured_arr, driver_arr = relation_densities(grid, fit.relation)
    t, p = densities(grid, "TP")
    x = grid.spec.x
    with np.errstate(invalid="ignore"):
        # NaN densities (water cells) compare False and stay masked
        usable = ((t >= min_t_density) & (p >= min_p_density)
                  & (measured_arr > 0) & (driver_arr > 0))

    measured = np.where(usable, measured_arr, np.nan)
    predicted = np.full((x, x), np.nan)
    a_rel = np.full((x, x), np.nan)
    for i, j in zip(*np.nonzero(usable)):
        predicted[i, j] = predict(fit, driver_arr[i, j])
        a_rel[i, j] = anomaly_rel(measured[i, j], predicted[i, j])
    return AnomalyGrid(grid.spec, fit.relation, abs_cap, rel_cap, measured, predicted,
                       measured - predicted, a_rel, ~usable)


def youth_fit(grid: DensityGrid, min_tweets: float = 1.0,
              min_population: float = 1.0) -> FitResult:
    """Power-law fit of youth density against population density."""
    return fit_exponent(grid, cell_indices(grid, min_tweets, min_population),
                        "delta")


@dataclass(frozen=True)
class CorrelationResult:
    pearson_r: float
    n: int


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
    return CorrelationResult(r, len(xs))


def _exported(a: AnomalyGrid) -> dict:
    """The per-cell values a map exports, by column name."""
    return {"measured": a.measured, "predicted": a.predicted,
            "A_abs": a.a_abs, "A_abs_capped": a.a_abs_capped,
            "A_rel": a.a_rel, "A_rel_capped": a.a_rel_capped}


def anomaly_to_csv(a: AnomalyGrid, path) -> None:
    cells_to_csv(a.spec, {**_exported(a), "masked": a.masked.astype(int)}, path)


def anomaly_to_geojson(a: AnomalyGrid, path) -> None:
    """One rectangle feature per unmasked cell, ready for choropleth tools."""
    cells_to_geojson(a.spec, ~a.masked, _exported(a), path)
