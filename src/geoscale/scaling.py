"""Power-law fits between grid densities, resolution scans, scaling-window
detection and the alpha = beta * gamma consistency check.

Fits are unweighted ordinary least squares of log10(y) on log10(x).  All
sums use math.fsum, so results are bit-for-bit independent of point order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, InsufficientDataError
from .geometry import MultiPolygon, spherical_rect_area
from .gridding import DENSITY_LETTERS, DensityGrid, GridSpec, densities, run_grid_pipeline

DEFAULT_X_LIST = (8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 96, 112, 128)

EXPONENTS = ("alpha", "beta", "gamma")
EXPONENT_RELATION = {"alpha": "T_vs_P", "beta": "U_vs_P",
                     "gamma": "T_vs_U", "delta": "Y_vs_P"}


@dataclass(frozen=True)
class FitResult:
    relation: str
    exponent: float
    exponent_stderr: float
    log10_prefactor: float
    prefactor_stderr: float     # standard error of log10_prefactor
    r_squared: float
    n_points: int


@dataclass
class ScanResult:
    x_values: list[int]
    fits: dict = field(default_factory=dict)            # X -> {"alpha": FitResult, ...}
    mean_cell_area: dict = field(default_factory=dict)  # X -> km^2


@dataclass(frozen=True)
class ScalingWindow:
    x_min: int
    x_max: int
    means: dict  # exponent name -> inverse-variance-weighted mean over the window


@dataclass(frozen=True)
class ConsistencyReport:
    delta: float
    propagated_sigma: float
    z_score: float


def log10_points(points: Iterable[tuple[float, float]]
                 ) -> list[tuple[float, float]]:
    """(log10 x, log10 y) of each point; raises ValueError unless every
    point is strictly positive."""
    # math.log10, one value at a time: the vectorised np.log10 (numpy 2.4,
    # AVX-512) differs from it in 2-20% of float64 inputs, which would change
    # the bytes of fits.csv.
    logs = []
    for px, py in points:
        if px <= 0 or py <= 0:
            raise ValueError(f"points must be strictly positive, got ({px}, {py})")
        logs.append((math.log10(px), math.log10(py)))
    return logs


def fit_logs(logs: Sequence[tuple[float, float]], relation: str = "") -> FitResult:
    """OLS fit of log10(y) on log10(x) over (log10 x, log10 y) pairs: the
    one fit every exponent goes through.

    The slope is the scaling exponent, the intercept the log10 prefactor.
    Standard errors are the classical OLS formulas.  When SS_tot and SS_res
    are both zero (all y equal, fitted exactly) R^2 is defined as 1.
    """
    n = len(logs)
    if n < 3:
        raise InsufficientDataError(f"need >= 3 points, got {n}")
    lx = [a for a, _ in logs]
    ly = [b for _, b in logs]

    mx = math.fsum(lx) / n
    my = math.fsum(ly) / n
    sxx = math.fsum((v - mx) ** 2 for v in lx)
    if sxx == 0.0:
        raise InsufficientDataError("zero variance in x")
    sxy = math.fsum((a - mx) * (b - my) for a, b in logs)
    slope = sxy / sxx
    intercept = my - slope * mx

    ss_res = math.fsum((b - (intercept + slope * a)) ** 2 for a, b in logs)
    ss_tot = math.fsum((b - my) ** 2 for b in ly)
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        r2 = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)

    s2 = ss_res / (n - 2)
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + mx * mx / sxx))
    return FitResult(relation, slope, se_slope, intercept, se_intercept, r2, n)


def fit_power_law(points: Sequence[tuple[float, float]],
                  relation: str = "") -> FitResult:
    """fit_logs over the log10 of strictly positive (x, y) points."""
    return fit_logs(log10_points(points), relation)


def check_fit_thresholds(min_tweets: float, min_population: float) -> None:
    """Raise ConfigError if a cell threshold is NaN, which no count meets."""
    if math.isnan(min_tweets) or math.isnan(min_population):
        raise ConfigError("fit_min_tweets and fit_min_population must not be NaN")


def cell_indices(grid: DensityGrid, min_tweets: float = 1.0,
                 min_population: float = 1.0) -> list[tuple[int, int]]:
    """(i, j) of the cells with land area, at least ``min_tweets`` tweets
    and ``min_population`` residents, in row-major order.

    Thresholds apply to the raw count accumulators, not densities.
    """
    mask = (grid.land_area > 0) & (grid.n_t >= min_tweets) & (grid.n_p >= min_population)
    return list(zip(*(a.tolist() for a in np.nonzero(mask))))


def relation_densities(grid: DensityGrid, relation: str
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The (y, x) density arrays of relation "Y_vs_X", each letter one of
    T, U, P and Y.  Raises InsufficientDataError for Y on a grid without
    youth counts and DataError for any other relation."""
    letters = relation.split("_vs_")
    if len(letters) != 2 or not set(letters) <= set(DENSITY_LETTERS):
        raise DataError(f"unknown relation: {relation!r}")
    if "Y" in letters and grid.n_y is None:
        raise InsufficientDataError(
            "grid has no youth population data: every census unit that reaches "
            "the grid must carry population_18_35")
    return densities(grid, "".join(letters))


def density_points(grid: DensityGrid, cells: Sequence[tuple[int, int]],
                   name: str) -> list[Optional[tuple[float, float]]]:
    """The (x, y) densities of exponent ``name`` at each (i, j) cell: its
    relation "Y_vs_X" in EXPONENT_RELATION pairs density x with density y.
    None stands for a cell whose x or y is not positive, which no fit uses."""
    ys, xs = relation_densities(grid, EXPONENT_RELATION[name])
    i, j = np.asarray(cells, dtype=np.intp).reshape(-1, 2).T
    return [(x, y) if x > 0 and y > 0 else None
            for x, y in zip(xs[i, j].tolist(), ys[i, j].tolist())]


def fit_exponent(grid: DensityGrid, cells: Sequence[tuple[int, int]],
                 name: str) -> FitResult:
    """Fit exponent ``name`` over the given (i, j) cells, leaving out those
    whose x or y is not positive (see density_points)."""
    return fit_power_law([p for p in density_points(grid, cells, name) if p],
                         EXPONENT_RELATION[name])


def fit_cells(grid: DensityGrid, cells: Sequence[tuple[int, int]]
              ) -> dict[str, FitResult]:
    """Fit alpha (T vs P), beta (U vs P) and gamma (T vs U) over the given
    (i, j) cells."""
    return {name: fit_exponent(grid, cells, name) for name in EXPONENTS}


def fit_all(grid: DensityGrid, min_tweets: float = 1.0,
            min_population: float = 1.0) -> dict[str, FitResult]:
    """fit_cells over one shared selection, the cells of cell_indices."""
    return fit_cells(grid, cell_indices(grid, min_tweets, min_population))


LogTable = dict[str, list[Optional[tuple[float, float]]]]


def log_table(grid: DensityGrid, cells: Sequence[tuple[int, int]]) -> LogTable:
    """For each exponent, (log10 x, log10 y) of its densities at each (i, j)
    cell, None where x or y is not positive: computed once, for fit_rows to
    fit any selection of the cells."""
    table = {}
    for name in EXPONENTS:
        points = density_points(grid, cells, name)
        logs = iter(log10_points(p for p in points if p))
        table[name] = [next(logs) if p else None for p in points]
    return table


def fit_rows(table: LogTable, rows: Sequence[int]) -> dict[str, FitResult]:
    """Each exponent of a log_table fitted over the cells at the given row
    numbers: fit_cells of those cells, without recomputing a density or a
    log."""
    return {name: fit_logs([logs[k] for k in rows if logs[k] is not None],
                           EXPONENT_RELATION[name])
            for name, logs in table.items()}


def mean_cell_area(spec: GridSpec) -> float:
    """Mean water-free (full-rect) cell area at this resolution, km^2."""
    return spherical_rect_area(spec.study) / (spec.x * spec.x)


def scan_resolutions(records, units, land: MultiPolygon, specs: Sequence[GridSpec],
                     min_tweets: float = 1.0, min_population: float = 1.0
                     ) -> ScanResult:
    """Rebuild the grid and refit for every spec, in the given order.
    Resolutions whose fit fails are reported absent, not fatal."""
    result = ScanResult(x_values=[spec.x for spec in specs])
    for spec in specs:
        x = spec.x
        grid = run_grid_pipeline(spec, land, records, units)
        result.mean_cell_area[x] = mean_cell_area(spec)
        try:
            result.fits[x] = fit_all(grid, min_tweets, min_population)
        except InsufficientDataError:
            pass
    return result


def _weighted_mean(values: Sequence[float], sigmas: Sequence[float]
                   ) -> tuple[float, float]:
    """Inverse-variance weighted mean and its variance.  Zero sigmas get a
    tiny floor so exact fits do not produce infinities."""
    weights = [1.0 / max(s * s, 1e-300) for s in sigmas]
    wsum = math.fsum(weights)
    mean = math.fsum(w * v for w, v in zip(weights, values)) / wsum
    return mean, 1.0 / wsum


def _run_qualifies(fits_by_x: dict, run_xs: Sequence[int]
                   ) -> tuple[bool, dict, float]:
    means: dict[str, float] = {}
    pooled = 0.0
    for name in EXPONENTS:
        ests = [fits_by_x[x][name].exponent for x in run_xs]
        sigmas = [fits_by_x[x][name].exponent_stderr for x in run_xs]
        mean, var = _weighted_mean(ests, sigmas)
        for e, s in zip(ests, sigmas):
            tol = s if s > 0 else 1e-12 * max(1.0, abs(mean))
            if abs(e - mean) > tol:
                return False, {}, 0.0
        means[name] = mean
        pooled += var
    return True, means, pooled


def detect_window(scan: ScanResult, min_run: int = 3) -> Optional[ScalingWindow]:
    """Longest contiguous X-run where every alpha/beta/gamma estimate lies
    within 1 stderr of the run's inverse-variance-weighted mean.  Ties go
    to the run with smaller pooled variance."""
    xs = scan.x_values
    if len(xs) < min_run:
        return None
    best: Optional[tuple[int, float, ScalingWindow]] = None
    for i in range(len(xs)):
        for j in range(i + min_run - 1, len(xs)):
            run_xs = xs[i:j + 1]
            if any(x not in scan.fits for x in run_xs):
                continue
            ok, means, pooled = _run_qualifies(scan.fits, run_xs)
            if not ok:
                continue
            cand = ScalingWindow(run_xs[0], run_xs[-1], means)
            key = (len(run_xs), -pooled)
            if best is None or key > (best[0], -best[1]):
                best = (len(run_xs), pooled, cand)
    return best[2] if best else None


def consistency(alpha: FitResult, beta: FitResult, gamma: FitResult
                ) -> ConsistencyReport:
    """Check alpha = beta * gamma with first-order error propagation
    (independent errors assumed).  With all stderrs zero, z is 0 for an
    exact match and infinity otherwise."""
    delta = alpha.exponent - beta.exponent * gamma.exponent
    var = (alpha.exponent_stderr ** 2
           + (gamma.exponent * beta.exponent_stderr) ** 2
           + (beta.exponent * gamma.exponent_stderr) ** 2)
    sigma = math.sqrt(var)
    if sigma == 0.0:
        z = 0.0 if delta == 0.0 else math.inf
    else:
        z = delta / sigma
    return ConsistencyReport(delta, sigma, z)
