"""Power-law fits between grid densities, resolution scans, scaling-window
detection and the alpha = beta * gamma consistency check.

Fits are unweighted ordinary least squares of log10(y) on log10(x).  All
sums use math.fsum, so results are bit-for-bit independent of point order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateFitError, InsufficientDataError
from .geometry import Geometry, LonLatRect, spherical_rect_area
from .gridding import DensityGrid, GridSpec, run_grid_pipeline

DEFAULT_X_LIST = (8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 96, 112, 128)

# relation name -> (x quantity, y quantity)
RELATIONS = {
    "T_vs_P": ("P", "T"),   # exponent alpha
    "U_vs_P": ("P", "U"),   # exponent beta
    "T_vs_U": ("U", "T"),   # exponent gamma
    "Y_vs_P": ("P", "Y"),   # exponent delta
}

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


def fit_power_law(points: Sequence[tuple[float, float]],
                  relation: str = "") -> FitResult:
    """OLS fit of log10(y) on log10(x) over strictly positive points.

    The slope is the scaling exponent, the intercept the log10 prefactor.
    Standard errors are the classical OLS formulas.  When SS_tot and SS_res
    are both zero (all y equal, fitted exactly) R^2 is defined as 1.
    """
    n = len(points)
    if n < 3:
        raise InsufficientDataError(f"need >= 3 points, got {n}")
    lx, ly = [], []
    for px, py in points:
        if px <= 0 or py <= 0:
            raise ValueError(f"points must be strictly positive, got ({px}, {py})")
        lx.append(math.log10(px))
        ly.append(math.log10(py))

    mx = math.fsum(lx) / n
    my = math.fsum(ly) / n
    sxx = math.fsum((v - mx) ** 2 for v in lx)
    if sxx == 0.0:
        raise DegenerateFitError("zero variance in x")
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(lx, ly))
    slope = sxy / sxx
    intercept = my - slope * mx

    ss_res = math.fsum((b - (intercept + slope * a)) ** 2 for a, b in zip(lx, ly))
    ss_tot = math.fsum((b - my) ** 2 for b in ly)
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        r2 = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)

    s2 = ss_res / (n - 2)
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + mx * mx / sxx))
    return FitResult(relation, slope, se_slope, intercept, se_intercept, r2, n)


def select_cells(grid: DensityGrid, min_tweets: float = 1.0,
                 min_population: float = 1.0) -> list[tuple]:
    """Density tuples (T, U, P) or (T, U, P, Y) for cells with land area,
    at least ``min_tweets`` tweets and ``min_population`` residents.

    Thresholds apply to the raw count accumulators, not densities.
    """
    mask = (grid.land_area > 0) & (grid.n_t >= min_tweets) & (grid.n_p >= min_population)
    ii, jj = np.nonzero(mask)
    out = []
    for i, j in zip(ii, jj):
        if grid.has_youth:
            out.append((grid.t[i, j], grid.u[i, j], grid.p[i, j], grid.y[i, j]))
        else:
            out.append((grid.t[i, j], grid.u[i, j], grid.p[i, j]))
    return out


def fit_all(grid: DensityGrid, min_tweets: float = 1.0,
            min_population: float = 1.0) -> dict[str, FitResult]:
    """Fit alpha (T vs P), beta (U vs P) and gamma (T vs U) on one shared
    cell selection.  Cells with a nonpositive value in a pair are dropped
    from that pair (only possible with thresholds below 1)."""
    cells = select_cells(grid, min_tweets, min_population)
    pairs = {
        "alpha": [(c[2], c[0]) for c in cells],
        "beta": [(c[2], c[1]) for c in cells],
        "gamma": [(c[1], c[0]) for c in cells],
    }
    fits: dict[str, FitResult] = {}
    for name, pts in pairs.items():
        pts = [(a, b) for a, b in pts if a > 0 and b > 0]
        fits[name] = fit_power_law(pts, EXPONENT_RELATION[name])
    return fits


def mean_cell_area(spec: GridSpec) -> float:
    """Mean water-free (full-rect) cell area at this resolution, km^2."""
    return spherical_rect_area(spec.study) / (spec.x * spec.x)


def scan_resolutions(records, units, land: Geometry,
                     x_list: Sequence[int] = DEFAULT_X_LIST,
                     study: Optional[LonLatRect] = None,
                     min_tweets: float = 1.0, min_population: float = 1.0
                     ) -> ScanResult:
    """Rebuild the grid and refit at every X.  Resolutions whose fit fails
    are reported absent, not fatal."""
    if not x_list:
        raise ValueError("x_list must be non-empty")
    xs = sorted(set(int(x) for x in x_list))
    if study is None:
        raise ValueError("study rect is required")
    result = ScanResult(x_values=xs)
    for x in xs:
        spec = GridSpec(study, x)
        grid = run_grid_pipeline(spec, land, records, units)
        result.mean_cell_area[x] = mean_cell_area(spec)
        try:
            result.fits[x] = fit_all(grid, min_tweets, min_population)
        except (InsufficientDataError, DegenerateFitError):
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
    for name in ("alpha", "beta", "gamma"):
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
