"""Cross-validation by resampling: randomly placed sub-areas and random
grid-box subsets, with 68% confidence intervals on the fitted exponents.

Replicate k depends only on (master_seed, k) through a splitmix64-style
mixing function, so a replicate's result does not depend on which other
replicates run.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateFitError, InsufficientDataError
from .geometry import Geometry, LonLatRect
from .gridding import DensityGrid, GridSpec, run_grid_pipeline
from .scaling import fit_all, fit_power_law

EXPONENTS = ("alpha", "beta", "gamma")


@dataclass(frozen=True)
class ResampleConfig:
    mode: str = "subarea"        # subarea | subset | subset_nonadjacent
    replicates: int = 1000
    area_fraction: float = 0.25
    subset_fraction: float = 0.05
    master_seed: int = 0
    max_retries: int = 1000      # per cell, nonadjacent mode

    def __post_init__(self) -> None:
        if self.mode not in ("subarea", "subset", "subset_nonadjacent"):
            raise ConfigError(f"unknown resample mode: {self.mode!r}")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not 0.0 < self.area_fraction <= 1.0:
            raise ConfigError("area_fraction must be in (0, 1]")
        if not 0.0 < self.subset_fraction <= 1.0:
            raise ConfigError("subset_fraction must be in (0, 1]")


@dataclass
class ResampleDistribution:
    mode: str
    rows: list = field(default_factory=list)  # (replicate, alpha|None, beta|None, gamma|None)
    ci68: dict = field(default_factory=dict)  # exponent -> (lo, hi)
    dropped: int = 0
    reference: dict = field(default_factory=dict)  # exponent -> FitResult

    def samples(self, exponent: str) -> list[float]:
        idx = EXPONENTS.index(exponent) + 1
        return [row[idx] for row in self.rows if row[idx] is not None]


def mix_seed(master_seed: int, k: int) -> int:
    """Derive replicate k's 64-bit seed from the master seed (splitmix64)."""
    z = (master_seed + (k + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def ci68(samples: Sequence[float]) -> tuple[float, float]:
    """16th-84th percentile interval, linear interpolation between order
    statistics at ranks (n - 1) * q."""
    if len(samples) < 10:
        raise InsufficientDataError(f"need >= 10 samples, got {len(samples)}")
    lo, hi = np.percentile(np.asarray(samples, dtype=float), [16.0, 84.0])
    return float(lo), float(hi)


def subarea_grid_side(x: int, area_fraction: float) -> int:
    """Grid side for a sub-area keeping the cell size of an X-by-X grid
    (X=80 at fraction 0.25 gives 40)."""
    return max(1, round(x * math.sqrt(area_fraction)))


def _finish(dist: ResampleDistribution) -> ResampleDistribution:
    for name in EXPONENTS:
        samples = dist.samples(name)
        if len(samples) >= 10:
            dist.ci68[name] = ci68(samples)
    return dist


def subarea_resample(records, units, land: Geometry, study: LonLatRect,
                     x: int, config: ResampleConfig,
                     min_tweets: float = 1.0, min_population: float = 1.0
                     ) -> ResampleDistribution:
    """Refit exponents on randomly placed sub-rects of the study area.

    Sub-rects keep the study rect's aspect ratio (side scale
    sqrt(area_fraction)) and the grid resolution is maintained by scaling
    the side count accordingly.  Population is re-apportioned from source
    polygons per replicate.  Points are kept when inside the sub-rect,
    boxes only when fully contained (matching the ingest rule).
    """
    w = study.width * math.sqrt(config.area_fraction)
    h = study.height * math.sqrt(config.area_fraction)
    x_sub = subarea_grid_side(x, config.area_fraction)

    def replicate(k: int):
        rng = np.random.default_rng(mix_seed(config.master_seed, k))
        ox = rng.uniform(study.min_lon, study.max_lon - w)
        oy = rng.uniform(study.min_lat, study.max_lat - h)
        sub = LonLatRect(ox, oy, ox + w, oy + h)
        kept = [r for r in records
                if (r.point is not None and sub.contains_point(*r.point))
                or (r.box is not None and sub.contains_rect(r.box))]
        try:
            spec = GridSpec(sub, x_sub)
            grid = run_grid_pipeline(spec, land, kept, units)
            fits = fit_all(grid, min_tweets, min_population)
            return (k, fits["alpha"].exponent, fits["beta"].exponent,
                    fits["gamma"].exponent)
        except (InsufficientDataError, DegenerateFitError, ValueError):
            return (k, None, None, None)

    rows = [replicate(k) for k in range(config.replicates)]
    dist = ResampleDistribution(mode="subarea", rows=rows)
    dist.dropped = sum(1 for r in rows if r[1] is None)
    return _finish(dist)


def _chebyshev_ok(chosen: list[tuple[int, int]], cell: tuple[int, int]) -> bool:
    return all(max(abs(cell[0] - c[0]), abs(cell[1] - c[1])) >= 2 for c in chosen)


def subset_resample(grid: DensityGrid, config: ResampleConfig,
                    min_tweets: float = 1.0, min_population: float = 1.0
                    ) -> ResampleDistribution:
    """Refit exponents on random subsets of the populated grid boxes.

    In subset_nonadjacent mode the sampler rejects cells sharing an edge or
    corner (Chebyshev index distance < 2) with an already chosen cell, with
    a bounded number of re-draws per cell; replicates that cannot satisfy
    the constraint are dropped and counted.
    """
    mask = ((grid.land_area > 0) & (grid.n_t >= min_tweets)
            & (grid.n_p >= min_population))
    cells = list(zip(*np.nonzero(mask)))
    cells = [(int(i), int(j)) for i, j in cells]
    n = len(cells)
    m = math.ceil(config.subset_fraction * n)
    if m < 3:
        raise InsufficientDataError(
            f"subset of {m} cells from {n} populated is too small to fit")
    nonadjacent = config.mode == "subset_nonadjacent"

    def replicate(k: int):
        rng = np.random.default_rng(mix_seed(config.master_seed, k))
        if not nonadjacent:
            idx = rng.choice(n, size=m, replace=False)
            chosen = [cells[int(i)] for i in idx]
        else:
            pool = list(range(n))
            chosen = []
            for _ in range(m):
                placed = False
                for _attempt in range(config.max_retries):
                    if not pool:
                        break
                    pick = int(rng.integers(len(pool)))
                    cell = cells[pool[pick]]
                    if _chebyshev_ok(chosen, cell):
                        chosen.append(cell)
                        pool.pop(pick)
                        placed = True
                        break
                if not placed:
                    return (k, None, None, None)
        try:
            pts_tp = [(grid.p[i, j], grid.t[i, j]) for i, j in chosen]
            pts_up = [(grid.p[i, j], grid.u[i, j]) for i, j in chosen]
            pts_tu = [(grid.u[i, j], grid.t[i, j]) for i, j in chosen]
            alpha = fit_power_law(pts_tp, "T_vs_P").exponent
            beta = fit_power_law(pts_up, "U_vs_P").exponent
            gamma = fit_power_law(pts_tu, "T_vs_U").exponent
            return (k, alpha, beta, gamma)
        except (InsufficientDataError, DegenerateFitError, ValueError):
            return (k, None, None, None)

    rows = [replicate(k) for k in range(config.replicates)]
    dist = ResampleDistribution(mode=config.mode, rows=rows)
    dist.dropped = sum(1 for r in rows if r[1] is None)
    return _finish(dist)


def resample_to_csv(dist: ResampleDistribution, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replicate", "alpha", "beta", "gamma"])
        for k, a, b, g in dist.rows:
            w.writerow([k,
                        "" if a is None else repr(a),
                        "" if b is None else repr(b),
                        "" if g is None else repr(g)])


def resample_summary(dist: ResampleDistribution, config: ResampleConfig,
                     reference: Optional[dict] = None) -> dict:
    out = {
        "mode": dist.mode,
        "replicates": config.replicates,
        "area_fraction": config.area_fraction,
        "subset_fraction": config.subset_fraction,
        "master_seed": config.master_seed,
        "dropped": dist.dropped,
        "ci68": {k: list(v) for k, v in dist.ci68.items()},
    }
    if reference:
        out["reference"] = {
            name: {
                "exponent": fit.exponent,
                "exponent_stderr": fit.exponent_stderr,
                "log10_prefactor": fit.log10_prefactor,
                "r_squared": fit.r_squared,
                "n_points": fit.n_points,
            }
            for name, fit in reference.items()
        }
    return out
