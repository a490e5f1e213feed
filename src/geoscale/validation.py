"""Cross-validation by resampling: randomly placed sub-areas and random
grid-box subsets, with 68% confidence intervals on the fitted exponents.

Replicate k depends only on (master_seed, k) through a splitmix64-style
mixing function, so a replicate's result does not depend on which other
replicates run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, InsufficientDataError
from .geometry import LonLatRect, MultiPolygon
from .gridding import DensityGrid, GridSpec, run_grid_pipeline, write_csv
from .ingest import Corpus
from .scaling import EXPONENTS, cell_indices, fit_all, fit_rows, log_table

MODES = ("subarea", "subset", "subset_nonadjacent")

# draws per chosen cell in subset_nonadjacent mode before the replicate drops
_MAX_RETRIES = 1000


@dataclass(frozen=True)
class ResampleConfig:
    mode: str = "subarea"        # one of MODES
    replicates: int = 1000
    area_fraction: float = 0.25
    subset_fraction: float = 0.05
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
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


def _replicates(config: ResampleConfig, draw) -> ResampleDistribution:
    """Run replicates 0 .. config.replicates - 1.  Replicate k hands a
    generator seeded with mix_seed(master_seed, k) to draw, which returns
    the replicate's fits, or None when the draw cannot be placed.  A draw
    that cannot be placed or fitted drops the replicate; its row is blank."""
    rows = []
    for k in range(config.replicates):
        rng = np.random.default_rng(mix_seed(config.master_seed, k))
        try:
            fits = draw(rng)
        except InsufficientDataError:
            fits = None
        rows.append((k, *(fits[name].exponent if fits else None for name in EXPONENTS)))
    dist = ResampleDistribution(config.mode, rows, dropped=sum(row[1] is None for row in rows))
    if len(rows) - dist.dropped >= 10:      # a row holds all three exponents or none
        dist.ci68 = {name: ci68(dist.samples(name)) for name in EXPONENTS}
    return dist


def subarea_resample(records: Corpus, units, land: MultiPolygon, spec: GridSpec,
                     config: ResampleConfig,
                     min_tweets: float = 1.0, min_population: float = 1.0
                     ) -> ResampleDistribution:
    """Refit exponents on randomly placed sub-rects of the study area.

    Sub-rects keep the aspect ratio of the full grid's study rect (side
    scale sqrt(area_fraction)), and its resolution is maintained by scaling
    the side count accordingly.  Population is re-apportioned from source
    polygons per replicate.  Points are kept when inside the sub-rect,
    boxes only when fully contained (matching the ingest rule).  Raises
    ConfigError unless config.mode is subarea.
    """
    if config.mode != "subarea":
        raise ConfigError(f"subarea_resample cannot run mode {config.mode!r}")
    study = spec.study
    w = study.width * math.sqrt(config.area_fraction)
    h = study.height * math.sqrt(config.area_fraction)
    x_sub = subarea_grid_side(spec.x, config.area_fraction)

    def draw(rng):
        ox = rng.uniform(study.min_lon, study.max_lon - w)
        oy = rng.uniform(study.min_lat, study.max_lat - h)
        sub = LonLatRect(ox, oy, ox + w, oy + h)
        kept = records.take((records.lon0 >= sub.min_lon) & (records.lon1 <= sub.max_lon)
                            & (records.lat0 >= sub.min_lat) & (records.lat1 <= sub.max_lat))
        grid = run_grid_pipeline(GridSpec(sub, x_sub), land, kept, units)
        return fit_all(grid, min_tweets, min_population)

    return _replicates(config, draw)


def subset_resample(grid: DensityGrid, config: ResampleConfig,
                    min_tweets: float = 1.0, min_population: float = 1.0
                    ) -> ResampleDistribution:
    """Refit exponents on random subsets of the populated grid boxes.

    In subset_nonadjacent mode the sampler rejects cells sharing an edge or
    corner (Chebyshev index distance < 2) with an already chosen cell, with
    a bounded number of re-draws per cell; replicates that cannot satisfy
    the constraint are dropped and counted.  Raises ConfigError unless
    config.mode is subset or subset_nonadjacent.
    """
    if config.mode == "subarea":
        raise ConfigError("subset_resample cannot run mode 'subarea'")
    cells = cell_indices(grid, min_tweets, min_population)
    n = len(cells)
    m = math.ceil(config.subset_fraction * n)
    if m < 3:
        raise InsufficientDataError(
            f"subset of {m} cells from {n} populated is too small to fit")
    table = log_table(grid, cells)
    # blocked[flat[k] + d] for d in reach: the cells touching cell k of
    # cells, flat indices into the grid padded by one cell on every side
    side = grid.spec.x + 2
    flat = [(i + 1) * side + j + 1 for i, j in cells]
    reach = [di * side + dj for di in (-1, 0, 1) for dj in (-1, 0, 1)]

    def draw(rng):
        if config.mode != "subset_nonadjacent":
            return fit_rows(table, rng.choice(n, size=m, replace=False).tolist())
        pool, chosen = list(range(n)), []   # m <= n, so the pool never runs dry
        blocked = bytearray(side * side)     # nonzero: touches a chosen cell
        while len(chosen) < m:
            for _attempt in range(_MAX_RETRIES):
                pick = int(rng.integers(len(pool)))
                if not blocked[flat[pool[pick]]]:
                    k = pool.pop(pick)
                    chosen.append(k)
                    for d in reach:
                        blocked[flat[k] + d] = 1
                    break
            else:
                return None
        return fit_rows(table, chosen)

    return _replicates(config, draw)


def resample_to_csv(dist: ResampleDistribution, path) -> None:
    write_csv(path, ["replicate", *EXPONENTS], dist.rows)


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
