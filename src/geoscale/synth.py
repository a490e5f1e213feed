"""Synthetic corpora and population layers with known ground-truth exponents.

The generator inverts the analysis: per generation cell it draws a lognormal
population density P, derives user and tweet counts from U = B * P^beta and
T = C * U^gamma with lognormal noise, and emits the exact tweet JSONL and
population GeoJSON formats the ingest module consumes.  Identical configs
produce byte-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .geometry import LonLatRect, spherical_rect_area
from .validation import mix_seed

DEFAULT_STUDY = LonLatRect(-5.8, 49.9, -1.2, 52.2)

# stream tags so population / activity / bots draw independent seeds
_POP_STREAM = 0x506F50
_ACT_STREAM = 0x414354
_BOT_STREAM = 0x424F54

_SOURCES = ("app_alpha", "app_beta", "app_gamma")
_SOURCE_WEIGHTS = (0.6, 0.25, 0.15)


@dataclass(frozen=True)
class SynthConfig:
    study: LonLatRect = DEFAULT_STUDY
    x_gen: int = 40
    beta_true: float = 1.2
    gamma_true: float = 1.35
    b_true: float = 1.0
    c_true: float = 1.0
    noise_dex: float = 0.1
    pop_log10_mean: float = 1.5
    pop_log10_sigma: float = 0.8
    seed: int = 0
    emit_boxes_fraction: float = 0.0
    commuter_fraction: float = 0.0   # share of users whose tweets split across two cells

    def __post_init__(self) -> None:
        if self.beta_true <= 0 or self.gamma_true <= 0:
            raise ConfigError("exponents must be > 0")
        if self.b_true <= 0 or self.c_true <= 0:
            raise ConfigError("prefactors must be > 0")
        if not 0.0 <= self.emit_boxes_fraction <= 1.0:
            raise ConfigError("emit_boxes_fraction must be in [0, 1]")
        if not 0.0 <= self.commuter_fraction <= 1.0:
            raise ConfigError("commuter_fraction must be in [0, 1]")


@dataclass
class GroundTruth:
    config: SynthConfig
    cell_area: np.ndarray        # km^2, (X, X)
    p_density: np.ndarray        # persons/km^2
    population: np.ndarray       # int persons per cell
    youth: np.ndarray            # int persons 18-35 per cell
    n_u: Optional[np.ndarray] = None  # int users per cell
    n_t: Optional[np.ndarray] = None  # int tweets landing per cell

    @property
    def total_tweets(self) -> int:
        return int(self.n_t.sum()) if self.n_t is not None else 0

    @property
    def total_users(self) -> int:
        return int(self.n_u.sum()) if self.n_u is not None else 0

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "config": {
                "study": [cfg.study.min_lon, cfg.study.min_lat,
                          cfg.study.max_lon, cfg.study.max_lat],
                "x_gen": cfg.x_gen,
                "beta_true": cfg.beta_true,
                "gamma_true": cfg.gamma_true,
                "b_true": cfg.b_true,
                "c_true": cfg.c_true,
                "noise_dex": cfg.noise_dex,
                "pop_log10_mean": cfg.pop_log10_mean,
                "pop_log10_sigma": cfg.pop_log10_sigma,
                "seed": cfg.seed,
                "emit_boxes_fraction": cfg.emit_boxes_fraction,
                "commuter_fraction": cfg.commuter_fraction,
            },
            "population": self.population.astype(int).tolist(),
            "youth": self.youth.astype(int).tolist(),
            "n_u": None if self.n_u is None else self.n_u.astype(int).tolist(),
            "n_t": None if self.n_t is None else self.n_t.astype(int).tolist(),
        }


def _cell_edges(config: SynthConfig):
    s = config.study
    lon_edges = np.linspace(s.min_lon, s.max_lon, config.x_gen + 1)
    lat_edges = np.linspace(s.min_lat, s.max_lat, config.x_gen + 1)
    return lon_edges, lat_edges


def _cell_rect(config: SynthConfig, i: int, j: int) -> LonLatRect:
    lon_edges, lat_edges = _cell_edges(config)
    return LonLatRect(lon_edges[i], lat_edges[j], lon_edges[i + 1], lat_edges[j + 1])


def youth_share(p_density: float) -> float:
    """Share of residents aged 18-35; rises with log density so the youth
    fit has a recoverable superlinear exponent.  Purely synthetic."""
    return min(max(0.2 + 0.05 * math.log10(1.0 + p_density), 0.0), 0.6)


def gen_population(config: SynthConfig) -> tuple[dict, GroundTruth]:
    """Draw per-cell lognormal population densities and emit one GeoJSON
    feature (the cell rectangle) per cell."""
    x = config.x_gen
    lon_edges, lat_edges = _cell_edges(config)
    rng = np.random.default_rng(mix_seed(config.seed, _POP_STREAM))

    cell_area = np.zeros((x, x))
    p_density = np.zeros((x, x))
    population = np.zeros((x, x), dtype=np.int64)
    youth = np.zeros((x, x), dtype=np.int64)
    features = []
    for i in range(x):
        for j in range(x):
            rect = LonLatRect(lon_edges[i], lat_edges[j],
                              lon_edges[i + 1], lat_edges[j + 1])
            area = spherical_rect_area(rect)
            p = 10.0 ** rng.normal(config.pop_log10_mean, config.pop_log10_sigma)
            pop = round(p * area)
            y = round(youth_share(p) * pop)
            cell_area[i, j] = area
            p_density[i, j] = p
            population[i, j] = pop
            youth[i, j] = y
            ring = [[lon_edges[i], lat_edges[j]], [lon_edges[i + 1], lat_edges[j]],
                    [lon_edges[i + 1], lat_edges[j + 1]],
                    [lon_edges[i], lat_edges[j + 1]], [lon_edges[i], lat_edges[j]]]
            features.append({
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {
                    "code": f"cell_{i}_{j}",
                    "population": int(pop),
                    "population_18_35": int(y),
                },
            })
    fc = {"type": "FeatureCollection", "features": features}
    return fc, GroundTruth(config, cell_area, p_density, population, youth)


# Every synthetic record is a "city" place tag whose bounding box has the
# corners (a, b), (c, b), (c, d), (a, d) for a = min lon, b = min lat,
# c = max lon, d = max lat; a point place is the zero-area box a = c, b = d,
# as the API emits it.  Records travel as the columns
# (tweet_ids, user_ids, a, b, c, d, sources).

# json.dumps(_record(...), separators=(",", ":")) + "\n", filled from
# (tweet_id, user_id, a, b, c, b, c, d, a, d, source) with the coordinates
# as repr(float), which is how json writes a float; ids and sources are
# plain ASCII that json writes unescaped.
_LINE = ('{"id_str":"%s","user":{"id_str":"%s"},"place":{"place_type":"city",'
         '"bounding_box":{"type":"Polygon","coordinates":'
         '[[[%s,%s],[%s,%s],[%s,%s],[%s,%s]]]}},"source":"%s"}\n')


def _record(tweet_id: str, user_id: str, a: float, b: float, c: float,
            d: float, source: str) -> dict:
    return {
        "id_str": tweet_id,
        "user": {"id_str": user_id},
        "place": {
            "place_type": "city",
            "bounding_box": {"type": "Polygon",
                             "coordinates": [[[a, b], [c, b], [c, d], [a, d]]]},
        },
        "source": source,
    }


def _records(columns) -> list[dict]:
    return list(map(_record, *columns))


def _lines(columns) -> str:
    tids, uids, *coords, sources = columns
    # points share their columns (a is c, b is d): format each column once
    text = {id(col): list(map(repr, col)) for col in coords}
    a, b, c, d = (text[id(col)] for col in coords)
    return "".join(map(_LINE.__mod__, zip(tids, uids, a, b, c, b, c, d, a, d,
                                          sources)))


def _activity_columns(config: SynthConfig, gt: GroundTruth):
    """Draw the tweets cell by cell and yield each non-empty cell's records
    as columns.

    Per cell: N_u = round(A * B * P^beta * 10^eps), N_t = round(A * C *
    (N_u/A)^gamma * 10^eps), each with eps ~ Normal(0, noise_dex).  Tweets
    are spread over users multinomially with every user getting at least
    one; cells where N_t < N_u reduce N_u to N_t.  Users are cell-local
    unless commuter_fraction moves half a user's tweets to the next cell.
    gt.n_u and gt.n_t are complete once the generator is exhausted.
    """
    x = config.x_gen
    lon_edges, lat_edges = _cell_edges(config)
    gt.n_u = n_u = np.zeros((x, x), dtype=np.int64)
    gt.n_t = n_t = np.zeros((x, x), dtype=np.int64)
    tweet_seq = 0

    for i in range(x):
        for j in range(x):
            rng = np.random.default_rng(
                mix_seed(mix_seed(config.seed, _ACT_STREAM), i * x + j))
            rect = LonLatRect(lon_edges[i], lat_edges[j],
                              lon_edges[i + 1], lat_edges[j + 1])
            area = gt.cell_area[i, j]
            p = gt.population[i, j] / area
            if p <= 0:
                continue
            eps_u = rng.normal(0.0, config.noise_dex) if config.noise_dex > 0 else 0.0
            eps_t = rng.normal(0.0, config.noise_dex) if config.noise_dex > 0 else 0.0
            users = int(round(area * config.b_true * p ** config.beta_true
                              * 10.0 ** eps_u))
            if users <= 0:
                continue
            u_density = users / area
            tweets = int(round(area * config.c_true
                               * u_density ** config.gamma_true * 10.0 ** eps_t))
            if tweets < users:
                users = tweets
            if users <= 0:
                continue
            # every user gets one tweet, the surplus is multinomial
            counts = np.ones(users, dtype=np.int64)
            if tweets > users:
                counts += rng.multinomial(tweets - users, np.full(users, 1.0 / users))
            total = int(counts.sum())

            neighbor = None
            if config.commuter_fraction > 0 and i + 1 < x:
                neighbor = LonLatRect(lon_edges[i + 1], lat_edges[j],
                                      lon_edges[i + 2], lat_edges[j + 1])

            user_of_tweet = np.repeat(np.arange(users), counts)
            starts = np.cumsum(counts) - counts
            within = np.arange(total) - np.repeat(starts, counts)
            if neighbor is not None:
                commuter = rng.uniform(size=users) < config.commuter_fraction
                # commuters place their odd-indexed tweets in the adjacent cell
                away = commuter[user_of_tweet] & (within % 2 == 1)
            else:
                away = np.zeros(total, dtype=bool)

            # margin keeps coordinates inside the cell after 7-decimal rounding
            m_lon = max(1e-6, rect.width * 1e-6)
            m_lat = max(1e-6, rect.height * 1e-6)
            u_lon = rng.uniform(size=total)
            u_lat = rng.uniform(size=total)
            base_lon = np.where(away, neighbor.min_lon if neighbor else 0.0,
                                rect.min_lon)
            lons = base_lon + m_lon + u_lon * (rect.width - 2 * m_lon)
            lats = rect.min_lat + m_lat + u_lat * (rect.height - 2 * m_lat)
            if config.emit_boxes_fraction > 0:
                as_box = rng.uniform(size=total) < config.emit_boxes_fraction
                half_w = rng.uniform(0.0, rect.width / 8.0, size=total)
                half_h = rng.uniform(0.0, rect.height / 8.0, size=total)
            else:
                as_box = np.zeros(total, dtype=bool)
                half_w = half_h = np.zeros(total)
            sources = rng.choice(len(_SOURCES), size=total, p=_SOURCE_WEIGHTS)

            names = [f"u_{i}_{j}_{u}" for u in range(users)]
            user_ids = [names[u] for u in user_of_tweet.tolist()]
            tweet_ids = [f"t{s:09d}" for s in range(tweet_seq, tweet_seq + total)]
            tweet_seq += total
            if not as_box.any() and not away.any():
                # common case: cell-local point records, rounded in bulk
                a = c = np.round(lons, 7).tolist()
                b = d = np.round(lats, 7).tolist()
            else:
                a, b, c, d = [], [], [], []
                for t in range(total):
                    target = neighbor if away[t] else rect
                    if as_box[t]:
                        hw, hh = float(half_w[t]), float(half_h[t])
                        cx = min(max(lons[t], target.min_lon + hw + m_lon),
                                 target.max_lon - hw - m_lon)
                        cy = min(max(lats[t], target.min_lat + hh + m_lat),
                                 target.max_lat - hh - m_lat)
                        a.append(float(round(cx - hw, 7)))
                        b.append(float(round(cy - hh, 7)))
                        c.append(float(round(cx + hw, 7)))
                        d.append(float(round(cy + hh, 7)))
                    else:
                        lon = round(float(lons[t]), 7)
                        lat = round(float(lats[t]), 7)
                        a.append(lon)
                        b.append(lat)
                        c.append(lon)
                        d.append(lat)
            n_away = int(away.sum())
            n_t[i, j] += total - n_away
            if n_away:
                n_t[i + 1, j] += n_away
            n_u[i, j] += users
            yield (tweet_ids, user_ids, a, b, c, d,
                   [_SOURCES[s] for s in sources.tolist()])


def gen_activity(config: SynthConfig, gt: GroundTruth) -> list[dict]:
    """Generate tweet records cell by cell, completing the ground truth
    (see _activity_columns for the draw)."""
    return [r for columns in _activity_columns(config, gt)
            for r in _records(columns)]


def _bot_columns(config: SynthConfig, n_bots: int, bot_tweet_fraction: float,
                 total_records: int):
    if bot_tweet_fraction <= 0:
        raise ConfigError("bot_tweet_fraction must be > 0")
    rng = np.random.default_rng(mix_seed(config.seed, _BOT_STREAM))
    s = config.study
    per_bot = max(1, round(bot_tweet_fraction * total_records))
    for b in range(n_bots):
        lon = float(round(rng.uniform(s.min_lon, s.max_lon), 7))
        lat = float(round(rng.uniform(s.min_lat, s.max_lat), 7))
        lons, lats = [lon] * per_bot, [lat] * per_bot
        yield ([f"bt{b:03d}_{t:09d}" for t in range(per_bot)],
               [f"bot_{b}"] * per_bot, lons, lats, lons, lats,
               ["bot_station"] * per_bot)


def gen_bots(config: SynthConfig, n_bots: int, bot_tweet_fraction: float,
             total_records: int) -> list[dict]:
    """Records for very active automated accounts, each posting
    round(bot_tweet_fraction * total_records) tweets from one fixed point."""
    return [r for columns in _bot_columns(config, n_bots, bot_tweet_fraction,
                                          total_records)
            for r in _records(columns)]


def land_geojson(study: LonLatRect) -> dict:
    """A land layer covering the whole study rect (no coastline)."""
    ring = [[study.min_lon, study.min_lat], [study.max_lon, study.min_lat],
            [study.max_lon, study.max_lat], [study.min_lon, study.max_lat],
            [study.min_lon, study.min_lat]]
    return {
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [ring]},
            "properties": {"name": "study_area"},
        }],
    }


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def write_corpus(config: SynthConfig, gt: GroundTruth, path, n_bots: int,
                 bot_tweet_fraction: float) -> int:
    """Stream the activity corpus, then n_bots bots, to path as JSONL, cell
    by cell, without holding the records; completes gt like gen_activity.

    The file equals write_jsonl(gen_activity(config, gt) + gen_bots(config,
    n_bots, bot_tweet_fraction, len(activity))) byte for byte.  Returns the
    number of records written.
    """
    if n_bots > 0 and bot_tweet_fraction <= 0:
        raise ConfigError("bot_tweet_fraction must be > 0")
    with open(path, "w") as fh:
        for columns in _activity_columns(config, gt):
            fh.write(_lines(columns))
        total = gt.total_tweets
        if n_bots > 0:
            for columns in _bot_columns(config, n_bots, bot_tweet_fraction,
                                        total):
                fh.write(_lines(columns))
                total += len(columns[0])
    return total
