"""Synthetic corpora and population layers with known ground-truth exponents.

The generator inverts the analysis: per generation cell it draws a lognormal
population density P, derives user and tweet counts from U = B * P^beta and
T = C * U^gamma with lognormal noise, and emits the exact tweet JSONL and
population GeoJSON formats the ingest module consumes.  Identical configs
produce byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
from dataclasses import asdict, astuple, dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from . import workers
from .errors import ConfigError
from .geometry import LonLatRect, rect_geojson, spherical_rect_area
from .gridding import GridSpec
from .validation import mix_seed

DEFAULT_STUDY = LonLatRect(-5.8, 49.9, -1.2, 52.2)

# stream tags so population / activity / bots draw independent seeds
_POP_STREAM = 0x506F50
_ACT_STREAM = 0x414354
_BOT_STREAM = 0x424F54

# the most tweets, and so users, one generation cell may draw: ingest codes
# users as int32, and a larger count is more than any machine holds as records
MAX_CELL_COUNT = 2**31 - 1

# seconds of one CPU that the draw and the line of one tweet take, by which
# write_corpus sizes its blocks against workers.MIN_WORK_S: 2.3-4.3 us in
# process_time of a serial write_corpus of the bench's oracle tile (35k
# tweets), the criterion-1 oracle (582k) and a 16k-tweet study, on a
# 2-vCPU x86-64 VM
_TWEET_S = 3e-6

# the lines _lines joins into one string, about 64 kB: joined whole, the
# largest cell of the bench's oracle tile (1.2 MB of lines) raised synth's
# peak RSS by about 1 MB in most runs
_CHUNK_LINES = 256

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
        if not all(0 < v < math.inf for v in (self.beta_true, self.gamma_true,
                                              self.b_true, self.c_true)):
            raise ConfigError("exponents and prefactors must be finite and > 0")
        if not math.isfinite(self.pop_log10_mean):
            raise ConfigError("pop_log10_mean must be finite")
        if not (0 <= self.pop_log10_sigma < math.inf and 0 <= self.noise_dex < math.inf):
            raise ConfigError("pop_log10_sigma and noise_dex must be finite and >= 0")
        if not 0.0 <= self.emit_boxes_fraction <= 1.0:
            raise ConfigError("emit_boxes_fraction must be in [0, 1]")
        if not 0.0 <= self.commuter_fraction <= 1.0:
            raise ConfigError("commuter_fraction must be in [0, 1]")


@dataclass
class GroundTruth:
    config: SynthConfig
    cell_area: np.ndarray        # km^2, (X, X)
    population: np.ndarray       # int persons per cell
    youth: np.ndarray            # int persons 18-35 per cell
    n_u: np.ndarray              # int users per cell, zero until the draw
    n_t: np.ndarray              # int tweets landing per cell, zero until the draw

    @property
    def total_tweets(self) -> int:
        return int(self.n_t.sum())

    @property
    def total_users(self) -> int:
        return int(self.n_u.sum())

    def to_dict(self) -> dict:
        config = asdict(self.config)
        config["study"] = list(astuple(self.config.study))
        return {
            "config": config,
            "population": self.population.astype(int).tolist(),
            "youth": self.youth.astype(int).tolist(),
            "n_u": self.n_u.astype(int).tolist(),
            "n_t": self.n_t.astype(int).tolist(),
        }


def youth_share(p_density: float) -> float:
    """Share of residents aged 18-35; rises with log density so the youth
    fit has a recoverable superlinear exponent.  Purely synthetic."""
    return min(max(0.2 + 0.05 * math.log10(1.0 + p_density), 0.0), 0.6)


def gen_population(config: SynthConfig) -> tuple[dict, GroundTruth]:
    """Draw per-cell lognormal population densities and emit one GeoJSON
    feature (the cell rectangle) per cell."""
    cells = GridSpec(config.study, config.x_gen)
    x = cells.x
    rng = np.random.default_rng(mix_seed(config.seed, _POP_STREAM))

    cell_area = np.zeros((x, x))
    population = np.zeros((x, x), dtype=np.int64)
    youth = np.zeros((x, x), dtype=np.int64)
    features = []
    for i in range(x):
        for j in range(x):
            rect = cells.cell_rect(i, j)
            area = spherical_rect_area(rect)
            p = 10.0 ** rng.normal(config.pop_log10_mean, config.pop_log10_sigma)
            pop = round(p * area)
            y = round(youth_share(p) * pop)
            cell_area[i, j] = area
            population[i, j] = pop
            youth[i, j] = y
            features.append({
                "type": "Feature",
                "geometry": rect_geojson(rect),
                "properties": {
                    "code": f"cell_{i}_{j}",
                    "population": int(pop),
                    "population_18_35": int(y),
                },
            })
    fc = {"type": "FeatureCollection", "features": features}
    return fc, GroundTruth(config, cell_area, population, youth,
                           np.zeros_like(population), np.zeros_like(population))


# Every synthetic record is a "city" place tag whose bounding box has the
# corners (a, b), (c, b), (c, d), (a, d) for a = min lon, b = min lat,
# c = max lon, d = max lat; a point place is the zero-area box a = c, b = d,
# as the API emits it.  Records travel as the columns
# (tweet_ids, user_ids, a, b, c, d, sources).


def _lines(columns) -> Iterator[str]:
    r"""The only writer of a record: the lines that json.dumps(record,
    separators=(",", ":")) + "\n" would write, with the coordinates as
    repr(float), which is how json writes a float; ids and sources are
    plain ASCII that json writes unescaped.  The lines come joined in
    chunks of _CHUNK_LINES, each formatted as it is yielded, so that no
    more of a large cell's text is held than one chunk."""
    tids, uids, *coords, sources = columns
    ids = zip(tids, uids, sources)
    # points share their columns (a is c, b is d): format each column once
    reprs = {id(col): map(repr, col) for col in coords}
    for _ in range(0, len(tids), _CHUNK_LINES):
        text = {key: list(islice(col, _CHUNK_LINES)) for key, col in reprs.items()}
        # the chunk's text first: zip stops at its end before it takes an id
        yield "".join([
            f'{{"id_str":"{tid}","user":{{"id_str":"{uid}"}},"place":{{'
            f'"place_type":"city","bounding_box":{{"type":"Polygon","coordinates":'
            f'[[[{x0},{y0}],[{x1},{y0}],[{x1},{y1}],[{x0},{y1}]]]}}}},'
            f'"source":"{source}"}}\n'
            for x0, y0, x1, y1, (tid, uid, source)
            in zip(*(text[id(col)] for col in coords), ids)])


def _parsed(column_batches) -> list[dict]:
    """The records of the column batches: their lines read back by json, one
    array per batch."""
    return [r for columns in column_batches
            for r in json.loads("[%s]" % ",".join(
                "".join(_lines(columns)).splitlines()))]


def _cell_counts(config: SynthConfig, gt: GroundTruth, i: int, j: int) -> tuple:
    """Generation cell (i, j)'s users and tweets, as (rng, users, tweets)
    with rng the cell's own generator past its two count draws; (None, 0,
    0) for a cell without residents.

    N_u = round(A * B * P^beta * 10^eps), N_t = round(A * C * (N_u/A)^gamma
    * 10^eps), each with eps ~ Normal(0, noise_dex); a cell where N_t < N_u
    reduces N_u to N_t.  A density or count too large for a float raises
    OverflowError; a cell that draws more than MAX_CELL_COUNT tweets, or
    more users than residents, is a ConfigError.
    """
    # Python floats: a power past their range raises, where numpy warns
    area = float(gt.cell_area[i, j])
    residents = int(gt.population[i, j])
    p = residents / area
    if p <= 0:
        return None, 0, 0
    rng = np.random.default_rng(
        mix_seed(mix_seed(config.seed, _ACT_STREAM), i * config.x_gen + j))
    eps_u = rng.normal(0.0, config.noise_dex) if config.noise_dex > 0 else 0.0
    eps_t = rng.normal(0.0, config.noise_dex) if config.noise_dex > 0 else 0.0
    users = int(round(area * config.b_true * p ** config.beta_true * 10.0 ** eps_u))
    u_density = users / area
    tweets = int(round(area * config.c_true
                       * u_density ** config.gamma_true * 10.0 ** eps_t))
    users = min(users, tweets)
    if tweets > MAX_CELL_COUNT:     # and so users <= tweets fit too
        raise ConfigError(f"synth cell ({i}, {j}) draws {tweets} tweets, "
                          f"more than the {MAX_CELL_COUNT} a cell may hold")
    if users > residents:
        raise ConfigError(f"synth cell ({i}, {j}) draws {users} users, "
                          f"more than its {residents} residents")
    return rng, users, tweets


def _cell_draws(config: SynthConfig, gt: GroundTruth) -> list[tuple[int, int, int]]:
    """(i, j, tweets) of each generation cell that holds tweets, in row
    order: every cell's counts drawn, and so every count error raised,
    before any record is made."""
    cells = []
    for i in range(config.x_gen):
        for j in range(config.x_gen):
            _, users, tweets = _cell_counts(config, gt, i, j)
            if users > 0:
                cells.append((i, j, tweets))
    return cells


def _activity_columns(config: SynthConfig, gt: GroundTruth, cells, tweet_seq=0):
    """Make the tweets of cells, (i, j, tweets) as _cell_draws gives them,
    and yield each cell's records as columns, numbering the tweets from
    tweet_seq.

    Tweets are spread over users multinomially with every user getting at
    least one.  Users are cell-local unless commuter_fraction moves half a
    user's tweets to the next cell.  gt.n_u and gt.n_t count the users and
    tweets of these cells once the generator is exhausted.
    """
    grid = GridSpec(config.study, config.x_gen)
    x = grid.x
    gt.n_u = n_u = np.zeros((x, x), dtype=np.int64)
    gt.n_t = n_t = np.zeros((x, x), dtype=np.int64)

    for i, j, _ in cells:
        rng, users, total = _cell_counts(config, gt, i, j)
        rect = grid.cell_rect(i, j)
        # every user gets one tweet, the surplus is multinomial
        counts = np.ones(users, dtype=np.int64)
        if total > users:
            counts += rng.multinomial(total - users, np.full(users, 1.0 / users))

        user_of_tweet = np.repeat(np.arange(users), counts)
        away = np.zeros(total, dtype=bool)
        if config.commuter_fraction > 0 and i + 1 < x:
            commuter = rng.uniform(size=users) < config.commuter_fraction
            within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            # commuters place their odd-indexed tweets in the adjacent cell
            away = commuter[user_of_tweet] & (within % 2 == 1)
        # each tweet's cell: (i, j), or (i + 1, j) when away
        min_lon, max_lon = grid.lon_edges[i + away], grid.lon_edges[i + 1 + away]

        # margin keeps coordinates inside the cell after 7-decimal rounding
        m_lon = max(1e-6, rect.width * 1e-6)
        m_lat = max(1e-6, rect.height * 1e-6)
        lons = min_lon + m_lon + rng.uniform(size=total) * (rect.width - 2 * m_lon)
        lats = rect.min_lat + m_lat + rng.uniform(size=total) * (rect.height - 2 * m_lat)
        half_w = half_h = 0.0       # a point is a box of half-sizes 0
        if config.emit_boxes_fraction > 0:
            as_box = rng.uniform(size=total) < config.emit_boxes_fraction
            half_w = np.where(as_box, rng.uniform(0.0, rect.width / 8, total), 0.0)
            half_h = np.where(as_box, rng.uniform(0.0, rect.height / 8, total), 0.0)
            # a box's centre is clamped so that the box stays in its cell
            lons = np.where(as_box, np.minimum(np.maximum(
                lons, min_lon + half_w + m_lon), max_lon - half_w - m_lon), lons)
            lats = np.where(as_box, np.minimum(np.maximum(
                lats, rect.min_lat + half_h + m_lat), rect.max_lat - half_h - m_lat),
                lats)
        sources = rng.choice(len(_SOURCES), size=total, p=_SOURCE_WEIGHTS)

        names = [f"u_{i}_{j}_{u}" for u in range(users)]
        user_ids = [names[u] for u in user_of_tweet.tolist()]
        tweet_ids = ["t%09d" % s for s in range(tweet_seq, tweet_seq + total)]
        tweet_seq += total
        a = np.round(lons - half_w, 7).tolist()
        b = np.round(lats - half_h, 7).tolist()
        # a column of points only serves as c too (a is c, b is d)
        c = np.round(lons + half_w, 7).tolist() if np.any(half_w) else a
        d = np.round(lats + half_h, 7).tolist() if np.any(half_h) else b
        n_away = int(away.sum())
        n_t[i, j] += total - n_away
        if n_away:
            n_t[i + 1, j] += n_away
        n_u[i, j] += users
        yield (tweet_ids, user_ids, a, b, c, d,
               [_SOURCES[s] for s in sources.tolist()])


def gen_activity(config: SynthConfig, gt: GroundTruth) -> list[dict]:
    """Generate tweet records cell by cell, completing the ground truth
    (see _cell_counts and _activity_columns for the draw)."""
    return _parsed(_activity_columns(config, gt, _cell_draws(config, gt)))


def check_bot_settings(n_bots: int, bot_tweet_fraction: float) -> None:
    """Raise ConfigError unless n_bots >= 0 and, when there are bots, the
    fraction is finite and > 0."""
    if n_bots < 0:
        raise ConfigError("bots must be >= 0")
    if n_bots > 0 and not 0 < bot_tweet_fraction < math.inf:
        raise ConfigError("bot_tweet_fraction must be finite and > 0")


def _bot_columns(config: SynthConfig, n_bots: int, bot_tweet_fraction: float,
                 total_records: int):
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
    check_bot_settings(n_bots, bot_tweet_fraction)
    return _parsed(_bot_columns(config, n_bots, bot_tweet_fraction, total_records))


def land_geojson(study: LonLatRect) -> dict:
    """A land layer covering the whole study rect (no coastline)."""
    return {
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "geometry": rect_geojson(study),
            "properties": {"name": "study_area"},
        }],
    }


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def write_corpus(config: SynthConfig, gt: GroundTruth, path, n_bots: int,
                 bot_tweet_fraction: float) -> int:
    """Write the activity corpus, then n_bots bots, to path as JSONL, without
    holding the records; completes gt like gen_activity.

    Every count error is raised first (see _cell_counts), before any byte
    is written.  The cells are then written in k blocks, one per worker of
    workers.worker_count, by workers.fork_map: block b writes the cells
    whose first tweet is in its workers.share of the tweets (none, for a
    share inside one large cell), this process block 0 into path and each
    worker its own into a part file next to it, which is then appended to
    path in block order and removed.  The file equals
    write_jsonl(gen_activity(config, gt) + gen_bots(config, n_bots,
    bot_tweet_fraction, len(activity))) byte for byte, for any number of
    workers.  Returns the number of records written.  A write that fails
    leaves neither the file nor a part file.
    """
    check_bot_settings(n_bots, bot_tweet_fraction)
    cells = _cell_draws(config, gt)
    firsts = np.cumsum([0] + [tweets for _, _, tweets in cells]).tolist()
    total = firsts[-1]
    k = workers.worker_count(total * _TWEET_S, workers.MIN_WORK_S)
    path = os.fspath(path)
    parts = [path] + [f"{path}.part{b}" for b in range(1, k)]

    def write_block(b):
        start, stop = np.searchsorted(firsts[:-1], workers.share(total, k, b))
        with open(parts[b], "w") as fh:
            for columns in _activity_columns(config, gt, cells[start:stop],
                                             firsts[start]):
                fh.writelines(_lines(columns))
        return gt.n_u, gt.n_t

    try:
        n_u, n_t = zip(*workers.fork_map(write_block, range(k)))
        gt.n_u, gt.n_t = sum(n_u), sum(n_t)
        _append(path, parts[1:])
        if n_bots > 0:
            with open(path, "a") as fh:
                for columns in _bot_columns(config, n_bots, bot_tweet_fraction,
                                            total):
                    fh.writelines(_lines(columns))
                    total += len(columns[0])
    except BaseException:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)
        raise
    return total


def _append(path, parts) -> None:
    """Append the files parts to the file at path, in order, removing each:
    copied by the kernel (os.copy_file_range) where it can, else through
    this process."""
    with open(path, "r+b") as out:
        out.seek(0, os.SEEK_END)
        for part in parts:
            with open(part, "rb") as src:
                try:
                    while os.copy_file_range(src.fileno(), out.fileno(), 1 << 30):
                        pass
                except (AttributeError, OSError):  # no such copy on this system
                    shutil.copyfileobj(src, out)
            os.remove(part)
