"""Parse tweet and census inputs, resolve locations and apply corpus filters.

Tweets arrive as newline-delimited JSON with the usual public v1.1 field
layout (``coordinates.coordinates``, ``place.bounding_box``, ``source`` and
the reply/quote id fields).  Census population arrives as a GeoJSON
FeatureCollection with a numeric ``population`` property per feature.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import re
import stat
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import radians, sin
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from . import workers
from .errors import ConfigError, DataError
from .geometry import (
    EARTH_RADIUS_KM,
    MIN_AREA_KM2,
    LonLatRect,
    MultiPolygon,
    geometry_bounds,
    geometry_from_geojson,
    is_number,
    polygon_area,
    polygon_areas,
    position,
    spherical_rect_area,
)

# place_type values too coarse to locate a tweet
_IMPRECISE_PLACE_TYPES = {"admin", "country"}
_R2 = EARTH_RADIUS_KM * EARTH_RADIUS_KM


@dataclass(slots=True, frozen=True)
class LocatedRecord:
    """A tweet resolved to a point or a lon/lat box inside the study rect."""

    tweet_id: str
    user_id: str
    point: Optional[tuple] = None   # (lon, lat)
    box: Optional[LonLatRect] = None
    tag_kind: str = "geo"           # "geo" | "place"
    source: str = ""
    is_reply: bool = False
    is_quote: bool = False


@dataclass
class PopulationUnit:
    unit_id: str
    geometry: MultiPolygon
    population: float
    population_18_35: Optional[float] = None

    @cached_property
    def area(self) -> float:
        """Spherical area of the unit, km^2 (computed once)."""
        return polygon_area(self.geometry)

    @cached_property
    def bounds(self) -> LonLatRect:
        """Envelope of the unit's outer rings (computed once)."""
        return geometry_bounds(self.geometry)


@dataclass
class ParseDiagnostics:
    parsed: int = 0
    skipped: int = 0
    reasons: Counter = field(default_factory=Counter)

    def skip(self, reason: str) -> None:
        self.skipped += 1
        self.reasons[reason] += 1


@dataclass
class CorpusStats:
    total_records: int = 0
    located_geo: int = 0
    located_place: int = 0
    discarded_admin_country: int = 0
    discarded_outside: int = 0
    unlocatable: int = 0


_COLUMNS = ("lon0", "lat0", "lon1", "lat1", "sin0", "sin1", "user", "source",
            "reply", "quote", "place")
# a study rect that holds every finite record
_EVERYWHERE = LonLatRect(-math.inf, -math.inf, math.inf, math.inf)


@dataclass(eq=False)
class Corpus:
    """Located tweets as columns, one row per tweet.

    A row is a point (lon0 == lon1 and lat0 == lat1) or a place box of
    positive area (lon0 < lon1), with sin0 and sin1 the math.sin of its
    latitudes in radians (0 for points).  ``user`` codes index
    ``user_ids``, which are sorted, so code order is user-id order;
    ``source`` codes index ``sources``.  ``reply``, ``quote`` and ``place``
    (the tag kind: place, else geo) are booleans.  No tweet ids are kept.
    """

    lon0: np.ndarray
    lat0: np.ndarray
    lon1: np.ndarray
    lat1: np.ndarray
    sin0: np.ndarray
    sin1: np.ndarray
    user: np.ndarray
    source: np.ndarray
    reply: np.ndarray
    quote: np.ndarray
    place: np.ndarray
    user_ids: list
    sources: list

    def __len__(self) -> int:
        return len(self.user)

    def __iter__(self) -> Iterator[LocatedRecord]:
        """The rows as LocatedRecord views, with empty tweet ids."""
        cols = zip(*(getattr(self, name).tolist() for name in _COLUMNS))
        for lon0, lat0, lon1, lat1, _, _, user, source, reply, quote, place in cols:
            point, box = (None, LonLatRect(lon0, lat0, lon1, lat1)) \
                if lon0 != lon1 else ((lon0, lat0), None)
            yield LocatedRecord("", self.user_ids[user], point, box,
                                "place" if place else "geo",
                                self.sources[source], reply, quote)

    def take(self, rows) -> "Corpus":
        """The corpus of the rows selected by a mask or an index array."""
        return dataclasses.replace(
            self, **{name: getattr(self, name)[rows] for name in _COLUMNS})

    @property
    def is_box(self) -> np.ndarray:
        return self.lon0 != self.lon1

    def user_counts(self) -> np.ndarray:
        """Rows per user code."""
        return np.bincount(self.user, minlength=len(self.user_ids))

    @staticmethod
    def of(records) -> "Corpus":
        """Records as a Corpus: a Corpus itself, or LocatedRecords located
        again.  A LocatedRecord box must have positive area."""
        if isinstance(records, Corpus):
            return records
        rows = []
        for r in records:
            box = r.box
            if box is None and r.tag_kind == "place":
                box = r.point + r.point      # a point place: a zero-area box
            elif box is not None:
                if spherical_rect_area(box) <= 0.0:
                    raise DataError("zero-area box must arrive as a point")
                box = dataclasses.astuple(box)
            rows.append((r.user_id, None if box else r.point, None, box,
                         r.source, r.is_reply, r.is_quote))
        return corpus_stats(rows, _EVERYWHERE)[1]


def _span(first, *rest) -> tuple:
    """(min, max) of the values, as the min and max builtins pick them."""
    lo = hi = first
    for v in rest:
        if v < lo:
            lo = v
        if v > hi:
            hi = v
    return lo, hi


def _corners(coords) -> Optional[tuple]:
    """The envelope of the usual bounding box, one ring of four [lon, lat]
    float pairs, read by index; None for any other shape.  Raises
    ValueError for a value out of range or NaN, as position does."""
    try:
        [[a, b], [c, d], [e, f], [g, h]], = coords
    except (TypeError, ValueError):
        return None
    if not (type(a) is float and type(b) is float and type(c) is float
            and type(d) is float and type(e) is float and type(f) is float
            and type(g) is float and type(h) is float):
        return None
    # every value, unchained (faster than chained): _span skips a NaN not first
    if not (a >= -180.0 and a <= 180.0 and c >= -180.0 and c <= 180.0
            and e >= -180.0 and e <= 180.0 and g >= -180.0 and g <= 180.0
            and b >= -90.0 and b <= 90.0 and d >= -90.0 and d <= 90.0
            and f >= -90.0 and f <= 90.0 and h >= -90.0 and h <= 90.0):
        raise ValueError("bounding box position out of range")
    min_lon, max_lon = _span(a, c, e, g)
    min_lat, max_lat = _span(b, d, f, h)
    return min_lon, min_lat, max_lon, max_lat


def _envelope(coords) -> tuple:
    """Envelope (min_lon, min_lat, max_lon, max_lat) of an arbitrarily
    nested GeoJSON coordinate array: its positions (see position) are the
    lists that start with two numbers.  Raises ValueError for any other
    value outside a position, and as position does."""
    box = _corners(coords)
    if box is not None:
        return box
    positions = []

    def walk(node):
        if not isinstance(node, (list, tuple)):
            raise ValueError(f"bounding box value {node!r} is not in a pair of numbers")
        if len(node) >= 2 and is_number(node[0]) and is_number(node[1]):
            positions.append(position(node))
        else:
            for child in node:
                walk(child)

    walk(coords)
    if not positions:
        raise ValueError("empty bounding box coordinates")
    lons, lats = zip(*positions)
    return min(lons), min(lats), max(lons), max(lats)


def _id(obj: dict) -> str:
    """The id of a tweet or user object: a non-empty id_str, else an
    integer id as decimal text.  Raises TypeError for an id_str that is not
    a string or an id that is not an integer (a bool is not one), and
    ValueError for neither."""
    id_str = obj.get("id_str")
    if id_str:
        if not isinstance(id_str, str):
            raise TypeError("id_str is not a string")
        return id_str
    number = obj.get("id")
    if number is None:
        raise ValueError("missing id_str and id")
    if type(number) is not int:
        raise TypeError("id is not an integer")
    return str(number)


def _fields(obj) -> tuple:
    """The row (user_id, geo, place_type, box, source, is_reply, is_quote)
    of a decoded record, with geo a (lon, lat) pair and box an envelope,
    each or None.  A malformed record raises ValueError, KeyError,
    TypeError or OverflowError; place_type and source are strings, or
    absent or null."""
    if not isinstance(obj, dict):
        raise TypeError("record is not a JSON object")
    user = obj.get("user") or {}
    if not isinstance(user, dict):
        raise TypeError("user is not a JSON object")
    _id(obj)   # a record needs a tweet id, which is not kept
    user_id = _id(user)

    geo = None
    coords = obj.get("coordinates")
    if isinstance(coords, dict) and coords.get("coordinates"):
        geo = position(coords["coordinates"])

    place_type = None
    box = None
    place = obj.get("place")
    if isinstance(place, dict):
        place_type = place.get("place_type")
        if not isinstance(place_type, (str, type(None))):
            raise TypeError("place_type is not a string")
        bbox = place.get("bounding_box")
        if isinstance(bbox, dict) and bbox.get("coordinates"):
            box = _envelope(bbox["coordinates"])

    quoted = obj.get("quoted_status_id_str")
    if not quoted:
        qs = obj.get("quoted_status")
        if isinstance(qs, dict):
            quoted = qs.get("id_str")
    source = obj.get("source")
    if not isinstance(source, (str, type(None))):
        raise TypeError("source is not a string")
    return (user_id, geo, place_type, box, source or "",
            bool(obj.get("in_reply_to_status_id_str")
                 or obj.get("in_reply_to_user_id_str")),
            bool(quoted))


def iter_tweets(source, diags: ParseDiagnostics) -> Iterator[tuple]:
    r"""Parse newline-delimited JSON tweets from a path or an iterable of
    lines into rows (see _fields), one record at a time.

    A path is read as UTF-8 and split only at \n, \r\n and \r; a line that
    is not UTF-8 is one skip (UnicodeDecodeError).  A line loses only
    JSON's whitespace (space, \t, \n and \r) at its ends, and one of
    nothing else is no record; any other character there, such as \x0c or
    U+00A0, makes the line a skip, as json.loads rejects it.  Malformed
    records are skipped and counted in ``diags`` by exception name
    (RecursionError for one nested more than _MAX_DEPTH deep); they never
    abort the stream.  Lines from an iterable are not split again and must
    be str: any other line is one TypeError skip.
    """
    if isinstance(source, (str, Path)):
        with _open_tweets(source) as fh:
            yield from iter_tweets(_text_lines(fh, diags), diags)
        return
    loads = _line_decoder()
    for line in source:
        if not isinstance(line, str):   # orjson would read bytes that json skips
            diags.skip("TypeError")
            continue
        line = line.strip(" \t\n\r")   # JSON's whitespace, RFC 8259 section 2
        if not line:
            continue
        try:
            if len(line) > _MAX_DEPTH:
                check_depth(line)
            row = _fields(loads(line))
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            diags.skip(type(exc).__name__)
            continue
        diags.parsed += 1
        yield row


def _open_tweets(path):
    """The tweet file at path, open for binary reads; DataError if it cannot
    be opened."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read tweets from {path}: {exc}") from exc


def _text_lines(raw_lines, diags: ParseDiagnostics) -> Iterator[str]:
    r"""The lines of the UTF-8 text in the \n-ended lines of a binary file
    (or of a range of one), ended by \n, \r\n or \r; a physical line
    that is not UTF-8 is skipped and counted."""
    for raw in raw_lines:
        try:
            text = raw.decode()
        except UnicodeDecodeError as exc:
            diags.skip(type(exc).__name__)
            continue
        yield from text.split("\r")


# json raises RecursionError on arrays and objects nested about as deep as
# the recursion limit allows below its caller, and orjson reads any depth: a
# document nested deeper than this is rejected on both decoders, however
# deep in the stack it is read
_MAX_DEPTH = 500
# a JSON string, or an unterminated one to the end of the line
_STRING = re.compile(r'"[^"\\]*(?:\\.?[^"\\]*)*(?:"|\Z)', re.S)
# bracket bytes to +1 (opening) and -1 (closing) as int8; every other byte
# is deleted
_SIGNS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")
_NOT_BRACKETS = bytes(set(range(256)) - set(b"[{]}"))


def check_depth(text: str) -> None:
    """Raise RecursionError if the JSON text nests arrays and objects more
    than _MAX_DEPTH deep outside its strings.  Only a text with more opening
    brackets than that can, and only such a text is scanned."""
    if text.count("[") + text.count("{") <= _MAX_DEPTH:
        return
    outside = _STRING.sub("", text).encode("utf-8", "surrogatepass")
    signs = np.frombuffer(outside.translate(_SIGNS, _NOT_BRACKETS), dtype=np.int8)
    if np.cumsum(signs, dtype=np.int64).max(initial=0) > _MAX_DEPTH:
        raise RecursionError(f"nested more than {_MAX_DEPTH} deep")


_raw_decode = json.JSONDecoder().raw_decode


def _json_loads(line: str):
    """json.loads of a stripped line, without its two whitespace scans."""
    obj, end = _raw_decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return obj


@functools.cache
def _line_decoder():
    """The decoder of a stripped tweet line: orjson's, with json's result
    wherever the two differ, if orjson can be imported; else json's.
    orjson is imported here, on the first read, and not with this module,
    so commands that read no tweets do not load it."""
    try:
        import orjson
    except ImportError:
        return _json_loads
    fast, rejected = orjson.loads, orjson.JSONDecodeError

    def loads(line):
        """orjson.loads of the line, or json's where the two could differ: a
        line orjson rejects (json reads NaN, Infinity, 1e400 and lone
        surrogates) and a numeric tweet or user id."""
        try:
            obj = fast(line)
        except rejected:
            return _json_loads(line)
        # orjson reads an integer outside the 64-bit range as a float, which
        # changes a row only in an id read from id (see _id)
        if type(obj) is dict:
            user = obj.get("user")
            if (not obj.get("id_str") and type(obj.get("id")) is float
                    or type(user) is dict and not user.get("id_str")
                    and type(user.get("id")) is float):
                return _json_loads(line)
        return obj

    return loads


def parse_tweets(source) -> tuple[list[tuple], ParseDiagnostics]:
    """Parse newline-delimited JSON tweets from a path or an iterable of lines.

    Malformed records are skipped and counted in the diagnostics; they never
    abort the stream.
    """
    diags = ParseDiagnostics()
    return list(iter_tweets(source, diags)), diags


def corpus_stats(rows: Iterable[tuple], study: LonLatRect
                 ) -> tuple[CorpusStats, Corpus]:
    """Locate parsed rows in the study rect: the funnel counts and the
    Corpus of the located rows.

    A geo tag inside the study rect wins over any place tag.  Place tags of
    type country/admin are too coarse and discarded; place boxes must be
    fully contained in the study rect.  Zero-area place boxes (a point, or
    a line of zero width or height) become points at their centre.
    """
    min_lon, min_lat, max_lon, max_lat = dataclasses.astuple(study)
    coords = array("d")   # lon0, lat0, lon1, lat1, sin0, sin1 per located row
    users, sources, flags = array("i"), array("i"), array("b")
    user_codes: dict = {}
    source_codes: dict = {}
    reasons = [0] * 5     # geo, place, imprecise, outside, unlocatable
    for user_id, geo, place_type, box, source, reply, quote in rows:
        if (geo is not None and min_lon <= geo[0] <= max_lon
                and min_lat <= geo[1] <= max_lat):
            lon, lat = geo
            row, kind = (lon, lat, lon, lat, 0.0, 0.0), 0
        elif box is None:
            reasons[3 if geo else 4] += 1
            continue
        elif place_type in _IMPRECISE_PLACE_TYPES:
            reasons[2] += 1
            continue
        else:
            a, b, c, d = box
            if not (min_lon <= a and c <= max_lon and min_lat <= b and d <= max_lat):
                reasons[3] += 1
                continue
            s0, s1 = sin(radians(b)), sin(radians(d))
            if _R2 * radians(c - a) * (s1 - s0) <= 0.0:
                lon, lat = 0.5 * (a + c), 0.5 * (b + d)
                row = (lon, lat, lon, lat, 0.0, 0.0)
            else:
                row = (a, b, c, d, s0, s1)
            kind = 1
        reasons[kind] += 1
        coords.extend(row)
        users.append(user_codes.setdefault(user_id, len(user_codes)))
        sources.append(source_codes.setdefault(source, len(source_codes)))
        flags.append(reply | quote << 1 | kind << 2)

    # recode users by the sorted order of their ids
    ids = list(user_codes)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=np.int32)
    rank[order] = np.arange(len(ids), dtype=np.int32)
    flags = np.array(flags, dtype=np.int8)
    return CorpusStats(sum(reasons), *reasons), Corpus(
        *np.array(coords, dtype=float).reshape(-1, 6).T.copy(),
        user=rank[np.array(users, dtype=np.int32)],
        source=np.array(sources, dtype=np.int32),
        reply=(flags & 1) != 0, quote=(flags & 2) != 0, place=(flags & 4) != 0,
        user_ids=[ids[k] for k in order], sources=list(source_codes))


# the fewest bytes a range of the tweet file may have: two processes first
# beat one at about 2 MB (a `fit` of the criterion-1 oracle cut short at
# 1, 1.5, 2, 3, 4 and 8 MB, on 2 CPUs), below which a fork costs about as
# much as it saves
_RANGE_BYTES = 1 << 20


def read_corpus(path, study: LonLatRect
                ) -> tuple[ParseDiagnostics, CorpusStats, Corpus]:
    r"""Parse and locate the tweet file at path: iter_tweets then
    corpus_stats, with the diagnostics, the funnel counts and the Corpus
    they give for the whole file.

    A regular file is cut into byte ranges that each end at a \n, one per
    worker of workers.worker_count, none shorter than _RANGE_BYTES, and
    the ranges are parsed by workers.fork_map; the results are merged in
    file order, so they equal one pass over the file for any number of
    ranges.  Any other file (a pipe, say) is read in one pass in this
    process.
    """
    with _open_tweets(path) as fh:
        info = os.fstat(fh.fileno())
        ranges = (workers.worker_count(info.st_size, _RANGE_BYTES)
                  if stat.S_ISREG(info.st_mode) else 1)
        cuts = _cuts(fh, info.st_size, ranges)
        if len(cuts) == 1:
            return _read_range(fh, None, study)
    _line_decoder()   # imported once, here, for every worker

    def read(span):
        start, end = span
        with _open_tweets(path) as fh:   # an offset of its own
            fh.seek(start)
            return _read_range(fh, end, study)

    return _merge(workers.fork_map(read, zip(cuts, cuts[1:] + [None])))


def _cuts(fh, size: int, ranges: int) -> list:
    r"""The start offsets of at most ``ranges`` byte ranges that tile a
    binary file of size bytes: equal ranges, each start moved on past the
    next \n.  [0] for one range.  Leaves the file at offset 0."""
    cuts = [0]
    for k in range(1, ranges):
        fh.seek(k * size // ranges)
        fh.readline()
        start = fh.tell()
        if cuts[-1] < start < size:
            cuts.append(start)
    if ranges > 1:
        fh.seek(0)
    return cuts


def _read_range(fh, end: Optional[int], study: LonLatRect
                ) -> tuple[ParseDiagnostics, CorpusStats, Corpus]:
    """read_corpus of the lines of a binary file from its position, a line
    start, up to offset end, another (None: to the end of the file)."""
    diags = ParseDiagnostics()
    lines = fh if end is None else _lines_to(fh, end)
    stats, corpus = corpus_stats(iter_tweets(_text_lines(lines, diags), diags), study)
    return diags, stats, corpus


def _lines_to(fh, end: int) -> Iterator[bytes]:
    """The lines of a binary file from its position up to offset end."""
    left = end - fh.tell()
    while left > 0:
        raw = fh.readline()
        if not raw:
            return
        left -= len(raw)
        yield raw


def _merge(parts) -> tuple[ParseDiagnostics, CorpusStats, Corpus]:
    """The diagnostics, funnel counts and Corpus of consecutive ranges, as
    one pass over them gives them: counts add, skip reasons and sources
    keep their first-seen order, and user codes rank the sorted union of
    the user ids."""
    diags, stats = ParseDiagnostics(), CorpusStats()
    for part_diags, part_stats, _ in parts:
        diags.parsed += part_diags.parsed
        diags.skipped += part_diags.skipped
        diags.reasons.update(part_diags.reasons)
        for f in dataclasses.fields(stats):
            setattr(stats, f.name, getattr(stats, f.name) + getattr(part_stats, f.name))
    corpora = [corpus for _, _, corpus in parts]
    user_ids = sorted(set(chain.from_iterable(c.user_ids for c in corpora)))
    sources = list(dict.fromkeys(chain.from_iterable(c.sources for c in corpora)))
    columns = {name: np.concatenate([getattr(c, name) for c in corpora])
               for name in _COLUMNS}
    for name, names, codes in (("user", "user_ids", user_ids),
                               ("source", "sources", sources)):
        index = {value: k for k, value in enumerate(codes)}
        columns[name] = np.concatenate([
            np.array([index[v] for v in getattr(c, names)], dtype=np.int32)
            [getattr(c, name)] for c in corpora])
    return diags, stats, Corpus(**columns, user_ids=user_ids, sources=sources)


def check_bot_threshold(threshold_fraction: float) -> None:
    """Raise ConfigError unless the bot threshold is in (0, 1]."""
    if not 0.0 < threshold_fraction <= 1.0:
        raise ConfigError("threshold_fraction must be in (0, 1]")


def check_min_tweets(min_count: int) -> None:
    """Raise ConfigError unless the minimum records per user is >= 1."""
    if not min_count >= 1:
        raise ConfigError("min_user_tweets must be >= 1")


def filter_bots(records: Corpus, threshold_fraction: float = 0.01) -> tuple[Corpus, list]:
    """Drop every record of users whose share of the corpus strictly exceeds
    the threshold.  Returns the Corpus of the kept records and the sorted
    ids of the removed users.

    The threshold is computed once against the pre-filter total (single
    pass, no re-thresholding), so the filter is idempotent.
    """
    check_bot_threshold(threshold_fraction)
    bots = records.user_counts() > threshold_fraction * len(records)
    removed = [records.user_ids[k] for k in np.flatnonzero(bots).tolist()]
    return records.take(~bots[records.user]), removed


def filter_min_tweets(records, min_count: int = 10) -> Corpus:
    """The Corpus of the records (a Corpus or LocatedRecords) of users with
    at least ``min_count`` located records."""
    check_min_tweets(min_count)
    corpus = Corpus.of(records)
    return corpus.take(corpus.user_counts()[corpus.user] >= min_count)


def source_ranking(corpus: Corpus, k: int) -> list[tuple[str, int, float]]:
    """Top-k sources by record count; proportions are of the whole corpus.

    Ties are broken lexicographically by source string.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = len(corpus)
    counts = np.bincount(corpus.source, minlength=len(corpus.sources)).tolist()
    ranked = sorted(((s, c) for s, c in zip(corpus.sources, counts) if c),
                    key=lambda kv: (-kv[1], kv[0]))
    return [(s, c, c / total) for s, c in ranked[:k]]


def reply_quote_counts(corpus: Corpus) -> tuple[int, int, int]:
    """Counts of replies, of quotes and of records that are either (a record
    that is both counts once in the union)."""
    return (int(corpus.reply.sum()), int(corpus.quote.sum()),
            int((corpus.reply | corpus.quote).sum()))


def reply_quote_stats(corpus: Corpus) -> tuple[int, int, Optional[float]]:
    """Counts of replies and quotes plus the fraction of records that are
    either (see reply_quote_counts); None for no records."""
    replies, quotes, either = reply_quote_counts(corpus)
    return replies, quotes, either / len(corpus) if len(corpus) else None


def _count(value) -> Optional[float]:
    """A population count as a finite float >= 0; None if it is not one."""
    if not is_number(value):
        return None
    try:
        value = float(value)
    except OverflowError:    # an int too large for a float
        return None
    return value if 0.0 <= value < math.inf else None


def parse_population(feature_collection: dict
                     ) -> tuple[list[PopulationUnit], ParseDiagnostics]:
    """Convert a GeoJSON FeatureCollection to population units.

    Features with a missing, non-numeric, negative or non-finite population
    (or properties that are not an object) are skipped with a diagnostic,
    and so is a feature that is not an object or whose geometry does not
    make polygons of positions and non-negative area (bad_geometry), or
    makes no more than MIN_AREA_KM2 (zero_area): no area to spread over.
    """
    features = (feature_collection.get("features")
                if isinstance(feature_collection, dict) else None)
    if not isinstance(features, list):
        raise DataError("population input is not a FeatureCollection")
    rows = [_population_unit(idx, feat) for idx, feat in enumerate(features)]
    at = [k for k, row in enumerate(rows) if isinstance(row, PopulationUnit)]
    areas, bad = polygon_areas([rows[k].geometry for k in at])
    for n, (k, area) in enumerate(zip(at, areas.tolist())):
        rows[k].area = area   # PopulationUnit.area, measured with the others
        if n in bad or area <= MIN_AREA_KM2:   # bad: a hole exceeds its outer ring
            rows[k] = "bad_geometry" if n in bad else "zero_area"
    units = [row for row in rows if isinstance(row, PopulationUnit)]
    reasons = Counter(row for row in rows if isinstance(row, str))
    return units, ParseDiagnostics(len(units), len(rows) - len(units), reasons)


def _population_unit(idx: int, feat) -> PopulationUnit | str:
    """Feature idx of a census FeatureCollection as a unit, not yet
    measured, or the reason it is skipped (see parse_population)."""
    if not isinstance(feat, dict):
        return "bad_geometry"
    props = feat.get("properties") or {}
    if not isinstance(props, dict):
        return "bad_population"
    pop = _count(props.get("population"))
    if pop is None:
        return "bad_population"
    youth = props.get("population_18_35")
    if youth is not None and (youth := _count(youth)) is None:
        return "bad_population_18_35"
    try:
        geometry = geometry_from_geojson(feat["geometry"])
    except (KeyError, TypeError, ValueError, OverflowError):
        return "bad_geometry"
    return PopulationUnit(str(props.get("code", idx)), geometry, pop, youth)
