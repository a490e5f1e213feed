"""Parse tweet and census inputs, resolve locations and apply corpus filters.

Tweets arrive as newline-delimited JSON with the usual public v1.1 field
layout (``coordinates.coordinates``, ``place.bounding_box``, ``source`` and
the reply/quote id fields).  Census population arrives as a GeoJSON
FeatureCollection with a numeric ``population`` property per feature.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .errors import ConfigError, DataError
from .geometry import GeoPoint, LonLatRect, MultiPolygon, geometry_from_geojson

# place_type values too coarse to locate a tweet
_IMPRECISE_PLACE_TYPES = {"admin", "country"}
_KNOWN_PLACE_TYPES = {"poi", "neighborhood", "city", "admin", "country"}
_JSON_NUMBER_TYPES = frozenset((int, float, bool))


@dataclass(slots=True)
class TweetRecord:
    tweet_id: str
    user_id: str
    geo: Optional[GeoPoint] = None
    place_type: Optional[str] = None
    place_box: Optional[LonLatRect] = None
    source: str = ""
    in_reply_to_status_id: Optional[str] = None
    in_reply_to_user_id: Optional[str] = None
    quoted_status_id: Optional[str] = None


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


@dataclass
class ParseDiagnostics:
    parsed: int = 0
    skipped: int = 0
    reasons: Counter = field(default_factory=Counter)


@dataclass
class CorpusStats:
    total_records: int = 0
    located_geo: int = 0
    located_place: int = 0
    discarded_admin_country: int = 0
    discarded_outside: int = 0
    unlocatable: int = 0
    per_source: Counter = field(default_factory=Counter)
    reply_count: int = 0
    quote_count: int = 0
    reply_or_quote_count: int = 0

    def to_dict(self) -> dict:
        return {
            "total_records": self.total_records,
            "located_geo": self.located_geo,
            "located_place": self.located_place,
            "discarded_admin_country": self.discarded_admin_country,
            "discarded_outside": self.discarded_outside,
            "unlocatable": self.unlocatable,
            "per_source": dict(self.per_source),
            "reply_count": self.reply_count,
            "quote_count": self.quote_count,
            "reply_or_quote_count": self.reply_or_quote_count,
        }


def _envelope(coords) -> LonLatRect:
    """Envelope of an arbitrarily nested GeoJSON coordinate array."""
    # fast path: the usual Polygon nesting [[[lon, lat], ...]].  zip gives
    # exactly two columns of numbers (JSON decodes them to exactly int, float
    # or bool) only when every point is a list that starts with two numbers,
    # and the walk below finds the same pairs; anything else falls through.
    if type(coords) is list and len(coords) == 1 and type(coords[0]) is list:
        try:
            lons, lats = zip(*coords[0])
        except (TypeError, ValueError):
            pass
        else:
            if _JSON_NUMBER_TYPES.issuperset(map(type, lons + lats)):
                return LonLatRect(float(min(lons)), float(min(lats)),
                                  float(max(lons)), float(max(lats)))

    lons = []
    lats = []

    def walk(node):
        if (isinstance(node, (list, tuple)) and len(node) >= 2
                and all(isinstance(v, (int, float)) for v in node[:2])):
            lons.append(float(node[0]))
            lats.append(float(node[1]))
        elif isinstance(node, (list, tuple)):
            for child in node:
                walk(child)

    walk(coords)
    if not lons:
        raise ValueError("empty bounding box coordinates")
    return LonLatRect(min(lons), min(lats), max(lons), max(lats))


def _record_from_json(obj: dict) -> TweetRecord:
    tweet_id = obj.get("id_str") or str(obj.get("id", ""))
    user = obj.get("user") or {}
    user_id = user.get("id_str") or str(user.get("id", ""))
    if not tweet_id or not user_id:
        raise ValueError("missing id_str or user.id_str")

    geo = None
    coords = obj.get("coordinates")
    if isinstance(coords, dict) and coords.get("coordinates"):
        lon, lat = coords["coordinates"][:2]
        geo = GeoPoint(float(lon), float(lat))

    place_type = None
    place_box = None
    place = obj.get("place")
    if isinstance(place, dict):
        place_type = place.get("place_type")
        bbox = place.get("bounding_box")
        if isinstance(bbox, dict) and bbox.get("coordinates"):
            place_box = _envelope(bbox["coordinates"])

    quoted = obj.get("quoted_status_id_str")
    if not quoted:
        qs = obj.get("quoted_status")
        if isinstance(qs, dict):
            quoted = qs.get("id_str")

    return TweetRecord(
        tweet_id, user_id, geo, place_type, place_box,
        obj.get("source") or "",
        obj.get("in_reply_to_status_id_str") or None,
        obj.get("in_reply_to_user_id_str") or None,
        quoted or None,
    )


def iter_tweets(source, diags: ParseDiagnostics) -> Iterator[TweetRecord]:
    """Parse newline-delimited JSON tweets from a path or an iterable of
    lines, one record at a time.

    A path is read line by line and split as str.splitlines splits it.
    Malformed records are skipped and counted in ``diags``; they never abort
    the stream.
    """
    if isinstance(source, (str, Path)):
        try:
            fh = open(source)
        except OSError as exc:
            raise DataError(f"cannot read tweets from {source}: {exc}") from exc
        with fh:
            yield from _parse_lines(
                (line for chunk in fh for line in chunk.splitlines()), diags)
    else:
        yield from _parse_lines(source, diags)


_raw_decode = json.JSONDecoder().raw_decode


def _loads(line):
    """json.loads of a stripped line, without its two whitespace scans."""
    if type(line) is not str:
        return json.loads(line)
    obj, end = _raw_decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return obj


def _parse_lines(lines: Iterable[str], diags: ParseDiagnostics
                 ) -> Iterator[TweetRecord]:
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = _record_from_json(_loads(line))
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            diags.skipped += 1
            diags.reasons[type(exc).__name__] += 1
            continue
        diags.parsed += 1
        yield rec


def parse_tweets(source) -> tuple[list[TweetRecord], ParseDiagnostics]:
    """Parse newline-delimited JSON tweets from a path or an iterable of lines.

    Malformed records are skipped and counted in the diagnostics; they never
    abort the stream.
    """
    diags = ParseDiagnostics()
    return list(iter_tweets(source, diags)), diags


def locate(t: TweetRecord, study: LonLatRect) -> tuple[Optional[LocatedRecord], str]:
    """Resolve a tweet to a location inside the study rect.

    A geo tag inside the study rect wins over any place tag.  Place tags of
    type country/admin are too coarse and discarded; place boxes must be
    fully contained in the study rect.  Zero-extent place boxes become
    points.  Returns (record, reason); record is None when discarded and
    the reason is one of located_geo / located_place /
    insufficient_precision / outside / unlocatable.
    """
    geo = t.geo
    if geo is not None and study.contains_point(geo.lon, geo.lat):
        return _located(t, (geo.lon, geo.lat), None, "geo"), "located_geo"

    box = t.place_box
    if box is not None:
        if t.place_type in _IMPRECISE_PLACE_TYPES:
            return None, "insufficient_precision"
        if study.contains_rect(box):
            if box.is_degenerate():
                return (_located(t, (box.min_lon, box.min_lat), None, "place"),
                        "located_place")
            return _located(t, None, box, "place"), "located_place"
        return None, "outside"

    if geo is not None:
        return None, "outside"
    return None, "unlocatable"


def _located(t: TweetRecord, point, box, tag_kind: str) -> LocatedRecord:
    return LocatedRecord(
        t.tweet_id, t.user_id, point, box, tag_kind, t.source,
        bool(t.in_reply_to_status_id or t.in_reply_to_user_id),
        bool(t.quoted_status_id))


def corpus_stats(tweets: Iterable[TweetRecord], study: LonLatRect
                 ) -> tuple[CorpusStats, list[LocatedRecord]]:
    """Locate every tweet and tally the partition plus per-source and
    reply/quote counts over the located records."""
    stats = CorpusStats()
    located: list[LocatedRecord] = []
    reasons: Counter = Counter()
    per_source = stats.per_source
    for t in tweets:
        rec, reason = locate(t, study)
        reasons[reason] += 1
        if rec is not None:
            located.append(rec)
            per_source[rec.source] += 1
            if rec.is_reply or rec.is_quote:
                stats.reply_or_quote_count += 1
                stats.reply_count += rec.is_reply
                stats.quote_count += rec.is_quote
    stats.total_records = sum(reasons.values())
    stats.located_geo = reasons["located_geo"]
    stats.located_place = reasons["located_place"]
    stats.discarded_admin_country = reasons["insufficient_precision"]
    stats.discarded_outside = reasons["outside"]
    stats.unlocatable = reasons["unlocatable"]
    return stats, located


def filter_bots(records: list[LocatedRecord], threshold_fraction: float = 0.01
                ) -> tuple[list[LocatedRecord], list[str]]:
    """Drop every record of users whose share of the corpus strictly exceeds
    the threshold.

    The threshold is computed once against the pre-filter total (single
    pass, no re-thresholding), so the filter is idempotent.
    """
    if not 0.0 < threshold_fraction <= 1.0:
        raise ConfigError("threshold_fraction must be in (0, 1]")
    counts = Counter(r.user_id for r in records)
    threshold = threshold_fraction * len(records)
    removed = sorted(u for u, c in counts.items() if c > threshold)
    removed_set = set(removed)
    kept = [r for r in records if r.user_id not in removed_set]
    return kept, removed


def filter_min_tweets(records: list[LocatedRecord], min_count: int = 10
                      ) -> list[LocatedRecord]:
    """Keep only records of users with at least ``min_count`` located records."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(r.user_id for r in records)
    return [r for r in records if counts[r.user_id] >= min_count]


def source_ranking(records: list[LocatedRecord], k: int
                   ) -> list[tuple[str, int, float]]:
    """Top-k sources by record count; proportions are of the whole corpus.

    Ties are broken lexicographically by source string.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = len(records)
    counts = Counter(r.source for r in records)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(s, c, c / total) for s, c in ranked[:k]]


def reply_quote_stats(records: list[LocatedRecord]
                      ) -> tuple[int, int, Optional[float]]:
    """Counts of replies and quotes plus the fraction of records that are
    either (a record that is both counts once in the union)."""
    replies = sum(1 for r in records if r.is_reply)
    quotes = sum(1 for r in records if r.is_quote)
    if not records:
        return 0, 0, None
    union = sum(1 for r in records if r.is_reply or r.is_quote)
    return replies, quotes, union / len(records)


def parse_population(feature_collection: dict
                     ) -> tuple[list[PopulationUnit], ParseDiagnostics]:
    """Convert a GeoJSON FeatureCollection to population units.

    Features with missing, non-numeric or negative population are skipped
    with a diagnostic.
    """
    diags = ParseDiagnostics()
    units: list[PopulationUnit] = []
    features = feature_collection.get("features")
    if features is None:
        raise DataError("population input is not a FeatureCollection")
    for idx, feat in enumerate(features):
        props = feat.get("properties") or {}
        code = str(props.get("code", idx))
        pop = props.get("population")
        if not isinstance(pop, (int, float)) or isinstance(pop, bool) or pop < 0:
            diags.skipped += 1
            diags.reasons["bad_population"] += 1
            continue
        youth = props.get("population_18_35")
        if youth is not None and (not isinstance(youth, (int, float))
                                  or isinstance(youth, bool) or youth < 0):
            diags.skipped += 1
            diags.reasons["bad_population_18_35"] += 1
            continue
        try:
            geom = geometry_from_geojson(feat["geometry"])
        except (KeyError, ValueError) as exc:
            diags.skipped += 1
            diags.reasons["bad_geometry"] += 1
            continue
        units.append(PopulationUnit(code, geom, float(pop),
                                    None if youth is None else float(youth)))
        diags.parsed += 1
    return units, diags
