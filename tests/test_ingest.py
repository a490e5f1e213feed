import json

import pytest

from geoscale.geometry import GeoPoint, LonLatRect
from geoscale.ingest import (
    LocatedRecord,
    TweetRecord,
    corpus_stats,
    filter_bots,
    filter_min_tweets,
    locate,
    parse_population,
    parse_tweets,
    reply_quote_stats,
    source_ranking,
)

STUDY = LonLatRect(-5.8, 49.9, -1.2, 52.2)


def tweet_json(tweet_id="1", user_id="u1", coords=None, place_type=None,
               place_coords=None, source="app", **extra):
    obj = {"id_str": tweet_id, "user": {"id_str": user_id}, "source": source}
    if coords is not None:
        obj["coordinates"] = {"type": "Point", "coordinates": list(coords)}
    if place_coords is not None:
        obj["place"] = {
            "place_type": place_type or "city",
            "bounding_box": {"type": "Polygon", "coordinates": [place_coords]},
        }
    obj.update(extra)
    return json.dumps(obj)


def located(user_id="u1", lon=-3.5, lat=51.0, tweet_id="t", **kw):
    return LocatedRecord(tweet_id=tweet_id, user_id=user_id,
                         point=(lon, lat), tag_kind="place", **kw)


class TestParseTweets:
    def test_geo_coordinates_copied(self):
        records, diags = parse_tweets([tweet_json(coords=[-3.5, 51.0])])
        assert diags.parsed == 1
        assert records[0].geo == GeoPoint(-3.5, 51.0)

    def test_place_box_is_envelope_of_polygon(self):
        corners = [[-3.6, 50.9], [-3.4, 50.9], [-3.4, 51.1], [-3.6, 51.1]]
        records, _ = parse_tweets([tweet_json(place_coords=corners)])
        assert records[0].place_box == LonLatRect(-3.6, 50.9, -3.4, 51.1)

    def test_empty_input(self):
        records, diags = parse_tweets([])
        assert records == []
        assert diags.parsed == 0
        assert diags.skipped == 0

    def test_malformed_records_skipped_not_fatal(self):
        lines = ["not json", tweet_json(coords=[-3.5, 51.0]), "{\"id_str\": \"x\"}"]
        records, diags = parse_tweets(lines)
        assert len(records) == 1
        assert diags.skipped == 2

    def test_integer_too_large_for_a_float_is_a_counted_skip(self):
        huge = "1" + "0" * 400
        corners = [[-3.6, 50.9], [-3.4, 50.9], [-3.4, 51.1], [-3.6, 51.1]]
        box_line = tweet_json(place_coords=corners).replace("-3.4", huge, 1)
        point_line = tweet_json(coords=[-3.5, 51.0]).replace("-3.5", huge)
        lines = [box_line, point_line, tweet_json(coords=[-3.5, 51.0])]
        records, diags = parse_tweets(lines)
        assert diags.skipped == 2
        assert diags.reasons == {"OverflowError": 2}
        assert [r.geo for r in records] == [GeoPoint(-3.5, 51.0)]

    def test_reply_and_quote_fields(self):
        line = tweet_json(coords=[-3.5, 51.0], in_reply_to_status_id_str="9",
                          quoted_status_id_str="8")
        records, _ = parse_tweets([line])
        assert records[0].in_reply_to_status_id == "9"
        assert records[0].quoted_status_id == "8"


class TestLocate:
    def test_geo_takes_precedence_over_place(self):
        t = TweetRecord("1", "u", geo=GeoPoint(-3.5, 51.0), place_type="city",
                        place_box=LonLatRect(-3.6, 50.9, -3.4, 51.1))
        rec, reason = locate(t, STUDY)
        assert reason == "located_geo"
        assert rec.point == (-3.5, 51.0)
        assert rec.tag_kind == "geo"

    def test_admin_place_discarded(self):
        t = TweetRecord("1", "u", place_type="admin",
                        place_box=LonLatRect(-3.6, 50.9, -3.4, 51.1))
        rec, reason = locate(t, STUDY)
        assert rec is None
        assert reason == "insufficient_precision"

    def test_country_place_discarded(self):
        t = TweetRecord("1", "u", place_type="country",
                        place_box=LonLatRect(-5.0, 50.0, -2.0, 52.0))
        assert locate(t, STUDY)[1] == "insufficient_precision"

    def test_box_partially_outside_discarded(self):
        t = TweetRecord("1", "u", place_type="city",
                        place_box=LonLatRect(-6.5, 50.9, -5.5, 51.1))
        rec, reason = locate(t, STUDY)
        assert rec is None
        assert reason == "outside"

    def test_zero_extent_box_becomes_point(self):
        t = TweetRecord("1", "u", place_type="poi",
                        place_box=LonLatRect(-3.5, 51.0, -3.5, 51.0))
        rec, reason = locate(t, STUDY)
        assert reason == "located_place"
        assert rec.point == (-3.5, 51.0)
        assert rec.box is None
        assert rec.tag_kind == "place"

    def test_unknown_place_type_kept(self):
        t = TweetRecord("1", "u", place_type="weird_new_type",
                        place_box=LonLatRect(-3.6, 50.9, -3.4, 51.1))
        assert locate(t, STUDY)[1] == "located_place"

    def test_unlocatable(self):
        assert locate(TweetRecord("1", "u"), STUDY)[1] == "unlocatable"

    def test_partition_property(self):
        lines = [
            tweet_json("1", coords=[-3.5, 51.0]),
            tweet_json("2", coords=[10.0, 51.0]),
            tweet_json("3", place_type="city",
                       place_coords=[[-3.6, 50.9], [-3.4, 51.1]]),
            tweet_json("4", place_type="admin",
                       place_coords=[[-5.0, 50.0], [-2.0, 52.0]]),
            tweet_json("5"),
        ]
        tweets, _ = parse_tweets(lines)
        stats, _ = corpus_stats(tweets, STUDY)
        total = (stats.located_geo + stats.located_place
                 + stats.discarded_admin_country + stats.discarded_outside
                 + stats.unlocatable)
        assert total == stats.total_records == 5


class TestFilterBots:
    def test_user_over_one_percent_removed(self):
        records = [located(user_id="bot", tweet_id=str(i)) for i in range(11)]
        records += [located(user_id=f"u{i}", tweet_id=f"n{i}") for i in range(989)]
        kept, removed = filter_bots(records)
        assert removed == ["bot"]
        assert len(kept) == 989

    def test_exactly_at_threshold_kept(self):
        records = [located(user_id="busy", tweet_id=str(i)) for i in range(10)]
        records += [located(user_id=f"u{i}", tweet_id=f"n{i}") for i in range(990)]
        kept, removed = filter_bots(records)
        assert removed == []
        assert len(kept) == 1000

    def test_no_user_above_threshold_is_identity(self):
        records = [located(user_id=f"u{i % 200}", tweet_id=str(i))
                   for i in range(1000)]
        kept, removed = filter_bots(records)
        assert kept == records
        assert removed == []

    def test_idempotent(self):
        records = [located(user_id="bot", tweet_id=str(i)) for i in range(50)]
        records += [located(user_id=f"u{i}", tweet_id=f"n{i}") for i in range(950)]
        once, _ = filter_bots(records)
        twice, removed_again = filter_bots(once)
        assert twice == once
        assert removed_again == []


class TestFilterMinTweets:
    def test_boundary(self):
        ten = [located(user_id="a", tweet_id=str(i)) for i in range(10)]
        nine = [located(user_id="b", tweet_id=f"b{i}") for i in range(9)]
        kept = filter_min_tweets(ten + nine, 10)
        assert {r.user_id for r in kept} == {"a"}

    def test_min_one_is_identity(self):
        records = [located(user_id="a"), located(user_id="b")]
        assert filter_min_tweets(records, 1) == records


class TestSourceRanking:
    def test_simple_ranking(self):
        records = ([located(source="A", tweet_id=str(i)) for i in range(6)]
                   + [located(source="B", tweet_id=f"b{i}") for i in range(4)])
        ranked = source_ranking(records, 2)
        assert ranked == [("A", 6, 0.6), ("B", 4, 0.4)]

    def test_k_larger_than_distinct_sources(self):
        records = [located(source="A"), located(source="B")]
        assert len(source_ranking(records, 10)) == 2

    def test_ties_break_lexicographically(self):
        records = [located(source="zz"), located(source="aa")]
        ranked = source_ranking(records, 2)
        assert [r[0] for r in ranked] == ["aa", "zz"]

    def test_proportions_non_increasing(self):
        records = ([located(source=s, tweet_id=f"{s}{i}")
                    for s, n in [("A", 5), ("B", 3), ("C", 2)] for i in range(n)])
        ranked = source_ranking(records, 3)
        props = [p for _, _, p in ranked]
        assert props == sorted(props, reverse=True)
        assert all(0.0 <= p <= 1.0 for p in props)


class TestReplyQuoteStats:
    def test_disjoint_counts(self):
        records = ([located(tweet_id=f"r{i}", is_reply=True) for i in range(5)]
                   + [located(tweet_id="q", is_quote=True)]
                   + [located(tweet_id=f"p{i}") for i in range(94)])
        replies, quotes, frac = reply_quote_stats(records)
        assert (replies, quotes) == (5, 1)
        assert frac == pytest.approx(0.06)

    def test_all_empty(self):
        records = [located(tweet_id=str(i)) for i in range(10)]
        assert reply_quote_stats(records) == (0, 0, 0.0)

    def test_empty_corpus_fraction_absent(self):
        assert reply_quote_stats([]) == (0, 0, None)

    def test_both_flags_counted_once_in_union(self):
        records = [located(tweet_id="x", is_reply=True, is_quote=True),
                   located(tweet_id="y")]
        replies, quotes, frac = reply_quote_stats(records)
        assert (replies, quotes) == (1, 1)
        assert frac == pytest.approx(0.5)


class TestParsePopulation:
    def feature(self, code="E1", pop=1200, youth=None, lon=0.0):
        props = {"code": code, "population": pop}
        if youth is not None:
            props["population_18_35"] = youth
        ring = [[lon, 0], [lon + 1, 0], [lon + 1, 1], [lon, 1], [lon, 0]]
        return {"type": "Feature", "properties": props,
                "geometry": {"type": "Polygon", "coordinates": [ring]}}

    def test_parses_units(self):
        fc = {"type": "FeatureCollection",
              "features": [self.feature(), self.feature("E2", 900, 300, 2.0)]}
        units, diags = parse_population(fc)
        assert diags.parsed == 2
        assert units[0].unit_id == "E1"
        assert units[1].population_18_35 == 300.0

    def test_bad_population_skipped_with_diagnostic(self):
        fc = {"type": "FeatureCollection",
              "features": [self.feature(pop="lots"), self.feature(pop=-5),
                           self.feature("ok", 100)]}
        units, diags = parse_population(fc)
        assert len(units) == 1
        assert diags.skipped == 2
        assert diags.reasons["bad_population"] == 2
