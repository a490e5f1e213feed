import json
import math
import sys

import numpy as np
import pytest

from geoscale import ingest
from geoscale.geometry import LonLatRect, polygon_area
from geoscale.ingest import (
    _COLUMNS,
    Corpus,
    LocatedRecord,
    corpus_stats,
    filter_bots,
    filter_min_tweets,
    parse_population,
    parse_tweets,
    reply_quote_stats,
    source_ranking,
)

STUDY = LonLatRect(-5.8, 49.9, -1.2, 52.2)
FUNNEL = ("located_geo", "located_place", "discarded_admin_country",
          "discarded_outside", "unlocatable")


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


def nested_box_line(depth: int) -> str:
    """A tweet whose box is a point wrapped in ``depth`` arrays."""
    box = "[" * depth + "[-3.5,51.0]" + "]" * depth
    return ('{"id_str":"1","user":{"id_str":"u"},"place":{"place_type":"city",'
            '"bounding_box":{"type":"Polygon","coordinates":%s}}}' % box)


@pytest.fixture
def decoder(request, monkeypatch):
    """Tweet lines read with orjson ("orjson") or with json alone ("json")."""
    if request.param == "orjson":
        pytest.importorskip("orjson")
    else:
        monkeypatch.setitem(sys.modules, "orjson", None)
    ingest._line_decoder.cache_clear()   # looked up again, here and after
    yield request.param
    ingest._line_decoder.cache_clear()


def assert_same_corpus(a, b):
    """The same rows, column by column (a Corpus has no ==)."""
    a, b = Corpus.of(a), Corpus.of(b)
    for name in _COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.user_ids, a.sources) == (b.user_ids, b.sources)


def located(user_id="u1", lon=-3.5, lat=51.0, tweet_id="t", **kw):
    return LocatedRecord(tweet_id=tweet_id, user_id=user_id,
                         point=(lon, lat), tag_kind="place", **kw)


def locate_lines(lines):
    """The located records of JSON lines, as LocatedRecord views."""
    return list(corpus_stats(parse_tweets(lines)[0], STUDY)[1])


def locate_one(line):
    """The located record of one JSON line (None when discarded) and the
    funnel count it went to."""
    stats, corpus = corpus_stats(parse_tweets([line])[0], STUDY)
    [reason] = [name for name in FUNNEL if getattr(stats, name)]
    return (next(iter(corpus)) if len(corpus) else None), reason


def box_corners(box):
    return [[box.min_lon, box.min_lat], [box.max_lon, box.min_lat],
            [box.max_lon, box.max_lat], [box.min_lon, box.max_lat]]


class TestParseTweets:
    def test_geo_coordinates_copied(self):
        records, diags = parse_tweets([tweet_json(coords=[-3.5, 51.0])])
        assert diags.parsed == 1
        assert [r.point for r in locate_lines([tweet_json(coords=[-3.5, 51.0])])] \
            == [(-3.5, 51.0)]

    def test_place_box_is_envelope_of_polygon(self):
        corners = [[-3.6, 50.9], [-3.4, 50.9], [-3.4, 51.1], [-3.6, 51.1]]
        [rec] = locate_lines([tweet_json(place_coords=corners)])
        assert rec.box == LonLatRect(-3.6, 50.9, -3.4, 51.1)

    def test_empty_input(self):
        records, diags = parse_tweets([])
        assert records == []
        assert diags.parsed == 0
        assert diags.skipped == 0

    def test_malformed_records_skipped_not_fatal(self):
        good = tweet_json(coords=[-3.5, 51.0])
        lines = ["not json", good, "{\"id_str\": \"x\"}",
                 "[1, 2]",                                          # not an object
                 good.replace('{"id_str": "u1"}', '"u2"'),          # user not an object
                 good.replace('"u1"', "[1, 2]"),                    # list user id
                 good.replace('"u1"', "7"),                         # integer user id
                 tweet_json(coords=["-3.5", "51"]),                 # string coordinates
                 tweet_json(coords=[True, False]),                  # boolean coordinates
                 tweet_json(tweet_id="2", user_id="u3", coords=[-3.5, 51.0])]
        records, diags = parse_tweets(lines)
        _, corpus = corpus_stats(records, STUDY)
        assert [r.user_id for r in corpus] == ["u1", "u3"]
        assert diags.skipped == 8
        assert diags.reasons == {"JSONDecodeError": 1, "ValueError": 1,
                                 "TypeError": 6}
        kept, _ = filter_bots(corpus, 1.0)
        assert len(kept) == 2

    def test_integer_too_large_for_a_float_is_a_counted_skip(self):
        huge = "1" + "0" * 400
        corners = [[-3.6, 50.9], [-3.4, 50.9], [-3.4, 51.1], [-3.6, 51.1]]
        box_line = tweet_json(place_coords=corners).replace("-3.4", huge, 1)
        point_line = tweet_json(coords=[-3.5, 51.0]).replace("-3.5", huge)
        lines = [box_line, point_line, tweet_json(coords=[-3.5, 51.0])]
        records, diags = parse_tweets(lines)
        assert diags.skipped == 2
        assert diags.reasons == {"OverflowError": 2}
        assert [r.point for r in locate_lines(lines)] == [(-3.5, 51.0)]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 181.0, -1e6,
                                       True, False, "-2.5", None])
    def test_non_finite_box_coordinate_is_a_counted_skip(self, value):
        # a coordinate that is not a JSON number, or is out of the lon and lat
        # ranges, counts as non-finite
        for bad in range(8):
            flat = [-2.6, 50.5, -2.4, 50.5, -2.4, 50.7, -2.6, 50.7]
            flat[bad] = value
            corners = [flat[k:k + 2] for k in (0, 2, 4, 6)]
            lines = [tweet_json(place_coords=corners),
                     tweet_json(place_coords=corners + [corners[0]]),  # walked
                     tweet_json(coords=[-2.5, 50.6], place_coords=corners)]
            for line in lines:
                records, diags = parse_tweets([line])
                assert (records, diags.reasons) == ([], {"ValueError": 1}), line

    @pytest.mark.parametrize("decoder", ["orjson", "json"], indirect=True)
    def test_box_beyond_a_pole_is_a_counted_skip_in_an_infinite_study(
            self, decoder, tmp_path):
        """A box from lat 85 to 100 is out of range, as a point at lat 92.5
        is: one skip on the index path and on the walk, from a list and from
        a file, and no row at its centre."""
        corners = [[10.0, 85.0], [11.0, 85.0], [11.0, 100.0], [10.0, 100.0]]
        lines = [tweet_json(place_coords=corners),
                 tweet_json(place_coords=corners + [corners[0]]),
                 tweet_json(coords=[10.5, 92.5])]
        path = tmp_path / "tweets.jsonl"
        path.write_text("\n".join(lines) + "\n")
        everywhere = LonLatRect(-math.inf, -math.inf, math.inf, math.inf)
        for source in (lines, path):
            rows, diags = parse_tweets(source)
            _, corpus = corpus_stats(rows, everywhere)
            assert (len(corpus), diags.reasons) == (0, {"ValueError": 3})

    @pytest.mark.parametrize("decoder", ["orjson", "json"], indirect=True)
    def test_ids_are_an_id_str_string_or_an_integer_id(self, decoder):
        """A tweet and its user each need a non-empty id_str string, else an
        integer id that is not a bool; the user's is kept as text."""
        def line(tweet, user):
            return json.dumps({**tweet, "user": user,
                               "coordinates": {"coordinates": [-3.5, 51.0]}})

        records, diags = parse_tweets([
            line({"id": 5}, {"id": 7}),
            line({"id_str": "", "id": 2 ** 70}, {"id_str": "", "id": -2 ** 70}),
            line({"id_str": "1"}, {"id_str": "u"})])
        assert [r[0] for r in records] == ["7", str(-2 ** 70), "u"]
        assert diags.skipped == 0
        for reason, tweet, user in [
                ("ValueError", {"id_str": "1"}, {"id": None}),
                ("ValueError", {"id": None}, {"id_str": "u"}),
                ("ValueError", {}, {"id_str": "u"}),
                ("TypeError", {"id_str": "1"}, {"id": [1, 2]}),
                ("TypeError", {"id_str": "1"}, {"id": True}),
                ("TypeError", {"id_str": "1"}, {"id": 1.5}),
                ("TypeError", {"id_str": 7}, {"id_str": "u"}),
                ("TypeError", {"id_str": ["1"]}, {"id_str": "u"}),
                ("TypeError", {"id": False}, {"id_str": "u"})]:
            records, diags = parse_tweets([line(tweet, user)])
            assert (records, diags.reasons) == ([], {reason: 1}), (tweet, user)

    @pytest.mark.parametrize("decoder", ["orjson", "json"], indirect=True)
    @pytest.mark.parametrize("bad", ["{}\x0c", "\xa0{}", "\x0c"],
                             ids=["trailing_form_feed", "leading_nbsp", "form_feed"])
    def test_a_line_loses_only_json_whitespace(self, decoder, tmp_path, bad):
        """A line loses space, tab, \\n and \\r at its ends, as json.loads
        does; any other character there makes the line one skip, and a line
        of spaces is neither a record nor a skip."""
        good = tweet_json(coords=[-3.5, 51.0])
        lines = [" \t" + good + "\t ", bad.format(good), "   "]
        path = tmp_path / "tweets.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for source in (lines, path):
            records, diags = parse_tweets(source)
            assert len(records) == 1
            assert diags.reasons == {"JSONDecodeError": 1}

    @pytest.mark.parametrize("depth", [1000, 50000])
    def test_deeply_nested_box_is_a_counted_skip(self, depth):
        records, diags = parse_tweets([nested_box_line(depth),
                                       tweet_json(coords=[-3.5, 51.0])])
        assert len(records) == 1
        assert diags.reasons == {"RecursionError": 1}

    @pytest.mark.parametrize("text", [
        "[" * 499 + "]" * 499, "[" * 500 + "]" * 500, "[" * 501 + "]" * 501,
        "{" * 250 + "[" * 251, "[" * 501, '"' + "[" * 600 + '"',
        '["' + "[" * 600 + '"]', '["\\"' + "[" * 600 + '"]',
        '["\\\\"' + "[" * 600 + '"]', '["\\\\' + "[" * 600,
        '["' + "[" * 600, '["a"]' * 100 + "[" * 501 + '"]]"',
        "[" * 300 + '"]]]"' + "[" * 201 + "é" + '\\"' + "]" * 700,
        "[" * 200 + "]" * 300 + "[" * 600, '["\ud800' + "[" * 600 + '"]',
    ])
    def test_nesting_verdict_equals_a_bracket_walk(self, text):
        """check_depth against a walk over the brackets outside the JSON
        strings, at depths 499 to 501, with brackets in strings, escaped
        quotes and backslashes, unterminated strings, a closing run that
        goes below zero and a lone surrogate."""
        def walk(text):
            depth, k = 0, 0
            while k < len(text):
                c = text[k]
                if c == '"':   # a string, to its closing quote or the end
                    k += 1
                    while k < len(text) and text[k] != '"':
                        k += 2 if text[k] == "\\" else 1
                elif c in "[{":
                    depth += 1
                    if depth > 500:
                        return "deep"
                elif c in "]}":
                    depth -= 1
                k += 1
            return "ok"

        try:
            ingest.check_depth(text)
            verdict = "ok"
        except RecursionError:
            verdict = "deep"
        assert verdict == walk(text)

    def test_brackets_inside_strings_do_not_nest(self):
        # each quote in the source is escaped, so the brackets stay inside it
        line = tweet_json(coords=[-3.5, 51.0], source='"[{' * 1000)
        records, diags = parse_tweets([line])
        assert len(records) == 1 and diags.skipped == 0

    @pytest.mark.parametrize("decoder", ["orjson", "json"], indirect=True)
    @pytest.mark.parametrize("depth", [400, 890, 950, 990])
    def test_nested_line_reads_alike_at_any_stack_depth(self, decoder, depth):
        """json's limit counts the frames below it; the nesting limit does
        not, so the same line is a row (nested less than 500 deep) or a
        RecursionError skip wherever it is read."""
        line = nested_box_line(depth)

        def outcome(frames: int):
            if frames:
                return outcome(frames - 1)
            records, diags = parse_tweets([line])
            return len(records), dict(diags.reasons)

        expected = (1, {}) if depth < 500 else (0, {"RecursionError": 1})
        assert outcome(0) == outcome(150) == expected

    @pytest.mark.parametrize("decoder", ["orjson", "json"], indirect=True)
    def test_line_that_is_not_a_str_is_a_counted_skip(self, decoder):
        """Lines are str: a bytes line is one TypeError skip before either
        decoder sees it (orjson would read it, json would not)."""
        good = tweet_json(coords=[-3.5, 51.0])
        records, diags = parse_tweets([good.encode(), good])
        assert len(records) == 1
        assert diags.reasons == {"TypeError": 1}

    def test_line_that_is_not_utf8_is_a_counted_skip(self, tmp_path):
        good = tweet_json(coords=[-3.5, 51.0])
        path = tmp_path / "tweets.jsonl"
        # the first line's source is "ap" and a byte that is not UTF-8
        path.write_bytes(good.encode().replace(b"app", b"ap\xff") + b"\n"
                         + good.encode() + b"\n")
        records, diags = parse_tweets(path)
        assert len(records) == 1
        assert diags.reasons == {"UnicodeDecodeError": 1}

    def test_unicode_line_breaks_in_a_string_read_alike_from_a_file(self, tmp_path):
        """JSON allows U+2028 and U+0085 raw in a string, as json.dumps with
        ensure_ascii=False writes them: a file line does not end there."""
        line = json.dumps({"id_str": "1", "user": {"id_str": "u1"},
                           "coordinates": {"coordinates": [-3.5, 51.0]},
                           "source": "a\u2028b\u0085c"}, ensure_ascii=False)
        path = tmp_path / "tweets.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        from_file, file_diags = parse_tweets(path)
        from_list, list_diags = parse_tweets([line])
        assert from_file == from_list and len(from_file) == 1
        assert from_file[0][4] == "a\u2028b\u0085c"
        assert file_diags.skipped == list_diags.skipped == 0

    def test_a_file_line_ends_at_lf_crlf_or_cr(self, tmp_path):
        lines = [tweet_json(tweet_id=str(k), user_id=f"u{k}", coords=[-3.5, 51.0])
                 for k in range(4)]
        path = tmp_path / "tweets.jsonl"
        path.write_bytes("{}\r\n{}\r{}\n{}".format(*lines).encode())
        records, diags = parse_tweets(path)
        assert records == parse_tweets(lines)[0] and len(records) == 4
        assert diags.skipped == 0

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_other_line_breaks_do_not_end_a_file_line(self, tmp_path, char):
        """Between two records such a character leaves one line, which is
        not valid JSON: one skip, from a file as from a list of lines."""
        line = char.join([tweet_json(coords=[-3.5, 51.0]),
                          tweet_json(tweet_id="2", coords=[-3.5, 51.0])])
        path = tmp_path / "tweets.jsonl"
        path.write_text(line + "\n")
        for source in (path, [line]):
            records, diags = parse_tweets(source)
            assert (records, diags.skipped) == ([], 1)

    def test_reply_and_quote_fields(self):
        line = tweet_json(coords=[-3.5, 51.0], in_reply_to_status_id_str="9",
                          quoted_status_id_str="8")
        [rec] = locate_lines([line])
        assert rec.is_reply
        assert rec.is_quote

    @pytest.mark.parametrize("extra", [
        {"place": {"place_type": ["city"], "bounding_box": {
            "type": "Polygon", "coordinates": [[[-3.6, 50.9], [-3.4, 51.1]]]}}},
        {"place": {"place_type": 7, "bounding_box": {
            "type": "Polygon", "coordinates": [[[-3.6, 50.9], [-3.4, 51.1]]]}}},
        {"source": {"x": 1}},
        {"source": 5},
    ], ids=["list_place_type", "number_place_type", "object_source",
            "number_source"])
    def test_non_string_place_type_or_source_is_a_counted_skip(self, extra):
        lines = [tweet_json(coords=[-3.5, 51.0], **extra),
                 tweet_json(coords=[-3.5, 51.0], source=None)]
        records, diags = parse_tweets(lines)
        assert diags.reasons == {"TypeError": 1}
        _, corpus = corpus_stats(records, STUDY)
        assert source_ranking(corpus, 1) == [("", 1, 1.0)]


class TestLocate:
    def test_geo_takes_precedence_over_place(self):
        rec, reason = locate_one(tweet_json(
            coords=[-3.5, 51.0], place_type="city",
            place_coords=box_corners(LonLatRect(-3.6, 50.9, -3.4, 51.1))))
        assert reason == "located_geo"
        assert rec.point == (-3.5, 51.0)
        assert rec.tag_kind == "geo"

    def test_admin_place_discarded(self):
        rec, reason = locate_one(tweet_json(
            place_type="admin",
            place_coords=box_corners(LonLatRect(-3.6, 50.9, -3.4, 51.1))))
        assert rec is None
        assert reason == "discarded_admin_country"

    def test_country_place_discarded(self):
        line = tweet_json(place_type="country",
                          place_coords=box_corners(LonLatRect(-5.0, 50.0, -2.0, 52.0)))
        assert locate_one(line)[1] == "discarded_admin_country"

    def test_box_partially_outside_discarded(self):
        rec, reason = locate_one(tweet_json(
            place_type="city",
            place_coords=box_corners(LonLatRect(-6.5, 50.9, -5.5, 51.1))))
        assert rec is None
        assert reason == "discarded_outside"

    def test_zero_extent_box_becomes_point(self):
        rec, reason = locate_one(tweet_json(
            place_type="poi",
            place_coords=box_corners(LonLatRect(-3.5, 51.0, -3.5, 51.0))))
        assert reason == "located_place"
        assert rec.point == (-3.5, 51.0)
        assert rec.box is None
        assert rec.tag_kind == "place"

    @pytest.mark.parametrize("box, centre", [
        (LonLatRect(-3.5, 50.9, -3.5, 51.1), (-3.5, 51.0)),
        (LonLatRect(-3.6, 51.0, -3.4, 51.0), (-3.5, 51.0)),
    ], ids=["zero_width", "zero_height"])
    def test_line_shaped_box_becomes_point_at_its_centre(self, box, centre):
        rec, reason = locate_one(tweet_json(place_type="city",
                                            place_coords=box_corners(box)))
        assert reason == "located_place"
        assert rec.box is None
        assert rec.point == pytest.approx(centre, abs=1e-12)

    def test_unknown_place_type_kept(self):
        line = tweet_json(place_type="weird_new_type",
                          place_coords=box_corners(LonLatRect(-3.6, 50.9, -3.4, 51.1)))
        assert locate_one(line)[1] == "located_place"

    def test_unlocatable(self):
        assert locate_one(tweet_json())[1] == "unlocatable"

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
        kept, removed = filter_bots(Corpus.of(records))
        assert removed == ["bot"]
        assert len(kept) == 989

    def test_exactly_at_threshold_kept(self):
        records = [located(user_id="busy", tweet_id=str(i)) for i in range(10)]
        records += [located(user_id=f"u{i}", tweet_id=f"n{i}") for i in range(990)]
        kept, removed = filter_bots(Corpus.of(records))
        assert removed == []
        assert len(kept) == 1000

    def test_no_user_above_threshold_is_identity(self):
        records = [located(user_id=f"u{i % 200}", tweet_id=str(i))
                   for i in range(1000)]
        kept, removed = filter_bots(Corpus.of(records))
        assert_same_corpus(kept, records)
        assert removed == []

    def test_idempotent(self):
        records = [located(user_id="bot", tweet_id=str(i)) for i in range(50)]
        records += [located(user_id=f"u{i}", tweet_id=f"n{i}") for i in range(950)]
        once, _ = filter_bots(Corpus.of(records))
        twice, removed_again = filter_bots(once)
        assert_same_corpus(twice, once)
        assert removed_again == []


class TestFilterMinTweets:
    def test_boundary(self):
        ten = [located(user_id="a", tweet_id=str(i)) for i in range(10)]
        nine = [located(user_id="b", tweet_id=f"b{i}") for i in range(9)]
        kept = filter_min_tweets(ten + nine, 10)
        assert {r.user_id for r in kept} == {"a"}

    def test_min_one_is_identity(self):
        records = [located(user_id="a"), located(user_id="b")]
        assert_same_corpus(filter_min_tweets(records, 1), records)


class TestSourceRanking:
    def test_simple_ranking(self):
        records = ([located(source="A", tweet_id=str(i)) for i in range(6)]
                   + [located(source="B", tweet_id=f"b{i}") for i in range(4)])
        ranked = source_ranking(Corpus.of(records), 2)
        assert ranked == [("A", 6, 0.6), ("B", 4, 0.4)]

    def test_k_larger_than_distinct_sources(self):
        records = [located(source="A"), located(source="B")]
        assert len(source_ranking(Corpus.of(records), 10)) == 2

    def test_ties_break_lexicographically(self):
        records = [located(source="zz"), located(source="aa")]
        ranked = source_ranking(Corpus.of(records), 2)
        assert [r[0] for r in ranked] == ["aa", "zz"]

    def test_proportions_non_increasing(self):
        records = ([located(source=s, tweet_id=f"{s}{i}")
                    for s, n in [("A", 5), ("B", 3), ("C", 2)] for i in range(n)])
        ranked = source_ranking(Corpus.of(records), 3)
        props = [p for _, _, p in ranked]
        assert props == sorted(props, reverse=True)
        assert all(0.0 <= p <= 1.0 for p in props)


class TestReplyQuoteStats:
    def test_disjoint_counts(self):
        records = ([located(tweet_id=f"r{i}", is_reply=True) for i in range(5)]
                   + [located(tweet_id="q", is_quote=True)]
                   + [located(tweet_id=f"p{i}") for i in range(94)])
        replies, quotes, frac = reply_quote_stats(Corpus.of(records))
        assert (replies, quotes) == (5, 1)
        assert frac == pytest.approx(0.06)

    def test_all_empty(self):
        records = [located(tweet_id=str(i)) for i in range(10)]
        assert reply_quote_stats(Corpus.of(records)) == (0, 0, 0.0)

    def test_empty_corpus_fraction_absent(self):
        assert reply_quote_stats(Corpus.of([])) == (0, 0, None)

    def test_both_flags_counted_once_in_union(self):
        records = [located(tweet_id="x", is_reply=True, is_quote=True),
                   located(tweet_id="y")]
        replies, quotes, frac = reply_quote_stats(Corpus.of(records))
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

    def test_malformed_features_and_geometries_are_bad_geometry(self):
        bare_numbers = self.feature("bare")
        bare_numbers["geometry"]["coordinates"] = [[1, 2]]
        null_geometry = self.feature("null")
        null_geometry["geometry"] = None
        no_geometry = self.feature("none")
        del no_geometry["geometry"]
        fc = {"type": "FeatureCollection",
              "features": [bare_numbers, null_geometry, no_geometry, "feature",
                           self.feature("ok", 100)]}
        units, diags = parse_population(fc)
        assert [u.unit_id for u in units] == ["ok"]
        assert diags.skipped == 4
        assert diags.reasons == {"bad_geometry": 4}

    def test_bad_population_skipped_with_diagnostic(self):
        fc = {"type": "FeatureCollection",
              "features": [self.feature(pop="lots"), self.feature(pop=-5),
                           self.feature("ok", 100)]}
        units, diags = parse_population(fc)
        assert len(units) == 1
        assert diags.skipped == 2
        assert diags.reasons["bad_population"] == 2

    def test_non_finite_or_huge_counts_skipped_under_their_reasons(self):
        nan, inf = float("nan"), float("inf")
        fc = {"type": "FeatureCollection",
              "features": [self.feature(pop=nan), self.feature(pop=inf),
                           self.feature(pop=10 ** 400), self.feature(youth=nan),
                           self.feature(youth=inf), self.feature("ok", 100, 40)]}
        units, diags = parse_population(fc)
        assert [(u.unit_id, u.population, u.population_18_35)
                for u in units] == [("ok", 100.0, 40.0)]
        assert diags.reasons == {"bad_population": 3, "bad_population_18_35": 2}

    def test_non_finite_vertex_or_oversized_hole_is_bad_geometry(self):
        nan_vertex = self.feature("nan")
        nan_vertex["geometry"]["coordinates"][0][1] = [1, float("nan")]
        inf_vertex = self.feature("inf")
        inf_vertex["geometry"]["coordinates"][0][2][0] = float("inf")
        big_hole = self.feature("hole")
        big_hole["geometry"]["coordinates"].append(
            [[-1, -1], [3, -1], [3, 3], [-1, 3]])
        string_ring = self.feature("strings")
        string_ring["geometry"]["coordinates"] = [
            [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]]
        boolean_ring = self.feature("booleans")
        boolean_ring["geometry"]["coordinates"] = [
            [[False, False], [True, False], [True, True], [False, True]]]
        huge_vertex = self.feature("huge")
        huge_vertex["geometry"]["coordinates"][0][1] = [10 ** 400, 0]
        holed = self.feature("holed", lon=3.0)
        holed["geometry"] = {"type": "MultiPolygon", "coordinates": [
            holed["geometry"]["coordinates"] + [[[3.2, 0.2], [3.8, 0.2], [3.5, 0.8]]],
            [[[5, 0], [6, 0], [6, 1], [5, 1]]]]}
        fc = {"type": "FeatureCollection",
              "features": [nan_vertex, inf_vertex, big_hole, string_ring,
                           boolean_ring, huge_vertex, self.feature("ok"), holed]}
        units, diags = parse_population(fc)
        assert [u.unit_id for u in units] == ["ok", "holed"]
        assert diags.reasons == {"bad_geometry": 6}
        for unit in units:
            assert unit.area == polygon_area(unit.geometry)

    def test_zero_area_feature_is_a_zero_area_skip(self):
        collinear = self.feature("line", 4034)
        collinear["geometry"]["coordinates"] = [[[0, 0], [1, 1], [2, 2], [0, 0]]]
        units, diags = parse_population(
            {"type": "FeatureCollection", "features": [collinear, self.feature("ok")]})
        assert [u.unit_id for u in units] == ["ok"]
        assert (diags.skipped, diags.reasons) == (1, {"zero_area": 1})
