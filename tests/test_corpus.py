"""The columnar corpus: the direct-index read of the usual bounding box
against the general walk on seeded mutants of the usual tweet lines, Corpus
binning against the LocatedRecord adapters, and reads of a tweet file in
byte ranges, one process each, against one pass over it."""

import copy
import json
import math
import os
import random
import signal
import sys
import tracemalloc

import numpy as np
import pytest

from geoscale import gridding, ingest, workers
from geoscale.cli import RunConfig, load_records, main
from geoscale.geometry import LonLatRect, MultiPolygon, PolygonWithHoles, rect_ring
from geoscale.gridding import (
    GridSpec,
    accumulate_tweets,
    accumulate_users,
    build_grid,
    group_by_user,
    run_grid_pipeline,
)
from geoscale.ingest import corpus_stats, parse_tweets

STUDY = LonLatRect(-5.8, 49.9, -1.2, 52.2)


def ring(a, b, c, d):
    return [[[a, b], [c, b], [c, d], [a, d]]]


# the shapes synth writes (a place box, zero-area for points) and the
# shapes of the bench generator (GPS points, place boxes of several types)
BASES = [
    {"id_str": "t000000001", "user": {"id_str": "u_0_0_1"},
     "place": {"place_type": "city", "bounding_box": {
         "type": "Polygon", "coordinates": ring(-5.7413127, 49.9411335,
                                                -5.7413127, 49.9411335)}},
     "source": "app_alpha"},
    {"id_str": "t000000002", "user": {"id_str": "u_0_0_2"},
     "place": {"place_type": "city", "bounding_box": {
         "type": "Polygon", "coordinates": ring(-5.75, 49.95, -5.70, 50.01)}},
     "source": "app_beta"},
    {"id_str": "t00000000", "user": {"id_str": "U0000_0"},
     "coordinates": {"type": "Point", "coordinates": [-5.718396, 50.072783]},
     "source": "app_alpha"},
    {"id_str": "t00000004", "user": {"id_str": "U0001_0"},
     "place": {"place_type": "poi", "bounding_box": {
         "type": "Polygon", "coordinates": ring(-5.7410049999999995, 50.201637,
                                                -5.706047, 50.211217)}},
     "source": "app_alpha", "in_reply_to_status_id_str": "17"},
    {"id_str": "t00000009", "user": {"id_str": "U0002_1"},
     "place": {"place_type": "admin", "bounding_box": {
         "type": "Polygon", "coordinates": ring(-5.0, 50.0, -3.0, 51.5)}},
     "coordinates": {"type": "Point", "coordinates": [-0.5, 51.0]},
     "source": "app_gamma", "quoted_status": {"id_str": "5"}},
]

REPLACEMENTS = ["x", "", 7, 0, 2.5, -1e9, True, False, None, [], [1.0], {},
                {"id_str": "q"}, 10 ** 400, float("nan"), float("inf"),
                float("-inf"), [-3.5, 51.0], [[-3.5, 51.0]], "city", "admin"]
EXTRA_KEYS = ["id", "id_str", "coordinates", "place_type", "bounding_box",
              "source", "quoted_status_id_str", "in_reply_to_user_id_str", "x"]


def _containers(node, found):
    """Every dict and list in a decoded record."""
    if isinstance(node, (dict, list)):
        found.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            _containers(child, found)
    return found


def mutant(rng: random.Random) -> str:
    """One line: a base record with one to three random edits, written as
    JSON (NaN and Infinity literals included), maybe cut short or with a
    form feed or carriage return spliced in."""
    obj = copy.deepcopy(rng.choice(BASES))
    for _ in range(rng.randint(1, 3)):
        node = rng.choice(_containers(obj, []))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = rng.random()
        if keys and op < 0.55:
            node[rng.choice(keys)] = copy.deepcopy(rng.choice(REPLACEMENTS))
        elif keys and op < 0.75:
            del node[rng.choice(keys)]
        elif isinstance(node, dict):
            node[rng.choice(EXTRA_KEYS)] = copy.deepcopy(rng.choice(REPLACEMENTS))
        else:
            node.append(copy.deepcopy(rng.choice(REPLACEMENTS)))
    line = json.dumps(obj, separators=(",", ":") if rng.random() < 0.5 else None)
    op = rng.random()
    if op < 0.1:
        line = line[:rng.randrange(len(line))]
    elif op < 0.2:
        k = rng.randrange(len(line) + 1)
        line = line[:k] + rng.choice("\f\r") + line[k:]
    return line


def outcome(line: str):
    """The parse of one line: its row (as text, so NaN rows compare) or
    its skip reason."""
    rows, diags = parse_tweets([line])
    return repr(rows) if rows else dict(diags.reasons)


def box_values(line: str) -> list:
    """The values of the [lon, lat] pairs in a line's place box, found as
    the general walk finds them; [] when the line has no box to read."""
    try:
        obj = json.loads(line.strip())
    except ValueError:
        return []
    place = obj.get("place") if isinstance(obj, dict) else None
    bbox = place.get("bounding_box") if isinstance(place, dict) else None
    coords = bbox.get("coordinates") if isinstance(bbox, dict) else None

    def values(node):
        if not isinstance(node, list):
            return []
        if len(node) >= 2 and all(isinstance(v, (int, float)) for v in node[:2]):
            return node[:2]
        return [v for child in node for v in values(child)]

    return values(coords)


@pytest.fixture(scope="module")
def mutants():
    rng = random.Random(20261018)
    return [mutant(rng) for _ in range(800)] + [json.dumps(b) for b in BASES]


def test_direct_index_path_and_general_walk_agree(mutants, monkeypatch, tmp_path):
    corners = ingest._corners
    hits = []
    monkeypatch.setattr(ingest, "_corners",
                        lambda coords: hits.append(corners(coords)) or hits[-1])
    both = [outcome(line) for line in mutants]
    assert sum(box is not None for box in hits) >= 50
    path = tmp_path / "mutants.jsonl"
    path.write_text("\n".join(mutants) + "\n")
    both_file = parse_tweets(path)

    monkeypatch.setattr(ingest, "_corners", lambda coords: None)
    general = [outcome(line) for line in mutants]
    assert general == both
    general_file = parse_tweets(path)
    assert repr(both_file[0]) == repr(general_file[0])
    assert both_file[1] == general_file[1]
    assert {"row", "JSONDecodeError", "TypeError", "ValueError",
            "OverflowError"} <= {k for o in both for k in
                                 (o if isinstance(o, dict) else ["row"])}
    # a box with a NaN or an infinity in any corner is a skip on both paths
    non_finite = [k for k, line in enumerate(mutants)
                  if any(isinstance(v, float) and not math.isfinite(v)
                         for v in box_values(line))]
    assert len(non_finite) >= 10
    for outcomes in (both, general):
        assert all(isinstance(outcomes[k], dict) for k in non_finite)


def edge_lines() -> list:
    """Lines that orjson rejects or reads otherwise than json: NaN and
    Infinity, 1e400, 2**64 and -2**63 - 1 as a user id and 2**64 as
    coordinates, a lone surrogate escape, nesting 1,100 deep and a trailing
    NUL."""
    point, box = json.dumps(BASES[2]), json.dumps(BASES[1])
    numeric_user = ('{"id_str":"t1","user":{"id":%d},"coordinates":'
                    '{"type":"Point","coordinates":[-5.7,50.1]}}')
    deep = "[" * 1100 + "]" * 1100
    return [point.replace("-5.718396", "NaN"),
            point.replace("50.072783", "-Infinity"),
            box.replace("49.95", "Infinity"),
            point.replace("50.072783", "1e400"),
            box.replace("-5.75", "1e400"),
            numeric_user % 2 ** 64,
            numeric_user % (-2 ** 63 - 1),
            point.replace("-5.718396", str(2 ** 64)),
            box.replace("-5.75", str(2 ** 64)),
            point.replace("app_alpha", "\\ud800"),
            point[:-1] + ', "x": %s}' % deep,
            box.replace('[[[-5.75', deep[:1100] + '[[[-5.75').replace(
                ']]]', ']]]' + deep[1100:]),
            point + "\x00"]


def orjson_alone_differs(orjson, line: str) -> bool:
    """Whether orjson rejects the line or reads it otherwise than json."""
    try:
        theirs = orjson.loads(line)
    except orjson.JSONDecodeError:
        return True
    try:
        ours = json.loads(line)
    except RecursionError:
        return True
    return repr(theirs) != repr(ours)


@pytest.fixture
def fresh_decoder():
    """The line decoder looked up again on the next read, and after the test."""
    ingest._line_decoder.cache_clear()
    yield
    ingest._line_decoder.cache_clear()


def test_orjson_and_json_decode_alike(mutants, tmp_path, monkeypatch,
                                      fresh_decoder):
    """Rows and skip reasons read with orjson, where it falls back to json,
    equal those read with json alone, line by line and from a file."""
    orjson = pytest.importorskip("orjson")
    edges = edge_lines()
    assert all(orjson_alone_differs(orjson, line) for line in edges)
    lines = mutants + edges
    path = tmp_path / "lines.jsonl"
    path.write_text("\n".join(lines) + "\n")

    def read():
        ingest._line_decoder.cache_clear()
        return [outcome(line) for line in lines], parse_tweets(path)

    both = read()
    assert ingest._line_decoder() is not ingest._json_loads
    monkeypatch.setitem(sys.modules, "orjson", None)
    json_only = read()
    assert ingest._line_decoder() is ingest._json_loads
    assert both[0] == json_only[0]
    assert repr(both[1][0]) == repr(json_only[1][0])
    assert both[1][1] == json_only[1][1]


def sample_lines(n=3000, seed=5):
    """Points and place boxes (half each, so boxes span several batches)
    of 300 users inside STUDY, some boxes of zero area."""
    rng = random.Random(seed)
    lines = []
    for k in range(n):
        lon = rng.uniform(STUDY.min_lon, STUDY.max_lon - 0.3)
        lat = rng.uniform(STUDY.min_lat, STUDY.max_lat - 0.3)
        rec = {"id_str": str(k), "user": {"id_str": f"u{rng.randrange(300)}"},
               "source": rng.choice(["a", "b", "c"])}
        if k % 2:
            w = 0.0 if rng.random() < 0.2 else rng.uniform(0.01, 0.3)
            rec["place"] = {"place_type": "city", "bounding_box": {
                "type": "Polygon", "coordinates": ring(lon, lat, lon + w,
                                                       lat + rng.uniform(0.01, 0.3))}}
        else:
            rec["coordinates"] = {"type": "Point", "coordinates": [lon, lat]}
        lines.append(json.dumps(rec))
    return lines


@pytest.mark.parametrize("x", [4, 10, 24])
def test_corpus_binning_equals_the_located_record_adapters(x):
    _, corpus = corpus_stats(parse_tweets(sample_lines())[0], STUDY)
    assert corpus.is_box.sum() > 1024
    land = MultiPolygon.of(PolygonWithHoles(rect_ring(STUDY)))
    grid = run_grid_pipeline(GridSpec(STUDY, x), land, corpus, [])
    records = list(corpus)
    adapted = build_grid(GridSpec(STUDY, x), land)
    accumulate_tweets(adapted, records)
    accumulate_users(adapted, group_by_user(records))
    assert np.array_equal(grid.n_t, adapted.n_t)
    assert np.array_equal(grid.n_u, adapted.n_u)
    assert grid.n_u.sum() == pytest.approx(len(set(corpus.user.tolist())), rel=1e-12)


def test_views_round_trip_and_take_selects_rows():
    _, corpus = corpus_stats(parse_tweets(sample_lines(200))[0], STUDY)
    again = ingest.Corpus.of(list(corpus))
    for name in ingest._COLUMNS:
        assert np.array_equal(getattr(again, name), getattr(corpus, name)), name
    place = corpus.take(corpus.place)
    assert len(place) == int(corpus.place.sum())
    assert all(r.tag_kind == "place" for r in place)


@pytest.mark.parametrize("x", [4, 10])
def test_binning_holds_less_than_the_corpus(x):
    """Each grid bins from the corpus's own columns: what it allocates at
    its peak, a batch of rows, the user order and the row weights, stays
    below the bytes of the corpus's columns, which a copy alone takes.
    The box batch's (1024, X) arrays grow with X and are small at these
    sides."""
    _, corpus = corpus_stats(parse_tweets(sample_lines(20_000))[0], STUDY)
    columns = sum(getattr(corpus, name).nbytes for name in ingest._COLUMNS)
    land = MultiPolygon.of(PolygonWithHoles(rect_ring(STUDY)))
    tracemalloc.start()
    try:
        run_grid_pipeline(GridSpec(STUDY, x), land, corpus, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < columns


def test_point_batches_add_as_one_pass(monkeypatch):
    """Points are added a batch at a time in row order, which np.add.at
    sums exactly as one call over all of them."""
    _, corpus = corpus_stats(parse_tweets(sample_lines())[0], STUDY)
    land = MultiPolygon.of(PolygonWithHoles(rect_ring(STUDY)))
    grids = []
    for batch in (7, len(corpus)):
        monkeypatch.setattr(gridding, "_POINT_BATCH", batch)
        grids.append(run_grid_pipeline(GridSpec(STUDY, 10), land, corpus, []))
    assert np.array_equal(grids[0].n_t, grids[1].n_t)
    assert np.array_equal(grids[0].n_u, grids[1].n_u)


def test_filters_that_keep_every_row_return_the_corpus_itself(monkeypatch):
    _, corpus = corpus_stats(parse_tweets(sample_lines(600))[0], STUDY)
    kept, removed = ingest.filter_bots(corpus, 1.0)
    assert kept is corpus and removed == []
    assert ingest.filter_min_tweets(corpus, 1) is corpus
    assert corpus.take(np.ones(len(corpus), dtype=bool)) is corpus
    assert corpus.take(np.arange(len(corpus))) is not corpus
    # the command's tag filter, over a corpus of place tags alone
    place = corpus.take(corpus.place)
    assert place is not corpus and len(place) < len(corpus)
    monkeypatch.setattr(ingest, "read_corpus", lambda path, study: (
        ingest.ParseDiagnostics(), ingest.CorpusStats(), place))
    _, loaded = load_records(RunConfig(tweets="tweets.jsonl", tag_kind="place",
                                       bot_threshold=1.0, min_user_tweets=1))
    assert loaded is place


def one_pass(path):
    """The diagnostics, funnel counts and Corpus of one streamed pass."""
    diags = ingest.ParseDiagnostics()
    stats, corpus = corpus_stats(ingest.iter_tweets(path, diags), STUDY)
    return diags, stats, corpus


def assert_same_read(got, want):
    (got_diags, got_stats, got_corpus), (diags, stats, corpus) = got, want
    assert (got_diags.parsed, got_diags.skipped) == (diags.parsed, diags.skipped)
    assert list(got_diags.reasons.items()) == list(diags.reasons.items())
    assert got_stats == stats
    for name in ingest._COLUMNS:
        a, b = getattr(got_corpus, name), getattr(corpus, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got_corpus.user_ids == corpus.user_ids
    assert got_corpus.sources == corpus.sources


def read_in_ranges(monkeypatch, path, k):
    """read_corpus of path as on k usable CPUs with ranges as short as a
    byte: cut into k ranges, or one pass for a file under k bytes."""
    monkeypatch.setattr(ingest, "_RANGE_BYTES", 1)
    monkeypatch.setattr(workers, "usable_cpus", lambda: k)
    return ingest.read_corpus(path, STUDY)


def range_starts(monkeypatch, path, k) -> list:
    """The offsets at which the k ranges of read_in_ranges begin to read,
    the ranges read one after another in this process."""
    starts, read_range = [], ingest._read_range

    def read(fh, *args):
        starts.append(fh.tell())
        return read_range(fh, *args)

    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_read_range", read)
        patch.setattr(workers, "fork_map", lambda fn, chunks: [fn(c) for c in chunks])
        read_in_ranges(patch, path, k)
    assert len(starts) == k
    return starts


def range_files(mutants, tmp_path) -> list:
    r"""Tweet files to read in ranges: the fuzz mutants and sample lines
    with \n, \r\n and \r endings in turn, blank lines, a line that is not
    UTF-8, lines nested more than 500 deep and a last line with no \n; an
    empty file; a first line longer than half the file, with no \n at the
    end; and 60 lines of one length, so that every share of 2 to 6 ranges
    starts a line."""
    deep = "[" * 600 + "]" * 600
    lines = [line.encode() for line in mutants + sample_lines(600)]
    lines[100:100] = [b"", b"  \t", b'{"id_str":"t9","user":{"id_str":"\xff"}}',
                      deep.encode(), json.dumps(BASES[2])[:-1].encode() + b',"x":'
                      + deep.encode() + b"}"]
    random.Random(3).shuffle(lines)
    ends = (b"\n", b"\r\n", b"\r")
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_bytes(b"".join(line + ends[k % 3] for k, line in enumerate(lines))
                      + json.dumps(BASES[1]).encode())
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    long = tmp_path / "long.jsonl"
    long.write_text("\n".join([json.dumps(dict(BASES[0], text="x" * 20000))]
                              + sample_lines(40)))
    even = tmp_path / "even.jsonl"
    width = max(map(len, sample_lines(60)))
    even.write_text("".join(line.ljust(width) + "\n" for line in sample_lines(60)))
    return [mixed, empty, long, even]


@pytest.mark.parametrize("decoder", ["orjson", "json"])
def test_range_reads_equal_one_pass(mutants, tmp_path, monkeypatch, fresh_decoder,
                                    decoder):
    """Reading a tweet file in 1 to 6 byte ranges gives the diagnostics
    (their reason order too), the funnel counts, the columns with their
    dtypes, the user ids and the sources of one pass over it.  A range
    begins at the first line that starts in its share of the bytes, and
    reads nothing when none does."""
    if decoder == "orjson":
        pytest.importorskip("orjson")
    else:
        monkeypatch.setitem(sys.modules, "orjson", None)
    paths = range_files(mutants, tmp_path)
    mixed, _, long, even = paths
    data = mixed.read_bytes()
    starts = [c for k in range(2, 7) for c in range_starts(monkeypatch, mixed, k)[1:]]
    assert all(data[c - 1:c] == b"\n" for c in starts)
    assert any(data[c - 2:c] == b"\r\n" for c in starts)
    assert len(set(range_starts(monkeypatch, long, 6))) < 6   # some read nothing
    for k in range(1, 7):
        assert range_starts(monkeypatch, even, k) == [
            workers.share(even.stat().st_size, k, b)[0] for b in range(k)]
    for path in paths:
        want = one_pass(path)
        for k in range(1, 7):
            assert_same_read(read_in_ranges(monkeypatch, path, k), want)
    diags, stats, corpus = one_pass(mixed)
    assert {"UnicodeDecodeError", "RecursionError", "JSONDecodeError"} <= set(diags.reasons)
    assert len(corpus.user_ids) > 200 and len(corpus.sources) > 3
    assert stats.total_records == diags.parsed
    assert (ingest._line_decoder() is ingest._json_loads) == (decoder == "json")


def fail_in(monkeypatch, worker: bool, fail):
    """Make _read_range call fail() before it reads: in every forked worker,
    or else in this process alone."""
    parent, read_range = os.getpid(), ingest._read_range

    def read(*args):
        if (os.getpid() != parent) == worker:
            fail()
        return read_range(*args)

    monkeypatch.setattr(ingest, "_read_range", read)


def raise_(error):
    raise error


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_workers_are_killed_and_reaped_when_this_range_raises(
        tmp_path, monkeypatch, error):
    path = tmp_path / "tweets.jsonl"
    path.write_text("\n".join(sample_lines(3000)) + "\n")
    fail_in(monkeypatch, False, lambda: raise_(error("this range")))
    with pytest.raises(error, match="this range"):
        read_in_ranges(monkeypatch, path, 4)
    assert_no_child_left()


@pytest.mark.parametrize("fail, error", [
    (lambda: raise_(MemoryError), MemoryError),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), ChildProcessError),
])
def test_a_worker_error_is_raised_here(tmp_path, monkeypatch, fail, error):
    """An exception raised in a worker is raised again in this process, of
    the same class, once every worker is reaped; a worker that dies
    without a result is a ChildProcessError."""
    path = tmp_path / "tweets.jsonl"
    path.write_text("\n".join(sample_lines(600)) + "\n")
    fail_in(monkeypatch, True, fail)
    with pytest.raises(error):
        read_in_ranges(monkeypatch, path, 3)
    assert_no_child_left()


def test_out_of_memory_in_a_worker_is_a_config_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "tweets.jsonl"
    path.write_text("\n".join(sample_lines(600)) + "\n")
    monkeypatch.setattr(ingest, "_RANGE_BYTES", 1)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    fail_in(monkeypatch, True, lambda: raise_(MemoryError))
    out = tmp_path / "out"
    assert main(["stats", "--tweets", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: out of memory: allocation failed\n"
    assert not out.exists()
    assert_no_child_left()


def test_one_pass_where_fork_is_missing(tmp_path, monkeypatch):
    path = tmp_path / "tweets.jsonl"
    path.write_text("\n".join(sample_lines(600)) + "\n")
    fail_in(monkeypatch, True, lambda: raise_(MemoryError))
    monkeypatch.delattr(os, "fork")
    assert_same_read(read_in_ranges(monkeypatch, path, 3), one_pass(path))
