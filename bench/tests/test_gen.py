"""Tests of the census-scan / resample input generator.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import gen  # noqa: E402

from geoscale.cli import load_land  # noqa: E402
from geoscale.geometry import LonLatRect, polygon_area, spherical_rect_area  # noqa: E402
from geoscale.gridding import GridSpec, build_grid  # noqa: E402
from geoscale.ingest import corpus_stats, parse_population, parse_tweets  # noqa: E402

STUDY = LonLatRect(*gen.STUDY)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    truth = gen.generate(3, out)
    return out, truth


def test_units_tile_the_study_rect(generated):
    out, _ = generated
    fc = json.loads((out / "population.geojson").read_text())
    units, diags = parse_population(fc)
    assert diags.skipped == 0
    total = sum(polygon_area(u.geometry) for u in units)
    assert total == pytest.approx(spherical_rect_area(STUDY), rel=1e-9)
    kinds = Counter(f["geometry"]["type"] for f in fc["features"])
    assert kinds["MultiPolygon"] > 0 and kinds["Polygon"] > 0
    holes = sum(len(p.holes) for u in units for p in u.geometry.polygons)
    assert holes > 0
    assert all(u.population_18_35 is not None for u in units)


def test_unit_rings_are_simple(generated):
    out, _ = generated
    fc = json.loads((out / "population.geojson").read_text())

    def crosses(p1, p2, q1, q2):
        def orient(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (orient(p1, p2, q1) * orient(p1, p2, q2) < 0
                and orient(q1, q2, p1) * orient(q1, q2, p2) < 0)

    for feat in fc["features"][:200]:
        geom = feat["geometry"]
        polys = ([geom["coordinates"]] if geom["type"] == "Polygon"
                 else geom["coordinates"])
        for rings in polys:
            for ring in rings:
                edges = list(zip(ring[:-1], ring[1:]))
                for a in range(len(edges)):
                    for b in range(a + 2, len(edges)):
                        if a == 0 and b == len(edges) - 1:
                            continue
                        assert not crosses(*edges[a], *edges[b]), feat["properties"]


def test_same_seed_gives_identical_files(tmp_path):
    gen.generate(11, tmp_path / "a")
    gen.generate(11, tmp_path / "b")
    gen.generate(12, tmp_path / "c")
    for name in ("population.geojson", "land.geojson", "tweets.jsonl", "truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "tweets.jsonl").read_bytes() != \
        (tmp_path / "c" / "tweets.jsonl").read_bytes()


def test_work_does_not_depend_on_the_seed(tmp_path):
    sizes = []
    for seed in (1, 2):
        truth = gen.generate(seed, tmp_path / str(seed))
        fc = json.loads((tmp_path / str(seed) / "population.geojson").read_text())
        vertices = sum(len(ring) for f in fc["features"]
                       for rings in ([f["geometry"]["coordinates"]]
                                     if f["geometry"]["type"] == "Polygon"
                                     else f["geometry"]["coordinates"])
                       for ring in rings)
        sizes.append((truth["units"], vertices))
    assert sizes[0] == sizes[1]


def test_exponents_recoverable_at_the_mesh(generated):
    """Per census unit, the generated users and tweets follow the known
    power laws of unit density."""
    out, truth = generated
    units, _ = parse_population(json.loads((out / "population.geojson").read_text()))
    area = {u.unit_id: polygon_area(u.geometry) for u in units}
    pop = {u.unit_id: u.population for u in units}
    youth = {u.unit_id: u.population_18_35 for u in units}
    tweets, users = Counter(), defaultdict(set)
    for line in (out / "tweets.jsonl").read_text().splitlines():
        uid = json.loads(line)["user"]["id_str"]
        code = uid.split("_")[0]
        if code in area:
            tweets[code] += 1
            users[code].add(uid)
    codes = [c for c in area if users[c]]
    a = np.array([area[c] for c in codes])
    p = np.array([pop[c] for c in codes]) / a
    u = np.array([len(users[c]) for c in codes]) / a
    t = np.array([tweets[c] for c in codes]) / a
    y = np.array([youth[c] for c in codes]) / a
    beta = np.polyfit(np.log10(p), np.log10(u), 1)[0]
    gamma = np.polyfit(np.log10(u), np.log10(t), 1)[0]
    delta = np.polyfit(np.log10(p), np.log10(y), 1)[0]
    assert beta == pytest.approx(truth["beta"], abs=0.05)
    assert gamma == pytest.approx(truth["gamma"], abs=0.05)
    assert delta == pytest.approx(truth["delta"], abs=0.02)


def test_corpus_mix(generated):
    out, truth = generated
    tweets, diags = parse_tweets(out / "tweets.jsonl")
    assert diags.skipped == 0
    stats, located = corpus_stats(tweets, STUDY)
    assert stats.total_records == truth["records"]
    share_geo = stats.located_geo / len(located)
    assert 0.4 < share_geo < 0.6
    assert stats.discarded_admin_country > 0 and stats.discarded_outside > 0
    bots = Counter(r.user_id for r in located if r.user_id.startswith("bot"))
    assert len(bots) == gen.GenConfig().bots
    assert all(n > 0.01 * len(located) for n in bots.values())


def test_land_has_coast_lake_and_water_cells(generated):
    out, _ = generated
    land = load_land(out / "land.geojson")
    assert sum(len(p.outer) for p in land.polygons) >= gen.GenConfig().coast_vertices
    assert any(p.holes for p in land.polygons)
    grid = build_grid(GridSpec(STUDY, 24), land)
    full = spherical_rect_area(STUDY) / 24 ** 2
    assert (grid.land_area == 0).any()
    partial = (grid.land_area > 0) & (grid.land_area < 0.99 * grid.land_area.max())
    assert partial.any()
    assert grid.land_area.max() <= full * 1.05
