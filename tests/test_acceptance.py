"""End-to-end acceptance suite: one test per criterion, each verified
against synthetic oracles with known ground truth.  The conftest hook
prints a one-line verdict per criterion after the run."""

import csv
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from geoscale.anomaly import anomaly_rel
from geoscale.cli import main
from geoscale.geometry import (
    LonLatRect,
    MultiPolygon,
    PolygonWithHoles,
    geometry_from_geojson,
    rect_ring,
    spherical_rect_area,
)
from geoscale.gridding import (
    DensityGrid,
    GridSpec,
    accumulate_tweets,
    accumulate_users,
    apportion_population,
    build_grid,
    densities,
    group_by_user,
    run_grid_pipeline,
)
from geoscale.ingest import (
    LocatedRecord,
    PopulationUnit,
    corpus_stats,
    filter_bots,
    filter_min_tweets,
    parse_population,
    parse_tweets,
    reply_quote_stats,
    source_ranking,
)
from geoscale.scaling import FitResult, ScanResult, consistency, detect_window, fit_all, fit_power_law
from geoscale.synth import SynthConfig, gen_activity, gen_bots, gen_population, land_geojson
from geoscale.validation import ResampleConfig, subarea_grid_side, subset_resample

PAPER_STUDY = LonLatRect(-5.8, 49.9, -1.2, 52.2)

ORACLE_ARGS = [
    "--x-gen", "40", "--beta-true", "1.2", "--gamma-true", "1.35",
    "--b-true", "0.065", "--c-true", "2.0", "--noise-dex", "0.1",
    "--pop-log10-mean", "1.0", "--pop-log10-sigma", "0.4",
    "--seed", "20260823",
]


@pytest.fixture(scope="session")
def oracle_run(tmp_path_factory):
    """Timed synth -> fit round trip at the default study rect and X=40,
    shared by criteria 1 and 10."""
    out = tmp_path_factory.mktemp("oracle")
    t0 = time.perf_counter()
    rc_synth = main(["synth", "--out", str(out)] + ORACLE_ARGS)
    t1 = time.perf_counter()
    rc_fit = main(["fit",
                   "--tweets", str(out / "tweets.jsonl"),
                   "--population", str(out / "population.geojson"),
                   "--land", str(out / "land.geojson"),
                   "--out", str(out), "--x", "40",
                   "--min-user-tweets", "1"])
    t2 = time.perf_counter()
    elapsed = t2 - t0
    fits = {row["relation"]: row
            for row in csv.DictReader((out / "fits.csv").open())}
    ground_truth = json.loads((out / "ground_truth.json").read_text())
    return SimpleNamespace(out=out, rc_synth=rc_synth, rc_fit=rc_fit,
                           elapsed=elapsed, synth_s=t1 - t0, fit_s=t2 - t1,
                           fits=fits, ground_truth=ground_truth)


def rect_poly(rect: LonLatRect) -> MultiPolygon:
    return MultiPolygon.of(PolygonWithHoles(rect_ring(rect)))


def test_criterion_01_oracle_exponent_recovery(oracle_run):
    assert oracle_run.rc_synth == 0
    assert oracle_run.rc_fit == 0
    assert oracle_run.elapsed < 30.0, (
        f"round trip took {oracle_run.elapsed:.1f} s: synth "
        f"{oracle_run.synth_s:.1f} s, fit {oracle_run.fit_s:.1f} s")
    # the generator's user volume keeps mean occupancy at >= 50 users/cell
    n_u = np.array(oracle_run.ground_truth["n_u"], dtype=float)
    assert n_u.mean() >= 50.0
    beta = float(oracle_run.fits["U_vs_P"]["exponent"])
    gamma = float(oracle_run.fits["T_vs_U"]["exponent"])
    alpha = float(oracle_run.fits["T_vs_P"]["exponent"])
    assert 1.15 <= beta <= 1.25
    assert 1.30 <= gamma <= 1.40
    assert 1.55 <= alpha <= 1.70
    assert float(oracle_run.fits["T_vs_U"]["r_squared"]) >= 0.9


def test_criterion_02_exact_fit_identity():
    # rounded-count oracle without noise: recovery limited only by rounding
    cfg = SynthConfig(study=LonLatRect(-3.0, 50.0, -2.0, 51.0), x_gen=6,
                      b_true=0.05, c_true=2.0, noise_dex=0.0,
                      pop_log10_mean=1.5, pop_log10_sigma=0.4, seed=3)
    fc, gt = gen_population(cfg)
    records = gen_activity(cfg, gt)
    tweets, _ = parse_tweets([json.dumps(r) for r in records])
    _, located = corpus_stats(tweets, cfg.study)
    land = geometry_from_geojson(
        land_geojson(cfg.study)["features"][0]["geometry"])
    units, _ = parse_population(fc)
    grid = run_grid_pipeline(GridSpec(cfg.study, cfg.x_gen), land,
                             located, units)
    fits = fit_all(grid)
    assert abs(fits["beta"].exponent - 1.2) < 0.02
    assert abs(fits["gamma"].exponent - 1.35) < 0.02
    assert abs(fits["alpha"].exponent - 1.2 * 1.35) < 0.02
    report = consistency(fits["alpha"], fits["beta"], fits["gamma"])
    assert abs(report.z_score) < 1.0

    # continuous cell values injected directly: exact to float precision
    rng = np.random.default_rng(17)
    p = 10 ** rng.uniform(0.0, 3.0, 60)
    u = 0.5 * p ** 1.2
    t = 2.0 * u ** 1.35
    fit_beta = fit_power_law(list(zip(p, u)))
    fit_gamma = fit_power_law(list(zip(u, t)))
    fit_alpha = fit_power_law(list(zip(p, t)))
    assert abs(fit_beta.exponent - 1.2) < 1e-9
    assert abs(fit_gamma.exponent - 1.35) < 1e-9
    assert abs(fit_alpha.exponent - 1.2 * 1.35) < 1e-9
    for f in (fit_beta, fit_gamma, fit_alpha):
        assert f.r_squared == 1.0


def test_criterion_03_mass_conservation():
    rng = np.random.default_rng(1234)
    study = LonLatRect(0.0, 0.0, 4.0, 4.0)
    land = rect_poly(study)
    land_area_by_x = {x: build_grid(GridSpec(study, x), land).land_area
                      for x in (1, 2, 3, 4)}
    for _case in range(1000):
        x = int(rng.integers(1, 5))
        grid = DensityGrid(GridSpec(study, x), land_area_by_x[x].copy())

        records = []
        n_points = int(rng.integers(1, 8))
        n_boxes = int(rng.integers(0, 4))
        for k in range(n_points):
            records.append(LocatedRecord(
                tweet_id=f"p{k}", user_id=f"u{int(rng.integers(4))}",
                point=(float(rng.uniform(0, 4)), float(rng.uniform(0, 4))),
                tag_kind="place"))
        for k in range(n_boxes):
            lon0 = float(rng.uniform(0, 3.0))
            lat0 = float(rng.uniform(0, 3.0))
            records.append(LocatedRecord(
                tweet_id=f"b{k}", user_id=f"u{int(rng.integers(4))}",
                box=LonLatRect(lon0, lat0,
                               lon0 + float(rng.uniform(0.1, 1.0)),
                               lat0 + float(rng.uniform(0.1, 1.0))),
                tag_kind="place"))

        units = []
        total_pop = 0.0
        for k in range(int(rng.integers(1, 3))):
            lon0 = float(rng.uniform(0, 3.0))
            lat0 = float(rng.uniform(0, 3.0))
            pop = float(rng.integers(50, 5000))
            total_pop += pop
            units.append(PopulationUnit(
                f"unit{k}",
                rect_poly(LonLatRect(lon0, lat0,
                                     lon0 + float(rng.uniform(0.2, 1.0)),
                                     lat0 + float(rng.uniform(0.2, 1.0)))),
                pop))

        accumulate_tweets(grid, records)
        groups = group_by_user(records)
        accumulate_users(grid, groups)
        apportion_population(grid, units)

        n = len(records)
        assert abs(grid.n_t.sum() - n) <= 1e-9 * n
        assert abs(grid.n_u.sum() - len(groups)) <= 1e-9 * len(groups)
        assert abs(grid.n_p.sum() - total_pop) <= 1e-6 * total_pop


def test_criterion_04_cell_areas():
    for x, target in ((32, 82.0), (80, 13.0)):
        lat_edges = np.linspace(PAPER_STUDY.min_lat, PAPER_STUDY.max_lat, x + 1)
        lon_edges = np.linspace(PAPER_STUDY.min_lon, PAPER_STUDY.max_lon, x + 1)
        j = x // 2
        cell = LonLatRect(lon_edges[0], lat_edges[j], lon_edges[1], lat_edges[j + 1])
        area = spherical_rect_area(cell)
        assert abs(area - target) / target < 0.05


def test_criterion_05_relative_anomaly_equivalence():
    rural = anomaly_rel(4.0, 2.0)
    urban = anomaly_rel(40000.0, 20000.0)
    exact = 2.0 / math.sqrt(8.0)  # = 1/sqrt(2)
    assert abs(rural - exact) < 1e-12
    assert abs(urban - exact) < 1e-12
    assert abs(rural - urban) < 1e-12
    assert round(rural, 7) == 0.7071068
    assert rural > 0


def _oracle_scan(entries, stderr=0.01):
    scan = ScanResult(x_values=sorted(entries))
    for x, (a, b, g) in entries.items():
        scan.fits[x] = {
            name: FitResult(name, val, stderr, 0.0, 0.0, 1.0, 100)
            for name, val in (("alpha", a), ("beta", b), ("gamma", g))
        }
        scan.mean_cell_area[x] = 1.0 / (x * x)
    return scan


def test_criterion_06_window_detection():
    xs = [16, 24, 32, 40, 48, 64, 80]
    rng = np.random.default_rng(5)
    constant = {x: (1.62 + rng.normal(0, 0.002),
                    1.20 + rng.normal(0, 0.002),
                    1.35 + rng.normal(0, 0.002)) for x in xs}
    window = detect_window(_oracle_scan(constant))
    assert window is not None
    span = [x for x in xs if window.x_min <= x <= window.x_max]
    assert len(span) >= 4

    outlier = dict(constant)
    outlier[32] = (2.2, 1.20, 1.35)
    window = detect_window(_oracle_scan(outlier))
    assert window is not None
    assert not window.x_min <= 32 <= window.x_max


def _oracle_grid(seed=77, x=20):
    grid = DensityGrid(GridSpec(LonLatRect(0, 0, 4, 4), x), np.ones((x, x)))
    rng = np.random.default_rng(seed)
    p = 10 ** rng.uniform(0.5, 3.0, size=(x, x))
    u = 0.5 * p ** 1.2 * 10 ** rng.normal(0, 0.08, (x, x))
    t = 2.0 * u ** 1.35 * 10 ** rng.normal(0, 0.08, (x, x))
    grid.n_p[:, :] = p
    grid.n_u[:, :] = u
    grid.n_t[:, :] = t
    densities(grid)
    return grid


def test_criterion_07_resampling_determinism_and_coverage(tmp_path):
    from geoscale.validation import resample_to_csv

    grid = _oracle_grid()
    cfg = ResampleConfig(mode="subset", replicates=60, subset_fraction=0.25,
                         master_seed=42)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    resample_to_csv(subset_resample(grid, cfg), p1)
    resample_to_csv(subset_resample(grid, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()

    reference = fit_all(grid)
    covered = {"alpha": 0, "beta": 0, "gamma": 0}
    for seed in range(20):
        dist = subset_resample(grid, ResampleConfig(
            mode="subset", replicates=60, subset_fraction=0.25,
            master_seed=seed))
        for name in covered:
            lo, hi = dist.ci68[name]
            if lo <= reference[name].exponent <= hi:
                covered[name] += 1
    for name, hits in covered.items():
        assert hits >= 12, f"{name}: CI covered full-data fit in {hits}/20 runs"

    assert subarea_grid_side(80, 0.25) == 40


def test_criterion_08_filter_correctness():
    cfg = SynthConfig(study=LonLatRect(-3.0, 50.0, -2.0, 51.0), x_gen=6,
                      b_true=0.05, c_true=2.0, pop_log10_mean=1.0,
                      pop_log10_sigma=0.5, seed=7)
    _, gt = gen_population(cfg)
    base = gen_activity(cfg, gt)
    bots = gen_bots(cfg, n_bots=3, bot_tweet_fraction=0.02,
                    total_records=len(base))
    tweets, _ = parse_tweets([json.dumps(r) for r in base + bots])
    _, located = corpus_stats(tweets, cfg.study)
    assert len(located) == len(base) + len(bots)
    kept, removed = filter_bots(located, 0.01)
    assert removed == ["bot_0", "bot_1", "bot_2"]
    assert len(kept) == len(base)
    assert not any(r.user_id.startswith("bot_") for r in kept)

    # minimum-activity filter against hand-built bookkeeping
    records = []
    counts = {f"user{i:02d}": i for i in range(1, 16)}
    for user, count in counts.items():
        for k in range(count):
            records.append(LocatedRecord(
                tweet_id=f"{user}_{k}", user_id=user,
                point=(-2.5, 50.5), tag_kind="place"))
    kept = filter_min_tweets(records, 10)
    expected_users = {u for u, c in counts.items() if c >= 10}
    assert {r.user_id for r in kept} == expected_users
    assert len(kept) == sum(c for c in counts.values() if c >= 10)


def test_criterion_09_source_mix_fixture():
    # 10000-record fixture with the reference source mix and a 5.5%
    # reply-or-quote share
    mix = [("SourceA", 6060), ("SourceB", 540), ("SourceC", 440),
           ("SourceD", 430), ("SourceE", 340)]
    filler = [(f"minor_{k}", 219) for k in range(10)]
    lines = []
    seq = 0
    for source, count in mix + filler:
        for _ in range(count):
            obj = {
                "id_str": str(seq),
                "user": {"id_str": f"u{seq % 500}"},
                "coordinates": {"type": "Point",
                                "coordinates": [-3.5, 51.0]},
                "source": source,
            }
            if seq < 380:
                obj["in_reply_to_status_id_str"] = "1"
            elif seq < 550:
                obj["quoted_status_id_str"] = "2"
            seq += 1
            lines.append(json.dumps(obj))
    assert seq == 10000

    tweets, diags = parse_tweets(lines)
    assert diags.skipped == 0
    _, located = corpus_stats(tweets, PAPER_STUDY)
    assert len(located) == 10000

    ranked = source_ranking(located, 5)
    expected = [0.606, 0.054, 0.044, 0.043, 0.034]
    for (source, count, prop), target in zip(ranked, expected):
        assert abs(prop - target) < 0.001
    replies, quotes, frac = reply_quote_stats(located)
    assert abs(frac - 0.055) < 0.001


def test_criterion_10_superlinear_round_trip(oracle_run):
    for relation in ("T_vs_P", "U_vs_P", "T_vs_U"):
        assert float(oracle_run.fits[relation]["exponent"]) > 1.0
