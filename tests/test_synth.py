import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from geoscale.cli import main
from geoscale.errors import ConfigError
from geoscale.geometry import LonLatRect, geometry_from_geojson, polygon_area
from geoscale.gridding import GridSpec, run_grid_pipeline
from geoscale.ingest import corpus_stats, parse_population, parse_tweets
from geoscale.scaling import fit_all
from geoscale.synth import (
    _CHUNK_LINES,
    DEFAULT_STUDY,
    SynthConfig,
    _cell_counts,
    _cell_draws,
    _lines,
    _parsed,
    gen_activity,
    gen_bots,
    gen_population,
    land_geojson,
    write_corpus,
    write_jsonl,
    youth_share,
)

SMALL = SynthConfig(study=LonLatRect(-3.0, 50.0, -2.0, 51.0), x_gen=6,
                    b_true=0.05, c_true=2.0, pop_log10_mean=1.0,
                    pop_log10_sigma=0.5, seed=7)


class TestConfig:
    def test_rejects_nonpositive_exponents(self):
        with pytest.raises(ValueError):
            SynthConfig(beta_true=0.0)
        with pytest.raises(ValueError):
            SynthConfig(c_true=-1.0)

    @pytest.mark.parametrize("name, value", [
        ("beta_true", math.nan), ("gamma_true", math.inf), ("b_true", math.nan),
        ("c_true", math.inf), ("pop_log10_mean", math.inf),
        ("pop_log10_mean", math.nan), ("pop_log10_sigma", -1.0),
        ("pop_log10_sigma", math.inf), ("noise_dex", -0.1), ("noise_dex", math.nan),
    ])
    def test_rejects_non_finite_values_and_bad_signs(self, name, value):
        with pytest.raises(ConfigError):
            SynthConfig(**{name: value})

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            SynthConfig(emit_boxes_fraction=1.5)


class TestYouthShare:
    def test_monotone_and_bounded(self):
        densities = [0.1, 1, 10, 100, 1000, 1e6]
        shares = [youth_share(p) for p in densities]
        assert shares == sorted(shares)
        assert all(0.0 <= s <= 0.6 for s in shares)


class TestGenPopulation:
    def test_one_feature_per_cell_with_matching_totals(self):
        fc, gt = gen_population(SMALL)
        assert len(fc["features"]) == 36
        total = sum(f["properties"]["population"] for f in fc["features"])
        assert total == int(gt.population.sum())

    def test_deterministic(self):
        a, _ = gen_population(SMALL)
        b, _ = gen_population(SMALL)
        assert a == b

    def test_roundtrips_through_ingest(self):
        fc, gt = gen_population(SMALL)
        units, diags = parse_population(fc)
        assert diags.skipped == 0
        assert len(units) == 36
        assert sum(u.population for u in units) == pytest.approx(gt.population.sum())


class TestGenActivity:
    def test_ground_truth_matches_emitted_records(self):
        fc, gt = gen_population(SMALL)
        records = gen_activity(SMALL, gt)
        assert len(records) == gt.total_tweets
        users = {r["user"]["id_str"] for r in records}
        assert len(users) == gt.total_users

    def test_every_user_has_at_least_one_tweet(self):
        _, gt = gen_population(SMALL)
        gen_activity(SMALL, gt)
        assert np.all(gt.n_t >= gt.n_u)

    def test_deterministic(self):
        _, gt1 = gen_population(SMALL)
        _, gt2 = gen_population(SMALL)
        assert gen_activity(SMALL, gt1) == gen_activity(SMALL, gt2)

    def test_all_records_parse_and_locate(self):
        fc, gt = gen_population(SMALL)
        records = gen_activity(SMALL, gt)
        lines = [json.dumps(r) for r in records]
        tweets, diags = parse_tweets(lines)
        assert diags.skipped == 0
        stats, located = corpus_stats(tweets, SMALL.study)
        assert stats.located_place == len(records)
        assert stats.discarded_outside == 0

    def test_points_land_in_their_generation_cell(self):
        fc, gt = gen_population(SMALL)
        records = gen_activity(SMALL, gt)
        lines = [json.dumps(r) for r in records]
        tweets, _ = parse_tweets(lines)
        _, located = corpus_stats(tweets, SMALL.study)
        land = geometry_from_geojson(
            land_geojson(SMALL.study)["features"][0]["geometry"])
        units, _ = parse_population(fc)
        grid = run_grid_pipeline(GridSpec(SMALL.study, SMALL.x_gen), land,
                                 located, units)
        np.testing.assert_array_equal(grid.n_t, gt.n_t.astype(float))

    def test_commuters_shift_mass_to_neighbor(self):
        cfg = SynthConfig(study=SMALL.study, x_gen=6, b_true=0.05, c_true=2.0,
                          pop_log10_mean=1.0, pop_log10_sigma=0.5, seed=7,
                          commuter_fraction=0.5)
        _, gt = gen_population(cfg)
        gen_activity(cfg, gt)
        _, gt_base = gen_population(SMALL)
        gen_activity(SMALL, gt_base)
        assert gt.n_t.sum() == gt_base.n_t.sum()
        assert not np.array_equal(gt.n_t, gt_base.n_t)

    def test_box_records_emitted_when_requested(self):
        cfg = SynthConfig(study=SMALL.study, x_gen=6, b_true=0.05, c_true=2.0,
                          pop_log10_mean=1.0, pop_log10_sigma=0.5, seed=7,
                          emit_boxes_fraction=0.5)
        _, gt = gen_population(cfg)
        records = gen_activity(cfg, gt)
        n_boxes = sum(1 for r in records
                      if len({tuple(c) for c in
                              r["place"]["bounding_box"]["coordinates"][0]}) > 1)
        assert 0 < n_boxes < len(records)


class TestExponentRecovery:
    def test_noiseless_generation_recovers_exact_exponents(self, tmp_path):
        cfg = SynthConfig(study=LonLatRect(-3.0, 50.0, -2.0, 51.0), x_gen=10,
                          b_true=0.05, c_true=2.0, noise_dex=0.0,
                          pop_log10_mean=1.3, pop_log10_sigma=0.5, seed=3)
        fc, gt = gen_population(cfg)
        # the gen_activity records, as lines (TestWriteCorpus pins that)
        path = tmp_path / "tweets.jsonl"
        write_corpus(cfg, gt, path, n_bots=0, bot_tweet_fraction=0.0)
        tweets, _ = parse_tweets(path)
        _, located = corpus_stats(tweets, cfg.study)
        land = geometry_from_geojson(
            land_geojson(cfg.study)["features"][0]["geometry"])
        units, _ = parse_population(fc)
        grid = run_grid_pipeline(GridSpec(cfg.study, cfg.x_gen), land,
                                 located, units)
        fits = fit_all(grid)
        # integer rounding of counts is the only noise left
        assert fits["beta"].exponent == pytest.approx(cfg.beta_true, abs=0.02)
        assert fits["gamma"].exponent == pytest.approx(cfg.gamma_true, abs=0.02)


class TestCellDraws:
    @pytest.mark.parametrize("study, x_gen", [
        (DEFAULT_STUDY, 40),                             # the criterion-1 oracle
        (LonLatRect(-5.8, 49.9, -4.65, 50.475), 10),    # the bench's tile of it
    ], ids=["oracle", "bench_tile"])
    def test_the_oracle_draws_fewer_users_than_residents(self, study, x_gen):
        """The criterion-1 settings pass every count check, with users well
        below residents in every cell."""
        cfg = SynthConfig(study=study, x_gen=x_gen, beta_true=1.2, gamma_true=1.35,
                          b_true=0.065, c_true=2.0, noise_dex=0.1,
                          pop_log10_mean=1.0, pop_log10_sigma=0.4, seed=20260823)
        _, gt = gen_population(cfg)
        cells = _cell_draws(cfg, gt)
        assert len(cells) == x_gen * x_gen
        assert max(_cell_counts(cfg, gt, i, j)[1] / gt.population[i, j]
                   for i, j, _ in cells) < 0.5


class TestGenBots:
    def test_each_bot_fixed_location_and_volume(self):
        bots = gen_bots(SMALL, n_bots=2, bot_tweet_fraction=0.02,
                        total_records=1000)
        assert len(bots) == 40
        by_user = {}
        for r in bots:
            by_user.setdefault(r["user"]["id_str"], set()).add(
                tuple(map(tuple, r["place"]["bounding_box"]["coordinates"][0])))
        assert len(by_user) == 2
        assert all(len(locs) == 1 for locs in by_user.values())

    def test_fraction_must_be_positive(self):
        with pytest.raises(ValueError):
            gen_bots(SMALL, 1, 0.0, 100)

    @pytest.mark.parametrize("n_bots, fraction", [(-2, 0.02), (1, math.nan), (2, 0.0)])
    def test_bad_settings_write_no_file(self, tmp_path, n_bots, fraction):
        _, gt = gen_population(SMALL)
        with pytest.raises(ConfigError):
            write_corpus(SMALL, gt, tmp_path / "tweets.jsonl", n_bots, fraction)
        assert list(tmp_path.iterdir()) == []


class TestOutputs:
    def test_land_layer_covers_study(self):
        land = geometry_from_geojson(
            land_geojson(SMALL.study)["features"][0]["geometry"])
        from geoscale.geometry import spherical_rect_area
        assert polygon_area(land) == pytest.approx(
            spherical_rect_area(SMALL.study), rel=1e-9)

    def test_write_jsonl_byte_stable(self, tmp_path):
        _, gt = gen_population(SMALL)
        records = gen_activity(SMALL, gt)[:50]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(records, p1)
        write_jsonl(records, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(p1.read_text().splitlines()) == 50


class TestWriteCorpus:
    @pytest.mark.parametrize("kind, extra", [
        ("points", {}),
        ("boxes", {"emit_boxes_fraction": 0.5}),
        ("commuters", {"commuter_fraction": 0.5}),
    ])
    def test_template_lines_equal_json_dumps(self, tmp_path, kind, extra):
        cfg = dataclasses.replace(SMALL, **extra)
        _, gt = gen_population(cfg)
        path = tmp_path / "tweets.jsonl"
        written = write_corpus(cfg, gt, path, n_bots=2, bot_tweet_fraction=0.02)

        _, lib_gt = gen_population(cfg)
        activity = gen_activity(cfg, lib_gt)
        bots = gen_bots(cfg, 2, 0.02, len(activity))
        records = activity + bots
        assert path.read_text().splitlines() == [
            json.dumps(r, separators=(",", ":")) for r in records]
        assert written == len(records)
        np.testing.assert_array_equal(gt.n_t, lib_gt.n_t)
        np.testing.assert_array_equal(gt.n_u, lib_gt.n_u)

        # the case exercises the record kind it is named after
        assert any(r["user"]["id_str"].startswith("bot_") for r in bots)
        corners = [{tuple(c) for c in r["place"]["bounding_box"]["coordinates"][0]}
                   for r in activity]
        assert any(len(c) > 1 for c in corners) == (kind == "boxes")
        if kind == "commuters":
            _, base_gt = gen_population(SMALL)
            gen_activity(SMALL, base_gt)
            assert not np.array_equal(lib_gt.n_t, base_gt.n_t)


class TestLines:
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
    @pytest.mark.parametrize("boxed", [False, True])
    def test_chunks_hold_the_json_lines_of_their_records(self, n, boxed):
        """A cell of n records comes out as the lines json.dumps writes for
        them, _CHUNK_LINES whole lines to a chunk; a point cell shares its
        columns (a is c, b is d), as _activity_columns makes them."""
        rng = np.random.default_rng(n)
        a = np.round(rng.uniform(-5.8, -1.2, n), 7).tolist()
        b = np.round(rng.uniform(49.9, 52.2, n), 7).tolist()
        if n:
            a[0], b[-1] = -3.0, 1e-07   # an integral float and an exponent
        c, d = a, b
        if boxed:
            c = np.round(np.add(a, rng.uniform(0.0, 0.1, n)), 7).tolist()
            d = np.round(np.add(b, rng.uniform(0.0, 0.1, n)), 7).tolist()
        tids = ["t%09d" % k for k in range(n)]
        uids = [f"u_1_2_{k % 7}" for k in range(n)]
        sources = [("app_alpha", "app_beta", "bot_station")[k % 3] for k in range(n)]
        columns = (tids, uids, a, b, c, d, sources)
        records = [
            {"id_str": tid, "user": {"id_str": uid},
             "place": {"place_type": "city", "bounding_box": {
                 "type": "Polygon",
                 "coordinates": [[[x0, y0], [x1, y0], [x1, y1], [x0, y1]]]}},
             "source": source}
            for tid, uid, x0, y0, x1, y1, source in zip(*columns)]
        chunks = list(_lines(columns))
        assert "".join(chunks) == "".join(
            json.dumps(r, separators=(",", ":")) + "\n" for r in records)
        assert [chunk.count("\n") for chunk in chunks] == [
            min(_CHUNK_LINES, n - k) for k in range(0, n, _CHUNK_LINES)]
        assert all(chunk.endswith("\n") for chunk in chunks)
        assert _parsed([columns]) == records


class TestOracleBytes:
    def test_corpus_and_ground_truth_bytes_are_pinned(self, tmp_path):
        """The generator's output is the oracle every recovery check rests
        on: a change to the draw must keep every byte of points, boxes,
        commuters and bots alike."""
        assert main(["synth", "--out", str(tmp_path), "--study=-3.0,50.0,-2.0,51.0",
                     "--x-gen", "5", "--b-true", "0.005", "--c-true", "2.0",
                     "--pop-log10-mean", "1.0", "--pop-log10-sigma", "0.5",
                     "--seed", "11", "--emit-boxes-fraction", "0.5",
                     "--commuter-fraction", "0.3", "--bots", "2"]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("tweets.jsonl", "ground_truth.json")}
        assert digests == {
            "tweets.jsonl":
                "27ed647e3467ba5ac64c61042e938475e4debae375092aa054df1fa38628557c",
            "ground_truth.json":
                "c8d1326a42ed4b0b504c6ed880efa00f5bc2489e0464bc52961f0c74c483aa19",
        }
