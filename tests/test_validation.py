import csv
import itertools
import re

import numpy as np
import pytest

from geoscale.errors import ConfigError, InsufficientDataError
from geoscale.geometry import LonLatRect, MultiPolygon, PolygonWithHoles, rect_ring
from geoscale.gridding import DensityGrid, GridSpec
from geoscale.ingest import Corpus, LocatedRecord, PopulationUnit
from geoscale.scaling import cell_indices, fit_all, fit_cells, fit_rows
from geoscale.validation import (
    EXPONENTS,
    ResampleConfig,
    ci68,
    mix_seed,
    resample_summary,
    resample_to_csv,
    subarea_grid_side,
    subarea_resample,
    subset_resample,
)

STUDY = LonLatRect(0.0, 0.0, 4.0, 4.0)
LAND = MultiPolygon.of(PolygonWithHoles(rect_ring(STUDY)))


class TestMixSeed:
    def test_deterministic(self):
        assert mix_seed(7, 3) == mix_seed(7, 3)

    def test_distinct_over_replicates_and_masters(self):
        seeds = {mix_seed(m, k) for m in range(4) for k in range(256)}
        assert len(seeds) == 4 * 256

    def test_fits_in_64_bits(self):
        assert 0 <= mix_seed(2 ** 63, 999) < 2 ** 64


class TestCi68:
    def test_symmetric_around_median_for_uniform(self):
        samples = list(np.linspace(0.0, 1.0, 101))
        lo, hi = ci68(samples)
        assert lo == pytest.approx(0.16, abs=1e-12)
        assert hi == pytest.approx(0.84, abs=1e-12)

    def test_linear_interpolation_between_order_stats(self):
        samples = [float(v) for v in range(11)]  # ranks 0..10
        lo, hi = ci68(samples)
        assert lo == pytest.approx(1.6, abs=1e-12)
        assert hi == pytest.approx(8.4, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            ci68([1.0] * 9)


class TestSubareaGridSide:
    def test_quarter_area_halves_the_side(self):
        assert subarea_grid_side(80, 0.25) == 40
        assert subarea_grid_side(32, 0.25) == 16

    def test_floor_of_one(self):
        assert subarea_grid_side(1, 0.01) == 1


def law_records_and_units(n_cells=8, users_per_cell=30, seed=0):
    """Point records + population units following exact power laws on an
    n x n grid, dense enough for sub-area replicates to refit."""
    rng = np.random.default_rng(seed)
    records, units = [], []
    uid = 0
    step = 4.0 / n_cells
    for i in range(n_cells):
        for j in range(n_cells):
            lon0, lat0 = i * step, j * step
            p = 10 ** rng.uniform(1.0, 3.0)
            n_u = max(3, int(round(0.5 * p ** 1.2 / 10)))
            n_t = max(n_u, int(round(2.0 * (n_u * 10) ** 1.2 / 10)))
            for u in range(n_u):
                uid += 1
                lon = lon0 + rng.uniform(0.05, 0.95) * step
                lat = lat0 + rng.uniform(0.05, 0.95) * step
                records.append(LocatedRecord(
                    tweet_id=f"t{uid}", user_id=f"u{uid}",
                    point=(lon, lat), tag_kind="place"))
            for t in range(n_t - n_u):
                lon = lon0 + rng.uniform(0.05, 0.95) * step
                lat = lat0 + rng.uniform(0.05, 0.95) * step
                records.append(LocatedRecord(
                    tweet_id=f"x{i}_{j}_{t}", user_id=f"u{uid}",
                    point=(lon, lat), tag_kind="place"))
            units.append(PopulationUnit(
                f"c{i}_{j}",
                MultiPolygon.of(PolygonWithHoles(rect_ring(
                    LonLatRect(lon0, lat0, lon0 + step, lat0 + step)))),
                p * 100))
    return records, units


def law_grid(x=10, seed=4):
    grid = DensityGrid(GridSpec(STUDY, x), np.ones((x, x)))
    rng = np.random.default_rng(seed)
    p = 10 ** rng.uniform(0.5, 3.0, size=(x, x))
    noise = 10 ** rng.normal(0, 0.05, size=(x, x))
    u = 0.5 * p ** 1.2 * noise
    t = 2.0 * u ** 1.35 * 10 ** rng.normal(0, 0.05, size=(x, x))
    grid.n_p[:, :] = p
    grid.n_u[:, :] = u
    grid.n_t[:, :] = t
    return grid


class TestSubsetResample:
    def config(self, **kw):
        base = dict(mode="subset", replicates=40, subset_fraction=0.3,
                    master_seed=11)
        base.update(kw)
        return ResampleConfig(**base)

    def test_reproducible_across_runs_and_threads(self):
        grid = law_grid()
        a = subset_resample(grid, self.config())
        b = subset_resample(grid, self.config())
        assert a.rows == b.rows
        assert a.ci68 == b.ci68

    def test_different_seed_different_rows(self):
        grid = law_grid()
        a = subset_resample(grid, self.config())
        b = subset_resample(grid, self.config(master_seed=12))
        assert a.rows != b.rows

    def test_ci_brackets_true_exponents(self):
        grid = law_grid()
        dist = subset_resample(grid, self.config(replicates=200))
        lo, hi = dist.ci68["beta"]
        assert lo < 1.2 < hi
        lo, hi = dist.ci68["gamma"]
        assert lo < 1.35 < hi

    def test_nonadjacent_cells_respect_distance(self, monkeypatch):
        import geoscale.validation as validation
        fitted = []
        grid = law_grid(x=20)
        eligible = cell_indices(grid)

        def recording(table, rows):
            fitted.append([eligible[k] for k in rows])
            return fit_rows(table, rows)

        monkeypatch.setattr(validation, "fit_rows", recording)
        cfg = self.config(mode="subset_nonadjacent", subset_fraction=0.05,
                          replicates=5)
        dist = subset_resample(grid, cfg)
        assert dist.mode == "subset_nonadjacent"
        # at least some replicates must satisfy the constraint and fit
        assert dist.dropped < cfg.replicates
        assert len(fitted) == cfg.replicates - dist.dropped
        for cells in fitted:
            assert len(cells) == 20   # ceil(0.05 * 400)
            for a, b in itertools.combinations(cells, 2):
                assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 2

    def test_defect_in_the_fit_is_not_a_dropped_replicate(self, monkeypatch):
        import geoscale.scaling as scaling

        def broken(*args, **kwargs):
            raise ValueError("defect in the fit")

        monkeypatch.setattr(scaling, "fit_logs", broken)
        with pytest.raises(ValueError, match="defect in the fit"):
            subset_resample(law_grid(), self.config())

    @pytest.mark.parametrize("mode", ["subset", "subset_nonadjacent"])
    def test_replicate_fits_equal_fit_cells(self, monkeypatch, mode):
        """Each replicate's fits from the log table are fit_cells of its
        cells, whole; cells without users drop out of beta and gamma, and a
        replicate left with fewer than 3 of them is dropped like fit_cells
        refuses it."""
        import geoscale.validation as validation
        grid = law_grid(x=8)
        grid.n_u[np.random.default_rng(1).random((8, 8)) < 0.75] = 0.0
        eligible = cell_indices(grid)
        assert len(eligible) == 64
        outcomes = []

        def checked(table, rows):
            cells = [eligible[k] for k in rows]
            try:
                fits = fit_rows(table, rows)
            except InsufficientDataError as exc:
                with pytest.raises(InsufficientDataError, match=re.escape(str(exc))):
                    fit_cells(grid, cells)
                outcomes.append(None)
                raise
            assert fits == fit_cells(grid, cells)
            outcomes.append(fits)
            return fits

        monkeypatch.setattr(validation, "fit_rows", checked)
        dist = subset_resample(grid, self.config(mode=mode, subset_fraction=0.1,
                                                 replicates=60))
        assert len(outcomes) == 60
        assert dist.dropped == outcomes.count(None) > 0
        fitted = [fits for fits in outcomes if fits]
        assert any(fits["beta"].n_points < fits["alpha"].n_points == 7
                   for fits in fitted)

    def test_empty_cell_drops_its_pairs_not_the_replicate(self):
        grid = law_grid(x=4)
        grid.n_t[1, 2] = grid.n_u[1, 2] = 0.0
        dist = subset_resample(grid, self.config(subset_fraction=1.0,
                                                 replicates=3), min_tweets=0)
        assert dist.dropped == 0
        reference = fit_all(grid, min_tweets=0)
        assert reference["alpha"].n_points == 15
        expected = tuple(reference[name].exponent for name in EXPONENTS)
        assert [row[1:] for row in dist.rows] == [expected] * 3

    def test_subset_too_small(self):
        grid = law_grid(x=4)
        with pytest.raises(InsufficientDataError):
            subset_resample(grid, self.config(subset_fraction=0.05))

    def test_reports_the_mode_it_ran(self):
        dist = subset_resample(law_grid(), self.config(replicates=3))
        assert dist.mode == "subset"
        assert resample_summary(dist, self.config(replicates=3))["mode"] == "subset"

    def test_refuses_subarea_mode(self):
        # the config's default mode is subarea, which this function does not run
        with pytest.raises(ConfigError, match="subarea"):
            subset_resample(law_grid(), ResampleConfig(replicates=3))


class TestSubareaResample:
    def test_reproducible_and_recovers_exponents(self):
        records, units = law_records_and_units()
        cfg = ResampleConfig(mode="subarea", replicates=12, area_fraction=0.25,
                             master_seed=5)
        a = subarea_resample(Corpus.of(records), units, LAND, GridSpec(STUDY, 8), cfg)
        b = subarea_resample(Corpus.of(records), units, LAND, GridSpec(STUDY, 8), cfg)
        assert a.rows == b.rows
        betas = a.samples("beta")
        assert len(betas) >= 10
        assert np.median(betas) == pytest.approx(1.2, abs=0.25)

    def test_defect_in_the_grid_pipeline_is_not_a_dropped_replicate(
            self, monkeypatch):
        import geoscale.validation as validation

        def broken(*args, **kwargs):
            raise ValueError("defect in binning")

        monkeypatch.setattr(validation, "run_grid_pipeline", broken)
        records, units = law_records_and_units()
        cfg = ResampleConfig(mode="subarea", replicates=3, master_seed=0)
        with pytest.raises(ValueError, match="defect in binning"):
            subarea_resample(Corpus.of(records), units, LAND, GridSpec(STUDY, 8), cfg)

    @pytest.mark.parametrize("mode", ["subset", "subset_nonadjacent"])
    def test_refuses_subset_modes(self, mode):
        records, units = law_records_and_units()
        cfg = ResampleConfig(mode=mode, replicates=1, master_seed=0)
        with pytest.raises(ConfigError, match=mode):
            subarea_resample(Corpus.of(records), units, LAND, GridSpec(STUDY, 8), cfg)

    def test_subarea_side_keeps_cell_size(self):
        records, units = law_records_and_units()
        cfg = ResampleConfig(mode="subarea", replicates=1, master_seed=0)
        # x=8, fraction 0.25 -> sub-grid side 4; smoke-check it runs
        dist = subarea_resample(Corpus.of(records), units, LAND, GridSpec(STUDY, 8), cfg)
        assert len(dist.rows) == 1


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ResampleConfig(mode="bootstrap")

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            ResampleConfig(area_fraction=0.0)
        with pytest.raises(ValueError):
            ResampleConfig(subset_fraction=1.5)


class TestOutputs:
    def test_csv_bytes_identical_for_same_seed(self, tmp_path):
        grid = law_grid()
        cfg = ResampleConfig(mode="subset", replicates=30, subset_fraction=0.3,
                             master_seed=99)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        resample_to_csv(subset_resample(grid, cfg), p1)
        resample_to_csv(subset_resample(grid, cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_blank_for_dropped(self, tmp_path):
        from geoscale.validation import ResampleDistribution
        dist = ResampleDistribution(mode="subset",
                                    rows=[(0, 1.5, 1.2, 1.3), (1, None, None, None)])
        path = tmp_path / "r.csv"
        resample_to_csv(dist, path)
        rows = list(csv.DictReader(path.open()))
        assert rows[1]["alpha"] == ""

    def test_summary_shape(self):
        grid = law_grid()
        cfg = ResampleConfig(mode="subset", replicates=30, subset_fraction=0.3,
                             master_seed=1)
        dist = subset_resample(grid, cfg)
        summary = resample_summary(dist, cfg)
        assert summary["mode"] == "subset"
        assert set(summary["ci68"]) == {"alpha", "beta", "gamma"}
        assert summary["dropped"] == dist.dropped
