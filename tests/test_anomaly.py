import csv
import math

import numpy as np
import pytest

from geoscale.anomaly import (
    anomaly_correlation,
    anomaly_map,
    anomaly_rel,
    anomaly_to_csv,
    anomaly_to_geojson,
    predict,
    youth_fit,
)
from geoscale.errors import ConfigError, DataError, InsufficientDataError
from geoscale.geometry import LonLatRect
from geoscale.gridding import DensityGrid, GridSpec, densities
from geoscale.scaling import FitResult, fit_all

STUDY = LonLatRect(0.0, 0.0, 4.0, 4.0)


def fit(exponent=1.35, log10_prefactor=0.0, relation="T_vs_U"):
    return FitResult(relation, exponent, 0.0, log10_prefactor, 0.0, 1.0, 10)


class TestPredict:
    def test_power_law_evaluation(self):
        f = fit(exponent=2.0, log10_prefactor=math.log10(3.0))
        assert predict(f, 5.0) == pytest.approx(75.0, rel=1e-12)

    def test_nonpositive_input_rejected(self):
        with pytest.raises(DataError, match=r"prediction needs x > 0, got 0\.0"):
            predict(fit(), 0.0)


class TestAnomalyValues:
    def test_rel_is_scale_free(self):
        # the rural and urban pairs from the normalisation's rationale
        rural = anomaly_rel(4.0, 2.0)
        urban = anomaly_rel(40000.0, 20000.0)
        assert rural == pytest.approx(urban, abs=1e-12)
        assert rural == pytest.approx(2.0 / math.sqrt(8.0), rel=1e-12)

    def test_rel_antisymmetric(self):
        assert anomaly_rel(2.0, 8.0) == pytest.approx(-anomaly_rel(8.0, 2.0))

    def test_rel_zero_when_exact(self):
        assert anomaly_rel(7.0, 7.0) == 0.0

    def test_rel_domain(self):
        with pytest.raises(DataError, match="relative anomaly needs both values > 0"):
            anomaly_rel(0.0, 1.0)


def law_grid(x=4, youth=False):
    grid = DensityGrid(GridSpec(STUDY, x), np.ones((x, x)))
    rng = np.random.default_rng(8)
    p = 10 ** rng.uniform(0.5, 3.0, size=(x, x))
    u = 0.5 * p ** 1.2
    t = 2.0 * u ** 1.35
    grid.n_p[:, :] = p
    grid.n_u[:, :] = u
    grid.n_t[:, :] = t
    if youth:
        grid.n_y = 0.3 * p ** 0.9
    return grid


class TestAnomalyMap:
    def test_exact_law_gives_zero_anomalies(self):
        grid = law_grid()
        fits = fit_all(grid)
        amap = anomaly_map(grid, fits["gamma"])
        sel = ~amap.masked
        assert sel.any()
        np.testing.assert_allclose(amap.a_abs[sel], 0.0, atol=1e-8)
        np.testing.assert_allclose(amap.a_rel[sel], 0.0, atol=1e-12)

    def test_excess_cell_positive_deficit_negative(self):
        grid = law_grid()
        grid.n_t[0, 0] *= 4.0
        grid.n_t[1, 1] *= 0.25
        amap = anomaly_map(grid, fit_all(law_grid())["gamma"])
        assert amap.a_abs[0, 0] > 0
        assert amap.a_rel[0, 0] > 0
        assert amap.a_abs[1, 1] < 0
        assert amap.a_rel[1, 1] < 0

    def test_low_density_cells_masked(self):
        grid = law_grid()
        grid.n_t[2, 2] = 0.5   # below 1 tweet / km^2
        grid.n_p[3, 3] = 0.5
        amap = anomaly_map(grid, fit_all(law_grid())["gamma"])
        assert amap.masked[2, 2]
        assert amap.masked[3, 3]
        assert np.isnan(amap.a_abs[2, 2])

    def test_water_cells_masked(self):
        grid = law_grid()
        grid.land_area[0, 1] = 0.0
        amap = anomaly_map(grid, fit_all(law_grid())["gamma"])
        assert amap.masked[0, 1]

    def test_caps_clip_exports_only(self):
        grid = law_grid()
        grid.n_t[0, 0] *= 1e6
        amap = anomaly_map(grid, fit_all(law_grid())["gamma"],
                           abs_cap=1000.0, rel_cap=2.0)
        assert amap.a_abs[0, 0] > 1000.0
        assert amap.a_abs_capped[0, 0] == 1000.0
        assert amap.a_rel_capped[0, 0] <= 2.0

    @pytest.mark.parametrize("settings", [
        {"abs_cap": -5.0}, {"abs_cap": 0.0}, {"rel_cap": math.nan},
        {"min_t_density": -1.0}, {"min_p_density": math.nan},
    ])
    def test_bad_cap_or_mask_density_is_a_config_error(self, settings):
        with pytest.raises(ConfigError):
            anomaly_map(law_grid(), fit_all(law_grid())["gamma"], **settings)

    def test_infinite_caps_leave_values_unclipped(self):
        grid = law_grid()
        grid.n_t[0, 0] *= 1e6
        amap = anomaly_map(grid, fit_all(law_grid())["gamma"],
                           abs_cap=math.inf, rel_cap=math.inf)
        assert np.array_equal(amap.a_abs_capped, amap.a_abs, equal_nan=True)
        assert np.array_equal(amap.a_rel_capped, amap.a_rel, equal_nan=True)

    def test_relative_anomaly_is_anomaly_rel_on_unmasked_cells(self):
        grid = law_grid()
        grid.n_t[1, 2] *= 3.0
        grid.n_t[2, 2] = 0.5
        amap = anomaly_map(grid, fit(exponent=1.2, log10_prefactor=0.1))
        assert amap.masked[2, 2] and np.isnan(amap.a_rel[2, 2])
        for i, j in zip(*np.nonzero(~amap.masked)):
            assert amap.a_rel[i, j] == anomaly_rel(amap.measured[i, j],
                                                   amap.predicted[i, j])

    def test_yp_relation_requires_youth(self):
        grid = law_grid()
        with pytest.raises(InsufficientDataError, match="has no youth population data"):
            anomaly_map(grid, fit(relation="Y_vs_P"))

    def test_unknown_relation(self):
        with pytest.raises(DataError, match="unknown relation: 'XY'"):
            anomaly_map(law_grid(), fit(relation="XY"))

    def test_yp_relation_maps_youth_against_population(self):
        grid = law_grid(youth=True)
        amap = anomaly_map(grid, youth_fit(grid))
        sel = ~amap.masked
        assert amap.relation == "Y_vs_P"
        np.testing.assert_array_equal(amap.measured[sel], densities(grid, "Y")[0][sel])
        np.testing.assert_allclose(amap.a_rel[sel], 0.0, atol=1e-12)


class TestYouthFit:
    def test_recovers_delta(self):
        grid = law_grid(youth=True)
        f = youth_fit(grid)
        assert f.exponent == pytest.approx(0.9, abs=1e-10)

    def test_unavailable_without_youth(self):
        with pytest.raises(InsufficientDataError, match="has no youth population data"):
            youth_fit(law_grid())


class TestCorrelation:
    def test_identical_grids_correlate_perfectly(self):
        grid = law_grid()
        grid.n_t *= 10 ** np.random.default_rng(2).normal(0, 0.2, (4, 4))
        amap = anomaly_map(grid, fit_all(law_grid())["gamma"])
        res = anomaly_correlation(amap, amap)
        assert res.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert res.n >= 3

    def test_mismatched_specs_rejected(self):
        a = anomaly_map(law_grid(x=4), fit())
        b = anomaly_map(law_grid(x=2), fit())
        with pytest.raises(ValueError):
            anomaly_correlation(a, b)

    def test_too_few_common_cells(self):
        grid = law_grid()
        amap = anomaly_map(grid, fit_all(grid)["gamma"])
        amap.masked[:, :] = True
        with pytest.raises(InsufficientDataError):
            anomaly_correlation(amap, amap)


class TestExports:
    def test_csv_has_all_cells_and_masked_flag(self, tmp_path):
        grid = law_grid()
        grid.n_t[2, 2] = 0.0
        amap = anomaly_map(grid, fit_all(law_grid())["gamma"])
        path = tmp_path / "anomaly.csv"
        anomaly_to_csv(amap, path)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 16
        by_ij = {(int(r["i"]), int(r["j"])): r for r in rows}
        assert by_ij[(2, 2)]["masked"] == "1"
        assert by_ij[(2, 2)]["A_abs"] == ""
        assert by_ij[(0, 0)]["masked"] == "0"

    def test_geojson_skips_masked_cells(self):
        grid = law_grid()
        grid.n_t[2, 2] = 0.0
        amap = anomaly_map(grid, fit_all(law_grid())["gamma"])
        fc = anomaly_to_geojson(amap)
        assert fc["type"] == "FeatureCollection"
        assert len(fc["features"]) == 15
        props = fc["features"][0]["properties"]
        assert {"A_abs", "A_rel", "A_abs_capped", "A_rel_capped"} <= set(props)
