import math

import numpy as np
import pytest

from geoscale.geometry import (
    LonLatRect,
    MultiPolygon,
    PolygonWithHoles,
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
    density_histogram,
    group_by_user,
    run_grid_pipeline,
)
from geoscale.ingest import LocatedRecord, PopulationUnit

STUDY = LonLatRect(0.0, 0.0, 4.0, 4.0)


def rect_poly(rect: LonLatRect) -> MultiPolygon:
    return MultiPolygon.of(PolygonWithHoles(rect_ring(rect)))


def point_rec(lon, lat, user="u", tid="t"):
    return LocatedRecord(tweet_id=tid, user_id=user, point=(lon, lat),
                         tag_kind="place")


def box_rec(box, user="u", tid="t"):
    return LocatedRecord(tweet_id=tid, user_id=user, box=box, tag_kind="place")


class TestBuildGrid:
    def test_full_land_every_cell_full(self):
        spec = GridSpec(STUDY, 2)
        grid = build_grid(spec, rect_poly(STUDY))
        for i in range(2):
            for j in range(2):
                assert grid.land_area[i, j] == pytest.approx(
                    spherical_rect_area(grid.cell_rect(i, j)), rel=1e-9)

    def test_disjoint_land_all_zero(self):
        spec = GridSpec(STUDY, 3)
        grid = build_grid(spec, rect_poly(LonLatRect(10, 10, 11, 11)))
        assert np.all(grid.land_area == 0.0)

    @pytest.mark.parametrize("x", [1, 2, 5, 8])
    def test_land_area_conserved_across_resolutions(self, x):
        land = MultiPolygon.of(PolygonWithHoles(
            rect_ring(LonLatRect(0.5, 0.7, 3.1, 3.9))))
        from geoscale.geometry import polygon_area
        grid = build_grid(GridSpec(STUDY, x), land)
        assert grid.land_area.sum() == pytest.approx(polygon_area(land), rel=1e-6)


class TestAccumulateTweets:
    def test_point_mass_lands_in_one_cell(self):
        grid = build_grid(GridSpec(STUDY, 4), rect_poly(STUDY))
        accumulate_tweets(grid, [point_rec(0.5, 0.5), point_rec(3.9, 3.9)])
        assert grid.n_t[0, 0] == 1.0
        assert grid.n_t[3, 3] == 1.0
        assert grid.n_t.sum() == 2.0

    def test_boundary_point_goes_to_larger_index(self):
        grid = build_grid(GridSpec(STUDY, 4), rect_poly(STUDY))
        accumulate_tweets(grid, [point_rec(1.0, 1.0)])
        assert grid.n_t[1, 1] == 1.0

    def test_far_corner_point_stays_in_grid(self):
        grid = build_grid(GridSpec(STUDY, 4), rect_poly(STUDY))
        accumulate_tweets(grid, [point_rec(4.0, 4.0)])
        assert grid.n_t[3, 3] == 1.0

    def test_box_mass_is_split_and_conserved(self):
        grid = build_grid(GridSpec(STUDY, 4), rect_poly(STUDY))
        accumulate_tweets(grid, [box_rec(LonLatRect(0.5, 0.25, 1.5, 0.75))])
        assert grid.n_t[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert grid.n_t[1, 0] == pytest.approx(0.5, rel=1e-12)
        assert grid.n_t.sum() == pytest.approx(1.0, abs=1e-9)

    def test_box_inside_one_cell_puts_all_mass_there(self):
        grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
        accumulate_tweets(grid, [box_rec(LonLatRect(0.5, 0.5, 1.0, 1.0))])
        assert grid.n_t[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert grid.n_t.sum() == pytest.approx(1.0, rel=1e-12)

    def test_box_split_by_latitude_line_uses_sine_of_latitude(self):
        study = LonLatRect(0.0, 40.0, 4.0, 80.0)
        grid = build_grid(GridSpec(study, 2), rect_poly(study))
        accumulate_tweets(grid, [box_rec(LonLatRect(0.5, 50.0, 1.5, 70.0))])
        s50, s60, s70 = (math.sin(math.radians(v)) for v in (50.0, 60.0, 70.0))
        assert grid.n_t[0, 0] == pytest.approx((s60 - s50) / (s70 - s50), rel=1e-12)
        assert grid.n_t[0, 1] == pytest.approx((s70 - s60) / (s70 - s50), rel=1e-12)
        assert grid.n_t[0, 0] > 0.57   # 0.5 if split by degrees of latitude

    def test_zero_area_box_rejected(self):
        from geoscale.errors import DomainError
        grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
        with pytest.raises(DomainError):
            accumulate_tweets(grid, [box_rec(LonLatRect(1, 1, 1, 1))])


class TestAccumulateUsers:
    def test_single_cell_user_adds_one(self):
        grid = build_grid(GridSpec(STUDY, 4), rect_poly(STUDY))
        recs = [point_rec(0.5, 0.5, tid=str(i)) for i in range(4)]
        accumulate_users(grid, group_by_user(recs))
        assert grid.n_u[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_user_split_between_two_cells(self):
        grid = build_grid(GridSpec(STUDY, 4), rect_poly(STUDY))
        recs = [point_rec(0.5, 0.5, tid="a"), point_rec(1.5, 0.5, tid="b")]
        accumulate_users(grid, group_by_user(recs))
        assert grid.n_u[0, 0] == pytest.approx(0.5)
        assert grid.n_u[1, 0] == pytest.approx(0.5)

    def test_box_record_split_by_overlap(self):
        grid = build_grid(GridSpec(STUDY, 4), rect_poly(STUDY))
        box = LonLatRect(0.3, 0.25, 1.3, 0.75)  # 70/30 split at lon=1
        accumulate_users(grid, group_by_user([box_rec(box)]))
        assert grid.n_u[0, 0] == pytest.approx(0.7, rel=1e-9)
        assert grid.n_u[1, 0] == pytest.approx(0.3, rel=1e-9)

    def test_total_user_mass_is_user_count(self):
        rng = np.random.default_rng(11)
        recs = [point_rec(rng.uniform(0, 4), rng.uniform(0, 4),
                          user=f"u{rng.integers(20)}", tid=str(i))
                for i in range(300)]
        grid = build_grid(GridSpec(STUDY, 8), rect_poly(STUDY))
        groups = group_by_user(recs)
        accumulate_users(grid, groups)
        assert grid.n_u.sum() == pytest.approx(len(groups), abs=1e-9 * len(groups))


class TestApportionPopulation:
    def test_unit_inside_one_cell(self):
        grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
        unit = PopulationUnit("a", rect_poly(LonLatRect(0.2, 0.2, 0.8, 0.8)), 500)
        apportion_population(grid, [unit])
        assert grid.n_p[0, 0] == pytest.approx(500.0, rel=1e-9)
        assert grid.n_p.sum() == pytest.approx(500.0, rel=1e-9)

    def test_unit_split_between_cells(self):
        grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
        unit = PopulationUnit("a", rect_poly(LonLatRect(1.5, 0.5, 2.5, 1.0)), 100)
        apportion_population(grid, [unit])
        assert grid.n_p[0, 0] == pytest.approx(50.0, rel=1e-9)
        assert grid.n_p[1, 0] == pytest.approx(50.0, rel=1e-9)

    def test_population_conserved(self):
        rng = np.random.default_rng(3)
        units = []
        for k in range(40):
            lon = rng.uniform(0, 3.4)
            lat = rng.uniform(0, 3.4)
            units.append(PopulationUnit(
                str(k), rect_poly(LonLatRect(lon, lat, lon + 0.5, lat + 0.5)),
                float(rng.integers(100, 2000))))
        grid = build_grid(GridSpec(STUDY, 7), rect_poly(STUDY))
        apportion_population(grid, units)
        assert grid.n_p.sum() == pytest.approx(
            sum(u.population for u in units), rel=1e-6)

    def test_zero_area_unit_skipped_with_diagnostic(self):
        grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
        unit = PopulationUnit("bad", MultiPolygon(()), 100)
        diags = apportion_population(grid, [unit])
        assert len(diags) == 1
        assert grid.n_p.sum() == 0.0

    def test_youth_apportioned_alongside(self):
        grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
        unit = PopulationUnit("a", rect_poly(LonLatRect(0.2, 0.2, 0.8, 0.8)),
                              500, population_18_35=150)
        apportion_population(grid, [unit])
        assert grid.has_youth
        assert grid.n_y[0, 0] == pytest.approx(150.0, rel=1e-9)


class TestDensities:
    def test_density_is_mass_over_area(self):
        grid = DensityGrid(GridSpec(STUDY, 1), np.array([[5.0]]))
        grid.n_t[0, 0] = 10.0
        densities(grid)
        assert grid.t[0, 0] == pytest.approx(2.0)

    def test_zero_mass_zero_density(self):
        grid = DensityGrid(GridSpec(STUDY, 1), np.array([[5.0]]))
        densities(grid)
        assert grid.t[0, 0] == 0.0

    def test_mass_over_water_excluded_with_diagnostic(self):
        grid = DensityGrid(GridSpec(STUDY, 1), np.array([[0.0]]))
        grid.n_t[0, 0] = 3.0
        diags = densities(grid)
        assert len(diags) == 1
        assert np.isnan(grid.t[0, 0])


class TestNestingConsistency:
    def test_fine_grid_aggregates_to_coarse(self):
        rng = np.random.default_rng(42)
        recs = [point_rec(rng.uniform(0, 4), rng.uniform(0, 4), tid=str(i),
                          user=f"u{rng.integers(40)}")
                for i in range(500)]
        land = rect_poly(STUDY)
        coarse = build_grid(GridSpec(STUDY, 4), land)
        fine = build_grid(GridSpec(STUDY, 8), land)
        accumulate_tweets(coarse, recs)
        accumulate_tweets(fine, recs)
        agg = fine.n_t.reshape(4, 2, 4, 2).sum(axis=(1, 3))
        np.testing.assert_allclose(agg, coarse.n_t, atol=1e-9)


class TestHistogram:
    def test_counts_positive_land_cells(self):
        grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
        grid.n_t[:, :] = [[10, 100], [1000, 0]]
        densities(grid)
        counts, edges = density_histogram(grid, "T", bins=10)
        assert counts.sum() == 3  # zero-valued cell excluded


class TestPipeline:
    def test_pipeline_runs_and_conserves(self):
        rng = np.random.default_rng(5)
        recs = [point_rec(rng.uniform(0, 4), rng.uniform(0, 4), tid=str(i),
                          user=f"u{rng.integers(30)}")
                for i in range(200)]
        units = [PopulationUnit("a", rect_poly(LonLatRect(0, 0, 4, 4)), 10000)]
        grid = run_grid_pipeline(GridSpec(STUDY, 4), rect_poly(STUDY), recs, units)
        assert grid.n_t.sum() == pytest.approx(200, abs=1e-9)
        assert grid.n_p.sum() == pytest.approx(10000, rel=1e-9)
        assert grid.t is not None
