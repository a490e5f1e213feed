import math

import numpy as np
import pytest

from geoscale.errors import DataError
from geoscale.geometry import (
    LonLatRect,
    MultiPolygon,
    PolygonWithHoles,
    Ring,
    intersection_area,
    polygon_area,
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
    water_mass,
)
from geoscale.ingest import Corpus, LocatedRecord, PopulationUnit

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
                    spherical_rect_area(grid.spec.cell_rect(i, j)), rel=1e-9)

    def test_disjoint_land_all_zero(self):
        spec = GridSpec(STUDY, 3)
        grid = build_grid(spec, rect_poly(LonLatRect(10, 10, 11, 11)))
        assert np.all(grid.land_area == 0.0)

    def test_empty_land_all_zero(self):
        grid = build_grid(GridSpec(STUDY, 3), MultiPolygon(()))
        assert grid.land_area.shape == (3, 3)
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

    @pytest.mark.parametrize("x", [4, 7, 10, 40])
    @pytest.mark.parametrize("study", [LonLatRect(-5.8, 49.9, -1.2, 52.2),
                                       LonLatRect(-5.8, 49.9, -4.65, 50.475),
                                       LonLatRect(0.0, 0.0, 4.0, 4.0)])
    def test_points_on_and_beside_edges_bin_on_the_grid_edges(self, study, x):
        # cells are half-open [edge, next edge) on the grid's own edges, the
        # last one closed; points sit on every edge and one ulp either side
        grid = build_grid(GridSpec(study, x), rect_poly(study))

        def near(edges):
            return np.concatenate([edges, np.nextafter(edges, -np.inf),
                                   np.nextafter(edges, np.inf)])

        lon, lat = near(grid.lon_edges), near(grid.lat_edges)
        keep = ((lon >= study.min_lon) & (lon <= study.max_lon)
                & (lat >= study.min_lat) & (lat <= study.max_lat))
        lon, lat = lon[keep], lat[keep]
        accumulate_tweets(grid, [point_rec(a, b) for a, b in zip(lon, lat)])
        expected = np.zeros((x, x))
        np.add.at(expected, (
            np.minimum(np.searchsorted(grid.lon_edges, lon, side="right") - 1, x - 1),
            np.minimum(np.searchsorted(grid.lat_edges, lat, side="right") - 1, x - 1)),
            1.0)
        np.testing.assert_array_equal(grid.n_t, expected)
        assert grid.n_t[1, 1] >= 1.0   # the point on the first interior edges

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
        grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
        with pytest.raises(DataError, match="zero-area box must arrive as a point"):
            accumulate_tweets(grid, [box_rec(LonLatRect(1, 1, 1, 1))])

    @pytest.mark.parametrize("box", [LonLatRect(1, 1, 1, 2), LonLatRect(1, 1, 2, 1)],
                             ids=["zero_width", "zero_height"])
    def test_line_shaped_box_rejected(self, box):
        grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
        records = [box_rec(LonLatRect(0.5, 0.5, 1.5, 1.5)), box_rec(box)]
        with pytest.raises(DataError, match="zero-area box must arrive as a point"):
            accumulate_tweets(grid, records)


def per_cell_box_mass(grid, boxes, weights):
    """Box mass by the per-cell definition f_jb = overlap area / box area."""
    x = grid.spec.x
    mass = np.zeros((x, x))
    for box, w in zip(boxes, weights):
        total = spherical_rect_area(box)
        for i in range(x):
            for j in range(x):
                inter = box.intersect(grid.spec.cell_rect(i, j))
                if inter is not None:
                    mass[i, j] += w * spherical_rect_area(inter) / total
    return mass


def sample_boxes(n, seed):
    """Boxes over and around STUDY, a third of them with an edge snapped
    to a line of the 4x4 grid, some partly outside the grid."""
    rng = np.random.default_rng(seed)
    boxes = []
    for k in range(n):
        lon0, lat0 = rng.uniform(-0.6, 4.2, size=2)
        w, h = rng.uniform(0.01, 1.5, size=2)
        if k % 3 == 0:
            lon0 = float(rng.integers(0, 4))
        if k % 3 == 1:
            lat0 = float(rng.integers(1, 5)) - h
        boxes.append(LonLatRect(lon0, lat0, lon0 + w, lat0 + h))
    return boxes


class TestBoxBinning:
    """Array binning of boxes matches the per-cell overlap definition."""

    @pytest.mark.parametrize("x", [1, 4, 7])
    def test_tweet_mass_matches_per_cell_overlaps(self, x):
        boxes = sample_boxes(1500, seed=x)   # more than one batch
        grid = build_grid(GridSpec(STUDY, x), rect_poly(STUDY))
        accumulate_tweets(grid, [box_rec(b, tid=str(k)) for k, b in enumerate(boxes)])
        expected = per_cell_box_mass(grid, boxes, [1.0] * len(boxes))
        np.testing.assert_allclose(grid.n_t, expected, rtol=1e-13, atol=0.0)

    def test_user_mass_matches_per_cell_overlaps(self):
        boxes = sample_boxes(300, seed=9)
        records = [box_rec(b, user=f"u{k % 7}", tid=str(k))
                   for k, b in enumerate(boxes)]
        grid = build_grid(GridSpec(STUDY, 4), rect_poly(STUDY))
        groups = group_by_user(records)
        accumulate_users(grid, groups)
        pairs = [(r.box, 1.0 / len(recs)) for _, recs in groups for r in recs]
        expected = per_cell_box_mass(grid, *zip(*pairs))
        np.testing.assert_allclose(grid.n_u, expected, rtol=1e-13, atol=0.0)


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
        assert grid.n_y is not None
        assert grid.n_y[0, 0] == pytest.approx(150.0, rel=1e-9)

    def test_youth_needs_every_unit_that_reaches_the_grid(self):
        with_youth = PopulationUnit("a", rect_poly(LonLatRect(0.2, 0.2, 0.8, 0.8)),
                                    500, population_18_35=150)
        without = PopulationUnit("b", rect_poly(LonLatRect(2.2, 2.2, 2.8, 2.8)), 400)
        outside = PopulationUnit("c", rect_poly(LonLatRect(5.0, 5.0, 6.0, 6.0)), 300)
        for units in ([with_youth, without], [without, with_youth]):
            grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
            apportion_population(grid, units)
            assert grid.n_y is None
            assert grid.n_p.sum() == pytest.approx(900.0, rel=1e-12)
        grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
        apportion_population(grid, [with_youth, outside])
        assert grid.n_y.sum() == pytest.approx(150.0, rel=1e-12)

    def test_youth_needs_every_unit_across_calls(self):
        with_youth = PopulationUnit("a", rect_poly(LonLatRect(0.2, 0.2, 0.8, 0.8)),
                                    500, population_18_35=150)
        without = PopulationUnit("b", rect_poly(LonLatRect(2.2, 2.2, 2.8, 2.8)), 400)
        for first, second in ((with_youth, without), (without, with_youth)):
            grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
            apportion_population(grid, [first])
            apportion_population(grid, [second])
            assert grid.n_y is None
        grid = build_grid(GridSpec(STUDY, 2), rect_poly(STUDY))
        apportion_population(grid, [with_youth])
        apportion_population(grid, [with_youth])
        assert grid.n_y.sum() == pytest.approx(300.0, rel=1e-12)

    def test_unit_area_and_bounds_computed_once_across_grids(self, monkeypatch):
        import geoscale.ingest as ingest
        calls = []
        for name in ("polygon_area", "geometry_bounds"):
            def counted(geom, fn=getattr(ingest, name), name=name):
                calls.append(name)
                return fn(geom)
            monkeypatch.setattr(ingest, name, counted)
        units = [PopulationUnit("a", rect_poly(LonLatRect(0.2, 0.2, 1.8, 0.8)), 500),
                 PopulationUnit("b", rect_poly(LonLatRect(2.2, 1.2, 3.8, 3.8)), 300)]
        for x in (2, 3, 5):
            grid = build_grid(GridSpec(STUDY, x), rect_poly(STUDY))
            apportion_population(grid, units)
            assert grid.n_p.sum() == pytest.approx(800.0, rel=1e-12)
        assert sorted(calls) == ["geometry_bounds"] * 2 + ["polygon_area"] * 2


# Land and census units with concave rings, holes, a MultiPolygon, parts
# outside STUDY and vertices on the lines of the 4x4 and 8x8 grids.
SWEEP_LAND = MultiPolygon.of(
    PolygonWithHoles(
        Ring([(0, 0), (4, 0), (4, 1), (2, 1.5), (4, 2), (4, 3), (3, 4), (0, 4)]),
        (Ring([(1, 1), (2, 1), (2, 3), (1.5, 2), (1, 3)]),)),
    PolygonWithHoles(Ring([(3.6, 3.8), (4.5, 3.2), (4.5, 4.5)])))
SWEEP_UNITS = [
    PopulationUnit("L", MultiPolygon.of(PolygonWithHoles(
        Ring([(1, 1), (3, 1), (3, 2), (2, 2), (2, 3), (1, 3)]))), 1234.5, 321.0),
    PopulationUnit("ring", MultiPolygon.of(PolygonWithHoles(
        rect_ring(LonLatRect(0.25, 0.25, 3.75, 3.75)),
        (Ring([(2, 0.5), (3.5, 2), (2, 3.5), (0.5, 2)]),))), 9876.0, 1000.5),
    PopulationUnit("multi", MultiPolygon.of(
        PolygonWithHoles(Ring([(0.1, 3.1), (0.9, 3.3), (0.5, 3.9)])),
        PolygonWithHoles(Ring([(3.0, 0.25), (4.6, -0.4), (3.75, 1.5)]))), 777.0, 70.0),
    PopulationUnit("outside", rect_poly(LonLatRect(5, 5, 6, 6)), 50.0, 5.0),
]


class TestColumnSweep:
    """build_grid and apportion_population give exactly what a per-cell
    intersection_area loop gives."""

    @pytest.mark.parametrize("x", [1, 3, 4, 8, 11])
    def test_land_area_equals_per_cell_reference(self, x):
        grid = build_grid(GridSpec(STUDY, x), SWEEP_LAND)
        expected = np.zeros((x, x))
        for i in range(x):
            for j in range(x):
                a = intersection_area(SWEEP_LAND, grid.spec.cell_rect(i, j))
                expected[i, j] = a if a >= 1e-9 else 0.0
        np.testing.assert_array_equal(grid.land_area, expected)
        assert grid.land_area.sum() > 0.0

    @pytest.mark.parametrize("x", [1, 3, 4, 8, 11])
    def test_population_equals_per_cell_reference(self, x):
        grid = build_grid(GridSpec(STUDY, x), SWEEP_LAND)
        apportion_population(grid, SWEEP_UNITS)
        n_p, n_y = np.zeros((x, x)), np.zeros((x, x))
        for unit in SWEEP_UNITS:
            total = polygon_area(unit.geometry)
            for i in range(x):
                for j in range(x):
                    a = intersection_area(unit.geometry, grid.spec.cell_rect(i, j))
                    if a > 0.0:
                        n_p[i, j] += unit.population * (a / total)
                        n_y[i, j] += unit.population_18_35 * (a / total)
        np.testing.assert_array_equal(grid.n_p, n_p)
        np.testing.assert_array_equal(grid.n_y, n_y)
        assert grid.n_p.sum() > 0.0


class TestDensities:
    def test_density_is_mass_over_area(self):
        grid = DensityGrid(GridSpec(STUDY, 1), np.array([[5.0]]))
        grid.n_t[0, 0] = 10.0
        assert densities(grid, "T")[0][0, 0] == pytest.approx(2.0)

    def test_zero_mass_zero_density(self):
        grid = DensityGrid(GridSpec(STUDY, 1), np.array([[5.0]]))
        assert densities(grid, "T")[0][0, 0] == 0.0
        grid.n_t[0, 0] = 10.0   # derived on each call: no stale density
        assert densities(grid, "T")[0][0, 0] == 2.0
        assert water_mass(grid) == []

    def test_mass_over_water_excluded_with_diagnostic(self):
        grid = DensityGrid(GridSpec(STUDY, 1), np.array([[0.0]]))
        grid.n_t[0, 0] = 3.0
        assert water_mass(grid) == ["cell (0,0): mass over water (A=0), excluded"]
        assert np.isnan(densities(grid, "T")[0][0, 0])

    def test_letters_in_order_and_youth_none_without_counts(self):
        grid = DensityGrid(GridSpec(STUDY, 2), np.array([[2.0, 4.0], [0.0, 8.0]]))
        grid.n_t[:, :], grid.n_u[:, :], grid.n_p[:, :] = 1.0, 2.0, 4.0
        t, u, p, y = densities(grid)
        np.testing.assert_array_equal(t, [[0.5, 0.25], [np.nan, 0.125]])
        np.testing.assert_array_equal(u, 2 * t)
        np.testing.assert_array_equal(p, 4 * t)
        assert y is None
        grid.n_y = np.ones((2, 2))
        np.testing.assert_array_equal(densities(grid, "YT")[0], t)


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


class TestPipeline:
    def test_pipeline_runs_and_conserves(self):
        rng = np.random.default_rng(5)
        recs = [point_rec(rng.uniform(0, 4), rng.uniform(0, 4), tid=str(i),
                          user=f"u{rng.integers(30)}")
                for i in range(200)]
        units = [PopulationUnit("a", rect_poly(LonLatRect(0, 0, 4, 4)), 10000)]
        grid = run_grid_pipeline(GridSpec(STUDY, 4), rect_poly(STUDY), Corpus.of(recs),
                                 units)
        assert grid.n_t.sum() == pytest.approx(200, abs=1e-9)
        assert grid.n_p.sum() == pytest.approx(10000, rel=1e-9)
        assert grid.n_y is None   # the unit carries no youth count
