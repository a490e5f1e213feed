import math
import re

import numpy as np
import pytest

from geoscale.errors import DataError, InsufficientDataError
from geoscale.gridding import DensityGrid, GridSpec, densities
from geoscale.geometry import LonLatRect
from geoscale.scaling import (
    FitResult,
    ScanResult,
    cell_indices,
    consistency,
    detect_window,
    fit_all,
    fit_exponent,
    fit_power_law,
    mean_cell_area,
    relation_densities,
)

STUDY = LonLatRect(0.0, 0.0, 4.0, 4.0)


def exact_points(exponent, prefactor, xs):
    return [(x, prefactor * x ** exponent) for x in xs]


class TestFitPowerLaw:
    def test_exact_law_recovered(self):
        pts = exact_points(1.23, 3.7, [1, 2, 5, 10, 40, 100])
        fit = fit_power_law(pts, "T_vs_P")
        assert fit.exponent == pytest.approx(1.23, abs=1e-12)
        assert fit.log10_prefactor == pytest.approx(math.log10(3.7), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.exponent_stderr == pytest.approx(0.0, abs=1e-12)

    def test_constant_y_slope_zero_r2_one(self):
        fit = fit_power_law([(1, 5.0), (10, 5.0), (100, 5.0)])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_order_invariance_bit_for_bit(self):
        rng = np.random.default_rng(9)
        pts = [(float(x), float(y)) for x, y in
               zip(rng.uniform(1, 100, 50), rng.uniform(1, 100, 50))]
        a = fit_power_law(pts)
        b = fit_power_law(list(reversed(pts)))
        assert a.exponent == b.exponent
        assert a.log10_prefactor == b.log10_prefactor
        assert a.r_squared == b.r_squared

    def test_noisy_fit_slope_close_stderr_sane(self):
        rng = np.random.default_rng(1)
        xs = 10 ** rng.uniform(0, 3, 200)
        ys = 2.0 * xs ** 1.5 * 10 ** rng.normal(0, 0.05, 200)
        fit = fit_power_law(list(zip(xs, ys)))
        assert fit.exponent == pytest.approx(1.5, abs=0.02)
        assert 0 < fit.exponent_stderr < 0.02
        assert fit.r_squared > 0.98

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law([(1, 1), (2, 2)])

    def test_zero_x_variance(self):
        with pytest.raises(InsufficientDataError, match="zero variance in x"):
            fit_power_law([(2, 1), (2, 2), (2, 3)])

    def test_nonpositive_point_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(1, 1), (2, 0), (3, 3)])


def grid_with_law(x=6, beta=1.2, gamma=1.35):
    """Synthetic grid whose cell densities follow exact power laws."""
    spec = GridSpec(STUDY, x)
    grid = DensityGrid(spec, np.ones((x, x)))
    rng = np.random.default_rng(4)
    p_density = 10 ** rng.uniform(0.5, 3.0, size=(x, x))
    for i in range(x):
        for j in range(x):
            a = grid.land_area[i, j]
            p = p_density[i, j]
            u = 0.5 * p ** beta
            t = 2.0 * u ** gamma
            grid.n_p[i, j] = p * a
            grid.n_u[i, j] = u * a
            grid.n_t[i, j] = t * a
    densities(grid)
    return grid


class TestFitAll:
    def test_exponents_recovered_and_consistent(self):
        grid = grid_with_law()
        fits = fit_all(grid)
        assert fits["beta"].exponent == pytest.approx(1.2, abs=1e-10)
        assert fits["gamma"].exponent == pytest.approx(1.35, abs=1e-10)
        assert fits["alpha"].exponent == pytest.approx(1.2 * 1.35, abs=1e-10)
        report = consistency(fits["alpha"], fits["beta"], fits["gamma"])
        # exact data: delta and sigma are both roundoff-level, z is their
        # ratio and therefore not meaningful here
        assert report.delta == pytest.approx(0.0, abs=1e-9)
        assert report.propagated_sigma < 1e-9

    def test_cell_indices_applies_thresholds(self):
        grid = grid_with_law(x=4)
        grid.n_t[0, 0] = 0.5   # below the one-tweet floor
        grid.n_p[1, 1] = 0.2
        cells = cell_indices(grid)
        assert len(cells) == 14


class TestRelationDensities:
    def test_letters_pick_the_density_arrays(self):
        grid = grid_with_law(x=3)
        ys, xs = relation_densities(grid, "T_vs_U")
        assert ys is grid.t and xs is grid.u

    def test_youth_unavailable_without_youth_counts(self):
        grid = grid_with_law(x=3)
        with pytest.raises(InsufficientDataError, match="has no youth population data"):
            relation_densities(grid, "Y_vs_P")
        with pytest.raises(InsufficientDataError, match="has no youth population data"):
            fit_exponent(grid, cell_indices(grid), "delta")

    @pytest.mark.parametrize("relation", ["", "T", "T_vs_X", "t_vs_u", "T_vs_U_vs_P"])
    def test_unknown_relation_is_a_domain_error(self, relation):
        with pytest.raises(DataError, match=re.escape(f"unknown relation: {relation!r}")):
            relation_densities(grid_with_law(x=3), relation)

    def test_densities_must_be_computed(self):
        grid = DensityGrid(GridSpec(STUDY, 2), np.ones((2, 2)))
        with pytest.raises(DataError, match="densities must be computed first"):
            relation_densities(grid, "T_vs_P")


class TestMeanCellArea:
    def test_scales_with_inverse_x_squared(self):
        a32 = mean_cell_area(GridSpec(STUDY, 32))
        a64 = mean_cell_area(GridSpec(STUDY, 64))
        assert a32 == pytest.approx(4 * a64, rel=1e-12)


def scan_of(entries, stderr=0.01):
    """ScanResult from {X: (alpha, beta, gamma)} with uniform stderr."""
    scan = ScanResult(x_values=sorted(entries))
    for x, (a, b, g) in entries.items():
        scan.fits[x] = {
            name: FitResult(name, val, stderr, 0.0, 0.0, 1.0, 50)
            for name, val in (("alpha", a), ("beta", b), ("gamma", g))
        }
        scan.mean_cell_area[x] = 1.0 / (x * x)
    return scan


class TestDetectWindow:
    def test_constant_scan_spans_everything(self):
        xs = [8, 16, 24, 32, 40]
        scan = scan_of({x: (1.62, 1.2, 1.35) for x in xs})
        window = detect_window(scan)
        assert (window.x_min, window.x_max) == (8, 40)
        assert window.means["beta"] == pytest.approx(1.2)

    def test_outlier_excluded(self):
        entries = {x: (1.62, 1.2, 1.35) for x in [16, 24, 32, 40]}
        entries[8] = (2.5, 1.2, 1.35)   # alpha far off at the coarse end
        window = detect_window(scan_of(entries))
        assert (window.x_min, window.x_max) == (16, 40)

    def test_within_one_sigma_still_qualifies(self):
        entries = {x: (1.62, 1.2, 1.35) for x in [8, 16, 24]}
        entries[32] = (1.625, 1.2, 1.35)  # half a sigma away
        window = detect_window(scan_of(entries, stderr=0.01))
        assert (window.x_min, window.x_max) == (8, 32)

    def test_no_window_when_everything_drifts(self):
        entries = {x: (1.0 + 0.2 * k, 1.2, 1.35)
                   for k, x in enumerate([8, 16, 24, 32])}
        assert detect_window(scan_of(entries, stderr=0.001)) is None

    def test_missing_resolution_breaks_run(self):
        scan = scan_of({x: (1.62, 1.2, 1.35) for x in [8, 16, 24, 40, 48, 56, 64]})
        scan.x_values = [8, 16, 24, 32, 40, 48, 56, 64]  # 32 failed to fit
        window = detect_window(scan)
        assert (window.x_min, window.x_max) == (40, 64)

    def test_too_few_resolutions(self):
        assert detect_window(scan_of({8: (1.6, 1.2, 1.35), 16: (1.6, 1.2, 1.35)})) is None


class TestConsistency:
    def fr(self, value, stderr):
        return FitResult("", value, stderr, 0.0, 0.0, 1.0, 10)

    def test_exact_product_zero_z(self):
        report = consistency(self.fr(1.62, 0.02), self.fr(1.2, 0.01),
                             self.fr(1.35, 0.01))
        assert report.delta == pytest.approx(0.0, abs=1e-12)
        assert report.z_score == pytest.approx(0.0, abs=1e-9)

    def test_propagated_sigma_formula(self):
        a, b, g = self.fr(1.7, 0.03), self.fr(1.2, 0.02), self.fr(1.35, 0.01)
        report = consistency(a, b, g)
        expected = math.sqrt(0.03 ** 2 + (1.35 * 0.02) ** 2 + (1.2 * 0.01) ** 2)
        assert report.propagated_sigma == pytest.approx(expected, rel=1e-12)
        assert report.z_score == pytest.approx(report.delta / expected, rel=1e-12)

    def test_zero_sigma_mismatch_is_infinite(self):
        report = consistency(self.fr(1.7, 0.0), self.fr(1.2, 0.0), self.fr(1.35, 0.0))
        assert math.isinf(report.z_score)
