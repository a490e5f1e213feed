import dataclasses
import math
import re

import numpy as np
import pytest

from geoscale.errors import DataError, InsufficientDataError
from geoscale.gridding import DensityGrid, GridSpec, densities
from geoscale.geometry import LonLatRect
from geoscale.scaling import (
    EXPONENT_RELATION,
    EXPONENTS,
    FitResult,
    ScanResult,
    cell_indices,
    consistency,
    detect_window,
    fit_all,
    fit_cells,
    fit_logs,
    fit_power_law,
    fit_rows,
    log_table,
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


def reference_fits(grid, cells, names):
    """fit_power_law of each exponent over the positive (x, y) density
    pairs at the given (i, j) cells, read straight from densities."""
    fits = {}
    for name in names:
        relation = EXPONENT_RELATION[name]
        ys, xs = densities(grid, relation.replace("_vs_", ""))
        points = [(xs[c], ys[c]) for c in cells]
        fits[name] = fit_power_law([(x, y) for x, y in points if x > 0 and y > 0],
                                   relation)
    return fits


class TestFitCells:
    def test_fit_cells_equals_the_reference_fit(self):
        """Over water cells (NaN densities), cells without users (beta's y
        and gamma's x are 0) and cells without tweets or youth, fit_cells
        of every exponent is the fit of the positive pairs, whole."""
        x = 8
        grid = grid_with_law(x=x)
        rng = np.random.default_rng(2)
        grid.land_area[rng.random((x, x)) < 0.15] = 0.0
        grid.n_u[rng.random((x, x)) < 0.2] = 0.0
        grid.n_t[rng.random((x, x)) < 0.1] = 0.0
        grid.n_y = grid.n_p * 10 ** rng.uniform(-1.0, -0.3, size=(x, x))
        grid.n_y[rng.random((x, x)) < 0.1] = 0.0
        names = ("alpha", "beta", "gamma", "delta")
        every = [(i, j) for i in range(x) for j in range(x)]
        assert all(fit.n_points < len(every)
                   for fit in reference_fits(grid, every, names).values())
        for cells in (every, every[::3], every[5:40], cell_indices(grid)):
            want = reference_fits(grid, cells, names)
            assert fit_cells(grid, cells, names) == want
            assert {name: fit_cells(grid, cells, (name,))[name]
                    for name in names} == want
        assert fit_all(grid) == reference_fits(grid, cell_indices(grid), names[:3])


def tuple_ols(logs, relation=""):
    """The OLS over a list of (log10 x, log10 y) tuples that fit_logs
    replaced, its body kept whole: the reference fit_logs is held to, bit
    for bit."""
    n = len(logs)
    if n < 3:
        raise InsufficientDataError(f"need >= 3 points, got {n}")
    lx = [a for a, _ in logs]
    ly = [b for _, b in logs]

    mx = math.fsum(lx) / n
    my = math.fsum(ly) / n
    sxx = math.fsum((v - mx) ** 2 for v in lx)
    if sxx == 0.0:
        raise InsufficientDataError("zero variance in x")
    sxy = math.fsum((a - mx) * (b - my) for a, b in logs)
    slope = sxy / sxx
    intercept = my - slope * mx

    ss_res = math.fsum((b - (intercept + slope * a)) ** 2 for a, b in logs)
    ss_tot = math.fsum((b - my) ** 2 for b in ly)
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        r2 = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)

    s2 = ss_res / (n - 2)
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + mx * mx / sxx))
    return FitResult(relation, slope, se_slope, intercept, se_intercept, r2, n)


def assert_same_bits(got, want):
    """Every FitResult field equal with ==, and of the same type."""
    for f in dataclasses.fields(FitResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a == b and type(a) is type(b), (f.name, a, b)


class TestArrayFit:
    @pytest.mark.parametrize("n", [3, 4, 50, 5000])
    def test_fit_logs_has_the_bits_of_the_tuple_fit(self, n):
        for seed in range(20):
            rng = np.random.default_rng([n, seed])
            lx = rng.uniform(-1.0, 4.0, n)
            ly = 0.3 + 1.35 * lx + rng.normal(0.0, 0.2, n)
            want = tuple_ols(list(zip(lx.tolist(), ly.tolist())), "T_vs_U")
            assert_same_bits(fit_logs(lx, ly, "T_vs_U"), want)

    def test_constant_y_has_the_bits_of_the_tuple_fit(self):
        lx = np.random.default_rng(3).uniform(0.0, 3.0, 40)
        ly = np.full(40, math.log10(5.0))
        fit = fit_logs(lx, ly)
        assert fit.r_squared == 1.0
        assert_same_bits(fit, tuple_ols(list(zip(lx.tolist(), ly.tolist()))))

    def test_fit_rows_has_the_bits_of_the_tuple_fit(self):
        """Random row subsets, as index arrays and as lists, over cells of
        which some have no users (beta's y and gamma's x are 0) or no
        tweets: each fit is the tuple fit of the logs of its positive
        density pairs, and a subset the tuple fit refuses is refused with
        its message."""
        x = 12
        grid = grid_with_law(x=x)
        rng = np.random.default_rng(5)
        grid.n_u[rng.random((x, x)) < 0.3] = 0.0
        grid.n_t[rng.random((x, x)) < 0.1] = 0.0
        cells = [(i, j) for i in range(x) for j in range(x)]
        table = log_table(grid, cells)

        def reference(rows):
            fits = {}
            for name in EXPONENTS:
                relation = EXPONENT_RELATION[name]
                ys, xs = densities(grid, relation.replace("_vs_", ""))
                pairs = [(xs[cells[k]], ys[cells[k]]) for k in rows]
                fits[name] = tuple_ols([(math.log10(a), math.log10(b))
                                        for a, b in pairs if a > 0 and b > 0], relation)
            return fits

        refused = 0
        for m in (3, 5, 8, 40, 144):
            for _ in range(30):
                rows = rng.choice(len(cells), size=m, replace=False)
                for picked in (rows, rows.tolist()):
                    try:
                        want = reference(rows.tolist())
                    except InsufficientDataError as exc:
                        with pytest.raises(InsufficientDataError,
                                           match=re.escape(str(exc))):
                            fit_rows(table, picked)
                        refused += 1
                        continue
                    got = fit_rows(table, picked)
                    for name in EXPONENTS:
                        assert_same_bits(got[name], want[name])
        assert refused > 0

    def test_no_usable_row_is_too_few_points(self):
        x = 4
        grid = grid_with_law(x=x)
        grid.n_u[:2] = 0.0
        cells = [(i, j) for i in range(x) for j in range(x)]
        no_users = [k for k, c in enumerate(cells) if c[0] < 2]
        empty = log_table(grid, [])
        assert all(len(a) == 0 for columns in empty.values() for a in columns)
        for table, rows in ((empty, None), (log_table(grid, cells), []),
                            (log_table(grid, cells, ("beta", "gamma")), no_users)):
            with pytest.raises(InsufficientDataError,
                               match=re.escape("need >= 3 points, got 0")):
                fit_rows(table, rows)


class TestRelationDensities:
    def test_letters_pick_the_density_arrays(self):
        grid = grid_with_law(x=3)
        ys, xs = relation_densities(grid, "T_vs_U")
        t, u = densities(grid, "TU")
        np.testing.assert_array_equal(ys, t)
        np.testing.assert_array_equal(xs, u)

    def test_youth_unavailable_without_youth_counts(self):
        grid = grid_with_law(x=3)
        with pytest.raises(InsufficientDataError, match="has no youth population data"):
            relation_densities(grid, "Y_vs_P")
        with pytest.raises(InsufficientDataError, match="has no youth population data"):
            fit_cells(grid, cell_indices(grid), ("delta",))

    @pytest.mark.parametrize("relation", ["", "T", "T_vs_X", "t_vs_u", "T_vs_U_vs_P"])
    def test_unknown_relation_is_a_domain_error(self, relation):
        with pytest.raises(DataError, match=re.escape(f"unknown relation: {relation!r}")):
            relation_densities(grid_with_law(x=3), relation)


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
