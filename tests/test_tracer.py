"""The bench tracer's contract with the package: every function it wraps
exists, every parameter a hook binds by name is still a parameter, and
every grid attribute a hook reads is still on the grid.  A broken contract
makes a traced bench run print a trace-hook warning."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from geoscale.geometry import LonLatRect, MultiPolygon, PolygonWithHoles, rect_ring
from geoscale.gridding import GridSpec, run_grid_pipeline
from geoscale.ingest import Corpus, LocatedRecord, PopulationUnit

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# the parameters each hook in bench/tracing.py reads from a call
HOOK_PARAMETERS = {
    "ingest.parse_tweets": ("source",),
    "synth.write_jsonl": ("records", "path"),
    "gridding.accumulate_tweets": ("grid", "records"),
    "gridding.run_grid_pipeline": ("records", "units"),
    "validation.subarea_resample": ("records", "config"),
    "validation.subset_resample": ("config",),
    "geometry.intersection_area": ("m",),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(name: str):
    owner, fname = name.split(".")
    return getattr(importlib.import_module(f"geoscale.{owner}"), fname, None)


def test_every_target_is_a_geoscale_function(tracing):
    names = [f"{owner}.{fname}" for owner, fnames in tracing.TARGETS.items()
             for fname in fnames]
    assert [name for name in names if not inspect.isfunction(_function(name))] == []


@pytest.mark.parametrize("name", sorted(HOOK_PARAMETERS))
def test_each_bound_parameter_exists(tracing, name):
    assert name in tracing._HOOKS
    parameters = inspect.signature(_function(name)).parameters
    assert [p for p in HOOK_PARAMETERS[name] if p not in parameters] == []


# the grid attributes the hooks read, from a call's grid argument or result
GRID_ATTRIBUTES = ("spec", "lon_edges", "lat_edges", "n_t", "n_u", "n_p")


def test_grid_hooks_read_what_a_grid_holds(tracing):
    study = LonLatRect(0.0, 0.0, 2.0, 2.0)
    land = MultiPolygon.of(PolygonWithHoles(rect_ring(study)))
    records = Corpus.of([
        LocatedRecord("t0", "u0", point=(0.5, 0.5), tag_kind="geo"),
        LocatedRecord("t1", "u1", box=LonLatRect(0.2, 0.2, 1.5, 1.5), tag_kind="place")])
    units = [PopulationUnit("a", land, 100.0)]
    grid = run_grid_pipeline(GridSpec(study, 2), land, records, units)
    assert [a for a in GRID_ATTRIBUTES if not hasattr(grid, a)] == []
    # called directly, a hook raises what the tracer would count as an error
    tr = tracing.Tracer("test", (0.0, 0.0, 2.0, 2.0))
    tracing._h_run_grid_pipeline(tr, -1, (grid.spec, land, records, units), {}, grid)
    tracing._h_accumulate_tweets(tr, -1, (grid, records), {}, grid)
    assert tr.violations == []
    assert tr.counts["bench.grids_checked"] == 1
    assert tr.counts["gridding.box_records"] == 1
    assert tr.counts["gridding.box_cells_spanned_computed"] == 4
