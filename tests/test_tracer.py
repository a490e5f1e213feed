"""The bench tracer's contract with the package: every function it wraps
exists, and every parameter a hook binds by name is still a parameter.
A broken contract makes a traced bench run print a trace-hook warning."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
