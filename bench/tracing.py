"""In-process tracing of geoscale's module boundaries.

The traced run calls ``geoscale.cli.main`` in this process after replacing
the package's layer functions with wrappers that record one span per call:
name, start, end, parent span and the run's trace id.  Spans stay in memory
and are written out at the end.  Nothing in the program is edited; a
function is wrapped wherever another module (or, for gridding, its own
pipeline) refers to it, so a call into a layer is seen at its boundary.

Counters are taken in the wrappers from the call's arguments and result.
Names ending in ``_computed`` are derived from array sizes or bounding boxes
rather than counted at the call.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("cli", "ingest", "synth", "geometry", "gridding", "scaling",
           "anomaly", "validation")

# functions wrapped, by owning module; a span is named module.function
TARGETS = {
    "cli": ("load_records", "load_population", "load_land",
            "_write_fits_csv", "_write_json"),
    "ingest": ("parse_tweets", "corpus_stats", "filter_bots",
               "filter_min_tweets", "parse_population"),
    "synth": ("gen_population", "gen_activity", "gen_bots", "write_jsonl",
              "land_geojson"),
    "geometry": ("intersection_area", "polygon_area", "geometry_from_geojson"),
    "gridding": ("run_grid_pipeline", "build_grid", "accumulate_tweets",
                 "group_by_user", "accumulate_users", "apportion_population",
                 "densities"),
    "scaling": ("scan_resolutions", "fit_all", "fit_power_law",
                "detect_window", "consistency"),
    "anomaly": ("anomaly_map", "youth_fit", "anomaly_correlation",
                "anomaly_to_csv", "anomaly_to_geojson"),
    "validation": ("subarea_resample", "subset_resample", "resample_to_csv",
                   "resample_summary"),
}

# output writers whose time is cli.write_outputs.s
_WRITERS = ("cli._write_fits_csv", "cli._write_json", "anomaly.anomaly_to_csv",
            "validation.resample_to_csv")

# relative tolerances of acceptance criterion 3 (tests/test_acceptance.py);
# population goes through polygon clipping, so it gets the looser one
_CONSERVATION_RTOL = {"tweet": 1e-9, "user": 1e-9, "population": 1e-6}


class Tracer:
    """Span recorder plus the counters and checks taken at layer calls."""

    def __init__(self, trace_id: str, study) -> None:
        self.trace_id = trace_id
        self.study = study          # full study rect, for the population check
        self.spans: list = []       # [span_id, parent_id, name, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.worst_population_error = 0.0   # largest relative mass error seen
        self.violations: list[str] = []
        self.hook_errors: Counter = Counter()
        self._patched: list = []
        self._cache: dict = {}

    # -------------------------------------------------------------- spans
    def span(self, name: str, fn, hook=None):
        """Wrap fn so that each call records a span.  hook(tracer, parent,
        args, kwargs, result) runs after the call, outside its span."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            span = [sid, parent, name, 0.0, 0.0]
            spans.append(span)
            stack.append(sid)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, parent, args, kwargs, result)
                except Exception as exc:   # a hook never breaks the program
                    self.hook_errors[f"{name}: {type(exc).__name__}: {exc}"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def timed(self, name: str):
        """Record a span around benchmark-side work."""
        span = [len(self.spans), self.stack[-1] if self.stack else -1, name,
                0.0, 0.0]
        self.spans.append(span)
        self.stack.append(span[0])
        span[3] = time.perf_counter()
        try:
            yield
        finally:
            span[4] = time.perf_counter()
            self.stack.pop()

    def install(self) -> None:
        mods = {m: importlib.import_module(f"geoscale.{m}") for m in MODULES}
        for owner, names in TARGETS.items():
            for fname in names:
                fn = getattr(mods[owner], fname, None)
                if fn is None:
                    self.hook_errors[f"missing function {owner}.{fname}"] += 1
                    continue
                name = f"{owner}.{fname}"
                wrapper = self.span(name, fn, _HOOKS.get(name))
                for mname, mod in mods.items():
                    # calls inside geometry are not layer boundaries
                    if owner == "geometry" and mname == "geometry":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def cached(self, key_obj, compute):
        """Per-object memo of compute(key_obj); it keeps the object alive,
        so ids stay unique."""
        key = (id(key_obj), compute)
        entry = self._cache.get(key)
        if entry is None or entry[0] is not key_obj:
            entry = (key_obj, compute(key_obj))
            self._cache[key] = entry
        return entry[1]

    # ------------------------------------------------------------ results
    def parent_name(self, parent: int) -> str:
        return self.spans[parent][2] if parent >= 0 else ""

    def durations(self):
        """Inclusive and self time per span name."""
        incl: dict = defaultdict(float)
        child: dict = defaultdict(float)
        calls: Counter = Counter()
        for sid, parent, name, start, end in self.spans:
            incl[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time: dict = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            self_time[name] += (end - start) - child.get(sid, 0.0)
        return incl, self_time, calls

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": self.trace_id, "span": sid,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end},
                                    separators=(",", ":")))
                fh.write("\n")


# ------------------------------------------------------------------ hooks
# Each hook gets (tracer, parent_span_id, args, kwargs, result) after the
# call returned.  Hooks called hot (intersection_area) stay minimal.

def _bound(fn_name: str, args, kwargs):
    """The call's arguments by parameter name."""
    owner, fname = fn_name.split(".")
    fn = getattr(importlib.import_module(f"geoscale.{owner}"), fname)
    fn = getattr(fn, "__wrapped__", fn)
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _ring_vertices(geom) -> int:
    polys = getattr(geom, "polygons", None)
    if polys is None:
        polys = (geom,)
    return sum(len(p.outer.coords) + sum(len(h.coords) for h in p.holes)
               for p in polys)


def _h_intersection_area(tr, parent, args, kwargs, result):
    c = tr.counts
    c["geometry.intersection_area.calls"] += 1
    geom = args[0] if args else kwargs["m"]
    c["geometry.vertices_clipped_computed"] += tr.cached(geom, _ring_vertices)
    caller = tr.parent_name(parent)
    if caller == "gridding.build_grid":
        c["gridding.build_grid.cells_clipped"] += 1
    elif caller == "gridding.apportion_population":
        c["gridding.apportion.pairs_tested"] += 1
        if result > 0.0:
            c["gridding.apportion.pairs_useful"] += 1


def _h_parse_tweets(tr, parent, args, kwargs, result):
    records, diags = result
    tr.counts["ingest.parse_tweets.records"] += len(records)
    tr.counts["ingest.parse_tweets.skipped"] += diags.skipped
    source = _bound("ingest.parse_tweets", args, kwargs)["source"]
    if isinstance(source, (str, os.PathLike)):
        tr.counts["ingest.parse_tweets.bytes"] += os.path.getsize(source)


def _h_corpus_stats(tr, parent, args, kwargs, result):
    stats, located = result
    tr.counts["ingest.corpus_stats.records"] += stats.total_records
    tr.counts["ingest.corpus_stats.located"] += len(located)


def _h_load_records(tr, parent, args, kwargs, result):
    tr.counts["cli.load_records.kept"] += len(result[1])


def _h_write_jsonl(tr, parent, args, kwargs, result):
    a = _bound("synth.write_jsonl", args, kwargs)
    tr.counts["synth.records"] += len(a["records"])
    tr.counts["synth.bytes_written"] += os.path.getsize(a["path"])


def _box_arrays(records):
    boxes = [r.box for r in records if getattr(r, "box", None) is not None]
    if not boxes:
        return np.zeros((0, 4))
    return np.array([(b.min_lon, b.min_lat, b.max_lon, b.max_lat) for b in boxes])


def _h_accumulate_tweets(tr, parent, args, kwargs, result):
    a = _bound("gridding.accumulate_tweets", args, kwargs)
    boxes = tr.cached(a["records"], _box_arrays)
    grid = a["grid"]
    tr.counts["gridding.box_records"] += len(boxes)
    if len(boxes):
        # cells each box's index range covers, as gridding._cell_index_range
        # computes it (clipped to the grid)
        x = grid.spec.x
        i0 = np.searchsorted(grid.lon_edges, boxes[:, 0], side="right") - 1
        i1 = np.searchsorted(grid.lon_edges, boxes[:, 2], side="left") - 1
        j0 = np.searchsorted(grid.lat_edges, boxes[:, 1], side="right") - 1
        j1 = np.searchsorted(grid.lat_edges, boxes[:, 3], side="left") - 1
        ni = np.minimum(np.maximum(i1, i0), x - 1) - np.maximum(i0, 0) + 1
        nj = np.minimum(np.maximum(j1, j0), x - 1) - np.maximum(j0, 0) + 1
        tr.counts["gridding.box_cells_spanned_computed"] += int(
            (np.maximum(ni, 0) * np.maximum(nj, 0)).sum())


def _users_of(records) -> int:
    return len({r.user_id for r in records})


def _h_run_grid_pipeline(tr, parent, args, kwargs, result):
    """Mass conservation on every grid the run builds: tweet mass equals the
    record count, user mass the distinct users, and on full-study grids the
    population mass equals the census total, within criterion 3's
    tolerances."""
    a = _bound("gridding.run_grid_pipeline", args, kwargs)
    grid, records, units = result, a["records"], a["units"]
    with tr.timed("bench.conservation_check"):
        tr.counts["bench.grids_checked"] += 1
        checks = [("tweet", float(grid.n_t.sum()), float(len(records))),
                  ("user", float(grid.n_u.sum()), float(tr.cached(records, _users_of)))]
        s = grid.spec.study
        if (s.min_lon, s.min_lat, s.max_lon, s.max_lat) == tr.study:
            checks.append(("population", float(grid.n_p.sum()),
                           math.fsum(u.population for u in units)))
        for what, got, want in checks:
            error = abs(got - want) / max(abs(want), 1.0)
            if what == "population":
                tr.worst_population_error = max(tr.worst_population_error, error)
            if error > _CONSERVATION_RTOL[what]:
                tr.violations.append(
                    f"{what} mass {got!r} != {want!r} on X={grid.spec.x} "
                    f"grid over {s}")


def _h_scan(tr, parent, args, kwargs, result):
    tr.counts["scaling.resolutions_fitted"] += len(result.fits)


def _h_anomaly_map(tr, parent, args, kwargs, result):
    tr.counts["anomaly.cells"] += int((~result.masked).sum())


def _h_subarea(tr, parent, args, kwargs, result):
    a = _bound("validation.subarea_resample", args, kwargs)
    reps = a["config"].replicates
    tr.counts["validation.subarea.replicates"] += reps
    tr.counts["validation.subarea.records_scanned_computed"] += reps * len(a["records"])
    tr.counts["validation.replicates"] += reps
    tr.counts["validation.dropped"] += result.dropped


def _h_subset(tr, parent, args, kwargs, result):
    reps = _bound("validation.subset_resample", args, kwargs)["config"].replicates
    tr.counts["validation.subset.replicates"] += reps
    tr.counts["validation.replicates"] += reps
    tr.counts["validation.dropped"] += result.dropped


_HOOKS = {
    "geometry.intersection_area": _h_intersection_area,
    "ingest.parse_tweets": _h_parse_tweets,
    "ingest.corpus_stats": _h_corpus_stats,
    "cli.load_records": _h_load_records,
    "synth.write_jsonl": _h_write_jsonl,
    "gridding.accumulate_tweets": _h_accumulate_tweets,
    "gridding.run_grid_pipeline": _h_run_grid_pipeline,
    "scaling.scan_resolutions": _h_scan,
    "anomaly.anomaly_map": _h_anomaly_map,
    "validation.subarea_resample": _h_subarea,
    "validation.subset_resample": _h_subset,
}


# ---------------------------------------------------------------- metrics

def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics from the spans and counters (numbers only)."""
    incl, self_time, calls = tr.durations()
    c = tr.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "ingest.parse_tweets.s": incl["ingest.parse_tweets"],
        "ingest.parse_tweets.records": c["ingest.parse_tweets.records"],
        "ingest.parse_tweets.skipped": c["ingest.parse_tweets.skipped"],
        "ingest.parse_tweets.mb_per_s": ratio(c["ingest.parse_tweets.bytes"] / 1e6,
                                              incl["ingest.parse_tweets"]),
        "ingest.corpus_stats.s": incl["ingest.corpus_stats"],
        "ingest.located_frac": ratio(c["ingest.corpus_stats.located"],
                                     c["ingest.corpus_stats.records"]),
        "ingest.filter_bots.s": incl["ingest.filter_bots"],
        "ingest.filter_min_tweets.s": incl["ingest.filter_min_tweets"],
        "ingest.kept_frac": ratio(c["cli.load_records.kept"],
                                  c["ingest.corpus_stats.located"]),
        "ingest.parse_population.s": incl["ingest.parse_population"],
        "synth.gen_population.s": incl["synth.gen_population"],
        "synth.gen_activity.s": incl["synth.gen_activity"],
        "synth.write_jsonl.s": incl["synth.write_jsonl"],
        "synth.records": c["synth.records"],
        "synth.bytes_written": c["synth.bytes_written"],
        "gridding.build_grid.s": incl["gridding.build_grid"],
        "gridding.build_grid.cells_clipped": c["gridding.build_grid.cells_clipped"],
        "gridding.apportion_population.s": incl["gridding.apportion_population"],
        "gridding.apportion.pairs_tested": c["gridding.apportion.pairs_tested"],
        "gridding.apportion.useful_frac": ratio(c["gridding.apportion.pairs_useful"],
                                                c["gridding.apportion.pairs_tested"]),
        "gridding.accumulate_tweets.s": incl["gridding.accumulate_tweets"],
        "gridding.accumulate_users.s": incl["gridding.accumulate_users"],
        "gridding.group_by_user.s": incl["gridding.group_by_user"],
        "gridding.box_records": c["gridding.box_records"],
        "gridding.box_cells_spanned_computed": c["gridding.box_cells_spanned_computed"],
        "geometry.intersection_area.calls": c["geometry.intersection_area.calls"],
        "geometry.intersection_area.s": incl["geometry.intersection_area"],
        "geometry.vertices_clipped_computed": c["geometry.vertices_clipped_computed"],
        "scaling.fit_all.s": incl["scaling.fit_all"],
        "scaling.fit_power_law.calls": calls["scaling.fit_power_law"],
        "scaling.fit_power_law.s": incl["scaling.fit_power_law"],
        "scaling.detect_window.s": incl["scaling.detect_window"],
        "scaling.resolutions_fitted": c["scaling.resolutions_fitted"],
        "anomaly.anomaly_map.s": incl["anomaly.anomaly_map"],
        "anomaly.youth_fit.s": incl["anomaly.youth_fit"],
        "anomaly.to_geojson.s": incl["anomaly.anomaly_to_geojson"],
        "anomaly.cells": c["anomaly.cells"],
        "validation.subarea_resample.s": incl["validation.subarea_resample"],
        "validation.subarea.ms_per_rep": 1e3 * ratio(
            incl["validation.subarea_resample"], c["validation.subarea.replicates"]),
        "validation.subarea.records_scanned_computed":
            c["validation.subarea.records_scanned_computed"],
        "validation.subset_resample.s": incl["validation.subset_resample"],
        "validation.subset.ms_per_rep": 1e3 * ratio(
            incl["validation.subset_resample"], c["validation.subset.replicates"]),
        "validation.dropped_frac": ratio(c["validation.dropped"],
                                         c["validation.replicates"]),
        "gridding.population_mass_rel_err": tr.worst_population_error,
        "cli.load_records.s": incl["cli.load_records"],
        "cli.write_outputs.s": sum(incl[w] for w in _WRITERS),
        "trace.spans": len(tr.spans),
        "trace.hook_errors": sum(tr.hook_errors.values()),
    }
    # self time per layer: span time not covered by child spans; the
    # benchmark's own checks are kept apart
    for mod in MODULES:
        m[f"layer.{mod}.self_s"] = math.fsum(
            t for name, t in self_time.items() if name.split(".")[0] == mod)
    m["layer.bench.self_s"] = math.fsum(
        t for name, t in self_time.items() if name.startswith("bench."))
    return m
