"""Command-line pipeline: stats | grid | fit | scan | anomaly | validate | synth.

Settings resolve as defaults < config file < command-line flags.  Each
setting is a RunConfig field; the config file is flat ``key = value`` text
with the field names and may hold any setting, and each flag is the field
name with dashes, taking the same text.  A command takes the flags of just
the settings it reads (``_COMMANDS``).  All randomness flows from --seed;
reruns with identical inputs and seed produce byte-identical output files.
A command writes into a staging directory inside --out, whose files take
their names in --out only if it succeeds (``_staged_out``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import anomaly as anomaly_mod
from . import ingest, scaling, synth, validation, workers
from .errors import ConfigError, DataError, InsufficientDataError
from .geometry import LonLatRect, MultiPolygon, geometry_from_geojson
from .gridding import (GridSpec, check_grid_memory, grid_to_csv, run_grid_pipeline,
                       write_csv)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INSUFFICIENT = 3

_SYNTH = synth.SynthConfig()
_RESAMPLE = validation.ResampleConfig()


@dataclass
class RunConfig:
    tweets: str = ""
    population: str = ""
    land: str = ""
    out: str = "."
    study: tuple = dataclasses.astuple(synth.DEFAULT_STUDY)
    x: int = 40
    x_list: tuple = scaling.DEFAULT_X_LIST
    tag_kind: str = "place"
    bot_threshold: float = 0.01
    min_user_tweets: int = 10
    fit_min_tweets: float = 1.0
    fit_min_population: float = 1.0
    abs_cap: float = 1000.0
    rel_cap: float = 2.0
    mask_t_density: float = 1.0
    mask_p_density: float = 1.0
    kind: str = "tu"
    mode: str = _RESAMPLE.mode
    replicates: int = _RESAMPLE.replicates
    area_fraction: float = _RESAMPLE.area_fraction
    subset_fraction: float = _RESAMPLE.subset_fraction
    seed: int = 0
    geojson: bool = False
    x_gen: int = _SYNTH.x_gen
    beta_true: float = _SYNTH.beta_true
    gamma_true: float = _SYNTH.gamma_true
    b_true: float = _SYNTH.b_true
    c_true: float = _SYNTH.c_true
    noise_dex: float = _SYNTH.noise_dex
    pop_log10_mean: float = _SYNTH.pop_log10_mean
    pop_log10_sigma: float = _SYNTH.pop_log10_sigma
    emit_boxes_fraction: float = _SYNTH.emit_boxes_fraction
    commuter_fraction: float = _SYNTH.commuter_fraction
    bots: int = 0
    bot_fraction: float = 0.02

    def study_rect(self) -> LonLatRect:
        try:
            return LonLatRect(*self.study)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad study rect {self.study}: {exc}") from exc


_DEFAULTS = dataclasses.asdict(RunConfig())
# the allowed words of the word-valued settings
_CHOICES = {"tag_kind": ("geo", "place", "both"), "kind": ("tu", "yp", "both"),
            "mode": validation.MODES}


_BOOL_WORDS = {"1": True, "true": True, "yes": True,
               "0": False, "false": False, "no": False}


def _coerce(key: str, text: str):
    """A setting's value from its text, typed like its default: tuples take
    numbers separated by commas or spaces, bools take 1/true/yes or
    0/false/no."""
    default = _DEFAULTS[key]
    if isinstance(default, tuple):
        return tuple(map(type(default[0]), text.replace(",", " ").split()))
    if isinstance(default, bool):
        word = text.strip().lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"{text!r} is not one of {', '.join(_BOOL_WORDS)}")
        return _BOOL_WORDS[word]
    return type(default)(text)


def load_config_file(path) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _coerce(key, value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _DEFAULTS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    cfg = RunConfig(**values)
    for key, words in _CHOICES.items():
        if getattr(cfg, key) not in words:
            raise ConfigError(f"bad {key}: {getattr(cfg, key)!r} "
                              f"(choose from {', '.join(words)})")
    return cfg


def _load_json(path, what: str) -> dict:
    try:
        text = Path(path).read_text()
        ingest.check_depth(text)
        return json.loads(text)
    except OSError as exc:
        raise DataError(f"cannot read {what} from {path}: {exc}") from exc
    # ValueError: bad JSON, or an integer too long to read; RecursionError:
    # arrays or objects nested too deeply (see ingest.check_depth)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"invalid JSON in {what} file {path}: {exc}") from exc


def load_land(path) -> MultiPolygon:
    """Land polygons from a GeoJSON FeatureCollection, Feature or geometry.
    A feature without a geometry object, or a geometry that does not make
    polygons of positions (see geometry.position), is a DataError."""
    obj = _load_json(path, "land geometry")
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind == "FeatureCollection":
        features = obj.get("features", [])
        if not isinstance(features, list):
            raise DataError(f"land features in {path} are not a list")
        geoms = [f.get("geometry") if isinstance(f, dict) else None for f in features]
    elif kind == "Feature":
        geoms = [obj.get("geometry")]
    else:
        geoms = [obj]
    polys = []
    for k, geom in enumerate(geoms):
        try:
            polys.extend(geometry_from_geojson(geom).polygons)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"bad land geometry {k} in {path}: {exc}") from exc
    return MultiPolygon(tuple(polys))


def _report_skips(layer: str, noun: str, diags: ingest.ParseDiagnostics) -> None:
    if diags.skipped:
        print(f"{layer}: skipped {diags.skipped} {noun} ({dict(diags.reasons)})",
              file=sys.stderr)


def load_population(path):
    units, diags = ingest.parse_population(_load_json(path, "population"))
    _report_skips("population", "features", diags)
    return units


def _load_corpus(cfg: RunConfig):
    """Parse and locate the tweet corpus and keep the configured tag kind.
    Returns the funnel counts and the Corpus, the same for any number of
    CPUs (see ingest.read_corpus)."""
    if not cfg.tweets:
        raise ConfigError("--tweets is required for this command")
    diags, stats, corpus = ingest.read_corpus(cfg.tweets, cfg.study_rect())
    _report_skips("tweets", "malformed records", diags)
    if cfg.tag_kind != "both":
        corpus = corpus.take(corpus.place == (cfg.tag_kind == "place"))
    return stats, corpus


def load_records(cfg: RunConfig):
    """Parse, locate and filter the tweet corpus per the run config."""
    stats, corpus = _load_corpus(cfg)
    corpus, removed = ingest.filter_bots(corpus, cfg.bot_threshold)
    if removed:
        print(f"bot filter: removed {len(removed)} users", file=sys.stderr)
    if cfg.min_user_tweets > 1:
        corpus = ingest.filter_min_tweets(corpus, cfg.min_user_tweets)
    return stats, corpus


def _write_fits_csv(path, rows) -> None:
    write_csv(path, ["relation", "X", "n_points", "exponent", "exponent_stderr",
                     "log10_prefactor", "prefactor_stderr", "r_squared"],
              ([fit.relation, x, fit.n_points, fit.exponent, fit.exponent_stderr,
                fit.log10_prefactor, fit.prefactor_stderr, fit.r_squared]
               for x, fit in rows))


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_stats(cfg: RunConfig, out: Path) -> int:
    """The locate funnel of every parsed record; sources and replies of the
    records of the configured tag kind."""
    stats, corpus = _load_corpus(cfg)
    ranking = ingest.source_ranking(corpus, k=max(len(corpus.sources), 1))
    replies, quotes, either = ingest.reply_quote_counts(corpus)
    _write_json(out / "stats.json", dataclasses.asdict(stats) | {
        "per_source": {source: count for source, count, _ in ranking},
        "reply_count": replies, "quote_count": quotes,
        "reply_or_quote_count": either})
    write_csv(out / "sources.csv", ["rank", "source", "count", "proportion"],
              ((rank, *entry) for rank, entry in enumerate(ranking, 1)))
    frac_s = f"{either / len(corpus):.4f}" if corpus else "n/a"
    print(f"records={stats.total_records} located_geo={stats.located_geo} "
          f"located_place={stats.located_place} replies={replies} "
          f"quotes={quotes} reply_or_quote_fraction={frac_s}")
    return EXIT_OK


def _grid_inputs(cfg: RunConfig, xs, fitted: bool = True
                 ) -> tuple[list[GridSpec], MultiPolygon, list]:
    """Check the grid settings for each side in xs and that the largest
    grid fits in memory, the corpus filters and, for a command that fits,
    the fit thresholds, then load the land and population layers:
    everything that can fail before the corpus is read.  Returns the grid
    specs, the land and the population units."""
    if not cfg.land:
        raise ConfigError("--land is required for this command")
    if not xs:
        raise ConfigError("x_list must be non-empty")
    ingest.check_bot_threshold(cfg.bot_threshold)
    ingest.check_min_tweets(cfg.min_user_tweets)
    if fitted:
        scaling.check_fit_thresholds(cfg.fit_min_tweets, cfg.fit_min_population)
    specs = [GridSpec(cfg.study_rect(), x) for x in xs]
    check_grid_memory(max(xs))
    land = load_land(cfg.land)
    units = load_population(cfg.population) if cfg.population else []
    return specs, land, units


def _load_grid(cfg: RunConfig, fitted: bool = True):
    """Check the inputs, read the corpus and bin it with the layers on the
    X grid.  Returns the grid, the records, the land and the units."""
    [spec], land, units = _grid_inputs(cfg, [cfg.x], fitted)
    _, records = load_records(cfg)
    return run_grid_pipeline(spec, land, records, units), records, land, units


def cmd_grid(cfg: RunConfig, out: Path) -> int:
    grid = _load_grid(cfg, fitted=False)[0]
    grid_to_csv(grid, out / "grid.csv")
    print(f"grid X={cfg.x}: {int((grid.land_area > 0).sum())} land cells, "
          f"tweet mass {grid.n_t.sum():.3f}, user mass {grid.n_u.sum():.3f}, "
          f"population {grid.n_p.sum():.1f}")
    return EXIT_OK


def cmd_fit(cfg: RunConfig, out: Path) -> int:
    grid = _load_grid(cfg)[0]
    fits = scaling.fit_all(grid, cfg.fit_min_tweets, cfg.fit_min_population)
    _write_fits_csv(out / "fits.csv", [(cfg.x, fits[n]) for n in scaling.EXPONENTS])
    report = scaling.consistency(fits["alpha"], fits["beta"], fits["gamma"])
    _write_json(out / "consistency.json", {
        "delta": report.delta,
        "propagated_sigma": report.propagated_sigma,
        "z_score": report.z_score if math.isfinite(report.z_score)
        else str(report.z_score),
    })
    for name in scaling.EXPONENTS:
        f = fits[name]
        print(f"{name}: exponent={f.exponent:.6f} +- {f.exponent_stderr:.6f} "
              f"log10_prefactor={f.log10_prefactor:.6f} R2={f.r_squared:.6f} "
              f"n={f.n_points}")
    print(f"consistency: delta={report.delta:.6f} z={report.z_score:.4f}")
    return EXIT_OK


def cmd_scan(cfg: RunConfig, out: Path) -> int:
    specs, land, units = _grid_inputs(cfg, sorted(set(cfg.x_list)))
    _, records = load_records(cfg)
    scan = scaling.scan_resolutions(records, units, land, specs,
                                    cfg.fit_min_tweets, cfg.fit_min_population)
    _write_fits_csv(out / "fits.csv", [(x, scan.fits[x][name]) for x in scan.x_values
                                       if x in scan.fits for name in scaling.EXPONENTS])
    write_csv(out / "cell_areas.csv", ["X", "mean_cell_area_km2"],
              ((x, scan.mean_cell_area[x]) for x in scan.x_values))
    window = scaling.detect_window(scan)
    if window is None:
        _write_json(out / "window.json", {"found": False})
        print("no scaling window detected")
    else:
        _write_json(out / "window.json", {
            "found": True, "X_min": window.x_min, "X_max": window.x_max,
            "means": window.means,
        })
        print(f"scaling window: X={window.x_min}..{window.x_max} "
              + " ".join(f"{k}={v:.4f}" for k, v in sorted(window.means.items())))
    return EXIT_OK


def cmd_anomaly(cfg: RunConfig, out: Path) -> int:
    anomaly_mod.check_map_settings(cfg.abs_cap, cfg.rel_cap, cfg.mask_t_density,
                                   cfg.mask_p_density)
    grid = _load_grid(cfg)[0]
    made = {}
    cells = scaling.cell_indices(grid, cfg.fit_min_tweets, cfg.fit_min_population)
    for kind, exponent in (("tu", "gamma"), ("yp", "delta")):
        if cfg.kind in (kind, "both"):
            fit = scaling.fit_cells(grid, cells, (exponent,))[exponent]
            made[kind] = anomaly_mod.anomaly_map(grid, fit, cfg.abs_cap, cfg.rel_cap,
                                                 cfg.mask_t_density, cfg.mask_p_density)
    corr = ({which: anomaly_mod.anomaly_correlation(made["yp"], made["tu"], which)
             for which in ("abs", "rel")} if len(made) == 2 else {})
    for kind, amap in made.items():
        anomaly_mod.anomaly_to_csv(amap, out / f"anomaly_{kind}.csv")
        if cfg.geojson:
            anomaly_mod.anomaly_to_geojson(amap, out / f"anomaly_{kind}.geojson")
    for kind, amap in made.items():
        print(f"anomaly {kind}: {int((~amap.masked).sum())} unmasked cells")
    for which, c in corr.items():
        print(f"correlation ({which}): r={c.pearson_r:.4f} n={c.n}")
    if corr:
        _write_json(out / "correlation.json", {
            which: {"pearson_r": c.pearson_r, "n": c.n} for which, c in corr.items()})
    return EXIT_OK


def cmd_validate(cfg: RunConfig, out: Path) -> int:
    rcfg = validation.ResampleConfig(**{
        f.name: cfg.seed if f.name == "master_seed" else getattr(cfg, f.name)
        for f in dataclasses.fields(validation.ResampleConfig)})
    grid, records, land, units = _load_grid(cfg)
    reference = scaling.fit_all(grid, cfg.fit_min_tweets, cfg.fit_min_population)
    if cfg.mode == "subarea":
        dist = validation.subarea_resample(
            records, units, land, grid.spec, rcfg,
            cfg.fit_min_tweets, cfg.fit_min_population)
    else:
        dist = validation.subset_resample(
            grid, rcfg, cfg.fit_min_tweets, cfg.fit_min_population)
    validation.resample_to_csv(dist, out / "resample.csv")
    _write_json(out / "resample_summary.json",
                validation.resample_summary(dist, rcfg, reference))
    for name in scaling.EXPONENTS:
        ci = dist.ci68.get(name)
        ref = reference[name].exponent
        if ci:
            print(f"{name}: full={ref:.4f} ci68=[{ci[0]:.4f}, {ci[1]:.4f}]")
        else:
            print(f"{name}: full={ref:.4f} ci68 unavailable")
    print(f"dropped replicates: {dist.dropped}")
    return EXIT_OK


def cmd_synth(cfg: RunConfig, out: Path) -> int:
    scfg = synth.SynthConfig(**{
        f.name: cfg.study_rect() if f.name == "study" else getattr(cfg, f.name)
        for f in dataclasses.fields(synth.SynthConfig)})
    synth.check_bot_settings(cfg.bots, cfg.bot_fraction)
    try:
        fc, gt = synth.gen_population(scfg)
        n_records = synth.write_corpus(scfg, gt, out / "tweets.jsonl",
                                       cfg.bots, cfg.bot_fraction)
    except OverflowError as exc:   # a density or count too large for a float
        raise ConfigError(f"synth settings overflow: {exc}") from exc
    _write_json(out / "population.geojson", fc)
    _write_json(out / "land.geojson", synth.land_geojson(scfg.study))
    _write_json(out / "ground_truth.json", gt.to_dict())
    print(f"synth: {n_records} records, {gt.total_users} users, "
          f"population {int(gt.population.sum())}")
    return EXIT_OK


@contextlib.contextmanager
def _staged_out(path: str):
    """A new staging directory inside the directory ``path`` (made with its
    missing parents) for a command's files, each renamed onto its name in
    ``path`` when the command returns.  On any failure the staging directory
    and the directories made here are removed instead: ``path`` is left as
    it was found."""
    out = Path(path)
    made = [d for d in (out, *out.parents) if not d.exists()]
    stage = None
    try:
        out.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".geoscale-", dir=out))
        yield stage
        for f in stage.iterdir():
            f.replace(out / f.name)
        stage.rmdir()
    except BaseException:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geoscale", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="flat key = value config file")
        for key in keys:
            _add_flag(p, key)
    return parser


def _add_flag(parser: argparse.ArgumentParser, key: str) -> None:
    """--key-with-dashes, taking the same text as the config-file key."""
    flag, default = "--" + key.replace("_", "-"), _DEFAULTS[key]
    if isinstance(default, bool):
        parser.add_argument(flag, action="store_const", const=True)
        return
    coerce = functools.partial(_coerce, key)
    coerce.__name__ = type(default).__name__   # named in argparse's errors
    text = (",".join(map(str, default)) if isinstance(default, tuple)
            else str(default))
    words = _CHOICES.get(key)
    parser.add_argument(flag, type=coerce,
                        metavar="{%s}" % ",".join(words) if words else None,
                        help=f"default: {text}" if text else None)


# the settings the commands read, in groups
_CORPUS = ("tweets", "study", "tag_kind", "out")
_FILTERS = ("bot_threshold", "min_user_tweets")
_LAYERS = ("land", "population")
_THRESHOLDS = ("fit_min_tweets", "fit_min_population")
_BINNED = _CORPUS + _FILTERS + _LAYERS
_FITTED = _BINNED + ("x",) + _THRESHOLDS
# each command's function and the exact settings it reads: its flags
_COMMANDS = {
    "stats": (cmd_stats, _CORPUS),
    "grid": (cmd_grid, _BINNED + ("x",)),
    "fit": (cmd_fit, _FITTED),
    "scan": (cmd_scan, _BINNED + ("x_list",) + _THRESHOLDS),
    "anomaly": (cmd_anomaly, _FITTED + ("kind", "abs_cap", "rel_cap", "mask_t_density",
                                        "mask_p_density", "geojson")),
    "validate": (cmd_validate, _FITTED + ("mode", "replicates", "area_fraction",
                                          "subset_fraction", "seed")),
    "synth": (cmd_synth, ("out",) + tuple(f.name for f in dataclasses.fields(
        synth.SynthConfig)) + ("bots", "bot_fraction")),
}


def main(argv=None) -> int:
    """Run the command in argv, or in sys.argv when argv is None.  Only the
    program's own process passes None (``python -m geoscale.cli`` and the
    ``geoscale`` script).  It freezes the heap it has imported, so that the
    collector never scans it again (at exit neither) and forked workers
    share its pages, and it lets independent work split over its CPUs
    (workers.allow_forking).  A caller that passes argv keeps its collector
    as it is and all of the work in its own process."""
    if argv is None:
        gc.freeze()
        workers.allow_forking()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        cfg = resolve_config(args)
        with _staged_out(cfg.out) as out:
            return _COMMANDS[args.command][0](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:   # a grid side, say, too large for this host
        print(f"config error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_CONFIG
    except ChildProcessError as exc:   # a worker killed, most often for memory
        print(f"config error: {exc}; `taskset -c 0` runs the command in one "
              "process", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
