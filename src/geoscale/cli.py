"""Command-line pipeline: stats | grid | fit | scan | anomaly | validate | synth.

Settings resolve as defaults < config file < command-line flags.  The config
file is flat ``key = value`` text using the same names as the long flags
(with underscores).  All randomness flows from --seed; reruns with identical
inputs and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import anomaly as anomaly_mod
from . import ingest, scaling, synth, validation
from .errors import (
    ConfigError,
    DataError,
    DegenerateFitError,
    InsufficientDataError,
    UnavailableError,
)
from .geometry import LonLatRect, MultiPolygon, geometry_from_geojson
from .gridding import GridSpec, grid_to_csv, run_grid_pipeline

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INSUFFICIENT = 3

DEFAULT_STUDY = (-5.8, 49.9, -1.2, 52.2)


@dataclass
class RunConfig:
    tweets: str = ""
    population: str = ""
    land: str = ""
    out: str = "."
    study: tuple = DEFAULT_STUDY
    x: int = 40
    x_list: tuple = scaling.DEFAULT_X_LIST
    tag_kind: str = "place"          # geo | place | both
    bot_threshold: float = 0.01
    min_user_tweets: int = 10
    fit_min_tweets: float = 1.0
    fit_min_population: float = 1.0
    abs_cap: float = 1000.0
    rel_cap: float = 2.0
    mask_t_density: float = 1.0
    mask_p_density: float = 1.0
    kind: str = "tu"                 # tu | yp | both
    mode: str = "subarea"
    replicates: int = 1000
    area_fraction: float = 0.25
    subset_fraction: float = 0.05
    seed: int = 0
    geojson: bool = False
    # synth knobs
    x_gen: int = 40
    beta_true: float = 1.2
    gamma_true: float = 1.35
    b_true: float = 1.0
    c_true: float = 1.0
    noise_dex: float = 0.1
    pop_log10_mean: float = 1.5
    pop_log10_sigma: float = 0.8
    emit_boxes_fraction: float = 0.0
    commuter_fraction: float = 0.0
    bots: int = 0
    bot_fraction: float = 0.02

    def study_rect(self) -> LonLatRect:
        lo_lon, lo_lat, hi_lon, hi_lat = self.study
        try:
            return LonLatRect(lo_lon, lo_lat, hi_lon, hi_lat)
        except ValueError as exc:
            raise ConfigError(f"bad study rect {self.study}: {exc}") from exc


_TUPLE_FIELDS = {"study", "x_list"}
_INT_FIELDS = {"x", "min_user_tweets", "replicates", "seed", "x_gen", "bots"}
_FLOAT_FIELDS = {"bot_threshold", "fit_min_tweets", "fit_min_population",
                 "abs_cap", "rel_cap", "mask_t_density", "mask_p_density",
                 "area_fraction", "subset_fraction",
                 "beta_true", "gamma_true", "b_true", "c_true", "noise_dex",
                 "pop_log10_mean", "pop_log10_sigma", "emit_boxes_fraction",
                 "commuter_fraction", "bot_fraction"}
_BOOL_FIELDS = {"geojson"}


def _coerce(key: str, value: str):
    if key in _TUPLE_FIELDS:
        return tuple(float(v) if key == "study" else int(v)
                     for v in value.replace(",", " ").split())
    if key in _INT_FIELDS:
        return int(value)
    if key in _FLOAT_FIELDS:
        return float(value)
    if key in _BOOL_FIELDS:
        return value.strip().lower() in ("1", "true", "yes")
    return value


def load_config_file(path) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    values = {}
    known = {f.name for f in dataclasses.fields(RunConfig)}
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
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _coerce(key, value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in dataclasses.fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            setattr(cfg, f.name, flag_value)
    if cfg.tag_kind not in ("geo", "place", "both"):
        raise ConfigError(f"bad tag_kind: {cfg.tag_kind!r}")
    if cfg.kind not in ("tu", "yp", "both"):
        raise ConfigError(f"bad anomaly kind: {cfg.kind!r}")
    if len(cfg.study) != 4:
        raise ConfigError("study must be min_lon,min_lat,max_lon,max_lat")
    return cfg


def _load_json(path, what: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read {what} from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON in {what} file {path}: {exc}") from exc


def load_land(path) -> MultiPolygon:
    obj = _load_json(path, "land geometry")
    if obj.get("type") == "FeatureCollection":
        polys = []
        for feat in obj.get("features", []):
            polys.extend(geometry_from_geojson(feat["geometry"]).polygons)
        return MultiPolygon(tuple(polys))
    if obj.get("type") == "Feature":
        return geometry_from_geojson(obj["geometry"])
    return geometry_from_geojson(obj)


def load_population(path):
    units, diags = ingest.parse_population(_load_json(path, "population"))
    if diags.skipped:
        print(f"population: skipped {diags.skipped} features "
              f"({dict(diags.reasons)})", file=sys.stderr)
    return units


def load_records(cfg: RunConfig):
    """Parse, locate and filter the tweet corpus per the run config.

    The file is parsed and located in one streamed pass that keeps only
    the located records.
    """
    if not cfg.tweets:
        raise ConfigError("--tweets is required for this command")
    diags = ingest.ParseDiagnostics()
    stats, located = ingest.corpus_stats(ingest.iter_tweets(cfg.tweets, diags),
                                         cfg.study_rect())
    if diags.skipped:
        print(f"tweets: skipped {diags.skipped} malformed records",
              file=sys.stderr)
    if cfg.tag_kind != "both":
        located = [r for r in located if r.tag_kind == cfg.tag_kind]
    located, removed = ingest.filter_bots(located, cfg.bot_threshold)
    if removed:
        print(f"bot filter: removed {len(removed)} users", file=sys.stderr)
    if cfg.min_user_tweets > 1:
        located = ingest.filter_min_tweets(located, cfg.min_user_tweets)
    return stats, located


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_fits_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["relation", "X", "n_points", "exponent", "exponent_stderr",
                    "log10_prefactor", "prefactor_stderr", "r_squared"])
        for x, fit in rows:
            w.writerow([fit.relation, x, fit.n_points, repr(fit.exponent),
                        repr(fit.exponent_stderr), repr(fit.log10_prefactor),
                        repr(fit.prefactor_stderr), repr(fit.r_squared)])


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_stats(cfg: RunConfig) -> int:
    if not cfg.tweets:
        raise ConfigError("--tweets is required")
    stats, located = ingest.corpus_stats(
        ingest.iter_tweets(cfg.tweets, ingest.ParseDiagnostics()),
        cfg.study_rect())
    if cfg.tag_kind != "both":
        located = [r for r in located if r.tag_kind == cfg.tag_kind]
    out = _outdir(cfg)
    _write_json(out / "stats.json", stats.to_dict())
    ranking = ingest.source_ranking(located, k=max(len(stats.per_source), 1)) \
        if located else []
    with open(out / "sources.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rank", "source", "count", "proportion"])
        for rank, (source, count, prop) in enumerate(ranking, 1):
            w.writerow([rank, source, count, repr(prop)])
    replies, quotes, frac = ingest.reply_quote_stats(located)
    frac_s = "n/a" if frac is None else f"{frac:.4f}"
    print(f"records={stats.total_records} located_geo={stats.located_geo} "
          f"located_place={stats.located_place} replies={replies} "
          f"quotes={quotes} reply_or_quote_fraction={frac_s}")
    return EXIT_OK


def _build_grid(cfg: RunConfig, records, units):
    land = load_land(cfg.land) if cfg.land else None
    if land is None:
        raise ConfigError("--land is required for this command")
    spec = GridSpec(cfg.study_rect(), cfg.x)
    return run_grid_pipeline(spec, land, records, units)


def cmd_grid(cfg: RunConfig) -> int:
    _, records = load_records(cfg)
    units = load_population(cfg.population) if cfg.population else []
    grid = _build_grid(cfg, records, units)
    out = _outdir(cfg)
    grid_to_csv(grid, out / "grid.csv")
    print(f"grid X={cfg.x}: {int((grid.land_area > 0).sum())} land cells, "
          f"tweet mass {grid.n_t.sum():.3f}, user mass {grid.n_u.sum():.3f}, "
          f"population {grid.n_p.sum():.1f}")
    return EXIT_OK


def cmd_fit(cfg: RunConfig) -> int:
    _, records = load_records(cfg)
    units = load_population(cfg.population) if cfg.population else []
    grid = _build_grid(cfg, records, units)
    fits = scaling.fit_all(grid, cfg.fit_min_tweets, cfg.fit_min_population)
    out = _outdir(cfg)
    _write_fits_csv(out / "fits.csv", [(cfg.x, fits[n]) for n in ("alpha", "beta", "gamma")])
    report = scaling.consistency(fits["alpha"], fits["beta"], fits["gamma"])
    import math as _math
    _write_json(out / "consistency.json", {
        "delta": report.delta,
        "propagated_sigma": report.propagated_sigma,
        "z_score": report.z_score if _math.isfinite(report.z_score)
        else str(report.z_score),
    })
    for name in ("alpha", "beta", "gamma"):
        f = fits[name]
        print(f"{name}: exponent={f.exponent:.6f} +- {f.exponent_stderr:.6f} "
              f"log10_prefactor={f.log10_prefactor:.6f} R2={f.r_squared:.6f} "
              f"n={f.n_points}")
    print(f"consistency: delta={report.delta:.6f} z={report.z_score:.4f}")
    return EXIT_OK


def cmd_scan(cfg: RunConfig) -> int:
    _, records = load_records(cfg)
    units = load_population(cfg.population) if cfg.population else []
    land = load_land(cfg.land)
    scan = scaling.scan_resolutions(
        records, units, land, cfg.x_list, study=cfg.study_rect(),
        min_tweets=cfg.fit_min_tweets, min_population=cfg.fit_min_population)
    out = _outdir(cfg)
    rows = []
    for x in scan.x_values:
        if x in scan.fits:
            for name in ("alpha", "beta", "gamma"):
                rows.append((x, scan.fits[x][name]))
    _write_fits_csv(out / "fits.csv", rows)
    with open(out / "cell_areas.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["X", "mean_cell_area_km2"])
        for x in scan.x_values:
            w.writerow([x, repr(scan.mean_cell_area[x])])
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


def cmd_anomaly(cfg: RunConfig) -> int:
    _, records = load_records(cfg)
    units = load_population(cfg.population) if cfg.population else []
    grid = _build_grid(cfg, records, units)
    out = _outdir(cfg)
    made = {}
    if cfg.kind in ("tu", "both"):
        gamma = scaling.fit_all(grid, cfg.fit_min_tweets,
                                cfg.fit_min_population)["gamma"]
        amap = anomaly_mod.anomaly_map(
            grid, gamma, "TU", cfg.abs_cap, cfg.rel_cap,
            cfg.mask_t_density, cfg.mask_p_density)
        anomaly_mod.anomaly_to_csv(amap, out / "anomaly_tu.csv")
        if cfg.geojson:
            _write_json(out / "anomaly_tu.geojson",
                        anomaly_mod.anomaly_to_geojson(amap))
        made["tu"] = amap
    if cfg.kind in ("yp", "both"):
        delta = anomaly_mod.youth_fit(grid, cfg.fit_min_tweets,
                                      cfg.fit_min_population)
        amap = anomaly_mod.anomaly_map(
            grid, delta, "YP", cfg.abs_cap, cfg.rel_cap,
            cfg.mask_t_density, cfg.mask_p_density)
        anomaly_mod.anomaly_to_csv(amap, out / "anomaly_yp.csv")
        if cfg.geojson:
            _write_json(out / "anomaly_yp.geojson",
                        anomaly_mod.anomaly_to_geojson(amap))
        made["yp"] = amap
    for kind, amap in made.items():
        print(f"anomaly {kind}: {int((~amap.masked).sum())} unmasked cells")
    if len(made) == 2:
        corr = {}
        for which in ("abs", "rel"):
            c = anomaly_mod.anomaly_correlation(made["yp"], made["tu"], which)
            corr[which] = {"pearson_r": c.pearson_r, "n": c.n}
            print(f"correlation ({which}): r={c.pearson_r:.4f} n={c.n}")
        _write_json(out / "correlation.json", corr)
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    _, records = load_records(cfg)
    units = load_population(cfg.population) if cfg.population else []
    land = load_land(cfg.land)
    rcfg = validation.ResampleConfig(
        mode=cfg.mode, replicates=cfg.replicates,
        area_fraction=cfg.area_fraction, subset_fraction=cfg.subset_fraction,
        master_seed=cfg.seed)
    spec = GridSpec(cfg.study_rect(), cfg.x)
    grid = run_grid_pipeline(spec, land, records, units)
    reference = scaling.fit_all(grid, cfg.fit_min_tweets, cfg.fit_min_population)
    if cfg.mode == "subarea":
        dist = validation.subarea_resample(
            records, units, land, cfg.study_rect(), cfg.x, rcfg,
            cfg.fit_min_tweets, cfg.fit_min_population)
    else:
        dist = validation.subset_resample(
            grid, rcfg, cfg.fit_min_tweets, cfg.fit_min_population)
    out = _outdir(cfg)
    validation.resample_to_csv(dist, out / "resample.csv")
    _write_json(out / "resample_summary.json",
                validation.resample_summary(dist, rcfg, reference))
    for name in validation.EXPONENTS:
        ci = dist.ci68.get(name)
        ref = reference[name].exponent
        if ci:
            print(f"{name}: full={ref:.4f} ci68=[{ci[0]:.4f}, {ci[1]:.4f}]")
        else:
            print(f"{name}: full={ref:.4f} ci68 unavailable")
    print(f"dropped replicates: {dist.dropped}")
    return EXIT_OK


def cmd_synth(cfg: RunConfig) -> int:
    scfg = synth.SynthConfig(
        study=cfg.study_rect(), x_gen=cfg.x_gen, beta_true=cfg.beta_true,
        gamma_true=cfg.gamma_true, b_true=cfg.b_true, c_true=cfg.c_true,
        noise_dex=cfg.noise_dex, pop_log10_mean=cfg.pop_log10_mean,
        pop_log10_sigma=cfg.pop_log10_sigma, seed=cfg.seed,
        emit_boxes_fraction=cfg.emit_boxes_fraction,
        commuter_fraction=cfg.commuter_fraction)
    fc, gt = synth.gen_population(scfg)
    out = _outdir(cfg)
    n_records = synth.write_corpus(scfg, gt, out / "tweets.jsonl",
                                   cfg.bots, cfg.bot_fraction)
    _write_json(out / "population.geojson", fc)
    _write_json(out / "land.geojson", synth.land_geojson(scfg.study))
    _write_json(out / "ground_truth.json", gt.to_dict())
    print(f"synth: {n_records} records, {gt.total_users} users, "
          f"population {int(gt.population.sum())}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--tweets", help="newline-delimited JSON tweet file")
    common.add_argument("--population", help="population GeoJSON file")
    common.add_argument("--land", help="land geometry GeoJSON file")
    common.add_argument("--out", help="output directory (default .)")
    common.add_argument("--x", type=int, help="grid side count")
    common.add_argument("--x-list", dest="x_list",
                        type=lambda s: tuple(int(v) for v in s.split(",")),
                        help="comma-separated grid sides for scans")
    common.add_argument("--study", type=lambda s: tuple(float(v) for v in s.split(",")),
                        help="min_lon,min_lat,max_lon,max_lat")
    common.add_argument("--tag-kind", dest="tag_kind", choices=["geo", "place", "both"])
    common.add_argument("--bot-threshold", dest="bot_threshold", type=float)
    common.add_argument("--min-user-tweets", dest="min_user_tweets", type=int)
    common.add_argument("--fit-min-tweets", dest="fit_min_tweets", type=float)
    common.add_argument("--fit-min-population", dest="fit_min_population", type=float)
    common.add_argument("--seed", type=int)

    parser = _Parser(prog="geoscale", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", parents=[common])
    sub.add_parser("grid", parents=[common])
    sub.add_parser("fit", parents=[common])
    sub.add_parser("scan", parents=[common])

    p_anom = sub.add_parser("anomaly", parents=[common])
    p_anom.add_argument("--kind", choices=["tu", "yp", "both"])
    p_anom.add_argument("--abs-cap", dest="abs_cap", type=float)
    p_anom.add_argument("--rel-cap", dest="rel_cap", type=float)
    p_anom.add_argument("--mask-t-density", dest="mask_t_density", type=float)
    p_anom.add_argument("--mask-p-density", dest="mask_p_density", type=float)
    p_anom.add_argument("--geojson", action="store_const", const=True, default=None)

    p_val = sub.add_parser("validate", parents=[common])
    p_val.add_argument("--mode", choices=["subarea", "subset", "subset_nonadjacent"])
    p_val.add_argument("--replicates", type=int)
    p_val.add_argument("--area-fraction", dest="area_fraction", type=float)
    p_val.add_argument("--subset-fraction", dest="subset_fraction", type=float)

    p_syn = sub.add_parser("synth", parents=[common])
    p_syn.add_argument("--x-gen", dest="x_gen", type=int)
    p_syn.add_argument("--beta-true", dest="beta_true", type=float)
    p_syn.add_argument("--gamma-true", dest="gamma_true", type=float)
    p_syn.add_argument("--b-true", dest="b_true", type=float)
    p_syn.add_argument("--c-true", dest="c_true", type=float)
    p_syn.add_argument("--noise-dex", dest="noise_dex", type=float)
    p_syn.add_argument("--pop-log10-mean", dest="pop_log10_mean", type=float)
    p_syn.add_argument("--pop-log10-sigma", dest="pop_log10_sigma", type=float)
    p_syn.add_argument("--emit-boxes-fraction", dest="emit_boxes_fraction", type=float)
    p_syn.add_argument("--commuter-fraction", dest="commuter_fraction", type=float)
    p_syn.add_argument("--bots", type=int)
    p_syn.add_argument("--bot-fraction", dest="bot_fraction", type=float)

    return parser


_COMMANDS = {
    "stats": cmd_stats,
    "grid": cmd_grid,
    "fit": cmd_fit,
    "scan": cmd_scan,
    "anomaly": cmd_anomaly,
    "validate": cmd_validate,
    "synth": cmd_synth,
}


@contextlib.contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector for the length of one command.

    A command holds hundreds of thousands of acyclic objects (located
    records, per-user groups) that reference counting frees; the
    collector's repeated passes over them find nothing and cost a sixth of
    a fit of the criterion-1 corpus.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        cfg = resolve_config(args)
        with _cyclic_gc_paused():
            return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (InsufficientDataError, DegenerateFitError, UnavailableError) as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT


if __name__ == "__main__":
    sys.exit(main())
