import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from geoscale import cli
from geoscale.cli import RunConfig, build_parser, load_config_file, main, resolve_config
from geoscale.errors import ConfigError, DataError, GeoscaleError, InsufficientDataError
from geoscale.geometry import LonLatRect
from geoscale.gridding import GridSpec, grid_to_csv, run_grid_pipeline
from geoscale.ingest import corpus_stats, filter_min_tweets, parse_tweets
from geoscale.synth import (
    SynthConfig,
    gen_activity,
    gen_bots,
    gen_population,
    write_jsonl,
)

SMALL_SYNTH = [
    "synth", "--study=-3.0,50.0,-2.0,51.0", "--x-gen", "6",
    "--b-true", "0.05", "--c-true", "2.0", "--pop-log10-mean", "1.0",
    "--pop-log10-sigma", "0.5", "--seed", "7",
]


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Small synthetic corpus shared by the pipeline command tests."""
    out = tmp_path_factory.mktemp("corpus")
    assert main(SMALL_SYNTH + ["--out", str(out)]) == 0
    return out


def run_cmd(corpus, out, command, *extra):
    args = [command, "--tweets", str(corpus / "tweets.jsonl"),
            "--study=-3.0,50.0,-2.0,51.0", "--out", str(out), *extra]
    if command != "stats":      # stats reads no layers and no filters
        args += ["--population", str(corpus / "population.geojson"),
                 "--land", str(corpus / "land.geojson"),
                 "--min-user-tweets", "1"]
    return main(args)


class TestConfigFile:
    def test_parse_and_coercion(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("x = 32          # grid side\n"
                     "bot_threshold = 0.02\n"
                     "study = -3.0, 50.0, -2.0, 51.0\n"
                     "tag-kind = both\n")
        values = load_config_file(p)
        assert values["x"] == 32
        assert values["bot_threshold"] == 0.02
        assert values["study"] == (-3.0, 50.0, -2.0, 51.0)
        assert values["tag_kind"] == "both"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("xx = 1\n")
        from geoscale.errors import ConfigError
        with pytest.raises(ConfigError):
            load_config_file(p)

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("x = 32\nseed = 5\n")
        parser_args = type("A", (), {"config": str(p), "x": 64})()
        cfg = resolve_config(parser_args)
        assert cfg.x == 64       # flag wins
        assert cfg.seed == 5     # file beats default

    def test_boolean_takes_only_its_words(self, tmp_path, capsys):
        p = tmp_path / "run.conf"
        for word, value in [("1", True), ("TRUE", True), ("yes", True),
                            ("0", False), ("false", False), ("No", False)]:
            p.write_text(f"x = 8\ngeojson = {word}\n")
            assert load_config_file(p)["geojson"] is value
        p.write_text("x = 8\ngeojson = ture\n")
        assert main(["anomaly", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {p}:2: bad value for geojson: 'ture'")

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert main(["stats", "--config", str(tmp_path / "nope.conf"),
                     "--tweets", "x"]) == 1


# each command's flags besides --config: exactly the settings it reads
CORPUS_FLAGS = ["--tweets", "--study", "--tag-kind", "--out"]
BINNED_FLAGS = CORPUS_FLAGS + ["--bot-threshold", "--min-user-tweets", "--land",
                               "--population"]
FIT_FLAGS = BINNED_FLAGS + ["--x", "--fit-min-tweets", "--fit-min-population"]
FLAGS = {
    "stats": CORPUS_FLAGS,
    "grid": BINNED_FLAGS + ["--x"],
    "fit": FIT_FLAGS,
    "scan": BINNED_FLAGS + ["--x-list", "--fit-min-tweets", "--fit-min-population"],
    "anomaly": FIT_FLAGS + ["--kind", "--abs-cap", "--rel-cap", "--mask-t-density",
                            "--mask-p-density", "--geojson"],
    "validate": FIT_FLAGS + ["--mode", "--replicates", "--area-fraction",
                             "--subset-fraction", "--seed"],
    "synth": ["--out", "--study", "--seed", "--x-gen", "--beta-true", "--gamma-true",
              "--b-true", "--c-true", "--noise-dex", "--pop-log10-mean",
              "--pop-log10-sigma", "--emit-boxes-fraction", "--commuter-fraction",
              "--bots", "--bot-fraction"],
}
SETTINGS = {f.name for f in dataclasses.fields(RunConfig)}
CHOICES = {"tag_kind": ["geo", "place", "both"], "kind": ["tu", "yp", "both"],
           "mode": ["subarea", "subset", "subset_nonadjacent"]}
# text for a setting, by name or else by the type of its default
TEXTS = {"study": "-3.0 50.0 -2.0 51.0", "x_list": "8 16 24", "tag_kind": "both",
         "kind": "yp", "mode": "subset_nonadjacent", "geojson": "true",
         str: "some/path", int: "3", float: "0.5"}


class TestSettings:
    """Each setting is a RunConfig field; its flag and its config-file key
    are derived from it and take the same text."""

    def test_flags_of_each_command(self, capsys):
        assert sum(map(len, FLAGS.values())) == 83
        for command, flags in FLAGS.items():
            assert main([command, "--help"]) == 0
            out = capsys.readouterr().out
            assert set(re.findall(r"--[a-z0-9-]+", out)) == {
                "--help", "--config", *flags}
            for key, words in CHOICES.items():
                if "--" + key.replace("_", "-") in flags:
                    assert "{%s}" % ",".join(words) in out

    def test_flags_cover_every_setting(self):
        flags = set().union(*FLAGS.values())
        assert {f[2:].replace("-", "_") for f in flags} == SETTINGS

    def test_flag_and_config_line_resolve_alike(self, tmp_path):
        for f in dataclasses.fields(RunConfig):
            flag = "--" + f.name.replace("_", "-")
            command = next(c for c, flags in FLAGS.items() if flag in flags)
            text = TEXTS.get(f.name) or TEXTS[type(f.default)]
            conf = tmp_path / f"{f.name}.conf"
            conf.write_text(f"{f.name} = {text}\n")
            argv = [flag] if f.name == "geojson" else [f"{flag}={text}"]
            by_flag = resolve_config(build_parser().parse_args([command, *argv]))
            by_file = resolve_config(build_parser().parse_args(
                [command, "--config", str(conf)]))
            value = getattr(by_flag, f.name)
            assert value == getattr(by_file, f.name), f.name
            assert value != f.default, f.name

    def test_lists_take_commas_or_spaces(self):
        for text in ("8,16,24", "8 16 24", "8, 16, 24"):
            cfg = resolve_config(build_parser().parse_args(
                ["scan", "--x-list", text, "--study=-3 50 -2 51"]))
            assert cfg.x_list == (8, 16, 24)
            assert cfg.study == (-3.0, 50.0, -2.0, 51.0)

    @pytest.mark.parametrize("argv, conf", [
        (["fit", "--tag-kind", "bogus"], None),
        (["stats"], "tag_kind = bogus\n"),
        (["validate", "--mode", "bogus"], None),
        (["anomaly"], "kind = bogus\n"),
    ])
    def test_unknown_word_is_a_config_error(self, tmp_path, capsys, argv, conf):
        if conf is not None:
            (tmp_path / "run.conf").write_text(conf)
            argv = argv + ["--config", str(tmp_path / "run.conf")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("config error: bad ")

    @pytest.mark.parametrize("command, extra", [
        ("stats", []),
        ("grid", ["--x", "6"]),
        ("fit", ["--x", "6"]),
        ("scan", ["--x-list", "3,6"]),
        ("anomaly", ["--x", "6", "--kind", "both", "--geojson"]),
        ("validate", ["--x", "6", "--mode", "subset", "--subset-fraction", "0.3",
                      "--replicates", "5"]),
        ("validate", ["--x", "6", "--mode", "subarea", "--replicates", "2"]),
        ("synth", []),
    ], ids=["stats", "grid", "fit", "scan", "anomaly", "validate_subset",
            "validate_subarea", "synth"])
    def test_every_flag_a_command_takes_is_read(self, tmp_path, corpus, capsys,
                                                 monkeypatch, command, extra):
        """The settings a command's parser takes are those its run reads, as
        recorded by a RunConfig that stands in for the resolved one; and
        every value in a numeric column of the CSVs it writes parses."""
        assert main([command, "--help"]) == 0
        flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        takes = {f[2:].replace("-", "_") for f in flags - {"--help", "--config"}}
        reads = set()

        class Recording(RunConfig):
            def __getattribute__(self, name):
                if name in SETTINGS:
                    reads.add(name)
                return super().__getattribute__(name)

        resolve = cli.resolve_config
        monkeypatch.setattr(cli, "resolve_config", lambda args: Recording(
            **dataclasses.asdict(resolve(args))))
        if command == "synth":
            assert main(SMALL_SYNTH + ["--out", str(tmp_path)]) == 0
        else:
            assert run_cmd(corpus, tmp_path, command, *extra) == 0
        assert reads == takes
        for path in tmp_path.iterdir():
            assert "np." not in path.read_text(), path.name
            if path.suffix == ".csv":
                for row in csv.DictReader(path.open()):
                    for column, value in row.items():
                        if value and column not in ("relation", "source"):
                            float(value)

    def test_bad_number_names_its_flag(self, capsys):
        assert main(["fit", "--x", "3.5"]) == 1
        assert "argument --x: invalid int value: '3.5'" in capsys.readouterr().err


def _layer_text(population="5", depth=0):
    """A one-feature layer whose ring sits ``depth`` arrays deeper than a
    polygon's."""
    ring = "[[-3,50],[-2,50],[-2,51],[-3,51]]"
    return ('{"type":"FeatureCollection","features":[{"type":"Feature",'
            f'"properties":{{"population":{population}}},"geometry":{{"type":"Polygon",'
            f'"coordinates":{"[" * depth}[{ring}]{"]" * depth}}}}}]}}')


class TestExitCodes:
    def test_each_error_class_has_one_exit_code(self, monkeypatch, capsys):
        table = {ConfigError: (1, "config error: "), DataError: (2, "data error: "),
                 InsufficientDataError: (3, "insufficient data: ")}
        assert set(GeoscaleError.__subclasses__()) == set(table)
        assert all(cls.__subclasses__() == [] for cls in table)
        for cls, (code, prefix) in table.items():
            def fail(cfg):
                raise cls("the reason")
            monkeypatch.setitem(cli._COMMANDS, "stats", (fail, cli._CORPUS))
            assert main(["stats"]) == code
            assert capsys.readouterr().err == prefix + "the reason\n"

    def test_unknown_flag(self):
        assert main(["fit", "--bogus"]) == 1

    def test_missing_required_input(self, tmp_path):
        assert main(["fit", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command", ["stats", "fit"])
    @pytest.mark.parametrize("name, error", [
        ("missing.jsonl", "[Errno 2] No such file or directory"),
        ("a_directory", "[Errno 21] Is a directory")])
    def test_unreadable_tweets_file(self, tmp_path, corpus, capsys, command, name,
                                    error):
        """A tweets path that cannot be opened as a file is one data error
        line, exit 2 and no --out."""
        (tmp_path / "a_directory").mkdir()
        tweets, out = tmp_path / name, tmp_path / "out"
        layers = ["--population", str(corpus / "population.geojson"),
                  "--land", str(corpus / "land.geojson")] if command == "fit" else []
        assert main([command, "--tweets", str(tweets), "--out", str(out), *layers]) == 2
        assert capsys.readouterr().err == (
            f"data error: cannot read tweets from {tweets}: {error}: '{tweets}'\n")
        assert not out.exists()

    def test_tweets_line_not_utf8_is_a_counted_skip(self, tmp_path, corpus, capsys):
        first, second = (corpus / "tweets.jsonl").read_bytes().splitlines(True)[:2]
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_bytes(first.replace(b'"source":"', b'"source":"\xff') + second)
        assert main(["stats", "--tweets", str(tweets), "--out", str(tmp_path)]) == 0
        assert "tweets: skipped 1 malformed records" in capsys.readouterr().err
        assert json.loads((tmp_path / "stats.json").read_text())["total_records"] == 1

    def test_insufficient_data(self, tmp_path, corpus):
        tiny = tmp_path / "tiny.jsonl"
        with open(corpus / "tweets.jsonl") as fh:
            lines = [next(fh) for _ in range(2)]
        tiny.write_text("".join(lines))
        code = main(["fit", "--tweets", str(tiny),
                     "--population", str(corpus / "population.geojson"),
                     "--land", str(corpus / "land.geojson"),
                     "--study=-3.0,50.0,-2.0,51.0",
                     "--min-user-tweets", "1", "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("command, extra", [
        ("synth", ["--bots", "1", "--bot-fraction", "0"]),
        ("synth", ["--bots", "1", "--bot-fraction", "nan"]),
        ("synth", ["--bots", "-2"]),
        ("synth", ["--beta-true", "0"]),
        ("synth", ["--beta-true", "nan"]),
        ("synth", ["--pop-log10-mean", "inf"]),
        ("synth", ["--pop-log10-sigma", "-1"]),
        ("synth", ["--emit-boxes-fraction", "2"]),
        ("fit", ["--x", "0"]),
        ("fit", ["--bot-threshold", "0"]),
        ("fit", ["--study=1,2,0,3"]),
        ("validate", ["--replicates", "0"]),
        ("validate", ["--area-fraction", "0"]),
        ("fit", ["--fit-min-tweets", "nan"]),
        ("fit", ["--fit-min-population", "nan"]),
        ("scan", ["--x-list", "3,6", "--fit-min-tweets", "nan"]),
        ("anomaly", ["--fit-min-population", "nan"]),
        ("validate", ["--fit-min-tweets", "nan"]),
    ])
    def test_invalid_setting_is_a_config_error(self, tmp_path, corpus, capsys,
                                               command, extra):
        out = tmp_path / "out"
        if command == "synth":
            code = main(SMALL_SYNTH + ["--out", str(out), *extra])
        else:
            code = run_cmd(corpus, out, command, *extra)
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("grid", ["--study=-inf,-inf,inf,inf"]),
        ("grid", ["--study=nan,50,-2,51"]),
        ("grid", ["--study=-3,50,-2,inf"]),
        ("synth", ["--x-gen", "-2"]),
        ("synth", ["--x-gen", "0"]),
        ("synth", ["--study=-3,50,-3,51"]),
        ("synth", ["--study=-3,50,inf,51"]),
        ("grid", ["--study=-3,50,-2,130"]),
        ("grid", ["--study=-3,-91,-2,51"]),
        ("synth", ["--study=-3,80,-2,120"]),
        ("stats", ["--study=nan,50,-2,51"]),
        ("stats", ["--study=-3,50,-2,nan"]),
        ("stats", ["--study=-3,50,-2"]),
        ("grid", ["--study=-3,50,-2,51,0"]),
        ("synth", ["--study=-3,50,-2"]),
        ("grid", ["--study=170,50,190,51"]),
        ("synth", ["--study=170,50,190,51"]),
    ])
    def test_non_finite_study_or_bad_generation_grid_is_a_config_error(
            self, tmp_path, corpus, capsys, command, extra):
        if command == "synth":
            code = main(SMALL_SYNTH + ["--out", str(tmp_path), *extra])
        else:
            x = ["--x", "4"] if command == "grid" else []
            code = run_cmd(corpus, tmp_path, command, *x, *extra)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, extra", [
        ("fit", ["--x", "0"]),
        ("fit", ["--bot-threshold", "0"]),
        ("validate", ["--replicates", "0"]),
        ("anomaly", ["--abs-cap", "-5", "--rel-cap", "nan"]),
        ("anomaly", ["--rel-cap", "0"]),
        ("anomaly", ["--mask-t-density", "-1"]),
        ("anomaly", ["--mask-p-density", "nan"]),
        ("fit", ["--fit-min-tweets", "nan"]),
        ("fit", ["--fit-min-population", "nan"]),
        ("scan", ["--fit-min-population", "nan"]),
        ("validate", ["--fit-min-population", "nan"]),
    ])
    def test_bad_setting_is_reported_before_the_corpus_is_read(
            self, tmp_path, corpus, monkeypatch, command, extra):
        import geoscale.ingest as ingest
        calls = []

        def reading(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("corpus read")

        monkeypatch.setattr(ingest, "iter_tweets", reading)
        assert run_cmd(corpus, tmp_path, command, *extra) == 1
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["fit", "--bot-threshold", "0"],
        ["grid", "--min-user-tweets", "0"],
        ["grid", "--min-user-tweets", "-3"],
    ], ids=["bot_threshold_0", "min_user_tweets_0", "min_user_tweets_-3"])
    def test_bad_filter_setting_is_reported_before_a_missing_corpus(
            self, tmp_path, corpus, capsys, argv):
        code = main(argv + ["--tweets", str(tmp_path / "missing.jsonl"),
                             "--land", str(corpus / "land.geojson"),
                             "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("document", [
        "[1, 2]",
        '{"type": "FeatureCollection", "features": 5}',
        _layer_text(population="1" + "0" * 5000),
        _layer_text(depth=890),
        _layer_text(depth=950),
        _layer_text(depth=1000),
        _layer_text(depth=50000),
    ], ids=["not_an_object", "features_not_a_list", "integer_too_long_to_read",
            "nested_890_deep", "nested_950_deep", "nested_1000_deep",
            "nested_50000_deep"])
    @pytest.mark.parametrize("layer", ["population", "land"])
    def test_bad_layer_document_is_a_data_error(self, tmp_path, corpus, capsys,
                                                layer, document):
        """The same at the test's own stack depth and 150 frames deeper:
        json's nesting limit counts the frames below it, the layer check
        does not."""
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("tweets.jsonl", "population.geojson", "land.geojson"):
            (inputs / name).write_bytes((corpus / name).read_bytes())
        (inputs / f"{layer}.geojson").write_text(document)

        def outcome(frames: int):
            if frames:
                return outcome(frames - 1)
            code = run_cmd(inputs, tmp_path / "out", "grid", "--x", "6")
            err = capsys.readouterr().err
            return code, err.startswith("data error:"), err.count("\n")

        assert outcome(0) == outcome(150) == (2, True, 1)

    @pytest.mark.parametrize("land", [
        {"type": "FeatureCollection",
         "features": [{"type": "Feature", "properties": {}}]},
        {"type": "Polygon", "coordinates": [[[-3, 50], [-2, 51], [-3, 50]]]},
        {"type": "Polygon", "coordinates": [
            [[-3, 50], [-2, 50], [-2, float("nan")], [-3, 51]]]},
        {"type": "Polygon", "coordinates": [
            [[-2.6, 50.4], [-2.4, 50.4], [-2.4, 50.6], [-2.6, 50.6]],
            [[-3, 50], [-2, 50], [-2, 51], [-3, 51]]]},
        {"type": "Polygon", "coordinates": [
            [["-3", "50"], ["-2", "50"], ["-2", "51"], ["-3", "51"]]]},
        {"type": "Polygon", "coordinates": [
            [[False, False], [True, False], [True, True], [False, True]]]},
        {"type": "Polygon", "coordinates": [
            [[-3, 50], [10 ** 400, 50], [-2, 51], [-3, 51]]]},
        {"type": "Polygon", "coordinates": [
            [[-3, 50], [-2, 50], [-2, 95], [-3, 51]]]},
    ], ids=["feature_without_geometry", "ring_with_two_distinct_vertices",
            "nan_vertex", "hole_larger_than_outer_ring", "string_vertices",
            "boolean_vertices", "integer_too_large_for_a_float", "vertex_beyond_a_pole"])
    def test_bad_land_file_is_a_data_error(self, tmp_path, corpus, capsys, land):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("tweets.jsonl", "population.geojson"):
            (inputs / name).write_bytes((corpus / name).read_bytes())
        (inputs / "land.geojson").write_text(json.dumps(land))
        assert run_cmd(inputs, tmp_path / "out", "fit", "--x", "6") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert err.count("\n") == 1


class TestSynthCommand:
    @pytest.mark.parametrize("extra", [["--pop-log10-mean", "400"],
                                       ["--beta-true", "300"]])
    def test_counts_too_large_for_a_float_are_a_config_error(self, tmp_path, capsys,
                                                             extra):
        """A density or count past the float range is a config error, with no
        numpy overflow warning, no traceback and no partial corpus."""
        assert main(["synth", "--out", str(tmp_path / "out"), "--x-gen", "2",
                     "--study=-3,50,-2,51", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: synth settings overflow")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_failed_draw_leaves_no_out_directory(self, tmp_path, capsys):
        """The directories made for --out go again when the draw fails, and
        a directory that was there before stays."""
        out = tmp_path / "a" / "b" / "out"
        argv = ["--x-gen", "2", "--study=-3,50,-2,51", "--beta-true", "300"]
        assert main(["synth", "--out", str(out), *argv]) == 1
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "kept").mkdir()
        assert main(["synth", "--out", str(tmp_path / "kept"), *argv]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["kept"]
        assert list((tmp_path / "kept").iterdir()) == []

    def test_count_too_large_for_a_cell_is_a_config_error(self, tmp_path, capsys):
        """A cell that draws more tweets than a corpus can code is refused
        before its arrays are made."""
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--x-gen", "2", "--study=-3,50,-2,51",
                     "--pop-log10-mean", "9"]) == 1
        assert re.fullmatch(r"config error: synth cell \(0, 0\) draws \d+ tweets, "
                            r"more than the 2147483647 a cell may hold\n",
                            capsys.readouterr().err)
        assert not out.exists()

    def test_outputs_exist_and_are_deterministic(self, tmp_path, corpus):
        again = tmp_path / "again"
        assert main(SMALL_SYNTH + ["--out", str(again)]) == 0
        for name in ("tweets.jsonl", "population.geojson", "land.geojson",
                     "ground_truth.json"):
            assert (corpus / name).read_bytes() == (again / name).read_bytes()

    def test_streamed_corpus_equals_library_records(self, tmp_path):
        out = tmp_path / "cli"
        assert main(SMALL_SYNTH + ["--bots", "2", "--out", str(out)]) == 0
        cfg = SynthConfig(study=LonLatRect(-3.0, 50.0, -2.0, 51.0), x_gen=6,
                          b_true=0.05, c_true=2.0, pop_log10_mean=1.0,
                          pop_log10_sigma=0.5, seed=7)
        _, gt = gen_population(cfg)
        records = gen_activity(cfg, gt)
        records += gen_bots(cfg, 2, 0.02, len(records))
        write_jsonl(records, tmp_path / "library.jsonl")
        assert ((out / "tweets.jsonl").read_bytes()
                == (tmp_path / "library.jsonl").read_bytes())

    def test_ground_truth_records_config(self, corpus):
        gt = json.loads((corpus / "ground_truth.json").read_text())
        assert gt["config"]["x_gen"] == 6
        assert gt["config"]["beta_true"] == 1.2


class TestStatsCommand:
    def test_stats_and_sources(self, tmp_path, corpus):
        assert run_cmd(corpus, tmp_path, "stats") == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["located_place"] > 0
        assert stats["total_records"] == stats["located_place"]
        rows = list(csv.DictReader((tmp_path / "sources.csv").open()))
        assert len(rows) >= 1
        assert float(rows[0]["proportion"]) <= 1.0


    def test_stats_read_from_a_pipe_equal_stats_read_from_disk(self, tmp_path,
                                                               corpus):
        """/dev/stdin fed from a pipe, which is read in one pass, gives the
        stats.json and sources.csv of the same file read from disk."""
        tweets = corpus / "tweets.jsonl"
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with open(tweets, "rb") as fh:
            run = subprocess.run(
                [sys.executable, "-m", "geoscale.cli", "stats", "--tweets", "/dev/stdin",
                 "--out", str(tmp_path / "pipe"), "--study=-3.0,50.0,-2.0,51.0"],
                input=fh.read(), env=env, capture_output=True,
                timeout=120)
        assert run.returncode == 0, run.stderr
        assert run_cmd(corpus, tmp_path / "disk", "stats") == 0
        for name in ("stats.json", "sources.csv"):
            assert (tmp_path / "pipe" / name).read_bytes() == \
                (tmp_path / "disk" / name).read_bytes()

    @pytest.mark.parametrize("tag_kind, sources, replies, quotes", [
        ("geo", {"app_a": 3, "": 1}, 1, 0),
        ("place", {"app_b": 2, "app_a": 1}, 0, 1),
        ("both", {"app_a": 4, "app_b": 2, "": 1}, 1, 1),
    ])
    def test_sources_and_replies_follow_the_tag_kind(
            self, tmp_path, capsys, tag_kind, sources, replies, quotes):
        geo = {"coordinates": {"type": "Point", "coordinates": [-2.5, 50.5]}}
        place = {"place": {"place_type": "city", "bounding_box": {
            "type": "Polygon", "coordinates": [[[-2.6, 50.4], [-2.4, 50.4],
                                                [-2.4, 50.6], [-2.6, 50.6]]]}}}
        tags = [(geo, "app_a", {"in_reply_to_status_id_str": "9"}),
                (geo, "app_a", {}), (geo, "app_a", {}), (geo, None, {}),
                (place, "app_b", {"quoted_status_id_str": "8"}),
                (place, "app_b", {}), (place, "app_a", {})]
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text("".join(
            json.dumps({"id_str": str(k), "user": {"id_str": f"u{k}"}, **tag,
                        "source": source, **extra}) + "\n"
            for k, (tag, source, extra) in enumerate(tags)))
        assert main(["stats", "--tweets", str(tweets), "--tag-kind", tag_kind,
                     "--study=-3.0,50.0,-2.0,51.0", "--out", str(tmp_path)]) == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        rows = list(csv.DictReader((tmp_path / "sources.csv").open()))
        assert stats["per_source"] == sources
        assert {r["source"]: int(r["count"]) for r in rows} == sources
        assert (stats["reply_count"], stats["quote_count"],
                stats["reply_or_quote_count"]) == (replies, quotes, replies + quotes)
        # the locate funnel counts every parsed record, whatever the tag kind
        assert (stats["total_records"], stats["located_geo"],
                stats["located_place"]) == (7, 4, 3)
        assert f" replies={replies} quotes={quotes} " in capsys.readouterr().out

    def test_malformed_records_are_reported(self, tmp_path, capsys):
        good = [json.dumps({"id_str": str(k), "user": {"id_str": f"u{k}"},
                            "coordinates": {"type": "Point",
                                            "coordinates": [-2.5, 50.5]},
                            "source": "app"}) for k in range(3)]
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text("\n".join(good + ["[1,2]", "not json"]) + "\n")
        assert main(["stats", "--tweets", str(tweets), "--tag-kind", "geo",
                     "--study=-3.0,50.0,-2.0,51.0", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("records=3 located_geo=3 ")
        assert captured.err == ("tweets: skipped 2 malformed records "
                                "({'TypeError': 1, 'JSONDecodeError': 1})\n")

    def test_non_finite_box_is_a_counted_skip_in_an_infinite_study(
            self, tmp_path, capsys):
        box = [[-2.6, 50.5], [-2.4, 50.5], [-2.4, float("inf")], [-2.6, 50.7]]
        line = {"id_str": "1", "user": {"id_str": "u1"}, "source": "app",
                "place": {"place_type": "city", "bounding_box": {
                    "type": "Polygon", "coordinates": [box]}}}
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text(json.dumps(line) + "\n")
        assert main(["stats", "--tweets", str(tweets), "--study=-inf,-inf,inf,inf",
                     "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("records=0 ")
        assert captured.err == "tweets: skipped 1 malformed records ({'ValueError': 1})\n"

    @pytest.mark.parametrize("command", ["stats", "fit"])
    def test_non_string_place_type_or_source_is_a_counted_skip(
            self, tmp_path, corpus, capsys, command):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("population.geojson", "land.geojson"):
            (inputs / name).write_bytes((corpus / name).read_bytes())
        good = json.loads((corpus / "tweets.jsonl").read_text().splitlines()[0])
        bad = [{**good, "place": {**good["place"], "place_type": ["city"]}},
               {**good, "source": {"x": 1}}]
        (inputs / "tweets.jsonl").write_text(
            (corpus / "tweets.jsonl").read_text()
            + "".join(json.dumps(b) + "\n" for b in bad))
        capsys.readouterr()
        x = ["--x", "6"] if command == "fit" else []
        assert run_cmd(inputs, tmp_path / "out", command, *x) == 0
        assert "tweets: skipped 2 malformed records" in capsys.readouterr().err


class TestGridCommand:
    @pytest.mark.parametrize("sides", [["--x", "100000"], ["--x-list", "8,100000"],
                                       ["--x", "10000000000"]])
    def test_grid_too_large_for_memory_is_a_config_error(self, tmp_path, corpus, sides):
        """A grid whose arrays do not fit in the address space left to the
        process is one config error line, not a traceback, and no --out;
        so is a side whose X * X cells take more bytes than an array may
        hold.  The cap is set in the child alone.  The largest grid is
        checked before any tweet is read: the tweet file is missing, which
        reading would report as a data error (exit 2)."""
        cap = 2_000_000 * 1024
        command = "grid" if sides[0] == "--x" else "scan"
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "out"
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from geoscale.cli import main; "
             "sys.exit(main(sys.argv[1:]))", command,
             "--tweets", str(tmp_path / "missing.jsonl"), "--study=-3.0,50.0,-2.0,51.0",
             "--population", str(corpus / "population.geojson"),
             "--land", str(corpus / "land.geojson"), "--min-user-tweets", "1",
             *sides, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert run.returncode == 1
        assert re.fullmatch(r"config error: out of memory: .+\n", run.stderr)
        assert not out.exists()

    def test_grid_csv_shape(self, tmp_path, corpus):
        assert run_cmd(corpus, tmp_path, "grid", "--x", "6") == 0
        rows = list(csv.DictReader((tmp_path / "grid.csv").open()))
        assert len(rows) == 36
        total_t = sum(float(r["N_t"]) for r in rows)
        gt = json.loads((corpus / "ground_truth.json").read_text())
        expected = sum(sum(col) for col in gt["n_t"])
        assert total_t == pytest.approx(expected, abs=1e-6)

    def test_grid_csv_bytes_are_pinned(self, tmp_path):
        """An L-shaped coast leaves cell (1, 1) of a 2 x 2 grid under water,
        with a GPS tweet and part of a census unit in it; a place box spans
        all four cells and every unit carries a youth count."""
        def feature(props, ring):
            return {"type": "Feature", "properties": props,
                    "geometry": {"type": "Polygon", "coordinates": [ring]}}

        def box(lon0, lat0, lon1, lat1):
            return [[lon0, lat0], [lon1, lat0], [lon1, lat1], [lon0, lat1]]

        land = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2], [0, 0]]
        units = [feature({"population": 1200, "population_18_35": 300},
                         box(0, 0, 1.5, 1.5) + [[0, 0]]),
                 feature({"population": 800, "population_18_35": 250},
                         box(0.5, 0.25, 2, 2) + [[0.5, 0.25]])]
        tweets = [{"id_str": f"g{k}", "user": {"id_str": f"u{k % 3}"},
                   "coordinates": {"coordinates": [lon, lat]}, "source": "app"}
                  for k, (lon, lat) in enumerate(
                      [(0.25, 0.5), (0.75, 1.25), (1.5, 0.5), (1.5, 1.5), (0.3, 1.9)])]
        tweets.append({"id_str": "b0", "user": {"id_str": "u0"}, "source": "app",
                       "place": {"place_type": "city", "bounding_box": {
                           "type": "Polygon", "coordinates": [box(0.5, 0.5, 1.75, 1.25)]}}})
        (tmp_path / "land.geojson").write_text(json.dumps(
            {"type": "FeatureCollection", "features": [feature({}, land)]}))
        (tmp_path / "population.geojson").write_text(json.dumps(
            {"type": "FeatureCollection", "features": units}))
        (tmp_path / "tweets.jsonl").write_text(
            "".join(json.dumps(t) + "\n" for t in tweets))
        out = tmp_path / "out"
        assert main(["grid", "--tweets", str(tmp_path / "tweets.jsonl"),
                     "--population", str(tmp_path / "population.geojson"),
                     "--land", str(tmp_path / "land.geojson"), "--study=0,0,2,2",
                     "--x", "2", "--tag-kind", "both", "--bot-threshold", "1",
                     "--min-user-tweets", "1", "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "grid.csv").open()))
        water = next(r for r in rows if (r["i"], r["j"]) == ("1", "1"))
        assert water["A_km2"] == "0.0" and float(water["N_t"]) > 0
        assert water["T"] == water["P"] == ""
        assert all(r["N_y"] for r in rows)
        assert hashlib.sha256((out / "grid.csv").read_bytes()).hexdigest() == (
            "94ba4fe941a51593c609af9f1089ecffb3ea61888bade3547343d84f3a2e4afa")

    def test_positions_with_an_altitude_read_as_without(self, tmp_path, corpus):
        """A GeoJSON position may carry an altitude: census and land vertices
        with one give the grid of the same layers without it."""
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        (inputs / "tweets.jsonl").write_bytes((corpus / "tweets.jsonl").read_bytes())
        for name in ("population.geojson", "land.geojson"):
            fc = json.loads((corpus / name).read_text())
            for feature in fc["features"]:
                for ring in feature["geometry"]["coordinates"]:
                    for k, vertex in enumerate(ring):
                        vertex.append(10.0 * k)
            (inputs / name).write_text(json.dumps(fc))
        assert run_cmd(corpus, tmp_path / "flat", "grid", "--x", "6") == 0
        assert run_cmd(inputs, tmp_path / "raised", "grid", "--x", "6") == 0
        assert ((tmp_path / "raised" / "grid.csv").read_bytes()
                == (tmp_path / "flat" / "grid.csv").read_bytes())

    def test_census_vertices_out_of_range_are_skipped_units(self, tmp_path, corpus,
                                                            capsys):
        """A census layer whose vertices are not lon/lat degrees (scaled by
        1e5 here, as a projected layer's metres would be) loses each unit as
        bad_geometry, and says so."""
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("tweets.jsonl", "land.geojson"):
            (inputs / name).write_bytes((corpus / name).read_bytes())
        fc = json.loads((corpus / "population.geojson").read_text())
        for feature in fc["features"]:
            feature["geometry"]["coordinates"] = [
                [[1e5 * v for v in vertex] for vertex in ring]
                for ring in feature["geometry"]["coordinates"]]
        (inputs / "population.geojson").write_text(json.dumps(fc))
        n = len(fc["features"])
        capsys.readouterr()
        assert run_cmd(inputs, tmp_path / "out", "grid", "--x", "6") == 0
        out, err = capsys.readouterr()
        assert f"population: skipped {n} features ({{'bad_geometry': {n}}})" in err
        assert out.endswith(" population 0.0\n")

    def test_min_user_tweets_filters_the_grid(self, tmp_path, corpus):
        """grid --min-user-tweets 2 bins the corpus that filter_min_tweets
        keeps, and drops the users with one record."""
        args = ["grid", "--tweets", str(corpus / "tweets.jsonl"),
                "--population", str(corpus / "population.geojson"),
                "--land", str(corpus / "land.geojson"), "--study=-3.0,50.0,-2.0,51.0",
                "--x", "6", "--bot-threshold", "1", "--min-user-tweets"]
        assert main(args + ["2", "--out", str(tmp_path / "cli")]) == 0
        assert main(args + ["1", "--out", str(tmp_path / "all")]) == 0
        study = LonLatRect(-3.0, 50.0, -2.0, 51.0)
        _, located = corpus_stats(parse_tweets(corpus / "tweets.jsonl")[0], study)
        kept = filter_min_tweets(located.take(located.place), 2)
        assert 0 < len(kept) < located.place.sum()
        grid = run_grid_pipeline(GridSpec(study, 6), cli.load_land(corpus / "land.geojson"),
                                 kept, cli.load_population(corpus / "population.geojson"))
        grid_to_csv(grid, tmp_path / "library.csv")
        assert ((tmp_path / "cli" / "grid.csv").read_bytes()
                == (tmp_path / "library.csv").read_bytes()
                != (tmp_path / "all" / "grid.csv").read_bytes())

    @pytest.mark.parametrize("command", ["grid", "fit"])
    def test_bad_census_feature_is_a_counted_skip(self, tmp_path, corpus, capsys,
                                                  command):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("tweets.jsonl", "land.geojson"):
            (inputs / name).write_bytes((corpus / name).read_bytes())
        fc = json.loads((corpus / "population.geojson").read_text())
        first, second, third, fourth = fc["features"][:4]
        first["properties"]["population"] = float("inf")
        second["geometry"]["coordinates"][0][1][0] = float("nan")
        third["geometry"]["coordinates"].append(
            [[-3, 50], [-2, 50], [-2, 51], [-3, 51]])
        fourth["geometry"]["coordinates"] = [
            [[-2.9, 50.1], [-2.8, 50.2], [-2.7, 50.3], [-2.9, 50.1]]]
        (inputs / "population.geojson").write_text(json.dumps(fc))
        capsys.readouterr()
        assert run_cmd(inputs, tmp_path / "out", command, "--x", "6") == 0
        out, err = capsys.readouterr()
        assert ("population: skipped 4 features ({'bad_population': 1, "
                "'bad_geometry': 2, 'zero_area': 1})") in err
        if command == "grid":
            population = float(out.rsplit("population ", 1)[1])
            assert 0 < population < math.inf


class TestFitCommand:
    def test_fit_outputs_and_recovery(self, tmp_path, corpus, capsys):
        assert run_cmd(corpus, tmp_path, "fit", "--x", "6") == 0
        rows = list(csv.DictReader((tmp_path / "fits.csv").open()))
        by_rel = {r["relation"]: r for r in rows}
        assert set(by_rel) == {"T_vs_P", "U_vs_P", "T_vs_U"}
        assert float(by_rel["U_vs_P"]["exponent"]) == pytest.approx(1.2, abs=0.15)
        assert float(by_rel["T_vs_U"]["exponent"]) == pytest.approx(1.35, abs=0.15)
        consistency = json.loads((tmp_path / "consistency.json").read_text())
        assert abs(consistency["z_score"]) < 3.0
        out = capsys.readouterr().out
        assert "gamma: exponent=" in out

    def test_output_bytes_are_pinned(self, tmp_path, corpus, capsys):
        """Every fit of the shared corpus keeps its bits, in fits.csv, in
        consistency.json and in the printout."""
        capsys.readouterr()
        assert run_cmd(corpus, tmp_path, "fit", "--x", "6") == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "940cf613e16baf0e8cc4915f66da46319b0687f285272c333f08ad8a049e93c1")
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("fits.csv", "consistency.json")} == {
            "fits.csv":
                "f89f5c6d809e44d5217519a1722ca6625ee8189a2581ce17fe78c3b6dfb5e69c",
            "consistency.json":
                "e5466db1eebc93505a6fa492c4ac2c80b4b67ad9556a444686ecbcc9e5e42bcb",
        }

    def test_line_shaped_place_box_keeps_its_tweet(self, tmp_path, corpus):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("population.geojson", "land.geojson"):
            (inputs / name).write_bytes((corpus / name).read_bytes())
        line = {"id_str": "line1", "user": {"id_str": "line_user"},
                "place": {"place_type": "city", "bounding_box": {
                    "type": "Polygon", "coordinates": [[
                        [-2.5, 50.3], [-2.5, 50.3], [-2.5, 50.6], [-2.5, 50.6]]]}},
                "source": "app"}
        (inputs / "tweets.jsonl").write_text(
            (corpus / "tweets.jsonl").read_text() + json.dumps(line) + "\n")
        assert run_cmd(inputs, tmp_path / "fit", "fit", "--x", "6") == 0

        def tweet_mass(src, out):
            assert run_cmd(src, out, "grid", "--x", "6") == 0
            rows = csv.DictReader((out / "grid.csv").open())
            return sum(float(r["N_t"]) for r in rows)

        assert tweet_mass(inputs, tmp_path / "grid") == pytest.approx(
            tweet_mass(corpus, tmp_path / "grid0") + 1.0, rel=1e-12)


    def test_malformed_records_and_features_are_counted_skips(
            self, tmp_path, corpus, capsys):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        (inputs / "land.geojson").write_bytes((corpus / "land.geojson").read_bytes())
        good = json.loads((corpus / "tweets.jsonl").read_text().splitlines()[0])
        bad = [[1, 2], {**good, "user": "u2"}, {**good, "user": {"id_str": [1, 2]}},
               {**good, "user": {"id_str": 7}}]
        (inputs / "tweets.jsonl").write_text(
            (corpus / "tweets.jsonl").read_text()
            + "".join(json.dumps(b) + "\n" for b in bad))
        fc = json.loads((corpus / "population.geojson").read_text())
        ring_of_numbers = json.loads(json.dumps(fc["features"][0]))
        ring_of_numbers["geometry"]["coordinates"] = [[1, 2]]
        no_geometry = {**fc["features"][0], "geometry": None}
        fc["features"] += [ring_of_numbers, no_geometry, "feature"]
        (inputs / "population.geojson").write_text(json.dumps(fc))
        capsys.readouterr()
        assert run_cmd(inputs, tmp_path / "out", "fit", "--x", "6") == 0
        err = capsys.readouterr().err
        assert "tweets: skipped 4 malformed records" in err
        assert "population: skipped 3 features ({'bad_geometry': 3})" in err


class TestScanCommand:
    def test_scan_outputs(self, tmp_path, corpus):
        assert run_cmd(corpus, tmp_path, "scan", "--x-list", "3,4,6") == 0
        rows = list(csv.DictReader((tmp_path / "fits.csv").open()))
        assert {r["X"] for r in rows} <= {"3", "4", "6"}
        areas = list(csv.DictReader((tmp_path / "cell_areas.csv").open()))
        assert [a["X"] for a in areas] == ["3", "4", "6"]
        window = json.loads((tmp_path / "window.json").read_text())
        assert "found" in window

    def test_output_bytes_are_pinned(self, tmp_path, corpus):
        """The fits, cell areas and window of three resolutions of the
        shared corpus keep their bits."""
        assert run_cmd(corpus, tmp_path, "scan", "--x-list", "3,4,6") == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("fits.csv", "cell_areas.csv", "window.json")} == {
            "fits.csv":
                "1227da24cdfe41e9b84ee2d919dba525954f50ddcfa63e2b17c407c44cffca68",
            "cell_areas.csv":
                "16c50f1cd6415a2319f31d849ed18dd07a8eff9ac885d4f5f73a05844f171fed",
            "window.json":
                "a473231bb47f7b2ef5202851c1fe1697ded4db0e0f4e76b18a4cbda8fc11e02e",
        }

    def test_window_found_and_unfitted_resolution_left_out(self, tmp_path, capsys):
        """X=1 has one cell, too few to fit: it has a cell area but no fits."""
        data = tmp_path / "data"
        assert main(["synth", "--study=-3.0,50.0,-2.0,51.0", "--x-gen", "12",
                     "--noise-dex", "0.1", "--b-true", "0.05", "--c-true", "2.0",
                     "--pop-log10-mean", "1.5", "--pop-log10-sigma", "0.5",
                     "--seed", "3", "--out", str(data)]) == 0
        capsys.readouterr()
        assert run_cmd(data, tmp_path, "scan", "--x-list", "1,2,3,4,6,12") == 0
        fitted = {r["X"] for r in csv.DictReader((tmp_path / "fits.csv").open())}
        assert fitted == {"2", "3", "4", "6", "12"}
        areas = csv.DictReader((tmp_path / "cell_areas.csv").open())
        assert [a["X"] for a in areas] == ["1", "2", "3", "4", "6", "12"]
        window = json.loads((tmp_path / "window.json").read_text())
        assert window["found"] is True
        assert 1 < window["X_min"] <= window["X_max"] <= 12
        assert set(window["means"]) == {"alpha", "beta", "gamma"}
        assert "scaling window: X=" in capsys.readouterr().out


class TestAnomalyCommand:
    def test_tu_map(self, tmp_path, corpus):
        assert run_cmd(corpus, tmp_path, "anomaly", "--x", "6",
                       "--kind", "tu") == 0
        rows = list(csv.DictReader((tmp_path / "anomaly_tu.csv").open()))
        assert len(rows) == 36
        unmasked = [r for r in rows if r["masked"] == "0"]
        assert unmasked

    def test_youth_map_needs_youth_on_every_unit(self, tmp_path, corpus, capsys):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("tweets.jsonl", "land.geojson"):
            (inputs / name).write_bytes((corpus / name).read_bytes())
        fc = json.loads((corpus / "population.geojson").read_text())
        assert all("population_18_35" in f["properties"] for f in fc["features"])
        del fc["features"][0]["properties"]["population_18_35"]
        (inputs / "population.geojson").write_text(json.dumps(fc))
        assert run_cmd(inputs, tmp_path / "yp", "anomaly", "--x", "6", "--kind", "yp") == 3
        assert capsys.readouterr().err == (
            "insufficient data: grid has no youth population data: every census "
            "unit that reaches the grid must carry population_18_35\n")
        assert not (tmp_path / "yp").exists()
        assert run_cmd(inputs, tmp_path / "tu", "anomaly", "--x", "6", "--kind", "tu") == 0

    def test_both_kinds_write_correlation(self, tmp_path, corpus):
        assert run_cmd(corpus, tmp_path, "anomaly", "--x", "6",
                       "--kind", "both", "--geojson") == 0
        assert (tmp_path / "anomaly_yp.csv").exists()
        assert (tmp_path / "anomaly_tu.geojson").exists()
        corr = json.loads((tmp_path / "correlation.json").read_text())
        assert -1.0 <= corr["abs"]["pearson_r"] <= 1.0

    def test_map_bytes_are_pinned(self, tmp_path, corpus):
        """Both maps of the shared corpus, each with masked cells and capped
        values."""
        assert run_cmd(corpus, tmp_path, "anomaly", "--x", "6", "--kind", "both",
                       "--geojson", "--abs-cap", "1", "--rel-cap", "0.0015",
                       "--mask-t-density", "3", "--mask-p-density", "10") == 0
        for kind in ("tu", "yp"):
            rows = list(csv.DictReader((tmp_path / f"anomaly_{kind}.csv").open()))
            kept = [r for r in rows if r["masked"] == "0"]
            assert 0 < len(kept) < len(rows)
            assert any(r[col] != r[col + "_capped"] for r in kept
                       for col in ("A_abs", "A_rel"))
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("anomaly_tu.csv", "anomaly_tu.geojson",
                                "anomaly_yp.csv", "anomaly_yp.geojson")}
        assert digests == {
            "anomaly_tu.csv":
                "b5afa33d00ee86ef17d37db9d211a56538c1479694c08e8704e344893b5c1c59",
            "anomaly_tu.geojson":
                "2abef1bc7d6e9293ec04ec70fbacd41586a5729a3c5f2cdd46bc1ba90001d393",
            "anomaly_yp.csv":
                "6f4a0d726e3e338231fa983a9438b8687c3a93f88c2d6443c8144aeb068f992a",
            "anomaly_yp.geojson":
                "14f02f0f9bbc00eb01593967dcfeb9f762ffb094efdc2dd8ec225c0190442ef9",
        }


class TestValidateCommand:
    def test_subset_mode_reproducible(self, tmp_path, corpus):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert run_cmd(corpus, out, "validate", "--x", "6",
                           "--mode", "subset", "--subset-fraction", "0.3",
                           "--replicates", "25", "--seed", "13") == 0
        assert ((out1 / "resample.csv").read_bytes()
                == (out2 / "resample.csv").read_bytes())
        summary = json.loads((out1 / "resample_summary.json").read_text())
        assert summary["mode"] == "subset"
        assert "beta" in summary["ci68"]
        assert "reference" in summary

    @pytest.mark.parametrize("mode, extra, digests", [
        ("subarea", ["--replicates", "12"],
         ("8c2431ef919f1ec38e2d6135e757c890a48351aa0b32b1f6136e2291c14d4db3",
          "7b5351062c31319b96fcc0f5606ca2afd982e6ec41fbd2b13dcd39322df337e7")),
        ("subset", ["--subset-fraction", "0.2", "--replicates", "30"],
         ("3e2bdb26626a263307603a36617900619e1f79b9a48c47a1c5881cfce829fff8",
          "a1dfec231fbd079ca7cc0cfcb25708455b24d3971928cdecee83031564b51280")),
        ("subset_nonadjacent", ["--subset-fraction", "0.1", "--replicates", "30"],
         ("a85666f3ccfbec23376cff4b7c3024e270202577383345b0f0e691c1d5221e49",
          "c9865f000c1fb6756945d303d4426c42e03f9f3943e951b7087c613734c576ad")),
    ])
    def test_output_bytes_are_pinned(self, tmp_path, corpus, mode, extra, digests):
        """Every replicate of each mode keeps its draw and its fit bits."""
        assert run_cmd(corpus, tmp_path, "validate", "--x", "12", "--mode", mode,
                       "--seed", "3", *extra) == 0
        summary = json.loads((tmp_path / "resample_summary.json").read_text())
        assert (summary["dropped"], set(summary["ci68"])) == (0, {"alpha", "beta", "gamma"})
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                     for name in ("resample.csv", "resample_summary.json")) == digests

    @pytest.mark.parametrize("mode, extra", [
        # every populated cell must be chosen, so neighbours always collide
        ("subset_nonadjacent", ["--x", "6", "--subset-fraction", "1.0"]),
        # a 1 x 1 sub-grid has one point, too few to fit
        ("subarea", ["--x", "12", "--area-fraction", "0.01"]),
    ])
    def test_every_replicate_dropped(self, tmp_path, corpus, capsys, mode, extra):
        assert run_cmd(corpus, tmp_path, "validate", "--mode", mode, *extra,
                       "--replicates", "12", "--seed", "5") == 0
        rows = list(csv.reader((tmp_path / "resample.csv").open()))
        assert rows[1:] == [[str(k), "", "", ""] for k in range(12)]
        summary = json.loads((tmp_path / "resample_summary.json").read_text())
        assert (summary["dropped"], summary["ci68"]) == (12, {})
        out = capsys.readouterr().out
        assert out.count("ci68 unavailable") == 3
        assert "dropped replicates: 12" in out
