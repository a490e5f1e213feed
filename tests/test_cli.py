import csv
import json

import pytest

from geoscale.cli import load_config_file, main, resolve_config
from geoscale.geometry import LonLatRect
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
    args = [command,
            "--tweets", str(corpus / "tweets.jsonl"),
            "--population", str(corpus / "population.geojson"),
            "--land", str(corpus / "land.geojson"),
            "--study=-3.0,50.0,-2.0,51.0",
            "--min-user-tweets", "1",
            "--out", str(out), *extra]
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

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert main(["stats", "--config", str(tmp_path / "nope.conf"),
                     "--tweets", "x"]) == 1


class TestExitCodes:
    def test_unknown_flag(self):
        assert main(["fit", "--bogus"]) == 1

    def test_missing_required_input(self, tmp_path):
        assert main(["fit", "--out", str(tmp_path)]) == 1

    def test_unreadable_tweets_file(self, tmp_path):
        assert main(["stats", "--tweets", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path)]) == 2

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
        ("synth", ["--beta-true", "0"]),
        ("synth", ["--emit-boxes-fraction", "2"]),
        ("fit", ["--x", "0"]),
        ("fit", ["--bot-threshold", "0"]),
        ("fit", ["--study=1,2,0,3"]),
        ("validate", ["--replicates", "0"]),
        ("validate", ["--area-fraction", "0"]),
    ])
    def test_invalid_setting_is_a_config_error(self, tmp_path, corpus, capsys,
                                               command, extra):
        if command == "synth":
            code = main(SMALL_SYNTH + ["--out", str(tmp_path), *extra])
        else:
            code = run_cmd(corpus, tmp_path, command, *extra)
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")


class TestSynthCommand:
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


class TestGridCommand:
    def test_grid_csv_shape(self, tmp_path, corpus):
        assert run_cmd(corpus, tmp_path, "grid", "--x", "6") == 0
        rows = list(csv.DictReader((tmp_path / "grid.csv").open()))
        assert len(rows) == 36
        total_t = sum(float(r["N_t"]) for r in rows)
        gt = json.loads((corpus / "ground_truth.json").read_text())
        expected = sum(sum(col) for col in gt["n_t"])
        assert total_t == pytest.approx(expected, abs=1e-6)


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


class TestScanCommand:
    def test_scan_outputs(self, tmp_path, corpus):
        assert run_cmd(corpus, tmp_path, "scan", "--x-list", "3,4,6") == 0
        rows = list(csv.DictReader((tmp_path / "fits.csv").open()))
        assert {r["X"] for r in rows} <= {"3", "4", "6"}
        areas = list(csv.DictReader((tmp_path / "cell_areas.csv").open()))
        assert [a["X"] for a in areas] == ["3", "4", "6"]
        window = json.loads((tmp_path / "window.json").read_text())
        assert "found" in window


class TestAnomalyCommand:
    def test_tu_map(self, tmp_path, corpus):
        assert run_cmd(corpus, tmp_path, "anomaly", "--x", "6",
                       "--kind", "tu") == 0
        rows = list(csv.DictReader((tmp_path / "anomaly_tu.csv").open()))
        assert len(rows) == 36
        unmasked = [r for r in rows if r["masked"] == "0"]
        assert unmasked

    def test_both_kinds_write_correlation(self, tmp_path, corpus):
        assert run_cmd(corpus, tmp_path, "anomaly", "--x", "6",
                       "--kind", "both", "--geojson") == 0
        assert (tmp_path / "anomaly_yp.csv").exists()
        assert (tmp_path / "anomaly_tu.geojson").exists()
        corr = json.loads((tmp_path / "correlation.json").read_text())
        assert -1.0 <= corr["abs"]["pearson_r"] <= 1.0


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
