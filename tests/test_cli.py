"""Command-line front end: argument handling, report files, exit codes,
and byte-level determinism."""

import argparse
import json
import math

import numpy as np
import pytest

from nodalab import cli
from nodalab.fields import field_to_json, make_torus_eigenfunction


def run_cli(args):
    return cli.run(args)


class TestParsing:
    def test_grid_parsing(self):
        g = cli._parse_grid("0.5:1.5:0.25")
        assert np.allclose(g, [0.5, 0.75, 1.0, 1.25, 1.5])

    def test_grid_rejects_garbage(self):
        with pytest.raises(cli.ConfigError):
            cli._parse_grid("1:2")
        with pytest.raises(cli.ConfigError):
            cli._parse_grid("2:1:0.5")
        for spec in ("0.6:inf:0.1", "nan:1:0.1", "0:1:inf", "-inf:1:0.5"):
            with pytest.raises(cli.ConfigError, match="bad grid spec"):
                cli._parse_grid(spec)

    def test_count_parsing(self):
        assert cli._parse_count("1e5") == 100_000
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_count("0.5")

    def test_config_hash_is_stable(self):
        cfg = {"command": "density", "seed": 0, "N": 100}
        assert cli._config_hash(cfg) == cli._config_hash(dict(reversed(list(cfg.items()))))


class TestExitCodes:
    def test_missing_field_and_preset_is_config_error(self, tmp_path):
        assert run_cli(["density", "--out", str(tmp_path)]) == 2

    def test_unknown_preset_is_config_error(self, tmp_path):
        assert run_cli(["density", "--preset", "nope", "--out", str(tmp_path)]) == 2

    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        assert run_cli(["density", "--bogus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("count", ["0.5", "1.5", "1e400", "nan"])
    def test_bad_count_is_config_error(self, tmp_path, capsys, count):
        argv = ["density", "--preset", "torus-sin", "--N", count, "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        assert "bad count" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["monotone", "--preset", "p=x3", "--t", "nan"],
        ["divergence", "--preset", "torus-sin", "--h", "inf", "--N", "1e5"],
        ["prop51", "--preset", "p=x3", "--t", "nan"],
        ["prop51", "--preset", "p=x3", "--tol", "nan"],
        ["robin", "--preset", "p=x3", "--t1", "nan"],
        ["deriv", "--preset", "torus-sin", "--delta", "nan"],
        ["deriv", "--preset", "torus-sin", "--t=inf"],
    ], ids=" ".join)
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, argv):
        assert run_cli([*argv, "--out", str(tmp_path), "--no-plot"]) == 2
        assert "bad number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["monotone", "--preset", "p=x3", "--rgrid", "0.6:inf:0.1"],
        ["deriv", "--preset", "torus-sin", "--delta", "0"],
        ["deriv", "--preset", "torus-sin", "--delta=-0.01"],
    ], ids=" ".join)
    def test_bad_grid_or_step_is_config_error(self, tmp_path, capsys, argv):
        assert run_cli([*argv, "--out", str(tmp_path), "--no-plot"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_passing_check_exits_zero(self, tmp_path):
        code = run_cli([
            "unimodal", "--preset", "torus-sin", "--measure", "mu",
            "--N", "2e5", "--bins", "32", "--out", str(tmp_path), "--no-plot",
        ])
        assert code == 0

    def test_failing_check_exits_one(self, tmp_path, capsys):
        code = run_cli([
            "unimodal", "--preset", "torus-sin", "--measure", "sigma",
            "--N", "2e5", "--bins", "32", "--out", str(tmp_path), "--no-plot",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "unimodal.json" in err

    def test_explore_always_exits_zero(self, tmp_path):
        code = run_cli([
            "explore", "--preset", "harmonic-mix", "--rgrid", "0.2:1.0:0.2",
            "--h", "0.05", "--out", str(tmp_path), "--no-plot",
        ])
        assert code == 0

    def test_four_dimensional_field_is_config_error(self, tmp_path, capsys):
        # level-set meshes exist in 2D and 3D only
        path = tmp_path / "torus4.json"
        path.write_text(json.dumps({"field": field_to_json(make_torus_eigenfunction([((1, 0, 0, 0), 0.0, 1.0)]))}))
        code = run_cli(["divergence", "--field", str(path), "--N", "1e4", "--out", str(tmp_path / "out"),
                        "--no-plot"])
        assert code == 2
        assert "dimensions 2 and 3" in capsys.readouterr().err


class TestOutputs:
    def test_density_writes_reports_with_config(self, tmp_path):
        assert run_cli([
            "density", "--preset", "torus-sin", "--measure", "mu",
            "--N", "1e5", "--bins", "16", "--seed", "3",
            "--out", str(tmp_path),
        ]) == 0
        doc = json.loads((tmp_path / "density.json").read_text())
        assert doc["config"]["seed"] == 3
        assert doc["config"]["N"] == 100_000
        assert doc["config_hash"] == cli._config_hash(doc["config"])
        csv = (tmp_path / "density.csv").read_text().splitlines()
        assert csv[0] == f"# config_hash={doc['config_hash']}"
        assert csv[1].split(",")[0] == "t"
        svg = (tmp_path / "density.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert doc["config_hash"] in svg

    def test_field_json_input(self, tmp_path):
        spec = {
            "field": {
                "kind": "polynomial",
                "dimension": 2,
                "terms": [
                    {"exponents": [2, 0], "coefficient": "1"},
                    {"exponents": [0, 2], "coefficient": "-1"},
                ],
            },
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        }
        path = tmp_path / "field.json"
        path.write_text(json.dumps(spec))
        code = run_cli([
            "curvature", "--field", str(path), "--N", "1024",
            "--out", str(tmp_path / "out"), "--no-plot",
        ])
        assert code == 0

    def test_preset_and_field_are_exclusive(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("{}")
        assert run_cli([
            "density", "--preset", "torus-sin", "--field", str(path),
            "--out", str(tmp_path),
        ]) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        args = [
            "unimodal", "--preset", "torus-sin", "--measure", "mu",
            "--N", "1e5", "--bins", "16", "--seed", "42",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        for name in ("unimodal.json", "unimodal_density.json", "unimodal_density.csv", "unimodal_density.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_reports_do_not_depend_on_workers(self, tmp_path):
        for args in (
            ["curvature", "--preset", "torus-sin"],
            # two Monte Carlo chunks, so --workers 2 runs them on two threads
            ["divergence", "--preset", "torus-sin", "--N", "2e5"],
        ):
            out_a, out_b = tmp_path / args[0] / "a", tmp_path / args[0] / "b"
            assert run_cli(args + ["--no-plot", "--workers", "1", "--out", str(out_a)]) == 0
            assert run_cli(args + ["--no-plot", "--workers", "2", "--out", str(out_b)]) == 0
            name = f"{args[0]}.json"
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_weighted_divergence_from_field_json(self, tmp_path):
        doc = {
            "field": {
                "kind": "weighted",
                "base": {"kind": "polynomial", "dimension": 2, "terms": [
                    {"exponents": [2, 0], "coefficient": "1"},
                    {"exponents": [0, 0], "coefficient": "-1"},
                ]},
                "weight": {"kind": "gaussian", "dimension": 2},
            },
            "domain": {"kind": "box", "lo": [-4, -4], "hi": [4, 4]},
        }
        path = tmp_path / "hermite.json"
        path.write_text(json.dumps(doc))
        code = run_cli([
            "divergence", "--field", str(path), "--t1", "0.5", "--t2", "1.5",
            "--N", "2e5", "--h", "0.02", "--workers", "2", "--no-plot", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        ident = json.loads((tmp_path / "out" / "divergence.json").read_text())["identity"]
        assert ident["passed"] is True
        # flux of |grad f| rho through the lines x = +-sqrt(1 + t), t = 1.5 minus t = 0.5
        flux = [4.0 * a * math.exp(-0.5 * a * a) * math.sqrt(2.0 * math.pi) * math.erf(4.0 / math.sqrt(2.0))
                for a in (math.sqrt(2.5), math.sqrt(1.5))]
        assert ident["lhs"] == pytest.approx(flux[0] - flux[1], abs=3.0 * ident["lhs_error"])

    def test_divergence_preset_defaults(self, tmp_path):
        code = run_cli([
            "divergence", "--preset", "box-neumann", "--N", "1e5",
            "--h", "0.005", "--out", str(tmp_path), "--no-plot",
        ])
        assert code == 0
        doc = json.loads((tmp_path / "divergence.json").read_text())
        assert doc["identity"]["passed"] is True

    def test_monotone_csv_has_17_digit_floats(self, tmp_path):
        code = run_cli([
            "monotone", "--preset", "p=x3", "--t", "0.5",
            "--rgrid", "0.8:1.2:0.2", "--h", "0.05",
            "--out", str(tmp_path), "--no-plot",
        ])
        assert code == 0
        rows = (tmp_path / "monotone.csv").read_text().splitlines()
        first_val = rows[2].split(",")[1]
        assert len(first_val.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 15


class TestSvg:
    def test_chart_structure(self):
        svg = cli._svg_chart(
            [{"x": [0, 1, 2], "y": [1.0, 0.5, 2.0], "yerr": [0.1, 0.1, 0.1], "label": "s"}],
            "title", "x", "y",
        )
        assert svg.count("<polyline") == 1
        assert "title" in svg
        assert 'version="1.1"' in svg

    def test_empty_series_ok(self):
        svg = cli._svg_chart([], "empty", "x", "y")
        assert svg.startswith("<svg")
