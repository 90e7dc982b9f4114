"""Command-line front end: argument handling, report files, exit codes,
and byte-level determinism."""

import argparse
import contextlib
import io
import json
import math
import os

import numpy as np
import pytest

from nodalab import cli
from nodalab.fields import field_to_json, make_torus_eigenfunction


def run_cli(args):
    return cli.run(args)


# the options each command reads, besides --preset and --field (not suite), --out, --no-plot and --workers
OWN_OPTIONS = {
    "density": {"measure", "N", "bins", "seed"},
    "unimodal": {"measure", "N", "bins", "seed"},
    "curvature": {"N", "seed"},
    "divergence": {"t1", "t2", "N", "h", "seed"},
    "deriv": {"t", "delta", "h", "seed"},
    "prop51": {"t", "rgrid", "h", "tol"},
    "monotone": {"t", "rgrid", "h"},
    "corollary": {"rgrid", "h"},
    "sphere": {"egrid", "N", "seed"},
    "robin": {"t1", "t2", "N", "h"},
    "explore": {"rgrid", "h"},
    "suite": {"seed"},
}


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    """`nodalab suite --seed 42 --no-plot`: its report directory and what it printed."""
    out = tmp_path_factory.mktemp("suite")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run_cli(["suite", "--seed", "42", "--out", str(out), "--no-plot"]) == 0
    return out, printed.getvalue()


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

    @pytest.mark.parametrize("spec, points", [
        ("0:1:0.6", [0.0, 0.6]),
        ("0.1:0.9:0.3", [0.1, 0.4, 0.7]),
        ("0:1:0.5", [0.0, 0.5, 1.0]),
        # the commands' default grids keep every point
        ("0.2:1.2:0.1", np.linspace(0.2, 1.2, 11)),
        ("0.7:1.5:0.01", np.linspace(0.7, 1.5, 81)),
        ("0.6:1.6:0.05", np.linspace(0.6, 1.6, 21)),
        ("-0.9:0.9:0.15", np.linspace(-0.9, 0.9, 13)),
        ("0.1:0.9:0.1", np.linspace(0.1, 0.9, 9)),
    ])
    def test_grid_stops_at_hi(self, spec, points):
        g = cli._parse_grid(spec)
        assert len(g) == len(points) and np.allclose(g, points)
        assert g[-1] <= float(spec.split(":")[1])

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

    @pytest.mark.parametrize("doc", [
        '{"kind": "torus", "dimension": 2}',
        '[1, 2]',
        '{"field": {"kind": "torus", "dimension": 2, "modes": [{"m": [1, 0], "cos": "0", "sin": "1"}]},'
        ' "domain": {"kind": "torus", "dimension": 2.5}}',
        '{"kind": "polynomial", "dimension": 2, "terms": [{"exponents": [1, 0], "coefficient": "1/0"}]}',
        '{"field": {"kind": "polynomial", "dimension": 2, "terms": [{"exponents": [1, 0], "coefficient": "1"}]},'
        ' "domain": {"kind": "sphere", "center": [0, 0], "radius": 1}}',
        '{"kind": "box", "dimension": 2, "k": [1, 1], "flavor": "dirichlet-typo"}',
    ], ids=["torus-without-modes", "list", "fractional-torus-dimension", "zero-denominator",
            "unknown-domain-kind", "unknown-box-flavor"])
    def test_malformed_field_document_is_config_error(self, tmp_path, capsys, doc):
        path = tmp_path / "f.json"
        path.write_text(doc)
        assert run_cli(["curvature", "--field", str(path), "--out", str(tmp_path / "out"), "--no-plot"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        '{"kind": "torus", "dimension": 2, "modes": [{"m": [1, 0], "cos": "nan", "sin": "1"}]}',
        '{"kind": "polynomial", "dimension": 2, "terms": [{"exponents": [1, 0], "coefficient": "1e400"}]}',
        '{"kind": "box", "dimension": 2, "k": [1, 1], "flavor": "dirichlet", "amplitude": "inf"}',
        '{"field": {"kind": "polynomial", "dimension": 2, "terms": [{"exponents": [1, 0], "coefficient": "1"}]},'
        ' "domain": {"kind": "ball", "center": [0, 0], "radius": NaN}}',
        '{"kind": "weighted", "base": {"kind": "box", "dimension": 2, "k": [1, 1], "flavor": "neumann"},'
        ' "weight": {"kind": "constant", "dimension": 2, "value": "nan"}}',
    ], ids=["torus-cos-nan", "coefficient-1e400", "box-amplitude-inf", "ball-radius-nan",
            "constant-weight-nan"])
    def test_non_finite_field_document_is_config_error(self, tmp_path, capsys, doc):
        path = tmp_path / "f.json"
        path.write_text(doc)
        argv = ["density", "--field", str(path), "--N", "1e4", "--out", str(tmp_path / "out"), "--no-plot"]
        assert run_cli(argv) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        {"kind": "polynomial", "dimension": 2.5, "terms": [{"exponents": [1, 0], "coefficient": "1"}]},
        {"kind": "weighted",
         "base": {"kind": "polynomial", "dimension": 3, "terms": [{"exponents": [1, 0, 0], "coefficient": "1"}]},
         "weight": {"kind": "gaussian", "dimension": 3.7}},
        {"kind": "weighted",
         "base": {"kind": "polynomial", "dimension": 1, "terms": [{"exponents": [1], "coefficient": "1"}]},
         "weight": {"kind": "constant", "dimension": 1.5, "value": "1"}},
    ], ids=["polynomial-2.5", "gaussian-3.7", "constant-1.5"])
    def test_fractional_dimension_is_config_error(self, tmp_path, capsys, field):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(field))
        argv = ["density", "--field", str(path), "--N", "1e4", "--out", str(tmp_path / "out"), "--no-plot"]
        assert run_cli(argv) == 2
        assert "whole number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["monotone", "--preset", "p=x3", "--bins", "5"],
        # with abbreviations, --h would be --help: exit 0 and no report
        ["curvature", "--preset", "torus-sin", "--h", "0.1"],
        ["prop51", "--preset", "p=x3", "--seed", "3"],
        ["robin", "--preset", "p=x3", "--measure", "sigma"],
        ["density", "--preset", "torus-sin", "--tol", "0.5"],
        ["suite", "--preset", "torus-sin"],
        ["curvature", "--preset", "torus-sin", "--plot"],
    ], ids=" ".join)
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, capsys, argv):
        assert run_cli([*argv, "--out", str(tmp_path), "--no-plot"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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

    @pytest.mark.parametrize("doc", [
        {"kind": "torus", "dimension": 2,
         "modes": [{"m": [1, 0], "cos": "1", "sin": "0"}, {"m": [-1, 0], "cos": "-1", "sin": "0"}]},
        {"kind": "box", "dimension": 2, "k": [1, 1], "flavor": "neumann", "amplitude": "0.0"},
        # 0.1 + 0.2 - 0.3 leaves 5.55e-17 in floating point
        {"kind": "torus", "dimension": 2,
         "modes": [{"m": [1, 0], "cos": "0.1", "sin": "0"}, {"m": [1, 0], "cos": "0.2", "sin": "0"},
                   {"m": [-1, 0], "cos": "-0.3", "sin": "0"}]},
    ], ids=["torus-opposite-waves", "box-zero-amplitude", "torus-decimal-sum"])
    def test_field_whose_waves_cancel_is_config_error(self, tmp_path, capsys, doc):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        argv = ["density", "--field", str(path), "--N", "1e4", "--out", str(tmp_path / "out"), "--no-plot"]
        assert run_cli(argv) == 2
        assert "identically zero" in capsys.readouterr().err


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


    @pytest.mark.parametrize("name", list(cli.PRESETS))
    def test_preset_equals_its_document_as_field(self, tmp_path, name):
        path = tmp_path / "preset.json"
        path.write_text(json.dumps(cli.PRESETS[name][0]))
        reports = []
        for source, out in ((["--preset", name], "a"), (["--field", str(path)], "b")):
            assert run_cli(["curvature", *source, "--out", str(tmp_path / out), "--no-plot"]) == 0
            reports.append(json.loads((tmp_path / out / "curvature.json").read_text())["identity"])
        assert reports[0] == reports[1]

    def test_config_records_every_option_but_out_and_workers(self, tmp_path):
        # (argv, an option the command reads, two values of it): one input per command
        runs = [
            (["density", "--preset", "torus-sin", "--N", "1e4", "--bins", "16"], "seed", ("0", "1")),
            (["unimodal", "--preset", "torus-sin", "--N", "1e4"], "bins", ("16", "32")),
            (["curvature", "--preset", "torus-sin", "--N", "64"], "seed", ("0", "1")),
            (["divergence", "--preset", "torus-sin", "--N", "1e4", "--h", "0.05"], "t1", ("0", "0.1")),
            (["deriv", "--preset", "torus-sin", "--h", "0.05"], "delta", ("0.01", "0.02")),
            (["prop51", "--preset", "p=x3", "--t", "0.5", "--rgrid", "0.7:1.5:0.1", "--h", "0.05"],
             "tol", ("0.03", "0.5")),
            (["monotone", "--preset", "p=x3", "--rgrid", "0.8:1.2:0.2", "--h", "0.1"], "t", ("0.4", "0.5")),
            (["corollary", "--preset", "p=x3", "--h", "0.1"], "rgrid", ("-0.6:0.6:0.3", "-0.6:0.6:0.4")),
            (["sphere", "--preset", "p=x3", "--N", "1e4"], "egrid", ("0.2:0.8:0.3", "0.1:0.9:0.4")),
            (["robin", "--preset", "p=x3", "--N", "1e3", "--h", "0.05"], "t2", ("0.4", "0.5")),
            (["explore", "--preset", "harmonic-mix", "--rgrid", "0.2:1.0:0.4"], "h", ("0.1", "0.2")),
            (["suite"], "seed", ("0", "1")),
        ]
        assert {argv[0] for argv, _, _ in runs} == set(cli.COMMANDS)
        for argv, option, values in runs:
            inputs = set() if argv[0] == "suite" else {"preset", "field"}
            parsed = vars(cli._build_parser().parse_args([argv[0]]))
            assert set(parsed) == {"command", *inputs, *OWN_OPTIONS[argv[0]], "out", "plot", "workers"}
            hashes = []
            for value in values:
                out = tmp_path / argv[0] / value
                run_cli([*argv, f"--{option}={value}", "--out", str(out), "--no-plot"])
                expected = getattr(cli._build_parser().parse_args([argv[0], f"--{option}={value}"]), option)
                docs = [json.loads(path.read_text()) for path in sorted(out.glob("*.json"))]
                assert docs, argv
                for doc in docs:
                    # a report is named after its command: density, unimodal_density, curvature_p=x3, ...
                    parsed = vars(cli._build_parser().parse_args([doc["config"]["command"].split("_")[0]]))
                    assert set(doc["config"]) == set(parsed) - {"out", "workers"}
                    assert doc["config_hash"] == cli._config_hash(doc["config"])
                readers = {doc["config"]["command"]: doc for doc in docs if option in doc["config"]}
                assert readers and all(doc["config"][option] == expected for doc in readers.values())
                hashes.append({name: doc["config_hash"] for name, doc in readers.items()})
            assert hashes[0].keys() == hashes[1].keys()
            assert all(hashes[0][name] != hashes[1][name] for name in hashes[0]), argv

    def test_sphere_in_four_dimensions(self, tmp_path):
        path = tmp_path / "x4.json"
        path.write_text(json.dumps({"kind": "polynomial", "dimension": 4,
                                    "terms": [{"exponents": [0, 0, 0, 1], "coefficient": "1"}]}))
        assert run_cli(["sphere", "--field", str(path), "--N", "1e5", "--out", str(tmp_path), "--no-plot"]) == 0
        assert json.loads((tmp_path / "sphere.json").read_text())["monotonicity"]["passed"] is True

    def test_suite_keeps_every_report_it_prints(self, suite_run):
        out, stdout = suite_run
        printed = [line.split(" -> ")[1] for line in stdout.splitlines() if " -> " in line]
        assert len(printed) == len(cli._SUITE)
        for path in printed:
            assert os.path.isfile(path), path
        for name, measure in (("unimodal", "mu"), ("unimodal_sigma", "sigma")):
            assert json.loads((out / f"{name}.json").read_text())["measure"] == measure
            density = json.loads((out / f"{name}_density.json").read_text())
            assert density["config"]["measure"] == measure

    def test_suite_steps_override_only_their_commands_options(self):
        for label, command, overrides, _, _ in cli._SUITE:
            assert set(overrides) <= {"preset", *cli.COMMANDS[command].options}, label

    @pytest.mark.parametrize("step", cli._SUITE, ids=lambda step: step[0])
    def test_suite_step_equals_its_command_run_alone(self, tmp_path, suite_run, step):
        _, command, overrides, name, _ = step
        seed = {"seed": 42} if "seed" in vars(cli._build_parser().parse_args([command])) else {}
        argv = [command, *(f"--{k}={v}" for k, v in {**seed, **overrides}.items())]
        run_cli([*argv, "--out", str(tmp_path), "--no-plot"])
        reports = sorted(tmp_path.glob("*.json"))
        assert reports
        for path in reports:  # <command>.json, and unimodal_density.json
            alone = json.loads(path.read_text())
            in_suite = json.loads((suite_run[0] / path.name.replace(command, name or command, 1)).read_text())
            for doc in (alone, in_suite):
                del doc["config"]["command"], doc["config_hash"]
            assert in_suite == alone


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
