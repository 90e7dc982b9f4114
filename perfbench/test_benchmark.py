"""Tests of the benchmark itself: every check rejects a deliberately wrong
input, and traced runs repeat their per-layer counts.

    python3 -m pytest perfbench -q        # from the checkout root, ~1 min
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import nodalab  # noqa: E402
import checks  # noqa: E402
from spans import PER_LAYER_UNITS, self_times  # noqa: E402

SIN = nodalab.make_torus_eigenfunction([((1, 0), 0.0, 1.0)])
TORUS = nodalab.Domain.torus(2)


@pytest.fixture(scope="module")
def sin_mu():
    return nodalab.value_distribution_density(SIN, "mu", TORUS, 64, 400_000, 3)


@pytest.fixture(scope="module")
def sin_sigma():
    return nodalab.value_distribution_density(SIN, "sigma", TORUS, 64, 400_000, 4)


def test_mode_moved_off_zero_is_rejected(sin_mu):
    assert checks.mode_at_zero("right", sin_mu).passed
    assert nodalab.unimodality_check(sin_mu).passed
    moved = dataclasses.replace(sin_mu, density=np.roll(sin_mu.density, 20),
                                density_se=np.roll(sin_mu.density_se, 20))
    assert not checks.mode_at_zero("moved", moved).passed
    assert not nodalab.unimodality_check(moved).passed


def test_scaled_total_measure_is_rejected(sin_mu):
    exact = 2.0 * math.pi**2  # lambda ||sin||^2 = 4 pi^2 / 2
    assert checks.total_measure("right", sin_mu, exact).passed
    scaled = dataclasses.replace(sin_mu, normalization=1.05 * sin_mu.normalization)
    assert not checks.total_measure("scaled", scaled, exact).passed


def test_swapped_closed_forms_are_rejected(sin_mu, sin_sigma):
    assert checks.bin_averages("mu", sin_mu, checks.semicircle_cdf).passed
    assert checks.bin_averages("sigma", sin_sigma, checks.arcsine_cdf).passed
    assert not checks.bin_averages("mu as arcsine", sin_mu, checks.arcsine_cdf).passed
    assert not checks.bin_averages("sigma as semicircle", sin_sigma, checks.semicircle_cdf).passed


def test_decreasing_and_tilted_profiles_are_rejected():
    r = np.linspace(0.6, 1.4, 9)
    F = math.pi * (1.0 - 0.25 / r**2)  # x3 at t = 0.5
    err = 0.5 * 0.02 * F
    assert checks.non_decreasing("right", F, err).passed
    assert not checks.non_decreasing("reversed", F[::-1], err[::-1]).passed
    flat = np.full(9, math.pi)
    assert checks.constant("right", flat, 0.01 * flat).passed
    assert not checks.constant("tilted", flat * (1.0 + 0.1 * (r - 1.0)), 0.01 * flat).passed
    assert checks.at_most("right", F, math.pi, err).passed
    assert not checks.at_most("above F_0", F + 0.5, math.pi, err).passed


def test_shifted_mesh_value_is_rejected():
    # int over {sin 2 pi x = 1/2} of |grad f| = 4 pi sqrt(3)/2
    mesh = nodalab.extract(SIN, 0.5, TORUS, 0.005)
    area, bound = nodalab.weighted_area(mesh), nodalab.weighted_area_error_bound(mesh)
    shell = nodalab.thin_shell(SIN, 0.5, None, TORUS, 0.05, 400_000, 5)
    args = (shell.value, shell.standard_error)
    assert checks.agree("right", area, bound, *args).passed
    assert not checks.agree("shifted", 1.05 * area, bound, *args).passed
    assert checks.close("closed form", area, 2.0 * math.pi * math.sqrt(3.0), 3.0 * bound).passed
    assert not checks.close("shifted", 1.05 * area, 2.0 * math.pi * math.sqrt(3.0), 3.0 * bound).passed


def test_wrong_verdict_is_rejected():
    assert checks.reported("pass", True).passed
    assert not checks.reported("fail", False).passed
    assert checks.reported("expected fail", False, expect=False).passed
    assert not checks.reported("unexpected pass", True, expect=False).passed


def test_permuted_harmonics_stay_harmonic():
    from itertools import permutations

    from workloads import Workload

    x = np.random.default_rng(1).standard_normal((5, 3))
    P = nodalab.random_solid_harmonic(3, 3, 0)
    for seed in range(4):
        Q = Workload(nodalab, seed, None)._permuted(P)
        assert Q.laplacian_poly().is_zero() and Q.homogeneous_degree() == 3
        assert any(np.allclose(Q.value(x), P.value(x[:, list(p)])) for p in permutations(range(3)))


def test_self_time_subtracts_overlapping_children_once():
    # parent 0..10; two pool threads cover 2..6 and 4..8 -> union 6 s
    spans = [["p", 0.0, 10.0, -1, 1, 0], ["a", 2.0, 6.0, 0, 2, 0], ["b", 4.0, 8.0, 0, 3, 0]]
    assert list(self_times(spans)) == [4.0, 4.0, 4.0]


def _traced(workload, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["level-crosscheck", "wave-density"])
def test_traced_counts_repeat(workload):
    # one round against at least two: per-round counts must not depend on it
    a = _traced(workload, 0)
    b = _traced(workload, 1.2 * a["metrics"]["trace.wall_s"]["value"])
    assert a["correct"] and b["correct"] and b["attempted"] > a["attempted"]
    counts = [k for k, v in a["metrics"].items() if v["unit"] == "count"]
    assert "levelset.facets" in counts and "fields.trig_points" in counts
    for key in counts:
        assert a["metrics"][key]["value"] == b["metrics"][key]["value"], key


def test_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "level-crosscheck",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert PER_LAYER_UNITS == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(v["value"] > 0 for v in metrics.values())


def test_refuses_to_run_without_program_source(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "checks.py", "spans.py"):
        (bench / name).write_text(open(os.path.join(HERE, name), encoding="utf-8").read())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wave-density",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
