"""Command-line front end: build fields from presets or JSON specs, run the
analysis checks, write JSON/CSV reports and SVG line charts.

Exit codes: 0 all requested checks passed, 1 a check failed, 2 config error.
Two runs with the same config produce byte-identical JSON/CSV/SVG.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import analysis
from .fields import (
    FieldError,
    GaussianWeight,
    SparsePolynomial,
    WeightedField,
    field_from_json,
    field_to_json,
    make_box_eigenfunction,
    make_torus_eigenfunction,
)
from .levelset import Domain, LevelSetError

# ---------------------------------------------------------------------------
# Presets


def _poly_x3():
    return SparsePolynomial(3, {(0, 0, 1): Fraction(1)})


def _poly_x2_minus_y2():
    return SparsePolynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(-1)})


def _preset_table():
    return {
        "torus-sin": lambda: {
            "field": make_torus_eigenfunction([((1, 0), 0.0, 1.0)]),
            "domain": Domain.torus(2),
            "t1": 0.0,
            "t2": 0.5,
            "t": 0.5,
        },
        "p=x3": lambda: {
            "field": _poly_x3(),
            "domain": Domain.ball([0.0, 0.0, 0.0], 1.0),
            "t1": 0.2,
            "t2": 0.4,
            "t": 0.5,
        },
        "x2-y2": lambda: {
            "field": _poly_x2_minus_y2(),
            "domain": Domain.ball([0.0, 0.0], 1.0),
            "t1": 0.1,
            "t2": 0.5,
            "t": 0.3,
        },
        "box-dirichlet": lambda: {
            "field": make_box_eigenfunction((1, 1), "dirichlet"),
            "domain": Domain.box([0.0, 0.0], [1.0, 1.0]),
            "t1": 0.2,
            "t2": 0.6,
            "t": 0.5,
        },
        "box-neumann": lambda: {
            "field": make_box_eigenfunction((1, 0), "neumann"),
            "domain": Domain.box([0.0, 0.0], [1.0, 1.0]),
            "t1": 0.2,
            "t2": 0.6,
            "t": 0.5,
        },
        "hermite-gaussian": lambda: {
            "field": WeightedField(
                SparsePolynomial(2, {(2, 0): Fraction(1), (0, 0): Fraction(-1)}),
                GaussianWeight(2),
            ),
            "domain": Domain.box([-4.0, -4.0], [4.0, 4.0]),
            "t1": 0.5,
            "t2": 1.5,
            "t": 1.0,
        },
        "harmonic-mix": lambda: {
            "field": _poly_x2_minus_y2() + SparsePolynomial(2, {(1, 0): Fraction(1, 2)}),
            "domain": Domain.ball([0.0, 0.0], 1.5),
            "t1": 0.1,
            "t2": 0.5,
            "t": 0.0,
        },
    }


PRESET_NAMES = tuple(_preset_table().keys())


class ConfigError(Exception):
    pass


def _load_target(args):
    if args.preset and args.field:
        raise ConfigError("give either --preset or --field, not both")
    if args.preset:
        table = _preset_table()
        if args.preset not in table:
            raise ConfigError(f"unknown preset {args.preset!r}; choose from {', '.join(PRESET_NAMES)}")
        return table[args.preset]()
    if args.field:
        with open(args.field, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        field_doc = doc.get("field", doc)
        field = field_from_json(field_doc)
        domain = Domain.from_json(doc["domain"]) if "domain" in doc else analysis.default_domain(field)
        return {"field": field, "domain": domain, "t1": 0.0, "t2": 0.5, "t": 0.5}
    raise ConfigError("one of --preset or --field is required")


def _parse_grid(spec):
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}, expected lo:hi:step") from exc
    if step <= 0 or hi <= lo:
        raise ConfigError(f"bad grid spec {spec!r}")
    count = int(round((hi - lo) / step)) + 1
    return np.linspace(lo, lo + step * (count - 1), count)


def _parse_count(text):
    v = float(text)
    if v < 1:
        raise ConfigError(f"bad count {text!r}")
    return int(v)


# ---------------------------------------------------------------------------
# Output writers


def _config_dict(args, command):
    keys = (
        "preset", "field", "measure", "N", "bins", "h", "delta", "t", "t1", "t2",
        "rgrid", "egrid", "seed", "plot",
    )
    cfg = {"command": command}
    for k in keys:
        if hasattr(args, k):
            cfg[k] = getattr(args, k)
    return cfg


def _config_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _write_json(path, payload, cfg):
    payload = dict(payload)
    payload["config"] = cfg
    payload["config_hash"] = _config_hash(cfg)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={_config_hash(cfg)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


def _svg_chart(series, title, x_label, y_label):
    """Minimal SVG 1.1 polyline chart with axes, ticks and error bars."""
    width, height = 640, 440
    m_l, m_r, m_t, m_b = 70, 20, 40, 50
    plot_w, plot_h = width - m_l - m_r, height - m_t - m_b

    xs = np.concatenate([np.asarray(s["x"], dtype=float) for s in series]) if series else np.array([0.0, 1.0])
    ys = np.concatenate([np.asarray(s["y"], dtype=float) for s in series]) if series else np.array([0.0, 1.0])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return m_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return m_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{m_l}" y1="{m_t + plot_h}" x2="{m_l + plot_w}" y2="{m_t + plot_h}" stroke="black"/>',
        f'<line x1="{m_l}" y1="{m_t}" x2="{m_l}" y2="{m_t + plot_h}" stroke="black"/>',
        f'<text x="{m_l + plot_w/2:.1f}" y="{height - 12}" text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="16" y="{m_t + plot_h/2:.1f}" text-anchor="middle" font-family="sans-serif" font-size="12" transform="rotate(-90 16 {m_t + plot_h/2:.1f})">{y_label}</text>',
    ]
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        parts.append(
            f'<text x="{px(xv):.1f}" y="{m_t + plot_h + 16:.1f}" text-anchor="middle" font-family="sans-serif" font-size="10">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{m_l - 6}" y="{py(yv) + 3:.1f}" text-anchor="end" font-family="sans-serif" font-size="10">{yv:.4g}</text>'
        )
        parts.append(
            f'<line x1="{m_l}" y1="{py(yv):.1f}" x2="{m_l + plot_w}" y2="{py(yv):.1f}" stroke="#dddddd"/>'
        )
    for si, s in enumerate(series):
        color = colors[si % len(colors)]
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        yerr = s.get("yerr")
        if yerr is not None:
            yerr = np.asarray(yerr, dtype=float)
            for a, b, e in zip(x, y, yerr):
                if e > 0:
                    parts.append(
                        f'<line x1="{px(a):.2f}" y1="{py(b - e):.2f}" x2="{px(a):.2f}" y2="{py(b + e):.2f}" stroke="{color}" stroke-width="1"/>'
                    )
        label = s.get("label")
        if label:
            parts.append(
                f'<text x="{m_l + plot_w - 6}" y="{m_t + 16 + 14 * si}" text-anchor="end" font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def _write_svg(path, series, title, cfg, x_label="x", y_label="y"):
    body = _svg_chart(series, title, x_label, y_label)
    body = body.replace("</svg>", f"<!-- config_hash={_config_hash(cfg)} -->\n</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body + "\n")


# ---------------------------------------------------------------------------
# Commands


def _cmd_density(args, out_dir, name="density"):
    target = _load_target(args)
    cfg = _config_dict(args, name)
    d = analysis.value_distribution_density(
        target["field"], args.measure, target["domain"], args.bins, args.N, args.seed,
        workers=args.workers,
    )
    json_path = os.path.join(out_dir, f"{name}.json")
    _write_json(json_path, {"density": d.to_json(), "field": field_to_json(target["field"])}, cfg)
    rows = list(zip(d.centers, d.density, d.density_se, d.raw_psi, d.raw_se))
    _write_csv(os.path.join(out_dir, f"{name}.csv"),
               ["t", "density", "density_se", "raw_psi", "raw_se"], rows, cfg)
    if args.plot:
        _write_svg(
            os.path.join(out_dir, f"{name}.svg"),
            [{"x": d.centers, "y": d.density, "yerr": d.density_se, "label": args.measure}],
            f"value distribution density ({args.measure})", cfg, "t", "density",
        )
    return True, json_path, d


def _cmd_unimodal(args, out_dir):
    ok, json_path, d = _cmd_density(args, out_dir, name="unimodal_density")
    cfg = _config_dict(args, "unimodal")
    rep = analysis.unimodality_check(d)
    path = os.path.join(out_dir, "unimodal.json")
    _write_json(path, {"unimodality": rep.to_json(), "measure": args.measure}, cfg)
    return rep.passed, path, rep


def _cmd_curvature(args, out_dir):
    target = _load_target(args)
    cfg = _config_dict(args, "curvature")
    rep = analysis.curvature_identity_check(
        target["field"], n_points=args.N, seed=args.seed, domain=target["domain"]
    )
    path = os.path.join(out_dir, "curvature.json")
    _write_json(path, {"identity": rep.to_json()}, cfg)
    return rep.passed, path, rep


def _cmd_divergence(args, out_dir):
    target = _load_target(args)
    cfg = _config_dict(args, "divergence")
    t1 = target["t1"] if args.t1 is None else args.t1
    t2 = target["t2"] if args.t2 is None else args.t2
    rep = analysis.divergence_identity_check(
        target["field"], t1, t2, target["domain"],
        n_samples=args.N, seed=args.seed, h=args.h, workers=args.workers,
    )
    path = os.path.join(out_dir, "divergence.json")
    _write_json(path, {"identity": rep.to_json()}, cfg)
    return rep.passed, path, rep


def _cmd_deriv(args, out_dir):
    target = _load_target(args)
    cfg = _config_dict(args, "deriv")
    t = target["t"] if args.t is None else args.t
    dt = args.delta if args.delta is not None else 0.01
    rep = analysis.levelset_derivative_check(
        target["field"], "gradnorm", t, dt, domain=target["domain"], h=args.h, seed=args.seed
    )
    path = os.path.join(out_dir, "deriv.json")
    _write_json(path, {"identity": rep.to_json()}, cfg)
    return rep.passed, path, rep


def _require_harmonic(target):
    field = target["field"]
    if not isinstance(field, SparsePolynomial):
        raise ConfigError("this command needs a harmonic polynomial preset/field")
    return field


def _cmd_prop51(args, out_dir):
    target = _load_target(args)
    P = _require_harmonic(target)
    cfg = _config_dict(args, "prop51")
    grid = _parse_grid(args.rgrid) if args.rgrid else _parse_grid("0.7:1.5:0.01")
    t0 = target["t"] if args.t is None else args.t
    rep = analysis.prop51_check(P, t0, grid, h=args.h, rel_tol=args.tol)
    path = os.path.join(out_dir, "prop51.json")
    _write_json(path, {"identity": rep.to_json()}, cfg)
    det = rep.details
    rows = list(zip(det["r"], det["I"], det["J"]))
    _write_csv(os.path.join(out_dir, "prop51.csv"), ["r", "I", "J"], rows, cfg)
    if args.plot:
        _write_svg(os.path.join(out_dir, "prop51.svg"),
                   [{"x": det["r"][1:-1], "y": det["dG"], "label": "dG/dr"},
                    {"x": det["r"][1:-1], "y": det["rhs"], "label": "(n+k-2) I/r"}],
                   "sphere-flux identity", cfg, "r", "value")
    return rep.passed, path, rep


def _cmd_monotone(args, out_dir):
    target = _load_target(args)
    P = _require_harmonic(target)
    cfg = _config_dict(args, "monotone")
    grid = _parse_grid(args.rgrid) if args.rgrid else _parse_grid("0.6:1.6:0.05")
    t = target["t"] if args.t is None else args.t
    rep = analysis.monotonicity_check(P, t, grid, h=args.h)
    path = os.path.join(out_dir, "monotone.json")
    _write_json(path, {"monotonicity": rep.to_json()}, cfg)
    _write_csv(os.path.join(out_dir, "monotone.csv"), ["r", "F", "error"],
               list(zip(rep.grid, rep.values, rep.errors)), cfg)
    if args.plot:
        _write_svg(os.path.join(out_dir, "monotone.svg"),
                   [{"x": rep.grid, "y": rep.values, "yerr": rep.errors, "label": "F(r)"}],
                   "density ratio F(r)", cfg, "r", "F")
    return rep.passed, path, rep


def _cmd_corollary(args, out_dir):
    target = _load_target(args)
    P = _require_harmonic(target)
    cfg = _config_dict(args, "corollary")
    grid = _parse_grid(args.rgrid) if args.rgrid else _parse_grid("-0.9:0.9:0.15")
    rep_neg, rep_pos = analysis.corollary_unimodality(P, grid, h=args.h)
    passed = rep_neg.passed and rep_pos.passed
    path = os.path.join(out_dir, "corollary.json")
    _write_json(path, {"negative_side": rep_neg.to_json(), "positive_side": rep_pos.to_json(),
                       "passed": passed}, cfg)
    rows = list(zip(np.concatenate([rep_neg.grid, rep_pos.grid]),
                    np.concatenate([rep_neg.values, rep_pos.values]),
                    np.concatenate([rep_neg.errors, rep_pos.errors])))
    _write_csv(os.path.join(out_dir, "corollary.csv"), ["t", "psi", "error"], rows, cfg)
    if args.plot:
        _write_svg(os.path.join(out_dir, "corollary.svg"),
                   [{"x": rows_col(rows, 0), "y": rows_col(rows, 1), "label": "psi(t)"}],
                   "level-set weighted area", cfg, "t", "psi")
    return passed, path, (rep_neg, rep_pos)


def rows_col(rows, i):
    return [r[i] for r in rows]


def _cmd_sphere(args, out_dir):
    target = _load_target(args)
    P = _require_harmonic(target)
    cfg = _config_dict(args, "sphere")
    grid = _parse_grid(args.egrid) if args.egrid else _parse_grid("0.1:0.9:0.1")
    rep = analysis.spherical_monotonicity(P, grid, n_samples=args.N, seed=args.seed)
    path = os.path.join(out_dir, "sphere.json")
    _write_json(path, {"monotonicity": rep.to_json()}, cfg)
    _write_csv(os.path.join(out_dir, "sphere.csv"), ["eps", "value", "se"],
               list(zip(rep.grid, rep.values, rep.errors)), cfg)
    if args.plot:
        _write_svg(os.path.join(out_dir, "sphere.svg"),
                   [{"x": rep.grid, "y": rep.values, "yerr": rep.errors, "label": "functional"}],
                   "superlevel functional", cfg, "eps", "value")
    return rep.passed, path, rep


def _cmd_robin(args, out_dir):
    target = _load_target(args)
    P = _require_harmonic(target)
    cfg = _config_dict(args, "robin")
    t1 = target["t1"] if args.t1 is None else args.t1
    t2 = target["t2"] if args.t2 is None else args.t2
    rep = analysis.robin_identity_check(P, t1, t2, h=args.h, quad_nodes=args.N)
    path = os.path.join(out_dir, "robin.json")
    _write_json(path, {"identity": rep.to_json()}, cfg)
    return rep.passed, path, rep


def _cmd_explore(args, out_dir):
    target = _load_target(args)
    P = _require_harmonic(target)
    cfg = _config_dict(args, "explore")
    grid = _parse_grid(args.rgrid) if args.rgrid else _parse_grid("0.2:1.2:0.1")
    table = analysis.explore_general_monotonicity(P, [0.0] * P.dimension, grid, h=args.h)
    path = os.path.join(out_dir, "explore.json")
    payload = {
        "r": table["r"].tolist(),
        "I": table["I"].tolist(),
        "loglog_slopes": [None if math.isnan(v) else v for v in table["loglog_slopes"]],
        "exponents": {
            str(e): {"values": rec["values"].tolist(), "violations": rec["violations"]}
            for e, rec in table["exponents"].items()
        },
        "n_facets": table["n_facets"],
        "n_flagged": table["n_flagged"],
    }
    _write_json(path, payload, cfg)
    header = ["r", "I"] + [f"ratio_e{e:g}" for e in table["exponents"]]
    rows = []
    for i, r in enumerate(table["r"]):
        rows.append([r, table["I"][i]] + [rec["values"][i] for rec in table["exponents"].values()])
    _write_csv(os.path.join(out_dir, "explore.csv"), header, rows, cfg)
    if args.plot:
        series = [
            {"x": table["r"], "y": rec["values"], "label": f"e={e:g}"}
            for e, rec in table["exponents"].items()
        ]
        _write_svg(os.path.join(out_dir, "explore.svg"), series,
                   "exponent scan (exploratory)", cfg, "r", "I/r^e")
    return True, path, table


def _cmd_suite(args, out_dir):
    """Reduced-scale battery over the shipped presets; exit 0 iff all pass."""
    failures = []

    def record(name, passed, path):
        status = "PASS" if passed else "FAIL"
        print(f"[suite] {status} {name} -> {path}")
        if not passed:
            failures.append((name, path))

    base = argparse.Namespace(**vars(args))

    def sub(**kw):
        ns = argparse.Namespace(**vars(base))
        for k, v in kw.items():
            setattr(ns, k, v)
        return ns

    # density + unimodality detector, both measures
    ns = sub(preset="torus-sin", field=None, measure="mu", N=200_000, bins=32)
    ok, path, _ = _cmd_unimodal(ns, out_dir)
    record("unimodal-mu", ok, path)
    ns = sub(preset="torus-sin", field=None, measure="sigma", N=200_000, bins=32)
    ok, path, _ = _cmd_unimodal(ns, out_dir)
    os.replace(os.path.join(out_dir, "unimodal.json"), os.path.join(out_dir, "unimodal_sigma.json"))
    record("unimodal-sigma-fails", not ok, os.path.join(out_dir, "unimodal_sigma.json"))

    for preset in ("torus-sin", "p=x3", "x2-y2", "box-dirichlet", "box-neumann", "hermite-gaussian"):
        ns = sub(preset=preset, field=None, N=500)
        ok, path, _ = _cmd_curvature(ns, out_dir)
        os.replace(path, os.path.join(out_dir, f"curvature_{preset}.json"))
        record(f"curvature-{preset}", ok, os.path.join(out_dir, f"curvature_{preset}.json"))

    ns = sub(preset="torus-sin", field=None, N=200_000, h=0.005, t1=None, t2=None)
    ok, path, _ = _cmd_divergence(ns, out_dir)
    record("divergence-torus", ok, path)
    ns = sub(preset="box-neumann", field=None, N=100_000, h=0.005, t1=None, t2=None)
    ok, path, _ = _cmd_divergence(ns, out_dir)
    os.replace(path, os.path.join(out_dir, "divergence_box.json"))
    record("divergence-box-neumann", ok, os.path.join(out_dir, "divergence_box.json"))

    ns = sub(preset="torus-sin", field=None, t=0.5, delta=0.01, h=0.005)
    ok, path, _ = _cmd_deriv(ns, out_dir)
    record("deriv-torus", ok, path)

    ns = sub(preset="p=x3", field=None, t=0.5, rgrid="0.6:1.6:0.1", h=0.05)
    ok, path, _ = _cmd_monotone(ns, out_dir)
    record("monotone-x3", ok, path)

    ns = sub(preset="p=x3", field=None, t=0.5, rgrid="0.7:1.5:0.05", h=0.02, tol=0.05)
    ok, path, _ = _cmd_prop51(ns, out_dir)
    record("prop51-x3", ok, path)

    ns = sub(preset="p=x3", field=None, rgrid="-0.9:0.9:0.15", h=0.05)
    ok, path, _ = _cmd_corollary(ns, out_dir)
    record("corollary-x3", ok, path)

    ns = sub(preset="p=x3", field=None, N=200_000, egrid="0.1:0.9:0.1")
    ok, path, _ = _cmd_sphere(ns, out_dir)
    record("sphere-x3", ok, path)

    ns = sub(preset="p=x3", field=None, t1=0.2, t2=0.4, h=0.02, N=200_000)
    ok, path, _ = _cmd_robin(ns, out_dir)
    record("robin-x3", ok, path)

    ns = sub(preset="harmonic-mix", field=None, rgrid="0.2:1.2:0.1", h=0.05)
    ok, path, _ = _cmd_explore(ns, out_dir)
    record("explore", ok, path)

    if failures:
        print(f"[suite] {len(failures)} check(s) failed: " + ", ".join(n for n, _ in failures))
        return False, out_dir, failures
    print("[suite] all checks passed")
    return True, out_dir, []


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nodalab",
        description="level-set functionals of eigenfunctions and harmonic polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "density": "value-distribution density histogram",
        "unimodal": "density + unimodality detector",
        "curvature": "pointwise weighted-mean-curvature identity",
        "divergence": "slab flux balance identity",
        "deriv": "level-set derivative identity",
        "prop51": "sphere-flux radial identity",
        "monotone": "density-ratio monotonicity",
        "corollary": "level-set area unimodality over t",
        "sphere": "spherical superlevel functional monotonicity",
        "robin": "Robin boundary flux identity",
        "explore": "exponent scan for general harmonic nodal sets",
        "suite": "full reduced-scale battery",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--preset", default=None, help=f"one of: {', '.join(PRESET_NAMES)}")
        p.add_argument("--field", default=None, help="path to a field JSON document")
        p.add_argument("--measure", default="mu", choices=["sigma", "mu", "weighted"])
        p.add_argument("--N", type=_parse_count, default=None)
        p.add_argument("--bins", type=int, default=64)
        p.add_argument("--h", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--t1", type=float, default=None)
        p.add_argument("--t2", type=float, default=None)
        p.add_argument("--rgrid", default=None, help="lo:hi:step")
        p.add_argument("--egrid", default=None, help="lo:hi:step")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="nodalab-out")
        p.add_argument("--plot", dest="plot", action="store_true", default=True)
        p.add_argument("--no-plot", dest="plot", action="store_false")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
        p.add_argument("--tol", type=float, default=0.03, help="relative tolerance (prop51)")
    return parser


_DEFAULT_N = {
    "density": 10**6,
    "unimodal": 10**6,
    "curvature": 1000,
    "divergence": 10**6,
    "deriv": 10**5,
    "prop51": 10**5,
    "monotone": 10**5,
    "corollary": 10**5,
    "sphere": 10**6,
    "robin": 10**6,
    "explore": 10**5,
    "suite": 10**5,
}

_DEFAULT_H = {
    "deriv": 0.01,
    "divergence": 0.01,
    "prop51": 0.01,
    "monotone": 0.02,
    "corollary": 0.02,
    "robin": 0.01,
    "explore": 0.02,
}

_HANDLERS = {
    "density": _cmd_density,
    "unimodal": _cmd_unimodal,
    "curvature": _cmd_curvature,
    "divergence": _cmd_divergence,
    "deriv": _cmd_deriv,
    "prop51": _cmd_prop51,
    "monotone": _cmd_monotone,
    "corollary": _cmd_corollary,
    "sphere": _cmd_sphere,
    "robin": _cmd_robin,
    "explore": _cmd_explore,
    "suite": _cmd_suite,
}


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.N is None:
        args.N = _DEFAULT_N[args.command]
    if args.h is None:
        args.h = _DEFAULT_H.get(args.command, 0.02)
    if args.command == "suite" and args.preset is None and args.field is None:
        args.preset = "torus-sin"  # suite iterates presets itself

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    try:
        passed, path, _ = _HANDLERS[args.command](args, out_dir)
    except (ConfigError, FieldError, LevelSetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "explore" or args.command == "density":
        return 0
    if not passed:
        print(f"check failed; see {path}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
