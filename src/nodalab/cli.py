"""Command-line front end: build fields from JSON field documents (a preset
or a --field file), run the analysis checks, write JSON/CSV reports and SVG
line charts.  A command takes the input and output options and the options
its check reads (its row of COMMANDS); any other flag is a usage error.

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
from dataclasses import dataclass

import numpy as np

from . import analysis
from .fields import FieldError, SparsePolynomial, field_from_json, field_to_json
from .levelset import Domain, LevelSetError

# ---------------------------------------------------------------------------
# Presets: named field documents, read by the same loader as --field

# name -> ({"field": ..., "domain": ...}, default (t1, t2, t)); a document
# without "domain" is checked on analysis.default_domain of its field
PRESETS = {
    "torus-sin": ({"field": {"kind": "torus", "dimension": 2,
                             "modes": [{"m": [1, 0], "cos": "0", "sin": "1"}]}}, (0.0, 0.5, 0.5)),
    "p=x3": ({"field": {"kind": "polynomial", "dimension": 3,
                        "terms": [{"exponents": [0, 0, 1], "coefficient": "1"}]}}, (0.2, 0.4, 0.5)),
    "x2-y2": ({"field": {"kind": "polynomial", "dimension": 2,
                         "terms": [{"exponents": [2, 0], "coefficient": "1"},
                                   {"exponents": [0, 2], "coefficient": "-1"}]}}, (0.1, 0.5, 0.3)),
    "box-dirichlet": ({"field": {"kind": "box", "dimension": 2, "flavor": "dirichlet", "k": [1, 1]}},
                      (0.2, 0.6, 0.5)),
    "box-neumann": ({"field": {"kind": "box", "dimension": 2, "flavor": "neumann", "k": [1, 0]}},
                    (0.2, 0.6, 0.5)),
    "hermite-gaussian": ({"field": {"kind": "weighted",
                                    "base": {"kind": "polynomial", "dimension": 2,
                                             "terms": [{"exponents": [2, 0], "coefficient": "1"},
                                                       {"exponents": [0, 0], "coefficient": "-1"}]},
                                    "weight": {"kind": "gaussian", "dimension": 2}},
                          "domain": {"kind": "box", "lo": [-4.0, -4.0], "hi": [4.0, 4.0]}}, (0.5, 1.5, 1.0)),
    "harmonic-mix": ({"field": {"kind": "polynomial", "dimension": 2,
                                "terms": [{"exponents": [2, 0], "coefficient": "1"},
                                          {"exponents": [0, 2], "coefficient": "-1"},
                                          {"exponents": [1, 0], "coefficient": "1/2"}]},
                      "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.5}}, (0.1, 0.5, 0.0)),
}


class ConfigError(Exception):
    pass


def _load_target(args):
    """The field, domain and default levels of --preset NAME or --field PATH."""
    if args.preset and args.field:
        raise ConfigError("give either --preset or --field, not both")
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; choose from {', '.join(PRESETS)}")
        source, (doc, levels) = f"preset {args.preset}", PRESETS[args.preset]
    elif args.field:
        with open(args.field, "r", encoding="utf-8") as fh:
            source, doc, levels = args.field, json.load(fh), (0.0, 0.5, 0.5)
    else:
        raise ConfigError("one of --preset or --field is required")
    try:
        field = field_from_json(doc.get("field", doc))
        domain = Domain.from_json(doc["domain"]) if "domain" in doc else None
    except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad field document {source}: {type(exc).__name__}: {exc}") from exc
    return {"field": field, "domain": domain or analysis.default_domain(field),
            **dict(zip(("t1", "t2", "t"), levels))}


def _parse_grid(spec):
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}, expected lo:hi:step") from exc
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi <= lo:
        raise ConfigError(f"bad grid spec {spec!r}")
    count = math.floor((hi - lo) / step + 1e-9) + 1  # the last point does not pass hi
    return np.linspace(lo, lo + step * (count - 1), count)


def _parse_count(text):
    """argparse type of --N: a finite whole number >= 1, such as 2e5.  Only an
    `ArgumentTypeError` (or `ValueError`) becomes a usage error, exit code 2."""
    v = float(text)
    if not (math.isfinite(v) and v >= 1 and v == int(v)):
        raise argparse.ArgumentTypeError(f"bad count {text!r}: expected a whole number >= 1")
    return int(v)


def _parse_real(text):
    """argparse type of --h, --delta, --t, --t1, --t2 and --tol: a finite number."""
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"bad number {text!r}: expected a finite value")
    return v


# ---------------------------------------------------------------------------
# Output writers


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


def _given(value, default):
    return default if value is None else value


def _require_harmonic(target):
    field = target["field"]
    if not isinstance(field, SparsePolynomial):
        raise ConfigError("this command needs a harmonic polynomial preset/field")
    return field


def _series(label, x, y, yerr=None):
    return {"x": x, "y": y, "yerr": yerr, "label": label}


def _keyed(key):
    """Payload {key: report.to_json()}."""
    return lambda rep, args, target: {key: rep.to_json()}


def _curve(rep):
    return rep.grid, rep.values, rep.errors


def _always_passes(rep):
    return True


@dataclass(frozen=True)
class _Command:
    """One subcommand.  `options` maps each option its check reads (a key of
    _OPTIONS) to its default; a level None is the preset's.  `check(args,
    target)` returns its report, written to <name>.json as `payload(report,
    args, target)`, to <name>.csv as the columns `csv(report)` -> {header:
    values}, and (unless --no-plot) to <name>.svg as the chart (title, x
    label, y label, series(report, args)); the title may name arguments, as
    in "{measure}".  `verdict(report)` sets the exit code."""

    help: str
    options: dict
    check: object = None
    payload: object = _keyed("identity")
    csv: object = None
    chart: tuple = None
    verdict: object = lambda rep: rep.passed


def _density(args, target):
    return analysis.value_distribution_density(
        target["field"], args.measure, target["domain"], args.bins, args.N, args.seed,
        workers=args.workers,
    )


def _unimodal(args, target):
    density = _execute("density", args, name=f"{args.command}_density", target=target)[2]
    return analysis.unimodality_check(density)


def _both_passed(reps):
    return reps[0].passed and reps[1].passed


def _corollary_columns(reps):
    return tuple(np.concatenate(parts) for parts in zip(*map(_curve, reps)))


def _explore(args, target):
    P = _require_harmonic(target)
    return analysis.explore_general_monotonicity(P, [0.0] * P.dimension, _parse_grid(args.rgrid), h=args.h)


def _explore_payload(table, args, target):
    return {
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


_DENSITY_OPTIONS = {"measure": "mu", "N": 10**6, "bins": 64, "seed": 0}

COMMANDS = {
    "density": _Command(
        "value-distribution density histogram", _DENSITY_OPTIONS, _density,
        payload=lambda d, args, target: {"density": d.to_json(), "field": field_to_json(target["field"])},
        csv=lambda d: {"t": d.centers, "density": d.density, "density_se": d.density_se,
                       "raw_psi": d.raw_psi, "raw_se": d.raw_se},
        chart=("value distribution density ({measure})", "t", "density",
               lambda d, args: [_series(args.measure, d.centers, d.density, d.density_se)]),
        verdict=_always_passes,
    ),
    "unimodal": _Command(
        "density + unimodality detector", _DENSITY_OPTIONS, _unimodal,
        payload=lambda rep, args, target: {"unimodality": rep.to_json(), "measure": args.measure},
    ),
    "curvature": _Command(
        "pointwise weighted-mean-curvature identity", {"N": 1024, "seed": 0},
        lambda args, target: analysis.curvature_identity_check(
            target["field"], n_points=args.N, seed=args.seed, domain=target["domain"]),
    ),
    "divergence": _Command(
        "slab flux balance identity", {"t1": None, "t2": None, "N": 10**6, "h": 0.01, "seed": 0},
        lambda args, target: analysis.divergence_identity_check(
            target["field"], _given(args.t1, target["t1"]), _given(args.t2, target["t2"]),
            target["domain"], n_samples=args.N, seed=args.seed, h=args.h, workers=args.workers),
    ),
    "deriv": _Command(
        "level-set derivative identity", {"t": None, "delta": 0.01, "h": 0.01, "seed": 0},
        lambda args, target: analysis.levelset_derivative_check(
            target["field"], _given(args.t, target["t"]), args.delta,
            domain=target["domain"], h=args.h, seed=args.seed),
    ),
    "prop51": _Command(
        "sphere-flux radial identity", {"t": None, "rgrid": "0.7:1.5:0.01", "h": 0.01, "tol": 0.03},
        lambda args, target: analysis.prop51_check(
            _require_harmonic(target), _given(args.t, target["t"]),
            _parse_grid(args.rgrid), h=args.h, rel_tol=args.tol),
        csv=lambda rep: {c: rep.details[c] for c in ("r", "I", "J")},
        chart=("sphere-flux identity", "r", "value",
               lambda rep, args: [_series("dG/dr", rep.details["r"][1:-1], rep.details["dG"]),
                                  _series("(n+k-2) I/r", rep.details["r"][1:-1], rep.details["rhs"])]),
    ),
    "monotone": _Command(
        "density-ratio monotonicity", {"t": None, "rgrid": "0.6:1.6:0.05", "h": 0.02},
        lambda args, target: analysis.monotonicity_check(
            _require_harmonic(target), _given(args.t, target["t"]), _parse_grid(args.rgrid), h=args.h),
        payload=_keyed("monotonicity"),
        csv=lambda rep: dict(zip(("r", "F", "error"), _curve(rep))),
        chart=("density ratio F(r)", "r", "F", lambda rep, args: [_series("F(r)", *_curve(rep))]),
    ),
    "corollary": _Command(
        "level-set area unimodality over t", {"rgrid": "-0.9:0.9:0.15", "h": 0.02},
        lambda args, target: analysis.corollary_unimodality(
            _require_harmonic(target), _parse_grid(args.rgrid), h=args.h),
        payload=lambda reps, args, target: {
            "negative_side": reps[0].to_json(), "positive_side": reps[1].to_json(),
            "passed": _both_passed(reps)},
        csv=lambda reps: dict(zip(("t", "psi", "error"), _corollary_columns(reps))),
        chart=("level-set weighted area", "t", "psi",
               lambda reps, args: [_series("psi(t)", *_corollary_columns(reps)[:2])]),
        verdict=_both_passed,
    ),
    "sphere": _Command(
        "spherical superlevel functional monotonicity", {"egrid": "0.1:0.9:0.1", "N": 10**6, "seed": 0},
        lambda args, target: analysis.spherical_monotonicity(
            _require_harmonic(target), _parse_grid(args.egrid), n_samples=args.N, seed=args.seed),
        payload=_keyed("monotonicity"),
        csv=lambda rep: dict(zip(("eps", "value", "se"), _curve(rep))),
        chart=("superlevel functional", "eps", "value",
               lambda rep, args: [_series("functional", *_curve(rep))]),
    ),
    "robin": _Command(
        "Robin boundary flux identity", {"t1": None, "t2": None, "N": 10**6, "h": 0.01},
        lambda args, target: analysis.robin_identity_check(
            _require_harmonic(target), _given(args.t1, target["t1"]), _given(args.t2, target["t2"]),
            h=args.h, quad_nodes=args.N),
    ),
    "explore": _Command(
        "exponent scan for general harmonic nodal sets", {"rgrid": "0.2:1.2:0.1", "h": 0.02}, _explore,
        payload=_explore_payload,
        csv=lambda table: {"r": table["r"], "I": table["I"],
                           **{f"ratio_e{e:g}": rec["values"] for e, rec in table["exponents"].items()}},
        chart=("exponent scan (exploratory)", "r", "I/r^e",
               lambda table, args: [_series(f"e={e:g}", table["r"], rec["values"])
                                    for e, rec in table["exponents"].items()]),
        verdict=_always_passes,
    ),
    "suite": _Command("full reduced-scale battery", {"seed": 0}),
}


def _execute(command, args, name=None, target=None):
    """Run `command`'s check and write its reports as <name>.json/.csv/.svg
    in args.out; the check sees the report name as args.command.  Returns
    (passed, JSON path, report)."""
    spec = COMMANDS[command]
    args = argparse.Namespace(**{**vars(args), "command": name or command})
    if target is None:
        target = _load_target(args)
    rep = spec.check(args, target)
    # every parsed option but --out and --workers, which change no result
    cfg = {k: v for k, v in vars(args).items() if k not in ("out", "workers")}
    stem = os.path.join(args.out, args.command)
    _write_json(stem + ".json", spec.payload(rep, args, target), cfg)
    if spec.csv:
        columns = spec.csv(rep)
        _write_csv(stem + ".csv", list(columns), zip(*columns.values()), cfg)
    if spec.chart and args.plot:
        title, x_label, y_label, series = spec.chart
        _write_svg(stem + ".svg", series(rep, args), title.format_map(vars(args)), cfg, x_label, y_label)
    return spec.verdict(rep), stem + ".json", rep


# (label, command, overrides of the command's defaults, report name (None: the
# command's), expected verdict)
_SUITE = (
    ("unimodal-mu", "unimodal",
     {"preset": "torus-sin", "measure": "mu", "N": 200_000, "bins": 32}, None, True),
    ("unimodal-sigma-fails", "unimodal",
     {"preset": "torus-sin", "measure": "sigma", "N": 200_000, "bins": 32}, "unimodal_sigma", False),
    *((f"curvature-{preset}", "curvature", {"preset": preset, "N": 1024}, f"curvature_{preset}", True)
      for preset in ("torus-sin", "p=x3", "x2-y2", "box-dirichlet", "box-neumann", "hermite-gaussian")),
    ("divergence-torus", "divergence", {"preset": "torus-sin", "N": 200_000, "h": 0.005}, None, True),
    ("divergence-box-neumann", "divergence",
     {"preset": "box-neumann", "N": 100_000, "h": 0.005}, "divergence_box", True),
    ("deriv-torus", "deriv", {"preset": "torus-sin", "t": 0.5, "delta": 0.01, "h": 0.005}, None, True),
    ("monotone-x3", "monotone", {"preset": "p=x3", "t": 0.5, "rgrid": "0.6:1.6:0.1", "h": 0.05}, None, True),
    ("prop51-x3", "prop51",
     {"preset": "p=x3", "t": 0.5, "rgrid": "0.7:1.5:0.05", "h": 0.02, "tol": 0.05}, None, True),
    ("corollary-x3", "corollary", {"preset": "p=x3", "rgrid": "-0.9:0.9:0.15", "h": 0.05}, None, True),
    ("sphere-x3", "sphere", {"preset": "p=x3", "N": 200_000, "egrid": "0.1:0.9:0.1"}, None, True),
    ("robin-x3", "robin", {"preset": "p=x3", "t1": 0.2, "t2": 0.4, "h": 0.02, "N": 200_000}, None, True),
    ("explore", "explore", {"preset": "harmonic-mix", "rgrid": "0.2:1.2:0.1", "h": 0.05}, None, True),
)


def _run_suite(args):
    """Reduced-scale battery over the shipped presets; passes iff every step
    gives its expected verdict.  A step runs its command with the command's
    defaults, the suite's --seed (where the command takes one) and output
    options, then the step's overrides."""
    failures = []
    for label, command, overrides, name, expected in _SUITE:
        options = COMMANDS[command].options
        shared = {k: v for k, v in vars(args).items() if k in options or k in ("out", "plot", "workers")}
        ns = argparse.Namespace(**{**options, "field": None, **shared, **overrides})
        passed, path, _ = _execute(command, ns, name=name)
        ok = passed == expected
        print(f"[suite] {'PASS' if ok else 'FAIL'} {label} -> {path}")
        if not ok:
            failures.append(label)
    if failures:
        print(f"[suite] {len(failures)} check(s) failed: " + ", ".join(failures))
        return False, args.out, failures
    print("[suite] all checks passed")
    return True, args.out, []


# ---------------------------------------------------------------------------
# Argument parsing


# argparse keywords of every option a command may declare; the default is the command's
_OPTIONS = {
    "measure": {"choices": ["sigma", "mu", "weighted"], "help": "density flavor"},
    "N": {"type": _parse_count, "help": "sample / node count, such as 1e6"},
    "bins": {"type": int, "help": "histogram bins"},
    "h": {"type": _parse_real, "help": "mesh resolution"},
    "delta": {"type": _parse_real, "help": "central-difference step dt"},
    "t": {"type": _parse_real, "help": "level (default: the preset's)"},
    "t1": {"type": _parse_real, "help": "lower level (default: the preset's)"},
    "t2": {"type": _parse_real, "help": "upper level (default: the preset's)"},
    "rgrid": {"help": "radial (or level) grid lo:hi:step"},
    "egrid": {"help": "threshold grid lo:hi:step"},
    "seed": {"type": int, "help": "RNG seed"},
    "tol": {"type": _parse_real, "help": "relative tolerance"},
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nodalab",
        description="level-set functionals of eigenfunctions and harmonic polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        # no abbreviations: --h would be --help, and --t would be --tol where there is no --t
        p = sub.add_parser(name, help=spec.help, allow_abbrev=False)
        if name != "suite":  # the suite's steps name their presets
            p.add_argument("--preset", help=f"one of: {', '.join(PRESETS)}")
            p.add_argument("--field", help="path to a field JSON document")
        for option, default in spec.options.items():
            p.add_argument(f"--{option}", default=default, **_OPTIONS[option])
        p.add_argument("--out", default="nodalab-out", help="output directory")
        p.add_argument("--no-plot", dest="plot", action="store_false", help="write no SVG charts")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1, help="Monte Carlo threads")
    return parser


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "suite":
            passed, path, _ = _run_suite(args)
        else:
            passed, path, _ = _execute(args.command, args)
    except (ConfigError, FieldError, LevelSetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not passed:
        print(f"check failed; see {path}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
