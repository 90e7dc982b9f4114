"""The benchmark's workloads.

A workload builds every input from the seed when it is constructed (the
set-up), runs one round of program calls in `run_round` (the timed
section) and checks one round's outputs in `verify`.  Every round makes
the same calls on the same inputs, so each round must reproduce the
first one exactly; `capture` gives the text that is compared.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from checks import (
    agree,
    at_most,
    arcsine_cdf,
    bin_averages,
    close,
    constant,
    mode_at_zero,
    non_decreasing,
    reported,
    semicircle_cdf,
    total_measure,
)

# lattice vectors of one eigenvalue, one of each +-m pair
WAVE_MODES = ((1, 8), (1, -8), (8, 1), (8, -1), (4, 7), (4, -7), (7, 4), (7, -4))  # |m|^2 = 65
DIRICHLET_K = ((1, 8), (8, 1), (4, 7), (7, 4))  # sum k_i^2 = 65
NEUMANN_K = ((0, 5), (5, 0), (3, 4), (4, 3))  # sum k_i^2 = 25
MID_WAVE_MODES = ((0, 5), (5, 0), (3, 4), (4, 3), (3, -4), (4, -3))  # |m|^2 = 25


def _jsonable(obj):
    if isinstance(obj, Exception):
        return repr(obj)
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _box_norm2(modes):
    """L^2([0,1]^n) norm squared of sum amp * prod sin/cos(pi k_i x_i); the
    product modes are orthogonal and each factor has mean square 1/2, or 1
    for a constant cos(0) factor."""
    return sum(a * a * math.prod(0.5 if k > 0 else 1.0 for k in ks) for ks, a in modes)


def _sphere_points(count):
    """Fibonacci points on S^2."""
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    s = np.sqrt(1.0 - z * z)
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


class Workload:
    """Named operations run in order; an operation that raises counts as failed."""

    samples_per_round = 0

    def __init__(self, nodalab, seed, out_dir):
        self.nl = nodalab
        self.out_dir = out_dir
        self.rng = np.random.default_rng([int(seed), 0x6E6F64])
        self.ops = {}

    def _mc_seed(self):
        return int(self.rng.integers(1, 2**31))

    def _permuted(self, P):
        """A fixed harmonic with its axes permuted by the seed.

        A harmonic drawn per seed changes the level-set areas, and with them
        the work per round, by up to 50 %; so does a rotation or a reflection,
        because extraction meshes the whole bounding box on a grid that is not
        symmetric about the origin.  Permuting axes maps that grid onto itself,
        so the work stays the same while the coefficients move with the seed.
        A permutation of the variables keeps P homogeneous and harmonic.
        """
        perm = self.rng.permutation(P.dimension)
        terms = {}
        for exps, coeff in P.terms.items():
            moved = [0] * P.dimension
            for i, e in enumerate(exps):
                moved[perm[i]] = e
            terms[tuple(moved)] = coeff
        return self.nl.SparsePolynomial(P.dimension, terms)

    def run_round(self):
        outputs = {}
        for name, op in self.ops.items():
            try:
                outputs[name] = op()
            except Exception as exc:  # counted as a failed operation, not fatal
                outputs[name] = exc
        return outputs

    def capture(self, outputs):
        return {name: json.dumps(_jsonable(out), sort_keys=True) for name, out in outputs.items()}

    def verify(self, outputs):
        raise NotImplementedError

    def rel_ses(self, outputs):
        raise NotImplementedError

    def report_bytes(self):
        return 0


# ---------------------------------------------------------------------------


class WaveDensity(Workload):
    """mu- and sigma-densities of trigonometric eigenfunctions: the pure
    Monte Carlo histogram path (field evaluation, sampling, binning)."""

    N = 1_000_000
    BINS = 64

    def __init__(self, nodalab, seed, out_dir):
        super().__init__(nodalab, seed, out_dir)
        nl = nodalab
        F = nl.fields
        torus, box = nl.Domain.torus(2), nl.Domain.box([0.0, 0.0], [1.0, 1.0])
        amps = self.rng.standard_normal((len(WAVE_MODES), 2))
        wave = nl.make_torus_eigenfunction([(m, a, b) for m, (a, b) in zip(WAVE_MODES, amps)])
        d_modes = list(zip(DIRICHLET_K, self.rng.standard_normal(len(DIRICHLET_K))))
        n_modes = list(zip(NEUMANN_K, self.rng.standard_normal(len(NEUMANN_K))))
        sin = nl.make_torus_eigenfunction([((1, 0), 0.0, 1.0)])
        # (field, domain, flavor, expected mu(M) = lambda ||f||^2 by Green's identity)
        self.cases = {
            "wave.mu": (wave, torus, "mu", 4 * math.pi**2 * 65 * float((amps**2).sum()) / 2),
            "sin.mu": (sin, torus, "mu", 4 * math.pi**2 * 0.5),
            "sin.sigma": (sin, torus, "sigma", None),
            "dirichlet.mu": (F.TrigEigenfunction(F.BOX_DIRICHLET, d_modes, 2), box, "mu",
                             math.pi**2 * 65 * _box_norm2(d_modes)),
            "neumann.mu": (F.TrigEigenfunction(F.BOX_NEUMANN, n_modes, 2), box, "mu",
                           math.pi**2 * 25 * _box_norm2(n_modes)),
        }
        for name, (field, domain, flavor, _) in self.cases.items():
            self.ops[name] = self._density_op(field, domain, flavor, self._mc_seed())
        self.samples_per_round = self.N * len(self.ops)

    def _density_op(self, field, domain, flavor, mc_seed):
        def op():
            an = self.nl.analysis
            d = an.value_distribution_density(field, flavor, domain, self.BINS, self.N, mc_seed)
            return d, an.unimodality_check(d)
        return op

    def verify(self, outputs):
        out = {}
        for name, (_, _, flavor, mu_total) in self.cases.items():
            d, rep = outputs[name]
            if flavor == "mu":
                checks = [total_measure(f"{name}: mu(M) = lambda ||f||^2", d, mu_total),
                          reported(f"{name}: unimodal", rep.passed),
                          mode_at_zero(f"{name}: mode at 0", d)]
            else:
                # the arcsine law is U-shaped, so the detector must reject it
                checks = [reported(f"{name}: unimodality rejected", rep.passed, expect=False)]
            if name == "sin.mu":
                checks.append(bin_averages(f"{name}: (2/pi) sqrt(1-t^2)", d, semicircle_cdf))
            if name == "sin.sigma":
                checks.append(bin_averages(f"{name}: arcsine law", d, arcsine_cdf))
            out[name] = checks
        return out

    def rel_ses(self, outputs):
        rel = []
        for d, _ in outputs.values():
            ok = d.density > 0
            rel.extend((d.density_se[ok] / d.density[ok]).tolist())
        return rel


# ---------------------------------------------------------------------------


class HarmonicMonotone3D(Workload):
    """Monotonicity formula, sphere-flux identity and spherical functional for
    solid harmonics in R^3: the 3D meshing path on SparsePolynomial."""

    H = 0.12
    H_REF = 0.1  # independent extraction for psi(s), on another grid
    R_GRID = (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
    PROP51_GRID = (0.9, 0.95, 1.0, 1.05, 1.1)
    # facets are subdivided to this diameter before radial binning
    H_MIN = 0.03
    SPHERE_N = 200_000
    EPS_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    BASE_SEED = 0
    LEVEL_FRACTION = 0.25  # regular level t as a share of max |P| on the unit sphere

    def __init__(self, nodalab, seed, out_dir):
        super().__init__(nodalab, seed, out_dir)
        nl = nodalab
        bases = {
            "x3": (nl.SparsePolynomial(3, {(0, 0, 1): 1}), 1),
            "p2": (nl.random_solid_harmonic(3, 2, self.BASE_SEED), 2),
            "p3": (nl.random_solid_harmonic(3, 3, self.BASE_SEED), 3),
        }
        sphere = _sphere_points(20_000)
        self.cases = {}
        for name, (base, k) in bases.items():
            P = self._permuted(base)
            pmax = float(np.abs(base.value(sphere)).max())
            t = self.LEVEL_FRACTION * pmax
            eps = pmax * np.array(self.EPS_FRACTIONS)
            self.cases[name] = (P, base, k, t, eps)
            self.ops[f"{name}.monotone_t"] = self._monotone_op(P, t)
            if k < 3:  # the degree-3 mesh costs the most: it runs only the regular level
                self.ops[f"{name}.monotone_0"] = self._monotone_op(P, 0.0)
                self.ops[f"{name}.prop51"] = self._prop51_op(P, t)
            self.ops[f"{name}.sphere"] = self._sphere_op(P, eps, self._mc_seed())
        self.samples_per_round = self.SPHERE_N * len(self.cases)

    def _monotone_op(self, P, t):
        return lambda: self.nl.analysis.monotonicity_check(P, t, np.array(self.R_GRID), h=self.H,
                                                           h_min=self.H_MIN)

    def _prop51_op(self, P, t):
        return lambda: self.nl.analysis.prop51_check(
            P, t, np.array(self.PROP51_GRID), h=self.H, h_min=self.H_MIN)

    def _sphere_op(self, P, eps, mc_seed):
        return lambda: self.nl.analysis.spherical_monotonicity(P, eps, n_samples=self.SPHERE_N,
                                                               seed=mc_seed)

    def _psi(self, P, s):
        """int over {P = s} in B(0,1) of |grad P|, from its own extraction."""
        nl = self.nl
        mesh = nl.extract(P, s, nl.Domain.ball([0.0, 0.0, 0.0], 1.0), self.H_REF)
        return nl.weighted_area(mesh), nl.weighted_area_error_bound(mesh)

    def verify(self, outputs):
        out = {}
        r = np.array(self.R_GRID)
        picks = [len(r) - 1]
        for name, (_, base, k, t, eps) in self.cases.items():
            # psi of the unpermuted harmonic: same geometry, another polynomial and grid
            psi0, psi0_err = self._psi(base, 0.0)
            mt = outputs[f"{name}.monotone_t"]
            # F_t(r) = psi(t r^-k) by homogeneity, and psi peaks at the nodal level
            psi = [self._psi(base, t * r[j] ** -k) for j in picks]
            checks = [
                reported(f"{name}.monotone_t: reported", mt.passed),
                non_decreasing(f"{name}.monotone_t: F_t non-decreasing", mt.values, mt.errors),
                agree(f"{name}.monotone_t: F_t(r) = psi(t r^-k)", mt.values[picks],
                      mt.errors[picks], [v for v, _ in psi], [e for _, e in psi]),
                at_most(f"{name}.monotone_t: F_t <= F_0", mt.values, psi0,
                        3.0 * (mt.errors + psi0_err)),
            ]
            if name == "x3":
                # {P = t} in B_r is a disk of radius sqrt(r^2 - t^2) with |grad P| = 1
                checks.append(close(f"{name}.monotone_t: F = pi (r^2 - t^2) / r^2", mt.values,
                                    math.pi * (r**2 - t**2) / r**2, 3.0 * mt.errors))
            out[f"{name}.monotone_t"] = checks

            m0 = outputs.get(f"{name}.monotone_0")
            if m0 is not None:
                checks = [
                    reported(f"{name}.monotone_0: reported", m0.passed),
                    constant(f"{name}.monotone_0: F_0 constant", m0.values, m0.errors),
                    agree(f"{name}.monotone_0: F_0 = psi(0)", m0.values, m0.errors, psi0, psi0_err),
                ]
                if name == "x3":
                    checks.append(close(f"{name}.monotone_0: F_0 = pi", m0.values, math.pi,
                                        3.0 * m0.errors))
                out[f"{name}.monotone_0"] = checks

            p51 = outputs.get(f"{name}.prop51")
            if p51 is not None:
                out[f"{name}.prop51"] = [reported(f"{name}.prop51: reported", p51.passed)]

            sp = outputs[f"{name}.sphere"]
            checks = [reported(f"{name}.sphere: reported", sp.passed)]
            if name == "x3":
                checks.append(close(f"{name}.sphere: pi (1 - eps^2)", sp.values,
                                    math.pi * (1.0 - eps**2), 5.0 * sp.errors + 1e-12))
            out[f"{name}.sphere"] = checks
        return out

    def rel_ses(self, outputs):
        rel = []
        for name in self.cases:
            sp = outputs[f"{name}.sphere"]
            ok = sp.values > 0
            rel.extend((sp.errors[ok] / sp.values[ok]).tolist())
        return rel


# ---------------------------------------------------------------------------


class LevelCrosscheck(Workload):
    """Level-set integrals of |grad f| by mesh and by thin-shell Monte Carlo,
    and the flux identity through the command line."""

    H_2D = 0.01
    H_3D = 0.06
    SHELL_N = 1_000_000
    SHELL_FRACTION = 0.02  # shell half-width as a share of max |f|
    WORKERS = 2
    CLI_N = 200_000
    CLI_H = 0.005
    CLI_H_WEIGHTED = 0.02
    BASE_SEED = 0
    POLY_LEVEL = 0.15

    def __init__(self, nodalab, seed, out_dir):
        super().__init__(nodalab, seed, out_dir)
        nl = nodalab
        F = nl.fields
        amps = self.rng.standard_normal((len(MID_WAVE_MODES), 2))
        wave = nl.make_torus_eigenfunction([(m, a, b) for m, (a, b) in zip(MID_WAVE_MODES, amps)])
        d_modes = list(zip(DIRICHLET_K, self.rng.standard_normal(len(DIRICHLET_K))))
        fields = {
            "poly2d": (self._permuted(nl.random_solid_harmonic(2, 3, self.BASE_SEED)),
                       nl.Domain.ball([0.0, 0.0], 1.0)),
            "poly3d": (self._permuted(nl.random_solid_harmonic(3, 2, self.BASE_SEED)),
                       nl.Domain.ball([0.0, 0.0, 0.0], 1.0)),
            "torus": (wave, nl.Domain.torus(2)),
            "box": (F.TrigEigenfunction(F.BOX_DIRICHLET, d_modes, 2), nl.Domain.box([0.0, 0.0], [1.0, 1.0])),
        }
        self.cases = {}
        for name, (field, domain) in fields.items():
            fmax = float(np.abs(field.value(domain.sample(20_000, self.rng))).max())
            if name.startswith("poly"):
                t = self.POLY_LEVEL  # the same level set, up to the axis permutation
            else:
                t = float(self.rng.choice([-1.0, 1.0]) * self.rng.uniform(0.25, 0.35) * fmax)
            h = self.H_3D if field.dimension == 3 else self.H_2D
            self.ops[name] = self._crosscheck_op(field, domain, t, h, self.SHELL_FRACTION * fmax,
                                                 self._mc_seed())
            self.cases[name] = t

        # the flux identity through the CLI, on generated field documents
        phase = self.rng.uniform(0.0, 2.0 * math.pi)
        m = [[1, 0], [0, 1]][int(self.rng.integers(2))]
        k = [[1, 0], [0, 1], [1, 1], [2, 1]][int(self.rng.integers(4))]
        amp = float(self.rng.uniform(0.8, 1.25))
        t1 = float(self.rng.uniform(0.3, 0.7))
        docs = {
            # a cos + b sin with a^2 + b^2 = 1: sin(2 pi m.x + phase)
            "cli.torus": ({"field": {"kind": "torus", "dimension": 2, "modes": [
                {"m": m, "cos": repr(math.sin(phase)), "sin": repr(math.cos(phase))}]}},
                0.0, 0.5, self.CLI_H),
            "cli.box": ({"field": {"kind": "box", "dimension": 2, "flavor": "neumann", "k": k,
                                   "amplitude": repr(amp)},
                         "domain": {"kind": "box", "lo": [0, 0], "hi": [1, 1]}},
                        0.2 * amp, 0.6 * amp, self.CLI_H),
            "cli.hermite": ({"field": {"kind": "weighted",
                                       "base": {"kind": "polynomial", "dimension": 2, "terms": [
                                           {"exponents": [2, 0], "coefficient": "1"},
                                           {"exponents": [0, 0], "coefficient": "-1"}]},
                                       "weight": {"kind": "gaussian", "dimension": 2}},
                             "domain": {"kind": "box", "lo": [-4, -4], "hi": [4, 4]}},
                            t1, t1 + 1.0, self.CLI_H_WEIGHTED),
        }
        self.cli_dirs = {}
        for name, (doc, lo, hi, h) in docs.items():
            path = os.path.join(out_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            report_dir = os.path.join(out_dir, name)
            self.cli_dirs[name] = report_dir
            argv = ["divergence", "--field", path, "--t1", repr(lo), "--t2", repr(hi),
                    "--N", str(self.CLI_N), "--h", repr(h), "--seed", str(self._mc_seed()),
                    "--workers", str(self.WORKERS), "--no-plot", "--out", report_dir]
            self.ops[name] = self._cli_op(argv)
        self.samples_per_round = self.SHELL_N * len(self.cases) + self.CLI_N * len(docs)

    def _crosscheck_op(self, field, domain, t, h, delta, mc_seed):
        def op():
            nl = self.nl
            mesh = nl.extract(field, t, domain, h)
            shell = nl.thin_shell(field, t, None, domain, delta, self.SHELL_N, mc_seed,
                                  workers=self.WORKERS)
            return nl.weighted_area(mesh), nl.weighted_area_error_bound(mesh), shell
        return op

    def _cli_op(self, argv):
        return lambda: self.nl.cli.run(argv)

    def _report(self, name):
        with open(os.path.join(self.cli_dirs[name], "divergence.json"), encoding="utf-8") as fh:
            return fh.read()

    def capture(self, outputs):
        text = super().capture(outputs)
        for name in self.cli_dirs:
            if not isinstance(outputs[name], Exception):
                text[name] += self._report(name)
        return text

    def report_bytes(self):
        total = 0
        for d in self.cli_dirs.values():
            total += sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))
        return total

    def verify(self, outputs):
        out = {}
        for name in self.cases:
            area, area_err, shell = outputs[name]
            out[name] = [agree(f"{name}: mesh = thin shell", area, area_err,
                               shell.value, shell.standard_error)]
        for name in self.cli_dirs:
            ident = json.loads(self._report(name))["identity"]
            checks = [reported(f"{name}: exit 0", outputs[name] == 0),
                      reported(f"{name}: identity", ident["passed"])]
            if name == "cli.torus":
                # each level set {sin = t} is two unit lines with |grad f| = 2 pi sqrt(1 - t^2)
                exact = 4.0 * math.pi * (math.sqrt(3.0) / 2.0 - 1.0)
                checks.append(close(f"{name}: mesh flux 4 pi (sqrt3/2 - 1)", ident["lhs"], exact,
                                    3.0 * ident["lhs_error"]))
                checks.append(close(f"{name}: volume flux 4 pi (sqrt3/2 - 1)", ident["rhs"], exact,
                                    4.0 * ident["rhs_error"]))
            out[name] = checks
        return out

    def rel_ses(self, outputs):
        rel = [outputs[n][2].standard_error / abs(outputs[n][2].value) for n in self.cases]
        for name in self.cli_dirs:
            ident = json.loads(self._report(name))["identity"]
            rel.append(ident["rhs_error"] / abs(ident["rhs"]))
        return rel


WORKLOADS = {
    "wave-density": WaveDensity,
    "harmonic-monotone-3d": HarmonicMonotone3D,
    "level-crosscheck": LevelCrosscheck,
}
