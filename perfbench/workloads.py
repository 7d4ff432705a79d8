"""The benchmark's three workloads.

Each workload fixes its configurations, draws its seeded inputs before
an operation starts, runs one operation through the package's public
functions (every call goes through ``tr.call`` so that a traced run can
wrap it in a span), and checks the outputs afterwards against the
references in :mod:`reference`, which never call the package.

An operation is one call of ``run``; a round is the fixed sequence of
operations a run repeats whole, so the share of failed operations is
the same in every run.

The set-up timing imports this module, so :mod:`reference` (mpmath,
scipy.integrate) is imported inside the methods that use it: set-up
pays only for the package.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from mszego.asym import build_model
from mszego.branches import BranchContext, OnCut
from mszego.core import Configuration, validate_config
from mszego.oracle import (exact_moments, monic_op, poly_eval, quad_moments,
                           root_curve_distance, roots)
from mszego.specfun import zeros_E_c
from mszego.szego import classify, solve_structure, trace_curve

ROOT_STEP_TOL = 1e-8      # Newton step on the reference polynomial, times 1+|r|
POLY_EVAL_RTOL = 1e-12    # poly_eval against the reference polynomial
MOMENT_RTOL = 1e-10       # quad_moments against the reference moments
ZERO_STEP_TOL = 1e-8      # mpmath Newton step of the E_c series at a zero
CURVE_TIE_TOL = 1e-7      # plane tie at a traced point (bisected to 1e-8)
LEVEL_TOL = 1e-9          # levels, and a_j on its own region boundary


class Check:
    """Collects the outcome of one operation's checks."""

    def __init__(self):
        self.failures: list[str] = []
        self.err = 0.0        # worst error against the reference, for ref_err_digits

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def error(self, value: float, tol: float, what: str) -> None:
        """An error against the reference that must stay within tol."""
        self.err = max(self.err, value)
        self.require(value <= tol, f"{what}: {value:.3e} > {tol:.0e}")


def _check_roots(chk: Check, ref_poly, rts, n: int) -> None:
    chk.require(len(rts) == n, f"roots: {len(rts)} returned for degree {n}")
    chk.error(float(np.max(ref_poly.newton_steps(rts))), ROOT_STEP_TOL,
              f"roots n={n} Newton step on the reference polynomial")


def _check_levels(chk: Check, a, L, ref_L) -> None:
    from reference import planes
    chk.require(max(abs(x - y) for x, y in zip(L, ref_L)) <= LEVEL_TOL,
                "levels differ from the max-function's fixed point")
    for j, aj in enumerate(a, start=1):
        v = planes(aj, a, L)
        top = max(v)
        on = [i for i, x in enumerate(v) if top - x <= LEVEL_TOL * (1 + abs(top))]
        chk.require(j in on and len(on) >= 2, f"a_{j} is not on its own region boundary")


def _unit(rng) -> complex:
    return cmath.exp(2j * math.pi * rng.random())


def _in_disk(rng, radius: float) -> complex:
    """An area-uniform point of the disk |z| <= radius."""
    return radius * math.sqrt(rng.random()) * _unit(rng)


def _sample(rng, n_pts, draw, accept):
    """The first n_pts points from ``draw()`` that ``accept`` keeps."""
    out = []
    for _ in range(10000 * n_pts):
        z = draw()
        if accept(z):
            out.append(z)
            if len(out) == n_pts:
                return out
    raise RuntimeError("could not draw the sample points")


class Fig4Compare:
    """The paper's two-point picture; each operation is `mszego compare` at one degree."""

    name = "fig4_compare"
    a = (0.5 - 0.5j, -0.25 - 0.5j)
    c = (1.0, 1.0)
    round_degrees = (32, 64, 96)
    ops_per_round = len(round_degrees)
    nominal_round_s = 1.8      # time of one round's operations on a 2-core x86 box
    grid = 400
    ring_points = 8            # outer-region samples on |z| = 1.5
    deep_points = 4            # samples per bounded region
    margin = 7.0               # N * (lead of the winning plane) at a sample
    region_rtol = 0.05         # eval_region against the reference polynomial
    max_root_curve_distance = 0.1

    def configs(self):
        return {n: validate_config(Configuration(self.a, self.c, n, float(n)))
                for n in self.round_degrees}

    def prepare(self):
        import reference as ref
        self.cfg = self.configs()
        self.ref_L = ref.levels(self.a)
        self.ref_poly = {}
        for n in self.round_degrees:
            M = ref.exact_moments(self.a, self.c, n, n)
            coeffs = ref.monic_poly(M, n, band=int(sum(self.c)))
            self.ref_poly[n] = ref.FixedPointPoly(coeffs)

    def inputs(self, rng, op):
        from reference import label_and_gap
        n = self.round_degrees[op % len(self.round_degrees)]

        def deep(label):
            def accept(z):
                lab, gap = label_and_gap(z, self.a, self.ref_L)
                return lab == label and n * gap >= self.margin
            return accept

        pts = _sample(rng, self.ring_points, lambda: 1.5 * _unit(rng), deep(0))
        for j in range(1, len(self.a) + 1):
            pts += _sample(rng, self.deep_points, lambda: _in_disk(rng, 1.0), deep(j))
        return {"n": n, "samples": pts}

    def run(self, tr, inp):
        n = inp["n"]
        cfg = self.cfg[n]
        structure = tr.call("szego.solve_structure", solve_structure, cfg)
        branch = tr.call("branches.BranchContext", BranchContext, cfg)
        model = tr.call("asym.build_model", build_model, cfg, structure, branch)
        moments = tr.call("oracle.exact_moments", exact_moments, cfg)
        poly = tr.call("oracle.monic_op", monic_op, moments, n)
        rts, _ = tr.call("oracle.roots", roots, poly)
        curve = tr.call("szego.trace_curve", trace_curve, structure, grid=self.grid, tol=1e-8)
        excl = max(model.disk_radius(j) for j in range(1, cfg.nu + 1))
        dist = tr.call("oracle.root_curve_distance", root_curve_distance,
                       rts, curve, excl, centers=cfg.a)
        values = []
        skipped = 0
        for z in inp["samples"]:
            try:
                approx = tr.call("asym.eval_region", model.eval_region, z)
            except OnCut:
                skipped += 1
                continue
            values.append((z, approx, tr.call("oracle.poly_eval", poly_eval, poly, z)))
        return {"structure": structure, "roots": rts, "curve": curve, "excl": excl,
                "dist": dist, "values": values, "skipped": skipped}

    def check(self, inp, out):
        n = inp["n"]
        chk = Check()
        _check_roots(chk, self.ref_poly[n], out["roots"], n)
        _check_levels(chk, self.a, out["structure"].L, self.ref_L)
        self._check_curve(chk, out["curve"], out["structure"].L)
        self._check_distance(chk, out)
        zs = [z for z, _, _ in out["values"]]
        exact = self.ref_poly[n].values(zs)
        for (z, approx, value), ex in zip(out["values"], exact):
            rel = abs(value - ex) / abs(ex)
            chk.require(rel <= POLY_EVAL_RTOL, f"poly_eval n={n} at {z}: {rel:.3e}")
            rel = abs(approx - ex) / abs(ex)
            chk.require(rel <= self.region_rtol, f"eval_region n={n} at {z}: {rel:.3e}")
        return chk

    def counts(self, out):
        return {"oracle.roots.returned": len(out["roots"]),
                "asym.points_evaluated": len(out["values"]),
                "branches.oncut_skipped": out["skipped"],
                "szego.trace_curve.points": sum(len(arc) for arc in out["curve"].arcs)}

    def _check_curve(self, chk, curve, L):
        from reference import planes
        worst_tie = worst_above = -math.inf
        for arc in curve.arcs:
            for p in arc.points:
                v = planes(p, self.a, L)
                top = max(v[arc.j], v[arc.k])
                worst_tie = max(worst_tie, abs(v[arc.j] - v[arc.k]))
                others = [x for i, x in enumerate(v) if i not in (arc.j, arc.k)]
                if others:
                    worst_above = max(worst_above, max(others) - top)
        chk.require(worst_tie <= CURVE_TIE_TOL, f"curve: planes untied by {worst_tie:.3e}")
        chk.require(worst_above <= CURVE_TIE_TOL, f"curve: a third plane above by {worst_above:.3e}")

    def _check_distance(self, chk, out):
        """Recompute the root-to-curve distances from the polylines."""
        w = np.asarray(out["roots"])
        for aj in self.a:
            w = w[np.abs(w - aj) > out["excl"]]
        p0 = np.concatenate([arc.points[:-1] for arc in out["curve"].arcs])
        p1 = np.concatenate([arc.points[1:] for arc in out["curve"].arcs])
        dist = np.empty(w.size)
        for i, r in enumerate(w):
            t = np.clip(((r - p0) * np.conj(p1 - p0)).real / np.abs(p1 - p0) ** 2, 0.0, 1.0)
            dist[i] = np.min(np.abs(r - (p0 + t * (p1 - p0))))
        d = out["dist"]
        chk.require(d.count == w.size, f"root_curve_distance counted {d.count}, not {w.size}")
        chk.require(w.size > 0 and abs(d.max - dist.max()) <= 1e-12,
                    "root_curve_distance max differs from the polyline distance")
        chk.require(d.max <= self.max_root_curve_distance,
                    f"roots lie up to {d.max:.3e} off the curve")


class FracQuad:
    """One real point with a non-integer exponent: moments by quadrature only."""

    name = "frac_quad"
    a = (0.6 + 0j,)
    c = (0.5,)
    n = 8
    ops_per_round = 1
    nominal_round_s = 8.5

    def configs(self):
        return {self.n: validate_config(Configuration(self.a, self.c, self.n, None))}

    def prepare(self):
        import reference as ref
        self.cfg = self.configs()[self.n]
        self.ref_moments = ref.real_point_moments(self.a[0].real, self.c[0], self.n, self.cfg.N)
        self.ref_poly = ref.FixedPointPoly(ref.monic_poly(self.ref_moments, self.n))

    def inputs(self, rng, op):
        return {}

    def run(self, tr, inp):
        moments = tr.call("oracle.quad_moments", quad_moments, self.cfg)
        poly = tr.call("oracle.monic_op", monic_op, moments, self.n)
        rts, _ = tr.call("oracle.roots", roots, poly)
        return {"moments": moments, "roots": rts}

    def counts(self, out):
        return {"oracle.roots.returned": len(out["roots"])}

    def check(self, inp, out):
        from reference import moments_reldiff
        chk = Check()
        chk.error(moments_reldiff(out["moments"].entries.tolist(), self.ref_moments),
                  MOMENT_RTOL, "quad_moments against the reference moments")
        _check_roots(chk, self.ref_poly, out["roots"], self.n)
        return chk


class ModelField:
    """The asymptotic formulas at many points of a three-point chain, no oracle."""

    name = "model_field"
    a = (0.69 - 0.18j, 0.29 - 0.2j, 0.17 - 0.05j)
    c = (1.0, 1.0, 1.0)
    n = 64
    ops_per_round = 1
    nominal_round_s = 0.4
    field_points = 2400        # area-uniform in |z| <= field_radius
    field_radius = 1.2
    local_points = 400         # per singular point, within local_radius of it
    local_radius = 0.05        # inside every point's disk (radii 0.086/0.058/0.053)
    zeros_box = (-2.0, 6.0, 0.5, 25.0)
    margin = 3.0               # N * (lead of the winning plane) at a checked point
    uniform_rtol = 0.25        # eval_uniform against the reference polynomial

    def configs(self):
        return {self.n: validate_config(Configuration(self.a, self.c, self.n, None))}

    def prepare(self):
        import reference as ref
        self.cfg = self.configs()[self.n]
        self.ref_L = ref.levels(self.a)
        M = ref.exact_moments(self.a, self.c, self.n, self.n)
        self.ref_poly = ref.FixedPointPoly(ref.monic_poly(M, self.n, band=int(sum(self.c))))

    def inputs(self, rng, op):
        field = [_in_disk(rng, self.field_radius) for _ in range(self.field_points)]
        local = [(j, aj + _in_disk(rng, self.local_radius))
                 for j, aj in enumerate(self.a, start=1) for _ in range(self.local_points)]
        return {"field": field, "local": local}

    def run(self, tr, inp):
        cfg = self.cfg
        structure = tr.call("szego.solve_structure", solve_structure, cfg)
        branch = tr.call("branches.BranchContext", BranchContext, cfg)
        model = tr.call("asym.build_model", build_model, cfg, structure, branch)
        skipped = 0
        uniform = []
        for z in inp["field"]:
            tr.call("szego.classify", classify, z, structure)
            try:
                uniform.append((z, tr.call("asym.eval_uniform", model.eval_uniform, z)))
            except OnCut:
                skipped += 1
        local = 0
        for j, z in inp["local"]:
            try:
                tr.call("asym.eval_local", model.eval_local, z, j)
                local += 1
            except OnCut:
                skipped += 1
        zeros = {c: tr.call("specfun.zeros_E_c", zeros_E_c, c, self.zeros_box)
                 for c in sorted(set(cfg.c))}
        return {"structure": structure, "model": model, "uniform": uniform,
                "local": local, "skipped": skipped, "zeros": zeros}

    def counts(self, out):
        return {"asym.points_evaluated": len(out["uniform"]) + out["local"],
                "branches.oncut_skipped": out["skipped"],
                "specfun.zeros_E_c.zeros": sum(len(zs) for zs in out["zeros"].values())}

    def check(self, inp, out):
        from reference import E_series_newton_step, label_and_gap
        chk = Check()
        _check_levels(chk, self.a, out["structure"].L, self.ref_L)
        model = out["model"]
        checked = []
        for z, approx in out["uniform"]:
            _, gap = label_and_gap(z, self.a, self.ref_L)
            if self.n * gap < self.margin:
                continue
            if any(abs(z - aj) <= model.disk_radius(j) for j, aj in enumerate(self.a, 1)):
                continue
            checked.append((z, approx))
        chk.require(len(checked) >= self.field_points // 2,
                    f"only {len(checked)} field points are checked")
        if checked:
            exact = self.ref_poly.values([z for z, _ in checked], rtol=1e-9)
            rel = max(abs(approx - ex) / abs(ex) for (_, approx), ex in zip(checked, exact))
            chk.error(rel, self.uniform_rtol, "eval_uniform against the reference polynomial")
        for c, zs in out["zeros"].items():
            chk.require(len(zs) > 0, f"zeros_E_c({c}) found no zero in the box")
            for z in zs:
                chk.error(E_series_newton_step(c, z), ZERO_STEP_TOL,
                          f"zeros_E_c({c}) at {z}: series Newton step")
        return chk


WORKLOADS = {w.name: w for w in (Fig4Compare, FracQuad, ModelField)}

