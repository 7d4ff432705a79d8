"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single `[ACCEPTANCE] criterion N: PASS/FAIL` line
with the measured figures, then asserts.

Criterion 6 checks the bounded-region error against the closed form
of the single-point, unit-exponent polynomial
(``support.unit_point_inner_error``).  Its earlier window asked the error to fall by no more than x0.25 from
n=16 to n=32; the closed form shows the true error falls like
(a^2 e^(1-a^2))^n / sqrt(n), a ratio of 0.0395 there, so no accurate
model could meet that edge.

Criterion 8 (local zero alignment) is the one failure kept by design:
the exact zeros sit at zeta(z_k) = 2 pi i k - log(z_k/a) up to
exponentially small terms, so the measured offsets are |log(z_k/a)|
(1.118 at n=32, 0.656 at n=64) because the leading-order zooming
coordinate of ``zeta_map`` leaves out the O(1) term -log(z/a).  Whether
the coordinate or the bounds should change is open; both stay as they
are.  Everything else passes.
"""

import cmath
import math
import time

import numpy as np
from scipy.special import gamma

from mszego.core import Configuration, validate_config
from mszego.asym import build_model
from mszego.oracle import (exact_moments, moments_max_reldiff, monic_op,
                           orthogonality_residuals, poly_eval, quad_moments,
                           root_curve_distance, roots)
from mszego.specfun import E_c, FcEvaluator, f_c, zeros_E_c
from mszego.szego import phi_L, solve_structure, trace_curve

from conftest import A1
from support import alpha, random_generic_configs, unit_point_inner_error

FIG4_A = (0.5 - 0.5j, -0.25 - 0.5j)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[ACCEPTANCE] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_level_solver():
    t0 = time.time()
    configs = random_generic_configs(20, seed=2024, max_nu=4)
    worst_boundary = 0.0
    worst_move = 0.0
    for cfg in configs:
        from mszego.szego import levels_iterations
        its = levels_iterations(cfg)
        L = its[-1]
        for j, aj in enumerate(cfg.a, start=1):
            value, _ = phi_L(aj, cfg.a, L)
            worst_boundary = max(worst_boundary,
                                 abs(value - abs(aj) ** 2 - L[j - 1]))
        extra = [phi_L(z, cfg.a, L)[0] - abs(z) ** 2 for z in cfg.a]
        worst_move = max(worst_move, max(abs(e - l) for e, l in zip(extra, L)))
    dt = time.time() - t0
    ok = worst_boundary <= 1e-9 and worst_move <= 1e-12 and dt < 1.0
    assert report(1, ok, f"20 configs: boundary {worst_boundary:.2e} (<=1e-9), "
                         f"fixed-point move {worst_move:.2e} (<=1e-12), {dt:.2f}s (<1s)")


def test_criterion_2_single_point_curve():
    t0 = time.time()
    cfg = validate_config(Configuration(a=(A1,), c=(1.0,), n=80, N=None))
    st = solve_structure(cfg)
    curve = trace_curve(st, grid=400, tol=1e-8)
    pts = np.concatenate([arc.points for arc in curve.arcs])
    resid = np.abs(np.log(np.abs(pts)) - (np.conj(A1) * pts).real
                   - (math.log(A1) - A1 ** 2))
    rmax = float(resid.max())
    zmax = float(np.abs(pts).max())
    dt = time.time() - t0
    ok = rmax <= 1e-7 and zmax < 1.0 and dt < 5.0
    assert report(2, ok, f"{len(pts)} points: curve residual {rmax:.2e} (<=1e-7), "
                         f"max |z| {zmax:.6f} (<1), {dt:.2f}s (<5s)")


def test_criterion_3_chain_constant_cross_check():
    worst = 0.0
    for c1 in (1.0, 2.0):
        cfg = validate_config(Configuration(a=(A1,), c=(c1,), n=16, N=None))
        model = build_model(cfg)
        rng = np.random.default_rng(int(c1))
        for _ in range(20):
            z = A1 / 2 + 0.15 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            want = (-A1 * (1 - A1 ** 2) ** (c1 - 1) * cfg.N ** (c1 - 1)
                    / gamma(c1)
                    * cmath.exp(cfg.N * (A1 * z + math.log(A1) - A1 ** 2))
                    / (z - A1))
            got = model.eval_region(z, 1)
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-12
    assert report(3, ok, f"closed-form equivalence worst rel {worst:.2e} (<=1e-12)")


def test_criterion_4_special_function():
    checks = []
    rng = np.random.default_rng(9)
    worst_int = 0.0
    for _ in range(40):
        z = complex(rng.uniform(-15, 15), rng.uniform(0.5, 15))
        worst_int = max(worst_int, abs(f_c(z, 1.0) - 1 / z) * abs(z),
                        abs(f_c(z, 2.0) - (1 + z) / z ** 2) / abs((1 + z) / z ** 2))
    checks.append(("integer forms", worst_int, 1e-12))

    worst_a = max(abs(alpha(1, c) - 1.0 / gamma(c)) / abs(1 / gamma(c))
                  for c in (-0.5, 0.5, 1.5, 2.5))
    checks.append(("alpha_1", worst_a, 1e-12))

    worst_series = 0.0
    for c in (-0.5, 0.5, 1.5):
        bound = 2 * abs(alpha(9, c)) / 20.0 ** 9 * 10
        for k in range(16):
            th = 2 * math.pi * k / 16
            if abs(th - math.pi) < 0.25:
                continue
            z = 20 * cmath.exp(1j * th)
            s8 = sum(alpha(i, c) / z ** i for i in range(1, 9))
            worst_series = max(worst_series, abs(f_c(z, c) - s8) / bound)
    checks.append(("series tail ratio", worst_series, 1.0))

    worst_ent = 0.0
    for c in (0.5, 1.3, -0.4):
        ev = FcEvaluator(c)
        zp, zm = complex(-3.0, 1e-8), complex(-3.0, -1e-8)
        up = cmath.exp(zp) * zp ** (-c) - ev.f(zp)
        dn = cmath.exp(zm) * zm ** (-c) - ev.f(zm)
        worst_ent = max(worst_ent, abs(up - dn) / abs(up))
    checks.append(("one-sided limits", worst_ent, 1e-6))

    ok = all(v <= tol for _, v, tol in checks)
    detail = "; ".join(f"{name} {v:.2e} (<={tol:.0e})" for name, v, tol in checks)
    assert report(4, ok, detail)


def test_criterion_5_oracle_correctness():
    cfg10 = validate_config(Configuration(a=FIG4_A, c=(1.0, 1.0), n=10, N=1.0))
    diff = moments_max_reldiff(quad_moments(cfg10).entries,
                               exact_moments(cfg10).entries)

    cfg32 = validate_config(Configuration(a=FIG4_A, c=(1.0, 1.0), n=32, N=None))
    M32 = exact_moments(cfg32)
    resid = float(orthogonality_residuals(M32, monic_op(M32, 32)).max())

    cfg_hand = validate_config(Configuration(a=(A1,), c=(1.0,), n=2, N=1.0))
    Mh = exact_moments(cfg_hand)
    e1 = abs(Mh.entries[0, 0] - 1.5 * math.pi) / (1.5 * math.pi)
    e2 = abs(Mh.entries[1, 0] + A1 * math.pi) / (A1 * math.pi)
    p1 = monic_op(Mh, 1)
    r1, _ = roots(p1)
    e3 = abs(r1[0] + 2 * A1 / 3)

    ok = diff <= 1e-9 and resid <= 1e-8 and max(e1, e2, e3) <= 1e-12
    assert report(5, ok, f"quad-vs-exact {diff:.2e} (<=1e-9); "
                         f"n=32 residual {resid:.2e} (<=1e-8); "
                         f"hand values {max(e1, e2, e3):.2e} (<=1e-12)")


def test_criterion_6_asymptotics_vs_oracle():
    t0 = time.time()
    errs0, errs1, closed = {}, {}, {}
    for n in (16, 32):
        cfg = validate_config(Configuration(a=(A1,), c=(1.0,), n=n, N=None))
        model = build_model(cfg)
        p = monic_op(exact_moments(cfg), n)
        worst = 0.0
        for k in range(8):
            z = 1.5 * cmath.exp(1j * (0.2 + 2 * math.pi * k / 8))
            pv = poly_eval(p, z)
            worst = max(worst, abs(model.eval_region(z, 0) - pv) / abs(pv))
        errs0[n] = worst
        z1 = A1 / 2
        pv1 = poly_eval(p, z1)
        errs1[n] = abs(model.eval_region(z1, 1) - pv1) / abs(pv1)
        closed[n] = unit_point_inner_error(z1, A1, n, cfg.N)
    dt = time.time() - t0
    ratio = errs1[32] / errs1[16]
    match = max(abs(errs1[n] - closed[n]) / closed[n] for n in (16, 32))
    outer_ok = errs0[16] <= 1e-2 and errs0[32] < errs0[16]
    inner_ok = ratio <= 0.9 and match <= 1e-8
    ok = outer_ok and inner_ok and dt < 30.0
    assert report(6, ok,
                  f"outer errors {errs0[16]:.2e}->{errs0[32]:.2e} (<=1e-2, decreasing: "
                  f"{'yes' if outer_ok else 'no'}); inner errors {errs1[16]:.2e}->"
                  f"{errs1[32]:.2e}, ratio {ratio:.4f} (<=0.9), equal to the "
                  f"closed-form error to {match:.1e} rel (<=1e-8); {dt:.1f}s")


def test_criterion_7_root_curve_convergence():
    t0 = time.time()
    dists = {}
    for n in (16, 32):
        cfg = validate_config(Configuration(a=FIG4_A, c=(1.0, 1.0), n=n, N=None))
        st = solve_structure(cfg)
        curve = trace_curve(st, grid=400, tol=1e-8)
        model = build_model(cfg, st)
        excl = max(model.disk_radius(j) for j in (1, 2))
        p = monic_op(exact_moments(cfg), n)
        rts, _ = roots(p)
        dists[n] = root_curve_distance(rts, curve, excl, centers=cfg.a)
    dt = time.time() - t0
    ok = dists[32].max < dists[16].max and dt < 60.0
    assert report(7, ok, f"max root-curve distance {dists[16].max:.4f} (n=16) -> "
                         f"{dists[32].max:.4f} (n=32), decreasing: "
                         f"{'yes' if ok else 'no'}; {dt:.1f}s (<60s)")


def test_criterion_8_local_zero_alignment():
    cfg = validate_config(Configuration(a=(A1,), c=(1.0,), n=32, N=None))
    model = build_model(cfg)
    p = monic_op(exact_moments(cfg), 32)
    rts, _ = roots(p)
    ladder = zeros_E_c(1.0, (-3.0, 3.0, -27.0, 27.0))

    def worst_alignment(model, rts):
        worst, count = 0.0, 0
        for z in rts:
            zeta = model.zeta_map(complex(z), 1)
            if 5.0 <= abs(zeta) <= 25.0:
                count += 1
                worst = max(worst, min(abs(zeta - w) for w in ladder))
        return worst, count

    w32, c32 = worst_alignment(model, rts)
    ok32 = c32 > 0 and w32 <= 1.0

    cfg64 = cfg.replace_degree(64)
    M64 = exact_moments(cfg64)
    p64 = monic_op(M64, 64)
    detail64 = "n=64 oracle did not converge"
    ok64 = True
    if orthogonality_residuals(M64, p64).max() <= 1e-8:
        model64 = build_model(cfg64)
        rts64, _ = roots(p64)
        w64, c64 = worst_alignment(model64, rts64)
        ok64 = c64 > 0 and w64 <= 0.6
        detail64 = f"n=64 worst |dzeta| {w64:.3f} over {c64} zeros (<=0.6)"

    ok = ok32 and ok64
    assert report(8, ok, f"n=32 worst |dzeta| {w32:.3f} over {c32} zeros (<=1.0); "
                         f"{detail64}; the offsets equal |log(z_k/a)|, the term "
                         f"zeta_map leaves out")


def test_criterion_9_matching_consistency():
    cfg = validate_config(Configuration(a=(A1,), c=(1.0,), n=32, N=None))
    model = build_model(cfg)
    worst = 0.0
    for rad in (10.0, 15.0, 20.0, 25.0, 30.0):
        for deg in (-60, -45, -30, -15, 15, 30, 45, 60):
            zeta = rad * cmath.exp(1j * math.radians(deg))
            z = model.zeta_inverse(zeta, 1)
            ratio = model.eval_local(z, 1) / model.eval_uniform(z)
            worst = max(worst, abs(ratio - 1))
    ok = worst <= 0.15
    assert report(9, ok, f"|local/uniform - 1| worst {worst:.4f} (<=0.15) on the "
                         f"overlap side of the 10<=|zeta|<=30 annulus")
