import importlib.util
import math
import os
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e

from mszego import ddnum as dd
from mszego import oracle
from mszego.core import Configuration, validate_config
from mszego.oracle import (IllConditioned, MomentMatrix, NoConvergence,
                           NonIntegerExponent, exact_moments,
                           moments_max_reldiff, monic_op,
                           orthogonality_residuals, poly_eval, quad_moments,
                           root_curve_distance, roots)
from mszego.szego import solve_structure, trace_curve

from conftest import A1
from support import real_point_moments


@pytest.fixture(scope="module")
def cfg_hand():
    return validate_config(Configuration(a=(A1,), c=(1.0,), n=6, N=1.0))


def test_exact_moments_hand_values(cfg_hand):
    M = exact_moments(cfg_hand)
    assert abs(M.entries[0, 0] - 1.5 * math.pi) < 1e-12 * 1.5 * math.pi
    assert abs(M.entries[1, 0] + A1 * math.pi) < 1e-12 * math.pi
    assert M.method == "exact-integer-c"


def test_exact_moments_hermitian_positive(cfg_hand, cfg_pair):
    for cfg in (cfg_hand, cfg_pair):
        M = exact_moments(cfg)
        assert np.max(np.abs(M.entries - M.entries.conj().T)) == 0.0
        np.linalg.cholesky(M.entries)  # positive definiteness


def test_exact_moments_rejects_fractional():
    cfg = validate_config(Configuration(a=(0.5,), c=(0.5,), n=4, N=1.0))
    with pytest.raises(NonIntegerExponent):
        exact_moments(cfg)


def test_exact_moments_factorial_limit():
    # n + sum(c) = 171 needs 171!, which overflows a double
    cfg = validate_config(Configuration(a=(0.5 - 0.5j, -0.25 - 0.5j),
                                        c=(1.0, 1.0), n=169, N=32.0))
    with pytest.raises(IllConditioned) as exc:
        exact_moments(cfg)
    assert exc.value.cond_estimate == math.inf
    M = exact_moments(cfg.replace_degree(168, 32.0))
    assert np.all(np.isfinite(M.entries)) and M.size == 169


def test_exact_moments_double_double_range():
    # on FIG4 at n = N = 140 the Dekker split overflows on N^140 ~ 1e300,
    # well inside the factorial limit
    fig4 = Configuration(a=(0.5 - 0.5j, -0.25 - 0.5j), c=(1.0, 1.0), n=140, N=None)
    with pytest.raises(IllConditioned) as exc:
        exact_moments(validate_config(fig4))
    assert "N^140 = 140^140, past the double-double range" in str(exc.value)
    assert exc.value.cond_estimate == math.inf
    cfg = validate_config(fig4.replace_degree(130, 130.0))
    poly = monic_op(exact_moments(cfg), 130)
    assert math.isfinite(poly.h_n) and poly.h_n > 0


def test_monic_degree_zero(cfg_hand):
    M = exact_moments(cfg_hand)
    p0 = monic_op(M, 0)
    assert p0.coeffs.tolist() == [1.0 + 0j]
    assert p0.h_n == pytest.approx(1.5 * math.pi, rel=1e-14)


def test_monic_degree_one_hand_solve(cfg_hand):
    M = exact_moments(cfg_hand)
    p1 = monic_op(M, 1)
    assert abs(p1.coeffs[0] - 2 * A1 / 3) < 1e-12
    rts, resid = roots(p1)
    assert abs(rts[0] + 2 * A1 / 3) < 1e-12
    assert resid[0] < 1e-12


def test_orthogonality_pair_config(cfg_pair):
    M = exact_moments(cfg_pair.replace_degree(15))
    p = monic_op(M, 15)
    assert orthogonality_residuals(M, p).max() < 1e-12
    assert p.h_n > 0


def test_orthogonality_norm_scaled_double_path(cfg_pair):
    # |<p_n, z^m>| / h_n stays tiny on the double-precision route
    cfg = cfg_pair.replace_degree(15)
    Mq = quad_moments(cfg)
    p = monic_op(Mq, 15)
    M = Mq.entries
    worst = max(abs(np.sum(p.coeffs * M[:16, m])) for m in range(15))
    assert worst / p.h_n < 1e-8


def test_orthogonality_degree_32_extended(cfg_pair):
    cfg = cfg_pair.replace_degree(32)
    M = exact_moments(cfg)
    p = monic_op(M, 32)
    assert orthogonality_residuals(M, p).max() < 1e-8
    # norm-scaled variant stays at the extended-precision floor
    from mszego import ddnum as dd
    worst = 0.0
    for m in range(32):
        acc = dd.dd(0j)
        for k in range(33):
            acc = dd.add(acc, dd.cmul((p.coeffs[k], p.coeffs_lo[k]),
                                      (M.entries[k, m], M.entries_lo[k, m])))
        worst = max(worst, abs(dd.value(acc)))
    assert worst / p.h_n < 1e-8


def test_quadrature_matches_exact_integer(cfg_pair):
    cfg = cfg_pair.replace_degree(10, 1.0)
    Mq = quad_moments(cfg)
    Me = exact_moments(cfg)
    assert moments_max_reldiff(Mq.entries, Me.entries) < 1e-9
    # the quadrature matrix drives the double-double solve cleanly
    p = monic_op(Mq, 10)
    assert orthogonality_residuals(Mq, p).max() < 1e-28


def test_quadrature_singular_weight_bessel_identity():
    # weight exp(-|z|^2) |z - a|^(-1): closed polar-Bessel form of the mass
    a = 0.6
    cfg = validate_config(Configuration(a=(a,), c=(-0.5,), n=2, N=1.0))
    M = quad_moments(cfg)
    want = 2 * math.pi * math.exp(-a * a) * quad(
        lambda r: math.exp(-r * r + 2 * a * r) * i0e(2 * a * r), 0, 40,
        limit=200)[0]
    assert M.entries[0, 0].real == pytest.approx(want, rel=1e-9)
    assert M.entries[0, 0].real > 0


def test_quadrature_tail_truncation(cfg_hand):
    from mszego.oracle import _moments_mesh
    A = _moments_mesh(cfg_hand, 3, 2)
    B = _moments_mesh(cfg_hand, 3, 2, R_scale=2.0)
    assert moments_max_reldiff(A, B) < 1e-12


def _main_grid_sums(a, c, n, ntheta):
    """Main-grid moments of |z - a|^(2c) e^(-n|z|^2), three ways.

    Returns the rfft sum, the Vandermonde sum and a long-double sum over
    exact roots of unity.  The Vandermonde powers the rounded nodes
    r e^(i theta), which costs it about one ulp of the Cauchy-Schwarz
    scale on entries that vanish under the exact rule.
    """
    from mszego.oracle import _angular_accumulate, _vander_accumulate
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is plain double here")
    x, wx = np.polynomial.legendre.leggauss(40)
    R = math.sqrt((2 * n + 40) / n)
    r = 0.5 * R * (1.0 + x)
    theta = 2 * math.pi * np.arange(ntheta) / ntheta
    z = r[:, None] * np.exp(1j * theta)[None, :]
    w = (0.5 * R * wx * r)[:, None] * np.exp(-n * r * r)[:, None] * np.abs(z - a) ** (2 * c)
    fft = np.zeros((n + 1, n + 1), dtype=complex)
    _angular_accumulate(fft, r, w)
    vander = np.zeros_like(fft)
    _vander_accumulate(vander, z.ravel(), w.ravel(), n + 1)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    k = np.arange(ntheta, dtype=np.longdouble)
    wl, rl = w.astype(np.longdouble), r.astype(np.longdouble)
    exact = np.zeros_like(fft)
    for p in range(n + 1):
        for q in range(n + 1):
            ang = 2 * pi * (p - q) * k / ntheta
            rs = rl ** (p + q)
            exact[p, q] = complex(float(rs @ (wl @ np.cos(ang))),
                                  float(rs @ (wl @ np.sin(ang))))
    return fft, vander, exact


@pytest.mark.parametrize("a, c, n, ntheta", [
    # a complex point makes the weight asymmetric in theta, so a conjugated
    # angular index would show
    (0.3 + 0.4j, 0.5, 8, 256),
    # the integer path's ntheta = 2n + 2C + 8 leaves the fewest spare harmonics
    (0.5 - 0.5j, 1.0, 16, 2 * 16 + 2 * 2 + 8),
])
def test_angular_fft_matches_vandermonde(a, c, n, ntheta):
    fft, vander, exact = _main_grid_sums(a, c, n, ntheta)
    assert moments_max_reldiff(fft, exact) <= 1e-12
    assert moments_max_reldiff(fft, vander) <= 1e-11


def test_quadrature_rotation_covariance():
    # rotating the point by alpha multiplies M[p, q] by e^(i (p - q) alpha)
    alpha = 0.7
    base = quad_moments(validate_config(Configuration(a=(0.6,), c=(0.5,), n=4, N=None)))
    rot = quad_moments(validate_config(
        Configuration(a=(0.6 * np.exp(1j * alpha),), c=(0.5,), n=4, N=None)))
    k = np.arange(5)
    phase = np.exp(1j * alpha * (k[:, None] - k[None, :]))
    assert moments_max_reldiff(rot.entries, phase * base.entries) <= 1e-9


def test_quadrature_memory_bound():
    import tracemalloc
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc already running")
    cfg = validate_config(Configuration(a=(0.6,), c=(0.5,), n=8, N=None))
    tracemalloc.start()
    try:
        quad_moments(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 55 MB measured with each radial chunk's arrays freed before the
    # patches (61 MB when the last chunk's stayed alive through them, 79 MB
    # when the cutoff ran over whole radial rows)
    assert peak < 60 * 2 ** 20


@pytest.mark.parametrize("a, c, n", [(0.6, 0.5, 8), (0.7, 0.5, 24), (0.5, 3.5, 8)])
def test_quadrature_matches_real_point_reference(a, c, n):
    # measured 3.6e-15, 1.0e-14 and 2.1e-13; the factor-2 mesh alone reads
    # 3.1e-12 on the first case, so a ladder that stops a step early fails
    cfg = validate_config(Configuration(a=(a,), c=(c,), n=n, N=None))
    M = quad_moments(cfg)
    assert moments_max_reldiff(M.entries, real_point_moments(a, c, n, cfg.N)) <= 1e-12


@pytest.mark.parametrize("name", ["cfg_level2_frac", "cfg_branchy"])
def test_grid_weight_skips_far_disks_bit_for_bit(name, request, monkeypatch):
    # a chunk whose radii all lie r_j or more from |a_j| has no node in that
    # disk; testing every node anyway must not move a bit of the moments
    from mszego.oracle import _bump, _moments_mesh
    cfg = request.getfixturevalue(name)
    skipped = []

    def unskipped(config, radii, rr, base, eit, cutoff):
        z = rr[:, None] * eit[None, :]
        w = base[:, None]
        rhos = []
        for aj, cj in zip(config.a, config.c):
            rho = np.abs(z - aj)
            w = w * rho ** (2.0 * cj)
            rhos.append(rho)
        for aj, rho, rj in zip(config.a, rhos, radii):
            skipped.append(np.min(np.abs(rr - abs(aj))) >= rj)
            inside = rho < rj
            w[inside] *= 1.0 - _bump(2.0 * rho[inside] / rj - 1.0)
        return w

    want = _moments_mesh(cfg, cfg.n + 1, 2)
    monkeypatch.setattr(oracle, "_grid_weight", unskipped)
    got = _moments_mesh(cfg, cfg.n + 1, 2)
    assert any(skipped)
    assert np.array_equal(got, want)


def test_bump_is_exact_outside_its_transition():
    from mszego.oracle import _bump
    t = np.array([-np.inf, -5.0, -1e-300, -0.0, 0.0, 1.0, 1.0 + 1e-15, 3.0, np.inf])
    out = _bump(t)
    assert np.array_equal(out[:5], np.ones(5))
    assert np.array_equal(out[5:], np.zeros(4))
    mid = _bump(np.linspace(0.1, 0.9, 9))
    assert np.all((mid > 0.0) & (mid < 1.0)) and np.all(np.diff(mid) < 0)


@pytest.mark.parametrize("name", ["cfg_level2_frac", "cfg_branchy"])
def test_cutoff_disks_are_disjoint(name, request):
    # the main grid multiplies each node by at most one cutoff factor
    from mszego.oracle import _cutoff_radii
    cfg = request.getfixturevalue(name)
    radii = _cutoff_radii(cfg)
    for j in range(len(cfg.a)):
        assert radii[j] == min(0.1, 0.45 * min(
            abs(cfg.a[j] - ak) for k, ak in enumerate(cfg.a) if k != j))
        for k in range(j):
            assert radii[j] + radii[k] < abs(cfg.a[j] - cfg.a[k])


def test_roots_simple_quadratic():
    poly = monic_from_coeffs([-1.0, 0.0, 1.0])
    rts, resid = roots(poly)
    assert np.allclose(sorted(rts.real), [-1.0, 1.0], atol=1e-12)
    assert np.max(np.abs(rts.imag)) < 1e-12


def test_roots_triple_zero():
    poly = monic_from_coeffs([0.0, 0.0, 0.0, 1.0])
    rts, _ = roots(poly)
    assert np.max(np.abs(rts)) < 1e-4


def monic_from_coeffs(coeffs):
    from mszego.oracle import MonicPolynomial
    arr = np.array(coeffs, dtype=complex)
    return MonicPolynomial(len(arr) - 1, arr, 1.0, np.zeros_like(arr),
                           np.eye(len(arr) - 1))


def _reference():
    """perfbench/reference.py, the mpmath references that never import mszego."""
    pytest.importorskip("mpmath")
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.py")
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    return ref


@pytest.mark.parametrize("a, c", [
    ((0.5 - 0.5j, -0.25 - 0.5j), (1, 1)),                        # FIG4
    ((0.69 - 0.18j, 0.29 - 0.2j, 0.17 - 0.05j), (1, 1, 1)),      # cfg_level3
])
def test_roots_against_mpmath(a, c):
    # n = N = 96 is past the degree where a double-precision Aberth iteration
    # leaves FIG4 roots 1e-2 off; the residuals must see what mpmath sees
    ref = _reference()
    n = 96
    cfg = validate_config(Configuration(a=a, c=tuple(map(float, c)), n=n, N=None))
    rts, resid = roots(monic_op(exact_moments(cfg), n))
    truth = ref.FixedPointPoly(ref.monic_poly(ref.exact_moments(a, c, n, n), n,
                                              band=sum(c)))
    steps = truth.newton_steps(rts)
    assert len(rts) == n
    assert steps.max() <= 1e-12
    assert resid.max() >= 0.25 * steps.max()


def test_roots_refuse_at_dd_coefficient_floor():
    # at n = N = 128 the double-double coefficients hold FIG4's roots to about
    # 1e-10 only, so some Newton steps stay above ROOT_TOL
    cfg = validate_config(Configuration(a=(0.5 - 0.5j, -0.25 - 0.5j), c=(1.0, 1.0),
                                        n=128, N=None))
    poly = monic_op(exact_moments(cfg), 128)
    with pytest.raises(NoConvergence):
        roots(poly)


def test_double_stage_matches_polyval_bits():
    # the stacked loop of the double Aberth stage against three np.polyval calls
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 33, 96):
        b = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        b[n] = 1.0
        z = 1.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        desc, ddesc = b[::-1], (b[1:] * np.arange(1, n + 1))[::-1]
        want = (np.polyval(desc, z), np.polyval(ddesc, z),
                np.polyval(np.abs(desc), np.abs(z)))
        for got, ref in zip(oracle._double_newton(b)(z), want):
            assert got.tobytes() == ref.tobytes()


def test_roots_bits_match_unstacked_evaluation(monkeypatch):
    # roots with the stacked passes against roots with np.polyval and
    # per-point scalar double-double Horner, on FIG4 at n = N = 64
    cfg = validate_config(Configuration(a=(0.5 - 0.5j, -0.25 - 0.5j), c=(1.0, 1.0),
                                        n=64, N=None))
    poly = monic_op(exact_moments(cfg), 64)
    got = roots(poly)

    def double_newton(b):
        desc, ddesc = b[::-1], (b[1:] * np.arange(1, len(b)))[::-1]
        return lambda z: (np.polyval(desc, z), np.polyval(ddesc, z),
                          np.polyval(np.abs(desc), np.abs(z)))

    def dd_newton(poly):
        d = dd.scale((poly.coeffs[1:], poly.coeffs_lo[1:]),
                     dd.dd(np.arange(1.0, poly.degree + 1)))
        d = (d[0].tolist(), d[1].tolist())
        return lambda z: (np.array([poly_eval(poly, w) for w in z]),
                          np.array([dd.value(dd.horner(d, complex(w))) for w in z]))

    monkeypatch.setattr(oracle, "_double_newton", double_newton)
    monkeypatch.setattr(oracle, "_dd_newton", dd_newton)
    want = roots(poly)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_roots_vieta(cfg_pair):
    cfg = cfg_pair.replace_degree(16)
    p = monic_op(exact_moments(cfg), 16)
    rts, resid = roots(p)
    assert resid.max() < 1e-10
    rebuilt = np.array([1.0 + 0j])
    for r in rts:
        rebuilt = np.convolve(rebuilt, np.array([1.0, -r]))
    rebuilt = rebuilt[::-1]
    scale = np.abs(p.coeffs).max()
    assert np.max(np.abs(rebuilt - p.coeffs)) < 1e-6 * scale


def test_root_curve_distance_basics(cfg_pair):
    st = solve_structure(cfg_pair)
    curve = trace_curve(st, grid=150, tol=1e-8)
    pts = curve.arcs[0].points[::9]
    s = root_curve_distance(pts, curve, exclusion=0.0)
    assert s.max < 1e-12
    assert s.count == len(pts)
    only_centers = root_curve_distance(np.array(cfg_pair.a), curve, 0.05,
                                       centers=cfg_pair.a)
    assert only_centers.count == 0
    assert math.isnan(only_centers.max)


def test_root_curve_distance_shrinks(cfg_pair):
    vals = {}
    st = solve_structure(cfg_pair)
    curve = trace_curve(st, grid=250, tol=1e-8)
    for n in (16, 32):
        p = monic_op(exact_moments(cfg_pair.replace_degree(n)), n)
        rts, _ = roots(p)
        vals[n] = root_curve_distance(rts, curve, 0.08, centers=cfg_pair.a)
    assert vals[32].max < vals[16].max


def test_scaling_covariance():
    # p_{n,N}(z; a) = (n/N)^(n/2) p_{n,n}(sqrt(N/n) z; sqrt(N/n) a)
    a = 0.3 + 0.2j
    n, N = 8, 16.0
    lhs_cfg = validate_config(Configuration(a=(a,), c=(1.0,), n=n, N=N))
    s = math.sqrt(N / n)
    rhs_cfg = validate_config(Configuration(a=(s * a,), c=(1.0,), n=n, N=float(n)))
    p_lhs = monic_op(exact_moments(lhs_cfg), n)
    p_rhs = monic_op(exact_moments(rhs_cfg), n)
    rng = np.random.default_rng(5)
    for _ in range(12):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = poly_eval(p_lhs, z)
        rhs = (n / N) ** (n / 2) * poly_eval(p_rhs, s * z)
        assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1e-12)


def test_ill_conditioned_double_path():
    # the quadrature guard refuses a hopeless solve before the Cholesky
    rng = np.random.default_rng(0)
    n = 24
    z = rng.normal(size=(n + 1, 4)) + 1j * rng.normal(size=(n + 1, 4))
    M = z @ z.conj().T  # rank 4: catastrophically singular
    mm = MomentMatrix(entries=M, entries_lo=np.zeros_like(M), method="quadrature",
                      band=n)
    with pytest.raises(IllConditioned):
        monic_op(mm, n)


@pytest.mark.parametrize("entries", [
    [[1.0, 2j, 0.0], [-2j, 1.0, 0.0], [0.0, 0.0, 1.0]],      # positive diagonal
    [[1.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 1.0]],    # negative diagonal
])
def test_indefinite_exact_gram_refused(entries):
    # the Cholesky meets a nonpositive pivot; no NaN comes out of the condition
    M = np.array(entries, dtype=complex)
    mm = MomentMatrix(entries=M, entries_lo=np.zeros_like(M),
                      method="exact-integer-c", band=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditioned) as exc:
            monic_op(mm, 2)
    assert exc.value.cond_estimate == math.inf


def test_cond_estimate_is_diagonally_scaled(cfg_pair):
    # the unscaled (max/min Cholesky diagonal)^2 read 1.1e12 at n = N = 32,
    # mostly the Gaussian scale m!/N^m of the moments
    p = monic_op(exact_moments(cfg_pair.replace_degree(32)), 32)
    assert 100 < p.cond_estimate < 300


def test_cond_estimate_computed_on_first_read(monkeypatch):
    # the SVD behind cond_estimate runs once, when the value is first read
    cfg = validate_config(Configuration(a=(0.5 - 0.5j, -0.25 - 0.5j), c=(1.0, 1.0),
                                        n=96, N=None))
    M = exact_moments(cfg)
    cond, calls = np.linalg.cond, []
    monkeypatch.setattr(np.linalg, "cond", lambda A: calls.append(A) or cond(A))
    p = monic_op(M, 96)
    assert calls == []
    value = p.cond_estimate
    assert p.cond_estimate == value and len(calls) == 1
    s = np.sqrt(M.entries.diagonal()[:96].real)
    eager = float(cond(M.entries[:96, :96] / np.outer(s, s)))
    assert np.float64(value).tobytes() == np.float64(eager).tobytes()


def test_quadrature_guard_scaled_condition(cfg_pair):
    # the raw Gram condition at n = N = 40 is 2.4e16, mostly the Gaussian scale
    # m!/N^m; after diagonal scaling it is about 200 and the solve is sound
    cfg = cfg_pair.replace_degree(40)
    quad_roots, _ = roots(monic_op(quad_moments(cfg), 40))
    exact_roots, _ = roots(monic_op(exact_moments(cfg), 40))
    gap = np.abs(quad_roots[:, None] - exact_roots[None, :])
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) < 1e-8
