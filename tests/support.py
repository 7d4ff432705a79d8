"""Independent numerical oracles shared by the test modules.

Everything here deliberately avoids the code paths under test: the
truncated-exponential oracle integrates the defining contour integral
directly, the crossing counter does raw segment/ray geometry, the
unit-exponent inner error comes from the closed-form polynomial in plain
floats, the expansion coefficients of f_c come from math.gamma, and the
moments of one real point come from the angular closed form and a
one-dimensional radial integral or, down to c = -1, from Kummer functions
in polar coordinates about the point.  Two helpers feed the package
inputs: a seeded stream of generic configurations, and the Fujiwara
circle that ``oracle.roots`` once started from, kept to show what its
start changes.  The regional terms of the model, which it forms as
logarithms, are rebuilt here as products of the single branched powers,
and its cut test is checked against raw ray geometry.  What ``ddnum``
writes out on Python floats is kept here composed, as its bit reference:
add, mul and div from two-sums, quick-sums and Dekker's product, and the
one-point Horner step and the banded Cholesky solve from ddnum's complex
operations.  The zeros of ``E_c`` in a box are found here by bisection on
winding counts, the search ``specfun.zeros_E_c`` used before it solved the
ladder equation, as the reference for the zeros that it finds.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import binom, hyp2f1

from mszego import ddnum as dd
from mszego.core import Configuration, validate_config
from mszego.specfun import ContourThroughZero, FcEvaluator, _boundary_winding, _newton
from mszego.szego import solve_structure


def random_generic_configs(count, seed=0, max_nu=4):
    """Seeded stream of validated generic configurations."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        nu = int(rng.integers(1, max_nu + 1))
        pts = 0.15 + 0.75 * rng.random(nu)
        a = tuple(p * np.exp(2j * np.pi * rng.random()) for p in pts)
        try:
            cfg = validate_config(Configuration(a=a, c=(1.0,) * nu, n=20, N=None))
            solve_structure(cfg)
        except Exception:
            continue
        out.append(cfg)
    return out


def fujiwara_start(b):
    """The Aberth start oracle.roots used before its Newton-polygon start:
    n points on a Fujiwara-style circle around the coefficient centroid."""
    n = len(b) - 1
    center = -b[n - 1] / n
    mags = [abs(b[k]) ** (1.0 / (n - k)) for k in range(n) if b[k] != 0]
    radius = 1.0 + (2.0 * max(mags) if mags else 1.0)
    angles = 2.0 * math.pi * (np.arange(n) + 0.35) / n + 0.42
    return center + radius * np.exp(1j * angles)


def f_contour(zeta, c, r=None):
    """Contour-integral evaluation of the truncated exponential.

    Collapses the hairpin around the negative axis onto a real-line
    integral (with the phase jump factored out) plus a small circle
    around the origin.  Valid for zeta at distance >> quadrature
    resolution from the closed negative real axis.
    """
    zeta = complex(zeta)
    if r is None:
        r = min(0.5, abs(zeta) / 2)

    def integrand(t):
        return math.exp(-t) * t ** (-c) * ((t + zeta).conjugate() / abs(t + zeta) ** 2)

    re = quad(lambda t: integrand(t).real, r, 300, limit=600)[0]
    im = quad(lambda t: integrand(t).imag, r, 300, limit=600)[0]
    line = math.sin(c * math.pi) / math.pi * complex(re, im)
    xs, ws = np.polynomial.legendre.leggauss(600)
    th = xs * math.pi
    s = r * np.exp(1j * th)
    vals = np.exp(s) * s ** (-c) / (s - zeta) * 1j * s
    circle = -(1 / (2j * math.pi)) * np.sum(ws * math.pi * vals)
    return line + circle


def alpha(i, c):
    """Coefficient of zeta^(-i) in the large-argument expansion of f_c.

    Equals sin(c*pi) * Gamma(i-c) / (pi * (-1)^(i-1)), which the
    reflection formula collapses to 1/Gamma(c+1-i); exactly 0.0 at the
    poles, where c is an integer with i > c.
    """
    x = c + 1.0 - i
    return 0.0 if x <= 0 and x == math.floor(x) else 1.0 / math.gamma(x)


def crossing_sign(q0, q1, origin, direction):
    """Signed crossing of the open segment q0->q1 with a ray.

    Returns +1 when the segment passes from the right (-) side of the
    oriented ray to its left (+) side, -1 for the opposite direction,
    0 when there is no proper crossing.
    """
    d1 = q1 - q0
    d2 = direction
    denom = d1.real * d2.imag - d1.imag * d2.real
    if abs(denom) < 1e-14:
        return 0
    w = origin - q0
    t = (w.real * d2.imag - w.imag * d2.real) / denom
    p = q0 + t * d1
    s = ((p - origin) / d2).real
    if 1e-9 < t < 1 - 1e-9 and s > 1e-9:
        cr = d2.real * d1.imag - d2.imag * d1.real
        return 1 if cr > 0 else -1
    return 0


def eta(ctx):
    """Monodromy factors exp(-2*pi*i*c_j) of the plain powers."""
    return tuple(cmath.exp(-2j * math.pi * cj) for cj in ctx.config.c)


def eval_W(ctx, z):
    """Product of all plain powers; cuts on every outward ray."""
    out = 1.0 + 0j
    for j in range(1, ctx.config.nu + 1):
        out *= ctx.pow_a(z, j)
    return out


def eval_Wk(ctx, z, k):
    """Product of the k-anchored powers; cuts on the k cut system."""
    out = 1.0 + 0j
    for j in range(1, ctx.config.nu + 1):
        out *= ctx.pow_a_Bk(z, j, k)
    return out


def sampled_eta_tilde(ctx, k, j, t):
    """eta_tilde(k, j) as a ratio of powers, [B_jk/A_j] * [W_j/W_k].

    Sampled at a_j + t*(a_j - a_k), 1e-8 to the + side of the cut from
    a_j away from a_k.
    """
    aj, ak = ctx.config.a[j - 1], ctx.config.a[k - 1]
    d = aj - ak
    z = aj + t * d + 1e-8j * d / abs(d)
    return (ctx.pow_a_Bk(z, j, k) / ctx.pow_a(z, j)) \
        * (eval_Wk(ctx, z, j) / eval_Wk(ctx, z, k))


def product_term(model, z, label):
    """A regional term as the product of its factors: the reference for the
    logarithmic form.

    The outer term is ``z^n prod_j z^(c_j) / (z - a_j)^(c_j)``; the term of
    region j is ``-exp(N (conj(a_j) z + ell_j)) C_j / ((z - a_j) prod_{i != j}
    B_ij(z))``, with B_ij the j-anchored power of point i.
    """
    br, cfg = model.branch, model.config
    if label == 0:
        out = complex(z) ** cfg.n
        for j in range(1, cfg.nu + 1):
            out *= br.pow_z(z, j) / br.pow_a(z, j)
        return out
    aj = cfg.a[label - 1]
    denom = z - aj
    for i in range(1, cfg.nu + 1):
        if i != label:
            denom *= br.pow_a_Bk(z, i, label)
    wave = cmath.exp(cfg.N * (aj.conjugate() * z + model.structure.ell[label - 1]))
    return -wave * model.chain_const[label - 1] / denom


def ray_distance(z, origin, direction):
    """Distance from z to the ray origin + t*direction, t >= 0."""
    d = direction / abs(direction)
    w = z - origin
    t = (w * d.conjugate()).real
    return abs(w) if t <= 0.0 else abs(w - t * d)


def term_rays(cfg, label):
    """The cut rays, as (origin, direction), that the term of a label reads:
    the radial ray through every point for the outer term, the ray from a_i
    away from a_j for every i != j for the term of region j."""
    if label == 0:
        return [(0j, aj) for aj in cfg.a]
    aj = cfg.a[label - 1]
    return [(ai, ai - aj) for i, ai in enumerate(cfg.a, start=1) if i != label]


def ray_product(ctx, q0, q1, skip=()):
    """Product of monodromy factors collected along q0->q1.

    Each crossing of the outward cut of point m multiplies by
    eta_m^(-sign); cuts listed in ``skip`` are ignored.
    """
    cfg = ctx.config
    factors = eta(ctx)
    out = 1.0 + 0j
    for m in range(1, cfg.nu + 1):
        if m in skip:
            continue
        s = crossing_sign(q0, q1, cfg.a[m - 1], cfg.a[m - 1])
        out *= factors[m - 1] ** (-s)
    return out


def _exp_terms(x, lo, hi):
    """The terms x^m/m! of the exponential series for lo <= m < hi."""
    t = x ** lo / math.gamma(lo + 1)
    out = []
    for m in range(lo, hi):
        out.append(t)
        t *= x / (m + 1)
    return out


def unit_point_inner_error(z, a, n, N):
    """Relative error of the leading inner term for one point with c = 1.

    For the weight exp(-N|z|^2) |z - a|^2, (z - a) p_n(z) is the monic
    degree-(n+1) polynomial vanishing at a and Gaussian-orthogonal to every
    degree-<=n polynomial vanishing at a; its lower part is therefore the
    Gaussian reproducing kernel at a:

        p_n(z) = [z^(n+1) - a^(n+1) e_n(Naz) / e_n(Na^2)] / (z - a),

    with e_n the exponential series cut after the x^n term.  The leading
    term of the bounded region, -a^(n+1) exp(N(az - a^2)) / (z - a), keeps
    exp in place of e_n; the difference is written through the tails
    T = exp - e_n so that nothing cancels.  Real z and a, |Naz| and Na^2
    at most n.
    """
    x, y, r = N * a * z, N * a * a, a ** (n + 1)
    e_y = math.fsum(_exp_terms(y, 0, n + 1))
    e_x = math.fsum(_exp_terms(x, 0, n + 1))
    # past m = 2n each term at most halves the previous one
    t_x = math.fsum(_exp_terms(x, n + 1, 3 * n + 60))
    t_y = math.fsum(_exp_terms(y, n + 1, 3 * n + 60))
    exact = z ** (n + 1) - r * e_x / e_y
    diff = -z ** (n + 1) - r * (t_x - math.exp(x - y) * t_y) / e_y
    return abs(diff) / abs(exact)


def real_point_moments(a, c, n, N):
    """Moments <z^p, z^q> of |z - a|^(2c) exp(-N|z|^2) for one real a > 0.

    On the circle |z| = r the angular integral of |z - a|^(2c) e^(ik theta)
    is 2 pi max(r,a)^(2c) (-t)^k binom(c,k) 2F1(-c, k-c; k+1; t^2) with
    t = min(r,a)/max(r,a); the radial integral is split at r = a, where the
    integrand has a kink.  The matrix is real and symmetric.
    """
    def radial(m, k):
        bk = binom(c, k)

        def f(r):
            hi, lo = max(r, a), min(r, a)
            t = lo / hi
            return (r ** (m + 1) * math.exp(-N * r * r) * hi ** (2 * c)
                    * (-t) ** k * bk * hyp2f1(-c, k - c, k + 1, t * t))

        inner = quad(f, 0.0, a, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        outer = quad(f, a, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return 2.0 * math.pi * (inner + outer)

    M = np.zeros((n + 1, n + 1))
    for p in range(n + 1):
        for q in range(p + 1):
            M[p, q] = M[q, p] = radial(p + q, p - q)
    return M


def real_point_moments_mp(a, c, n, N):
    """``real_point_moments`` in closed form, in mpmath, for any c > -1.

    In polar coordinates w = z - a = rho e^(i phi) the weight is
    e^(-N a^2) |w|^(2c) e^(-N rho^2) e^(-2 N a rho cos phi), so the
    monomials w^s conj(w)^u, expanded from z = a + w, integrate in phi to
    2 pi (-1)^m I_|m|(2 N a rho), m = s - u, and in rho to a Kummer
    function.  No quadrature meets the singularity, which
    ``real_point_moments`` has to cross at r = a, where its angular form
    blows up like |r - a|^(2c + 1) once c < -1/2.  The binomial sums
    alternate in sign and cancel about 19 digits at n = 24, so the working
    precision grows with n.
    """
    import mpmath as mp

    with mp.workdps(20 + n):
        a, c, N = mp.mpf(a), mp.mpf(c), mp.mpf(N)
        x = N * a * a

        def term(s, u):
            nu = abs(s - u)
            h = (s + u + 2 * c + nu + 2) / 2
            return ((-1) ** nu * (N * a) ** nu * mp.gamma(h) * mp.hyp1f1(h, nu + 1, x)
                    / (2 * N ** h * mp.factorial(nu)))

        T = [[term(s, u) for u in range(n + 1)] for s in range(n + 1)]
        M = np.zeros((n + 1, n + 1))
        for p in range(n + 1):
            for q in range(p + 1):
                acc = mp.fsum(mp.binomial(p, s) * mp.binomial(q, u) * a ** (p + q - s - u)
                              * T[s][u] for s in range(p + 1) for u in range(q + 1))
                M[p, q] = M[q, p] = float(2 * mp.pi * mp.exp(-x) * acc)
    return M


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _split(a):
    ca = 134217729.0 * a          # 2**27 + 1
    ahi = ca - (ca - a)
    return ahi, a - ahi


def _two_prod(a, b):
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def composed_add(x, y):
    s1, s2 = _two_sum(x[0], y[0])
    t1, t2 = _two_sum(x[1], y[1])
    s2 += t1
    s1, s2 = _quick_sum(s1, s2)
    s2 += t2
    return _quick_sum(s1, s2)


def composed_mul(x, y):
    p1, p2 = _two_prod(x[0], y[0])
    p2 += x[0] * y[1] + x[1] * y[0]
    return _quick_sum(p1, p2)


def composed_div(x, y):
    def sub(x, y):
        return composed_add(x, (-y[0], -y[1]))

    q1 = x[0] / y[0]
    r = sub(x, composed_mul((q1, 0.0), y))
    q2 = r[0] / y[0]
    r = sub(r, composed_mul((q2, 0.0), y))
    q3 = r[0] / y[0]
    return composed_add(_quick_sum(q1, q2), (q3, 0.0))


def composed_horner(coeffs, z):
    """``ddnum.horner`` as the composition it writes out: acc = add(cmul(acc,
    dd(z)), c) from the highest power down, on Python scalars."""
    hi, lo = coeffs
    z = dd.dd(z)
    acc = (0j, 0j)
    for k in reversed(range(len(hi))):
        acc = dd.add(dd.cmul(acc, z), (hi[k], lo[k]))
    return acc


def _div_parts(x, d):
    """A complex double-double over a real one, part by part."""
    re = dd.div((x[0].real, x[1].real), d)
    im = dd.div((x[0].imag, x[1].imag), d)
    return complex(re[0], im[0]), complex(re[1], im[1])


def composed_cholesky_solve(A, rhs, band):
    """``ddnum.cholesky_solve_hermitian`` as ddnum's complex double-double
    operations on the whole (hi, lo) matrix: sub, cmul, conj and div by parts."""
    A_hi, A_lo = A[0].tolist(), A[1].tolist()
    rhs = list(zip(rhs[0].tolist(), rhs[1].tolist()))
    m = len(A_hi)
    L = [[(0j, 0j)] * m for _ in range(m)]
    diag = [(0.0, 0.0)] * m
    for i in range(m):
        first = max(0, i - band)
        for k in range(first, i):
            acc = A_hi[i][k], A_lo[i][k]
            for t in range(max(first, k - band), k):
                acc = dd.sub(acc, dd.cmul(L[i][t], dd.conj(L[k][t])))
            L[i][k] = _div_parts(acc, diag[k])
        acc_r = A_hi[i][i].real, A_lo[i][i].real
        for t in range(first, i):
            re, im = (L[i][t][0].real, L[i][t][1].real), (L[i][t][0].imag, L[i][t][1].imag)
            acc_r = dd.sub(acc_r, dd.add(dd.mul(re, re), dd.mul(im, im)))
        if acc_r[0] <= 0.0:
            raise ArithmeticError(f"nonpositive Cholesky pivot at row {i}")
        diag[i] = dd.sqrt(acc_r)
    y = [(0j, 0j)] * m
    for i in range(m):
        acc = rhs[i]
        for t in range(max(0, i - band), i):
            acc = dd.sub(acc, dd.cmul(L[i][t], y[t]))
        y[i] = _div_parts(acc, diag[i])
    x = [(0j, 0j)] * m
    for i in reversed(range(m)):
        acc = y[i]
        for t in range(i + 1, min(m, i + band + 1)):
            acc = dd.sub(acc, dd.cmul(dd.conj(L[t][i]), x[t]))
        x[i] = _div_parts(acc, diag[i])
    return (np.array([v[0] for v in x], dtype=complex),
            np.array([v[1] for v in x], dtype=complex))


def descent_zeros(ev: FcEvaluator, box, count: int, tol: float) -> list[complex]:
    """The ``count`` zeros in ``box``, isolated by bisection on winding counts.

    A box that winds once is polished at once: Newton from its centre is
    taken if it settles inside the box.  Otherwise the box is halved again;
    one that still fails under 0.05 on a side raises ContourThroughZero, as
    does a total that differs from ``count``.
    """
    zeros: list[complex] = []

    def descend(bx0, bx1, by0, by1, count, depth):
        if count == 0:
            return
        if count == 1:
            z = _newton(ev, complex(0.5 * (bx0 + bx1), 0.5 * (by0 + by1)),
                        (bx0, bx1, by0, by1), tol)
            if z is not None:
                zeros.append(z)
                return
            if max(bx1 - bx0, by1 - by0) < 0.05:
                raise ContourThroughZero(
                    f"Newton polish failed in the box {(bx0, bx1, by0, by1)}; "
                    "jitter the box")
        if depth > 60:
            raise ContourThroughZero("subdivision failed to isolate a zero")
        # split the longer side, jittering the cut off any zero
        split_x = bx1 - bx0 >= by1 - by0
        for frac in (0.5, 0.53, 0.47, 0.57):
            if split_x:
                xm = bx0 + frac * (bx1 - bx0)
                halves = ((bx0, xm, by0, by1), (xm, bx1, by0, by1))
            else:
                ym = by0 + frac * (by1 - by0)
                halves = ((bx0, bx1, by0, ym), (bx0, bx1, ym, by1))
            try:
                w1, w2 = (_boundary_winding(ev, *h) for h in halves)
            except ContourThroughZero:
                continue
            if w1 + w2 == count:
                descend(*halves[0], w1, depth + 1)
                descend(*halves[1], w2, depth + 1)
                return
        raise ContourThroughZero("could not split the box cleanly; jitter it")

    descend(*box, count, 0)
    if len(zeros) != count:
        raise ContourThroughZero(
            f"found {len(zeros)} zeros but the box winding is {count}")
    return zeros
