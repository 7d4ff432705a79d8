"""Independent numerical oracles shared by the test modules.

Everything here deliberately avoids the code paths under test: the
truncated-exponential oracle integrates the defining contour integral
directly, the crossing counter does raw segment/ray geometry, the
unit-exponent inner error comes from the closed-form polynomial in plain
floats, the expansion coefficients of f_c come from math.gamma, and the
moments of one real point come from the angular closed form and a
one-dimensional radial integral.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import binom, hyp2f1


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


def ray_product(ctx, q0, q1, skip=()):
    """Product of monodromy factors collected along q0->q1.

    Each crossing of the outward cut of point m multiplies by
    eta_m^(-sign); cuts listed in ``skip`` are ignored.
    """
    cfg = ctx.config
    eta = ctx.eta
    out = 1.0 + 0j
    for m in range(1, cfg.nu + 1):
        if m in skip:
            continue
        s = crossing_sign(q0, q1, cfg.a[m - 1], cfg.a[m - 1])
        out *= eta[m - 1] ** (-s)
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
