"""References for the benchmark's checks, computed apart from the package.

Nothing here imports ``mszego``.  The planar weight is
``exp(-N|z|^2) prod_j |z - a_j|^(2 c_j)`` and ``<f, g>`` is its inner
product ``∫ f conj(g) w dA``.

* Integer exponents: the moments come from the expanded weight
  polynomial against the Gaussian moments ``pi m!/N^(m+1)``, exactly in
  mpmath, and the monic orthogonal polynomial from a banded Gram solve.
* One real point with any exponent: the angular integral has a
  closed form in ``2F1``, which leaves a 1-D radial integral for scipy.
* ``E_c``: its power series, summed in mpmath.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 80  # digits for every mpmath computation below


def _weight_coeffs(a, c):
    """Ascending coefficients of prod (z - a_j)^(c_j), integer c_j >= 1."""
    poly = [mp.mpc(1)]
    for aj, cj in zip(a, c):
        if cj != int(cj) or cj < 1:
            raise ValueError(f"exponent {cj} is not a positive integer")
        aj = mp.mpc(aj)
        for _ in range(int(cj)):
            nxt = [mp.mpc(0)] * (len(poly) + 1)
            for i, p in enumerate(poly):
                nxt[i + 1] += p
                nxt[i] -= p * aj
            poly = nxt
    return poly


def exact_moments(a, c, n, N):
    """Dense (n+1)x(n+1) list of <z^j, z^k> for integer exponents, in mpmath."""
    with mp.workdps(DPS):
        alpha = _weight_coeffs(a, c)
        C = len(alpha) - 1
        Nm = mp.mpf(N)
        g = [mp.pi * mp.factorial(m) / Nm ** (m + 1) for m in range(n + C + 1)]
        M = [[mp.mpc(0)] * (n + 1) for _ in range(n + 1)]
        for j in range(n + 1):
            for k in range(max(0, j - C), min(n, j + C) + 1):
                acc = mp.mpc(0)
                for p in range(C + 1):
                    q = j + p - k
                    if 0 <= q <= C:
                        acc += alpha[p] * mp.conj(alpha[q]) * g[j + p]
                M[j][k] = acc
        return M


def monic_poly(M, n, band=None):
    """Ascending coefficients of the monic degree-n orthogonal polynomial.

    Solves sum_k b_k <z^k, z^m> = -<z^n, z^m> (m < n) by Gaussian
    elimination without pivoting, which is stable because the Gram
    matrix is Hermitian positive definite; ``band`` limits the work to
    a banded matrix.
    """
    band = n if band is None else band
    with mp.workdps(DPS):
        A = [[mp.mpc(M[k][m]) for k in range(n)] for m in range(n)]
        rhs = [-mp.mpc(M[n][m]) for m in range(n)]
        for i in range(n):
            for r in range(i + 1, min(n, i + band + 1)):
                f = A[r][i] / A[i][i]
                if f == 0:
                    continue
                for k in range(i, min(n, i + band + 1)):
                    A[r][k] -= f * A[i][k]
                rhs[r] -= f * rhs[i]
        b = [mp.mpc(0)] * n
        for i in range(n - 1, -1, -1):
            acc = rhs[i]
            for k in range(i + 1, min(n, i + band + 1)):
                acc -= A[i][k] * b[k]
            b[i] = acc / A[i][i]
        return b + [mp.mpc(1)]


class FixedPointPoly:
    """An mpmath polynomial evaluated in binary fixed point.

    Coefficients and points are scaled by 2**BITS to Python integers, so
    Horner's rule runs in exact integer arithmetic up to one rounding
    per step at 2**-BITS: far below the cancellation that monomial
    evaluation of these polynomials suffers in double precision, and
    much faster than mpmath.  Object arrays vectorize over the points.
    """

    BITS = 320

    def __init__(self, coeffs):
        scale = mp.mpf(2) ** self.BITS
        with mp.workdps(DPS):
            self.re = [int(mp.nint(mp.re(ck) * scale)) for ck in coeffs]
            self.im = [int(mp.nint(mp.im(ck) * scale)) for ck in coeffs]

    def _horner(self, z):
        """p(z) and p'(z) at the points of the complex array z."""
        s = 2.0 ** self.BITS
        zr = np.array([int(v.real * s) for v in z], dtype=object)
        zi = np.array([int(v.imag * s) for v in z], dtype=object)
        P = self.BITS
        pr, pi, dr, di = (np.zeros(z.size, dtype=object) for _ in range(4))
        for cr, ci in zip(reversed(self.re), reversed(self.im)):
            dr, di = (((dr * zr - di * zi) >> P) + pr,
                      ((dr * zi + di * zr) >> P) + pi)
            pr, pi = (((pr * zr - pi * zi) >> P) + cr,
                      ((pr * zi + pi * zr) >> P) + ci)
        one = 1 << P
        return (np.array([complex(r / one, i / one) for r, i in zip(pr, pi)]),
                np.array([complex(r / one, i / one) for r, i in zip(dr, di)]))

    def values(self, zs, rtol: float = 0.0):
        """p(z) at every point of ``zs``, as complex128.

        With ``rtol > 0``, points where double-precision Horner is proven
        accurate to ``rtol`` keep that value: its rounding error is at
        most 8 (n+1) u sum |b_k| |z|^k (u the unit roundoff, with room
        for complex arithmetic and the rounded coefficients).
        """
        z = np.array([complex(v) for v in zs])
        out = np.zeros(z.shape, dtype=complex)
        slow = np.ones(z.shape, dtype=bool)
        if rtol > 0 and z.size:
            coeffs = np.array([complex(r, i) for r, i in zip(self.re, self.im)]) \
                / 2.0 ** self.BITS
            scale = np.zeros(z.shape)
            for ck in coeffs[::-1]:
                out = out * z + ck
                scale = scale * np.abs(z) + abs(ck)
            bound = 8 * len(coeffs) * np.finfo(float).eps * scale
            slow = ~(bound <= rtol * np.abs(out))
        if slow.any():
            out[slow] = self._horner(z[slow])[0]
        return out

    def newton_steps(self, zs):
        """|p(z)/p'(z)| / (1 + |z|) at every point: the roots test."""
        z = np.array([complex(v) for v in zs])
        p, dp = self._horner(z)
        with np.errstate(divide="ignore"):
            return np.abs(p / dp) / (1.0 + np.abs(z))


def single_point_closed_form(a, n, N, z):
    """p_n(z) for one point with c = 1: [z^(n+1) - a^(n+1) e_n(N conj(a) z)/e_n(N|a|^2)]/(z - a)."""
    with mp.workdps(DPS):
        a, z, Nm = mp.mpc(a), mp.mpc(z), mp.mpf(N)

        def e_n(x):
            return mp.fsum(x ** k / mp.factorial(k) for k in range(n + 1))

        q = z ** (n + 1) - a ** (n + 1) * e_n(Nm * mp.conj(a) * z) / e_n(Nm * abs(a) ** 2)
        return q / (z - a)


# ---------------------------------------------------------------------------
# one real point, any exponent


def real_point_moments(a, c, n, N):
    """<z^p, z^q> for the weight |z - a|^(2c) exp(-N|z|^2), real a > 0.

    The angular integral of |r e^(i theta) - a|^(2c) e^(i k theta) is
    2 pi max(r,a)^(2c) (-t)^k binom(c,k) 2F1(-c, k-c; k+1; t^2) with
    t = min(r,a)/max(r,a); the radial integral is split at r = a, where
    the integrand has a kink.  Returns a nested list of floats (the
    matrix is real and symmetric for real a).
    """
    from scipy.integrate import quad
    from scipy.special import binom, hyp2f1

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

    M = [[0.0] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        for q in range(p + 1):
            M[p][q] = M[q][p] = radial(p + q, p - q)
    return M


def gaussian_moment(m, N):
    """pi m!/N^(m+1), the plane integral of |z|^(2m) exp(-N|z|^2)."""
    return math.pi * math.exp(math.lgamma(m + 1) - (m + 1) * math.log(N))


def moments_reldiff(A, B):
    """max |A - B| / max(|B|, 1e-4 sqrt(B_jj B_kk)) over all entries.

    Entries far below their Cauchy-Schwarz scale sqrt(B_jj B_kk) are
    measured against 1e-4 of that scale.
    """
    size = len(B)
    worst = 0.0
    for j in range(size):
        for k in range(size):
            scale = 1e-4 * math.sqrt(abs(B[j][j]) * abs(B[k][k]))
            d = abs(complex(A[j][k]) - complex(B[j][k]))
            worst = max(worst, d / max(abs(complex(B[j][k])), scale))
    return worst


# ---------------------------------------------------------------------------
# the entire function E_c


def E_series(c, z):
    """E_c(z) = sum z^k/Gamma(c+1+k) and its derivative, summed in mpmath."""
    with mp.workdps(DPS):
        z = mp.mpc(z)
        c = mp.mpf(c)
        tol = mp.mpf(10) ** (-DPS)
        term = mp.rgamma(c + 1)          # z^k / Gamma(c+1+k)
        E, dE = term, mp.mpc(0)
        k = 0
        while k <= abs(z) or abs(term) >= tol * (abs(E) + tol):
            k += 1
            dE += k * term / (c + k)     # k z^(k-1) / Gamma(c+1+k)
            term *= z / (c + k)
            E += term
        return E, dE


def E_series_newton_step(c, z):
    """|E_c(z)/E_c'(z)|, the test of a zero of E_c."""
    E, dE = E_series(c, z)
    return float(abs(E / dE))


# ---------------------------------------------------------------------------
# the max-function


def levels(a):
    """Levels l_j of the max-function, from its definition.

    Phi(z) = max(log|z|, Re(conj(a_j) z) + l_j); the levels place every
    a_j on the boundary of its own region.  They are the fixed point of
    l_j <- Phi(a_j) - |a_j|^2 from l_j = log|a_j| - |a_j|^2, reached
    after len(a) sweeps.
    """
    lam = [math.log(abs(z)) - abs(z) ** 2 for z in a]
    for _ in range(len(a)):
        lam = [max(planes(z, a, lam)) - abs(z) ** 2 for z in a]
    return lam


def planes(z, a, lam):
    """The terms of the max-function at z: label 0 is log|z|."""
    z = complex(z)
    return [math.log(abs(z))] + [(aj.conjugate() * z).real + lj
                                 for aj, lj in zip(a, lam)]


def label_and_gap(z, a, lam):
    """Winning label of the max-function at z and its lead over the runner-up."""
    v = planes(z, a, lam)
    top = max(range(len(v)), key=v.__getitem__)
    return top, v[top] - max(x for i, x in enumerate(v) if i != top)


# ---------------------------------------------------------------------------
# the references checked on closed forms


def self_check() -> list[str]:
    """Check the references above against closed forms; returns the failures."""
    from scipy.special import hyp2f1

    bad = []
    a, n = 0.6 - 0.3j, 24
    poly = FixedPointPoly(monic_poly(exact_moments((a,), (1,), n, n), n, band=1))
    zs = [0.3 + 0.2j, 1.1, -0.5j, 0.7 - 0.3j]
    for z, v in zip(zs, poly.values(zs)):
        exact = complex(single_point_closed_form(a, n, n, z))
        if abs(v - exact) > 1e-13 * abs(exact):
            bad.append(f"Gram solve against the one-point closed form at {z}")
    n = 8
    exact = exact_moments((0.6,), (1,), n, n)
    if moments_reldiff(real_point_moments(0.6, 1.0, n, n), exact) > 1e-12:
        bad.append("radial moments at c = 1 against the expanded weight")
    gauss = [[gaussian_moment(p, n) if p == q else 0.0 for q in range(n + 1)]
             for p in range(n + 1)]
    if moments_reldiff(real_point_moments(0.6, 0.0, n, n), gauss) > 1e-12:
        bad.append("radial moments at c = 0 against the Gaussian moments")
    for k in (0, 3, 8):
        for x in (0.5, 0.9, 0.999):
            with mp.workdps(30):
                want = float(mp.hyp2f1(-0.5, k - 0.5, k + 1, x))
            if abs(hyp2f1(-0.5, k - 0.5, k + 1, x) - want) > 1e-13 * abs(want):
                bad.append(f"scipy hyp2f1 at k={k}, x={x}")
    z = 3.0 + 4.0j
    with mp.workdps(DPS):
        closed = {1.0: (mp.exp(z) - 1) / z, 2.0: (mp.exp(z) - 1 - z) / z ** 2}
        for c, want in closed.items():
            if abs(E_series(c, z)[0] - want) > mp.mpf(10) ** (10 - DPS) * abs(want):
                bad.append(f"E_{c:g} series against its closed form")
    return bad
