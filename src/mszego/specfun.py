"""The truncated-exponential special function and its entire companion.

``f_c`` is the unique function vanishing at infinity such that
``exp(z)/z^c - f_c(z)`` extends to an entire function ``E_c``:

    E_c(z) = sum_{k>=0} z^k / Gamma(c + k + 1),    f_c = exp(z) z^(-c) - E_c.

For positive integer ``c``, ``f_c`` is the degree-(c-1) Taylor polynomial
of exp divided by ``z^c``.  Through the incomplete gamma function,
``f_c(z) = exp(z) z^(-c) Gamma(c, z) / Gamma(c)``, and ``E_c`` is
``exp(z)`` times Tricomi's ``gamma*(c, z)``.

Each point takes one of three routes, chosen from the point alone.  A
route gives one of the two functions and the link above gives the other:

* Kummer's series ``E_c = exp(z)/Gamma(c) sum (-z)^k / ((c + k) k!)``
  gives ``E_c`` near the negative axis, ``|arg z| > CF_ANGLE``, from
  ``|z| >= CF_RADIUS + max(c, 0)`` out to ``KUMMER_RADIUS``; its terms do
  not cancel there and it is real on the axis.  For c < 0 it also takes
  ``KUMMER_ANGLE < |arg z| <= CF_ANGLE`` inside the series disk below.  It
  serves only while that disk ends inside ``KUMMER_RADIUS`` (c < 35);
* the series above gives ``E_c`` in the rest of the disk
  ``|z| <= SERIES_RADIUS + |c|``;
* Legendre's continued fraction for ``Gamma(c, z)``, by the modified
  Lentz method (Thompson & Barnett 1986), gives ``f_c`` everywhere else
  past the disk; ``f_c`` alone takes it inside the disk too, in
  ``|arg z| <= CF_ANGLE`` and past ``KUMMER_RADIUS``, from
  ``|z| >= CF_RADIUS + max(c, 0)`` on.

On 48-point rings ``|z| = 0.5 .. 35`` at c = -0.99, -0.9, -0.5, 0.5, 1,
1.3, 2, 2.5, 3, 5.5 and 10.5 both functions agree with 40-digit values
to a relative 5.5e-13.  The worst points lie just past the wedge, where
Kummer's series loses about ``exp(|z| (1 + cos CF_ANGLE))`` ulps.  For
c < 0 the series cancels toward the negative axis inside its disk
(3.8e-12 at c = -0.99, 6.3e-13 at c = -0.7 at ``|arg z| = 1.96``), so
Kummer's series serves there from ``KUMMER_ANGLE`` on: at c = -0.999,
-0.99, -0.9, -0.7, -0.5, -0.4, -0.3, -0.2, -0.1, -0.05 and -0.01, on 59
radii ``|z| = 0.5 .. 5 + |c|`` at 81 angles from 0 to pi, ``E_c`` is
within 7.1e-14, and within 2.0e-14 from ``|arg z| = 2`` on.
On rings ``|z| = 0.5 .. 2c + 20`` at 41 angles from 0 to ``pi - 1e-9``
and c = 40.5, 50.5, ..., 80.5 they agree to 2e-14; at c = 85 the rim
``|z| = 5 + c`` of the series disk reaches 3.6e-13, and 2.5e-11 at c = 90,
where the table ``1/Gamma(c + k + 1)`` runs past the overflow of Gamma.
Near the negative axis at ``|z| = 40 .. 44`` and c < 0 the fraction runs
out of steps but stays within 1e-13.

Zeros of ``E_c`` are isolated by the argument principle on bisected
rectangles (Delves & Lyness 1967).  As soon as a rectangle winds once,
Newton runs from its centre; the zero is taken if Newton settles inside
the rectangle, and the rectangle is halved otherwise.  A rectangle that
still fails under 0.05 on a side ends the search.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

__all__ = [
    "OnNegativeAxis",
    "ContourThroughZero",
    "FcEvaluator",
    "f_c",
    "E_c",
    "zeros_E_c",
]

SERIES_MAX_TERMS = 400
SERIES_RADIUS = 5.0      # the series disk is |z| <= SERIES_RADIUS + |c|
# the continued fraction serves |arg z| <= CF_ANGLE; it needs more steps
# toward the negative axis, and Kummer's series cancels more away from it
CF_ANGLE = 2.5
# f_c takes the fraction in its wedge from |z| >= CF_RADIUS + max(c, 0) on:
# nearer the origin the fraction converges falsely once c passes ~10, and
# past it exp(z) z^(-c) - E_c cancels near the positive axis
CF_RADIUS = 1.0
# for c < 0 the fraction meets no stop test near the negative axis at |z| ~ 40;
# elsewhere the slowest point, |z| = 1 at the wedge edge, takes ~790 steps
CF_MAX_TERMS = 2000
KUMMER_RADIUS = 40.0     # past it the fraction serves the negative axis too
# for c < 0 the series cancels toward the negative axis inside its disk;
# Kummer's series loses at most exp(|z| (1 + cos KUMMER_ANGLE)) ulps there,
# about 340 at |z| = 6
KUMMER_ANGLE = 1.6
EPS = float(np.finfo(float).eps)
TINY = 1e-300            # Lentz's stand-in for a zero denominator
GAMMA_MAX_ARG = 171.6243769563027  # the largest x with Gamma(x) a finite double


class OnNegativeAxis(Exception):
    """f_c requested exactly on its cut (the closed negative real axis)."""


class ContourThroughZero(Exception):
    """A counting rectangle passed too close to a zero; jitter the box."""


def rgamma(x) -> np.ndarray:
    """1/Gamma(x) elementwise, exactly 0.0 at the poles and past GAMMA_MAX_ARG.

    The poles are x = 0, -1, -2, ...; far down the negative axis, where
    Gamma underflows to zero, the reciprocal is infinite.
    """
    x = np.asarray(x, dtype=float)
    live = (x <= GAMMA_MAX_ARG) & ((x > 0.0) | (x != np.floor(x)))
    out = np.zeros(x.shape)
    with np.errstate(divide="ignore"):
        out[live] = 1.0 / np.fromiter(map(math.gamma, x[live].tolist()), float)
    return out


class FcEvaluator:
    """``E_c``, its derivative and ``f_c`` for one exponent ``c``.

    The route of a point is fixed by the point alone (see the module
    docstring); ``E_c`` and ``f_c`` take the same route, except that
    ``f_c`` takes the continued fraction inside the disk too.  The two
    series share one loop with two coefficient tables,
    ``1/Gamma(c + k + 1)`` and Kummer's ``1/(Gamma(c) (c + k) k!)``.
    """

    def __init__(self, c: float):
        self.c = c
        self._radius = SERIES_RADIUS + abs(c)
        self._cf_radius = CF_RADIUS + max(c, 0.0)
        # Kummer's series loses up to exp(|z| (1 + cos CF_ANGLE)) ulps; where the
        # series disk reaches KUMMER_RADIUS (c >= 35) the series, which cancels
        # only for small c, serves the whole disk instead
        self._kummer_radius = KUMMER_RADIUS if self._radius < KUMMER_RADIUS else 0.0
        self._kummer_angle = KUMMER_ANGLE if c < 0 else CF_ANGLE   # inside the disk
        # 1/Gamma(c) stays a numpy float64: a Python float would move the bits
        # of every quotient by it
        self._rgamma_c = rgamma(c)[()]
        k = np.arange(SERIES_MAX_TERMS)
        rgammas = rgamma(c + 1.0 + k)
        # Kummer's coefficients as (c)_k/k! times 1/Gamma(c + k + 1): finite
        # at every c, where 1/((c + k) Gamma(c)) is 0/0 at c = -k.  Both
        # tables are Python floats: the series loop multiplies by one entry per
        # term, and a numpy scalar there costs more than the product itself
        self._rgammas = rgammas.tolist()
        self._kummer = (rgammas * np.cumprod(np.r_[1.0, (c + k[:-1]) / k[1:]])).tolist()

    def entire(self, zeta: complex) -> complex:
        """E_c(zeta): everywhere-continuous companion of exp(z)/z^c."""
        zeta = complex(zeta)
        r = abs(zeta)
        if self._cf_radius <= r < self._kummer_radius and abs(cmath.phase(zeta)) > (
                self._kummer_angle if r <= self._radius else CF_ANGLE):
            return cmath.exp(zeta) * self._series(self._kummer, -zeta)
        if r <= self._radius:
            return self._series(self._rgammas, zeta)
        return cmath.exp(zeta) * zeta ** (-self.c) - self._fraction(zeta)

    def entire_deriv(self, zeta: complex) -> complex:
        """E_c'(zeta), from ``zeta E_c' = (zeta - c) E_c + 1/Gamma(c)``.

        At zeta = 0 it is ``1/Gamma(c + 2)``.
        """
        zeta = complex(zeta)
        if zeta == 0:
            return complex(self._rgammas[1])
        e = self.entire(zeta)
        return e + (self._rgamma_c - self.c * e) / zeta

    def f(self, zeta: complex) -> complex:
        """f_c(zeta) off the closed negative real axis."""
        zeta = complex(zeta)
        if zeta == 0 or (zeta.imag == 0.0 and zeta.real < 0.0):
            raise OnNegativeAxis(f"f_c is not defined at {zeta}")
        if abs(zeta) >= self._cf_radius and (
                abs(cmath.phase(zeta)) <= CF_ANGLE or abs(zeta) >= KUMMER_RADIUS):
            return self._fraction(zeta)
        return cmath.exp(zeta) * zeta ** (-self.c) - self.entire(zeta)

    # -- internals ---------------------------------------------------------

    def _series(self, table, zeta: complex) -> complex:
        """``sum_k table[k] zeta^k``, stopped past ``k = |zeta|`` at rounding."""
        acc = 0j
        az = abs(zeta)
        pw = 1.0 + 0j  # zeta^k
        for k in range(SERIES_MAX_TERMS):
            r = table[k]
            acc += pw * r
            pw *= zeta
            if abs(pw) * abs(r) < 1e-18 * (abs(acc) + 1e-300) and k > az:
                break
        return acc

    def _fraction(self, zeta: complex) -> complex:
        """f_c from Legendre's continued fraction, by modified Lentz.

        ``exp(z) z^(-c) Gamma(c, z) = 1/(b_0 + a_1/(b_1 + a_2/(b_2 + ...)))``
        with ``b_j = z + 2j + 1 - c`` and ``a_j = -j (j - c)``.  For
        integer ``c >= 1`` the fraction ends at ``a_c = 0``.
        """
        b = zeta + 1.0 - self.c
        g = b if b != 0 else TINY
        C, D = g, 0j
        for j in range(1, CF_MAX_TERMS):
            a = -j * (j - self.c)
            b += 2.0
            D = b + a * D
            D = 1.0 / (D if D != 0 else TINY)
            C = b + a / C
            if C == 0:
                C = TINY
            delta = C * D
            g *= delta
            if abs(delta - 1.0) <= EPS:
                break
        return self._rgamma_c / g


@functools.cache
def _evaluator(c: float) -> FcEvaluator:
    return FcEvaluator(float(c))


def f_c(zeta: complex, c: float) -> complex:
    return _evaluator(c).f(zeta)


def E_c(zeta: complex, c: float) -> complex:
    return _evaluator(c).entire(zeta)


# ---------------------------------------------------------------------------
# zero finding


def _boundary_winding(ev: FcEvaluator, x0, x1, y0, y1) -> int:
    """Winding number of E_c along the rectangle boundary.

    Samples adaptively until consecutive phase steps are < pi/2, raising
    ContourThroughZero on a zero sample, on a phase step still untracked
    after 52 halvings, or on a total that is not an integer.
    """
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    pts = []
    # the phase of E_c rotates at up to ~(1+|c|) rad per unit where the
    # exponential dominates, so the coarse sampling must resolve that
    step = 0.5 / (1.0 + abs(ev.c))
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        m = max(8, int(math.ceil(abs(b - a) / step)))
        pts += (a + (b - a) * (np.arange(m) / m)).tolist()
    vals = [ev.entire(p) for p in pts]

    def refine(pa, pb, va, vb, depth):
        if va == 0 or vb == 0:
            raise ContourThroughZero(f"E_c = 0 on the contour near {pa}")
        d = cmath.phase(vb / va)
        # a small phase step alone is not safe: passing near a zero can
        # wrap the phase by a full turn, so also require a tame modulus
        # ratio before accepting the step
        ratio = abs(vb) / abs(va)
        if abs(d) < 0.5 * math.pi and 0.5 < ratio < 2.0:
            return d
        if depth > 52:
            raise ContourThroughZero(f"phase could not be tracked near {pa}")
        pm = 0.5 * (pa + pb)
        vm = ev.entire(pm)
        return refine(pa, pm, va, vm, depth + 1) + refine(pm, pb, vm, vb, depth + 1)

    total = 0.0
    for i in range(len(pts)):
        a, b = pts[i], pts[(i + 1) % len(pts)]
        total += refine(a, b, vals[i], vals[(i + 1) % len(pts)], 0)
    w = total / (2.0 * math.pi)
    wi = round(w)
    if abs(w - wi) > 1e-6:
        raise ContourThroughZero(f"non-integer winding {w}")
    return int(wi)


def zeros_E_c(c: float, box, tol: float = 1e-10) -> list[complex]:
    """All zeros of E_c inside the rectangle ``box = (x0, x1, y0, y1)``.

    Boxes are halved by winding count.  A box that winds once is polished
    at once: Newton from its centre, taken if it settles inside the box
    and passes the forward-error guard
    ``|E_c(z)| <= 1e3 tol (1 + |z|) |E_c'(z)|``.  Otherwise the box is
    halved again; one that still fails under 0.05 on a side raises
    ContourThroughZero.  The zeros found are checked against the winding
    number of the whole box.

    At a nonpositive integer c = -m, ``E_c(z) = z^m e^z``: its one zero,
    0 of multiplicity m, no box splits, so it is returned m times when
    the closed box holds 0.
    """
    x0, x1, y0, y1 = (float(v) for v in box)
    if c <= 0 and c == round(c):
        return [0j] * -int(c) if x0 <= 0.0 <= x1 and y0 <= 0.0 <= y1 else []
    ev = _evaluator(c)
    total = _boundary_winding(ev, x0, x1, y0, y1)
    zeros: list[complex] = []

    def polish(bx0, bx1, by0, by1) -> complex | None:
        """Newton from the box centre: the zero if it settles in the box.

        It settles when its step meets ``tol``; an iterate that leaves the
        box ends the run.
        """
        z = complex(0.5 * (bx0 + bx1), 0.5 * (by0 + by1))
        for _ in range(60):
            v = ev.entire(z)
            dv = ev.entire_deriv(z)
            if dv == 0:
                return None
            step = v / dv
            z -= step
            if not (bx0 <= z.real <= bx1 and by0 <= z.imag <= by1):
                return None
            if abs(step) < 0.25 * tol * (1.0 + abs(z)):
                break
        else:
            return None
        if abs(ev.entire(z)) > 1e3 * tol * (1.0 + abs(z)) * abs(ev.entire_deriv(z)):
            return None
        return z

    def descend(bx0, bx1, by0, by1, count, depth):
        if count == 0:
            return
        if count == 1:
            z = polish(bx0, bx1, by0, by1)
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

    descend(x0, x1, y0, y1, total, 0)
    zeros.sort(key=lambda z: (z.real, z.imag))
    if len(zeros) != total:
        raise ContourThroughZero(
            f"found {len(zeros)} zeros but the box winding is {total}")
    return zeros

