"""The truncated-exponential special function and its entire companion.

``f_c`` is the unique function vanishing at infinity such that
``exp(z)/z^c - f_c(z)`` extends to an entire function; for positive
integer ``c`` it is the degree-(c-1) Taylor polynomial of exp divided by
``z^c``.  The entire companion has the everywhere-convergent series

    E_c(z) = sum_{k>=0} z^k / Gamma(c + k + 1),

which is also the small-argument route for ``f_c`` through
``f_c = exp(z) z^(-c) - E_c(z)``; at large modulus ``f_c`` switches to
its (optimally truncated) inverse-power expansion with coefficients
``alpha_i(c) = 1/Gamma(c + 1 - i)``.

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
from scipy.special import rgamma

__all__ = [
    "OnNegativeAxis",
    "ContourThroughZero",
    "FcEvaluator",
    "f_c",
    "f_c_sides",
    "alpha",
    "E_c",
    "zeros_E_c",
]

SERIES_MAX_TERMS = 400
SERIES_RADIUS = 35.0     # beyond this the entire series loses too many digits
SERIES_CHUNK = 64        # terms per block of the array series kernel
ASYMPTOTIC_MAX_TERMS = 30


class OnNegativeAxis(Exception):
    """f_c requested exactly on its cut (the closed negative real axis)."""


class ContourThroughZero(Exception):
    """A counting rectangle passed too close to a zero; jitter the box."""


def alpha(i: int, c: float) -> float:
    """Coefficient of zeta^(-i) in the large-argument expansion of f_c.

    Equals sin(c*pi) * Gamma(i-c) / (pi * (-1)^(i-1)), which the
    reflection formula collapses to 1/Gamma(c+1-i); the reciprocal-gamma
    form is finite for every (i, c) and vanishes exactly when c is an
    integer with i > c.
    """
    if i < 1:
        raise ValueError("expansion index starts at 1")
    return float(rgamma(c + 1.0 - i))


class FcEvaluator:
    """Evaluator for one exponent with its route thresholds.

    ``r_switch`` separates the entire-series route from the asymptotic
    route, which is truncated after at most ``ASYMPTOTIC_MAX_TERMS``
    terms.  The entire series cancels away from the positive axis: its
    terms peak near ``exp(|z|)`` while the sum is near ``exp(Re z)|z|^-c``
    or ``1/|z|``, so it loses about ``exp(|z| - Re z)`` ulps.  Measured
    against a 50-digit sum at c = 1, the relative error of ``E_c`` is
    1.8e-13 at 10i, 1.2e-8 at 20i and 1.3e-2 at 34i (ROADMAP item 2).
    """

    def __init__(self, c: float):
        self.c = c
        self.r_switch = 8.0 + 2.0 * abs(c)
        self._alphas = rgamma(c + 1.0 - np.arange(1, ASYMPTOTIC_MAX_TERMS + 1))
        self._rgammas = rgamma(c + 1.0 + np.arange(SERIES_MAX_TERMS))

    @property
    def is_integer(self) -> bool:
        return self.c == round(self.c) and self.c >= 1

    def entire(self, zeta: complex) -> complex:
        """E_c(zeta): everywhere-continuous companion of exp(z)/z^c."""
        zeta = complex(zeta)
        if abs(zeta) <= SERIES_RADIUS:
            return self._entire_series(zeta)
        # far field: exp may be exponentially small or huge; combine with
        # the asymptotic tail, averaging one-sided power values on the axis
        if zeta.imag == 0.0 and zeta.real < 0.0:
            up = cmath.exp(zeta) * complex(zeta) ** (-self.c)
            zc = cmath.exp(-self.c * complex(math.log(abs(zeta)), -math.pi))
            return 0.5 * (up + cmath.exp(zeta) * zc) - self._asymptotic(zeta)
        return cmath.exp(zeta) * zeta ** (-self.c) - self._asymptotic(zeta)

    def entire_deriv(self, zeta: complex) -> complex:
        zeta = complex(zeta)
        if abs(zeta) <= SERIES_RADIUS:
            return self._entire_series(zeta, deriv=True)
        h = 1e-6 * (1.0 + abs(zeta))
        return (self.entire(zeta + h) - self.entire(zeta - h)) / (2.0 * h)

    def f(self, zeta: complex) -> complex:
        """f_c(zeta) off the closed negative real axis."""
        zeta = complex(zeta)
        if zeta == 0 or (zeta.imag == 0.0 and zeta.real < 0.0):
            raise OnNegativeAxis(f"f_c is not defined at {zeta}")
        if self.is_integer:
            ci = int(round(self.c))
            acc = 0j
            term = 1.0 + 0j
            for k in range(ci):
                acc += term
                term *= zeta / (k + 1)
            return acc / zeta ** ci
        # the series route also covers a strip along the negative axis:
        # the inverse-power route is blind to the exponentially small
        # part that carries the jump across the axis, while the series
        # (a difference of two exact pieces) reproduces it
        if abs(zeta) <= self.r_switch or \
                (zeta.real < 0.0 and abs(zeta.imag) <= 6.0
                 and abs(zeta) <= SERIES_RADIUS):
            return cmath.exp(zeta) * zeta ** (-self.c) - self._entire_series(zeta)
        return self._asymptotic(zeta)

    # -- internals ---------------------------------------------------------

    def _entire_series(self, zeta: complex, deriv: bool = False) -> complex:
        acc = 0j
        az = abs(zeta)
        if deriv:
            pw = 1.0 + 0j  # zeta^(k-1)
            for k in range(1, SERIES_MAX_TERMS):
                r = self._rgammas[k]
                acc += k * pw * r
                pw *= zeta
                if abs(pw) * abs(r) * (k + 1) < 1e-18 * (abs(acc) + 1e-300) and k > az:
                    break
            return acc
        pw = 1.0 + 0j  # zeta^k
        for k in range(SERIES_MAX_TERMS):
            r = self._rgammas[k]
            acc += pw * r
            pw *= zeta
            if abs(pw) * abs(r) < 1e-18 * (abs(acc) + 1e-300) and k > az:
                break
        return acc

    def _entire_series_array(self, zeta: np.ndarray) -> np.ndarray:
        """``_entire_series`` at many points, bit for bit the scalar loop.

        ``cumprod`` and ``cumsum`` run in term order, so every point sees
        the loop's own products and partial sums, and each stops at its
        own first index where the loop would break.  Terms go in chunks
        of ``SERIES_CHUNK`` so that points which stop early are dropped
        before the rest run on; terms past a stop are computed but unused.
        """
        zeta = np.asarray(zeta, dtype=complex)
        out = np.empty_like(zeta)
        todo = np.arange(zeta.size)
        az = np.abs(zeta)
        pw = np.ones_like(zeta)
        acc = np.zeros_like(zeta)
        with np.errstate(all="ignore"):
            for k0 in range(0, SERIES_MAX_TERMS, SERIES_CHUNK):
                r = self._rgammas[k0:k0 + SERIES_CHUNK]
                steps = np.broadcast_to(zeta[:, None], (zeta.size, r.size))
                pws = np.cumprod(np.column_stack([pw, steps]), axis=1)
                accs = np.cumsum(np.column_stack([acc, pws[:, :-1] * r]), axis=1)[:, 1:]
                stop = np.abs(pws[:, 1:]) * np.abs(r) < 1e-18 * (np.abs(accs) + 1e-300)
                stop &= np.arange(k0, k0 + r.size) > az[:, None]
                done = stop.any(axis=1)
                out[todo[done]] = accs[done, stop[done].argmax(axis=1)]
                more = ~done
                todo, zeta, az = todo[more], zeta[more], az[more]
                pw, acc = pws[more, -1], accs[more, -1]
                if not todo.size:
                    break
        out[todo] = acc
        return out

    def _asymptotic(self, zeta: complex) -> complex:
        """Optimally truncated inverse-power sum; stops at the smallest term."""
        acc = 0j
        best = math.inf
        invz = 1.0 / zeta
        p = invz
        for i in range(1, ASYMPTOTIC_MAX_TERMS + 1):
            t = self._alphas[i - 1] * p
            if abs(t) > best:
                break
            best = abs(t)
            acc += t
            p *= invz
        return acc


@functools.cache
def _evaluator(c: float) -> FcEvaluator:
    return FcEvaluator(float(c))


def f_c(zeta: complex, c: float) -> complex:
    return _evaluator(c).f(zeta)


def f_c_sides(x: float, c: float) -> tuple[complex, complex]:
    """Both one-sided values of f_c at a point of the negative real axis."""
    if x >= 0:
        raise ValueError("sides are only reported on the negative real axis")
    ev = _evaluator(c)
    eps = 1e-8 * (1.0 + abs(x))
    return ev.f(complex(x, eps)), ev.f(complex(x, -eps))


def E_c(zeta: complex, c: float) -> complex:
    return _evaluator(c).entire(zeta)


# ---------------------------------------------------------------------------
# zero finding


def _boundary_winding(ev: FcEvaluator, x0, x1, y0, y1) -> int:
    """Winding number of E_c along the rectangle boundary.

    Samples adaptively until consecutive phase steps are < pi/2, raising
    ContourThroughZero when |E_c| collapses on the contour.  The coarse
    samples inside ``SERIES_RADIUS`` go through the array series kernel
    in one pass; the rest and every refinement midpoint are scalar.
    """
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    sides = []
    # the phase of E_c rotates at up to ~(1+|c|) rad per unit where the
    # exponential dominates, so the coarse sampling must resolve that
    step = 0.5 / (1.0 + abs(ev.c))
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        m = max(8, int(math.ceil(abs(b - a) / step)))
        sides.append(a + (b - a) * (np.arange(m) / m))
    pts = np.concatenate(sides)
    near = np.abs(pts) <= SERIES_RADIUS
    vals = np.empty_like(pts)
    vals[near] = ev._entire_series_array(pts[near])
    vals[~near] = [ev.entire(p) for p in pts[~near]]
    pts, vals = pts.tolist(), vals.tolist()

    def local_scale(p):
        # natural magnitude of E_c: the exponential part plus the tail part
        return math.exp(p.real) * max(abs(p), 1e-6) ** (-ev.c) + 1.0 / max(abs(p), 1.0)

    def refine(pa, pb, va, vb, depth):
        if abs(va) < 1e-12 * local_scale(pa) or abs(vb) < 1e-12 * local_scale(pb):
            raise ContourThroughZero(f"|E_c| ~ 0 on the contour near {pa}")
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
    and ``|E_c|`` there passes the ``_series_scale`` backward-error guard.
    Otherwise the box is halved again; one that still fails under 0.05
    on a side raises ContourThroughZero.  The zeros found are checked
    against the winding number of the whole box.
    """
    ev = _evaluator(c)
    x0, x1, y0, y1 = (float(v) for v in box)
    total = _boundary_winding(ev, x0, x1, y0, y1)
    zeros: list[complex] = []
    eps = np.finfo(float).eps

    def polish(bx0, bx1, by0, by1) -> complex | None:
        """Newton from the box centre: the zero if it settles in the box.

        It settles when its step meets ``tol`` or, on the series route,
        when |E_c| falls to the rounding floor of the series, eps times
        the sum of its term magnitudes; past |z| ~ 15 that floor stalls
        the step above ``tol``.  An iterate that leaves the box ends the
        run.
        """
        z = complex(0.5 * (bx0 + bx1), 0.5 * (by0 + by1))
        for _ in range(60):
            v = ev.entire(z)
            if abs(z) <= SERIES_RADIUS and abs(v) <= eps * _series_scale(ev, z):
                break
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
        if abs(ev.entire(z)) > 1e3 * tol * _series_scale(ev, z):
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


def _series_scale(ev: FcEvaluator, z: complex) -> float:
    """Sum of term magnitudes of the entire series (backward-error scale)."""
    acc = 0.0
    term = 1.0
    az = abs(z)
    for k in range(SERIES_MAX_TERMS):
        r = abs(float(ev._rgammas[k]))
        acc += term * r
        term *= az
        if term * r < 1e-18 * (acc + 1e-300) and k > az:
            break
    return acc
