"""Ground-truth monic orthogonal polynomials from moment matrices.

The oracle never uses asymptotics: moments of the planar weight are
computed either exactly (integer exponents, closed-form Gaussian
moments) or by polar quadrature (any exponents), the monic polynomial
comes from the Hermitian Gram solve, and roots from simultaneous
Aberth-Ehrlich iteration finished in double-double, started on circles
read off the Newton polygon of the coefficients, near the roots' moduli.
Both moment methods carry moments and coefficients in double-double
precision (``ddnum``) so that degrees past ~20 keep usable orthogonality
residuals.  Each Aberth sweep evaluates p and p' in one stacked pass:
``np.polyval``'s steps on a complex array whose third row is the
double stage's rounding bound, and ``ddnum.horner_stack`` in the
double-double stage.  ``poly_eval`` at one point, the Gram solve's
Cholesky loops and the sum for h_n run on Python scalars.  The Gram
condition number, an SVD, is computed when it is first read, except
that the quadrature path checks it before its solve.

Quadrature moments on a fractional exponent are limited by two counts,
which each mesh doubling halves: the Gauss-Jacobi radial nodes of the
patches around the points and the angles of the main polar grid rows
that cross a patch disk.  Both resolve the smooth cutoff that splits the
weight between the two, so the cutoff switches over the whole patch
disk, as slowly as the disk allows.  The main grid's radial step bought
no digit, so in the cutoff annuli it is only a little finer than the
angular spacing there.  Every other angular count is sized to the
bandwidth of what it integrates, since the trapezoid rule on a periodic
grid converges geometrically in it: 2n + 64 angles per patch, where the
cutoff depends on the radius alone, and on main-grid rows outside every
disk 2n + K, K the decay length of the powers' harmonics there
(``_moments_mesh``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ddnum as dd
from .core import ConfigError, Configuration
from .szego import CurveSet

__all__ = [
    "NonIntegerExponent",
    "QuadratureNotConverged",
    "IllConditioned",
    "NoConvergence",
    "MomentMatrix",
    "MonicPolynomial",
    "RootDistanceSummary",
    "exact_moments",
    "quad_moments",
    "monic_op",
    "roots",
    "poly_eval",
    "orthogonality_residuals",
    "root_curve_distance",
]

MAX_FACTORIAL = 170      # 171! overflows a double, so exact moments stop at 170!
QUAD_TARGET = 1e-10      # mesh-doubling relative difference quad_moments must reach
ABERTH_MAX_SWEEPS = 500     # per stage of roots
ABERTH_STALL_SWEEPS = 12    # sweeps the double-double stage may stall for
ROOT_TOL = 1e-10            # largest double-double Newton step of a root, over 1 + |z|


class NonIntegerExponent(ConfigError):
    """exact_moments requires all exponents to be positive integers."""


class QuadratureNotConverged(Exception):
    """Mesh doubling did not reach the target accuracy."""


class IllConditioned(Exception):
    def __init__(self, message, cond_estimate):
        super().__init__(message)
        self.cond_estimate = cond_estimate


class NoConvergence(Exception):
    """A root's double-double Newton step stays above ROOT_TOL."""


@dataclass(frozen=True)
class MomentMatrix:
    """Inner products <z^j, z^k> of monomials under the planar weight.

    ``(entries, entries_lo)`` is the double-double matrix: rounded
    values and low parts, which are zero for quadrature moments.
    Entries more than ``band`` off the diagonal are zero.
    """

    entries: np.ndarray
    entries_lo: np.ndarray
    method: str                    # "exact-integer-c" | "quadrature"
    band: int

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class MonicPolynomial:
    degree: int
    coeffs: np.ndarray             # ascending, length degree+1, leading 1
    h_n: float
    coeffs_lo: np.ndarray          # low parts of the double-double coefficients
    gram: np.ndarray               # the rounded Gram block <z^j, z^k>, j, k < degree

    @functools.cached_property
    def cond_estimate(self) -> float:
        """cond(D^-1/2 H D^-1/2), H the Gram block, D = diag(H); on first read."""
        return _scaled_cond(self.gram)


@dataclass(frozen=True)
class RootDistanceSummary:
    max: float
    mean: float
    count: int


def _weight_poly_dd(config: Configuration):
    """Coefficients of prod (z - a_i)^(c_i) for integer exponents, in double-double."""
    poly = [dd.dd(1 + 0j)]
    for aj, cj in zip(config.a, config.c):
        ci = int(round(cj))
        if ci != cj or ci < 1:
            raise NonIntegerExponent(f"exponent {cj} is not a positive integer")
        factor = [dd.dd(complex(-aj)), dd.dd(1 + 0j)]
        for _ in range(ci):
            poly = dd.poly_mul(poly, factor)
    return poly


def exact_moments(config: Configuration) -> MomentMatrix:
    """Moment matrix up to index n by expanding the polynomial weight.

    Exact up to double-double rounding: the Gaussian base moments are
    diagonal factorials, and the weight polynomial contracts against
    them inside the band |j - k| <= sum(c).
    """
    n = config.n
    N = config.N
    alpha = _weight_poly_dd(config)
    C = len(alpha) - 1
    if n + C > MAX_FACTORIAL:
        raise IllConditioned(
            f"exact moments at degree {n} with sum(c) = {C} need {n + C}!, "
            f"past the largest factorial a double holds ({MAX_FACTORIAL}!)", math.inf)

    # pi * m! / N^(m+1) in double-double
    g = []
    npow = dd.dd(N)
    fact = 1
    for m in range(n + C + 1):
        if m > 0:
            fact *= m
            npow = dd.mul(npow, dd.dd(N))
        g.append(dd.mul(dd.PI, dd.div(dd.dd(fact), npow)))
    g_hi, g_lo = np.array(g).T
    # Dekker's split (x (2^27 + 1)) overflows once N^(m+1) nears 1e300
    bad = ~(np.isfinite(g_hi) & np.isfinite(g_lo))
    if bad.any():
        m = int(np.argmax(bad))
        raise IllConditioned(
            f"exact moments at degree {n} need N^{m + 1} = {N:g}^{m + 1}, "
            f"past the double-double range", math.inf)

    # one diagonal offset d = k - j at a time, for all rows j at once
    size = n + 1
    hi = np.zeros((size, size), dtype=complex)
    lo = np.zeros((size, size), dtype=complex)
    for d in range(min(C, n) + 1):
        rows = size - d
        acc = (0j, 0j)
        for p in range(d, C + 1):
            term = dd.cmul(alpha[p], dd.conj(alpha[p - d]))
            acc = dd.add(acc, dd.scale(term, (g_hi[p:p + rows], g_lo[p:p + rows])))
        j = np.arange(rows)
        hi[j, j + d], lo[j, j + d] = acc
        hi[j + d, j], lo[j + d, j] = dd.conj(acc)
    return MomentMatrix(entries=hi, entries_lo=lo, method="exact-integer-c", band=C)


# ---------------------------------------------------------------------------
# quadrature moments


def _bump(t: np.ndarray) -> np.ndarray:
    """Smooth cutoff: 1 for t<=0, 0 for t>=1, C-infinity in between."""
    out = np.zeros_like(t)
    out[t <= 0.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    s0 = np.exp(-1.0 / np.clip(1.0 - tm, 1e-300, None))
    s1 = np.exp(-1.0 / np.clip(tm, 1e-300, None))
    out[mid] = s0 / (s0 + s1)
    return out


def _cutoff_radii(config: Configuration) -> list[float]:
    """Patch radius r_j = min(0.1, 0.45 d_j) at each a_j, d_j the distance
    to the nearest other point, so the disks |z - a_j| < r_j are disjoint."""
    radii = []
    for j, aj in enumerate(config.a):
        others = [abs(aj - ak) for k, ak in enumerate(config.a) if k != j]
        radii.append(min(0.1, 0.45 * min(others, default=math.inf)))
    return radii


def _vander_accumulate(M, z, w, size):
    V = np.empty((size, z.size), dtype=complex)
    V[0] = 1.0
    for p in range(1, size):
        V[p] = V[p - 1] * z
    M += (V * w) @ V.conj().T


def _angular_accumulate(M, r, w):
    """Add the sum of z^p conj(z)^q w over z = r_i e^(2 pi i k / ntheta) to M.

    ``w`` is the real ``(r.size, ntheta)`` weight with ntheta > 2n.  The
    angular sums are one rfft per radius, W_i[m] = sum_k w_ik e^(i m
    theta_k) = conj(rfft(w_i)[m]) and W_i[-m] = conj(W_i[m]), so
    M[p, q] gains A[p + q, p - q + n] with A = (r_i^s) @ (W_i[m]).
    """
    n = M.shape[0] - 1
    F = np.fft.rfft(w, axis=1)[:, :n + 1]
    W = np.concatenate([F[:, ::-1], F[:, 1:].conj()], axis=1)   # m = -n .. n
    A = (r ** np.arange(2 * n + 1)[:, None]) @ W
    p = np.arange(n + 1)
    M += A[p[:, None] + p[None, :], p[:, None] - p[None, :] + n]


def _patch_share(rho, rj):
    """The singular patch's share bump(rho/r_j) of the weight at distance
    rho from a_j; the main grid takes the rest, 1 - share.

    The switch spans the whole disk: the share is exactly 1.0 at a_j and
    exactly 0.0 from rho = r_j on, so outside the disk the main grid's
    factor is exactly 1.0.
    """
    return _bump(rho / rj)


def _grid_weight(config: Configuration, radii, rr, base, theta, cutoff: bool):
    """The real weight on the main-grid rows of radii ``rr``.

    ``base`` is the radial part of each row; every |z - a_j|^(2c_j)
    follows, then, if ``cutoff``, the factor 1 - _patch_share inside the
    disk |z - a_j| < r_j.  With the cutoff (a fractional exponent) the
    squared distance is formed in real arithmetic without cancellation,
    as (r - |a_j|)^2 + 4 r |a_j| sin^2((theta - arg a_j)/2); without it
    (integer exponents, checked against the exact moments) it comes from
    the complex nodes, whose bits those runs keep.  The factor is exactly
    1.0 outside the disk and the disks are disjoint, so a node takes at
    most one of them; it must follow every power, or the product rounds
    differently.  Since |z - a_j| >= |r - |a_j||, a disk that no radius
    of the chunk comes within r_j of is not tested at all.
    """
    w = base[:, None]
    if not cutoff:
        z = rr[:, None] * np.exp(1j * theta)[None, :]
        for aj, cj in zip(config.a, config.c):
            w = w * np.abs(z - aj) ** (2.0 * cj)
        return w
    cut = []
    for aj, cj, rj in zip(config.a, config.c, radii):
        s = np.sin(0.5 * (theta - np.angle(aj)))
        rho2 = ((rr - abs(aj)) ** 2)[:, None] + (4.0 * abs(aj) * rr)[:, None] * (s * s)
        w = w * rho2 ** cj
        if np.min(np.abs(rr - abs(aj))) < rj:
            cut.append((rho2, rj))
    for rho2, rj in cut:
        inside = rho2 < rj * rj
        w[inside] *= 1.0 - _patch_share(np.sqrt(rho2[inside]), rj)
    return w


def _moments_mesh(config: Configuration, size, factor: int,
                  R_scale: float = 1.0) -> np.ndarray:
    """One full quadrature pass at a given mesh refinement factor.

    On a fractional exponent two counts set the error, and the doubling
    ladder halves both: the patches' Gauss-Jacobi radial nodes and the
    angles of the main-grid rows that cross a disk |z - a_j| < r_j.
    Both resolve the C-infinity cutoff, which is why it switches over the
    whole disk (``_patch_share``): on the single point a = 0.6, c = 0.5,
    n = 8, a switch over [r_j/2, r_j] left factors 1 and 2 1.9e-9 apart,
    so the ladder ran on to factor 4; over the whole disk they are
    6.6e-13 apart and it stops at factor 2.  Taking the main grid's
    radial step alone back to factor 1 cost nothing (3.6e-15 against the
    closed form), so the cutoff annuli take panels of r_j/4/factor, whose
    16 Gauss-Legendre nodes are still finer than the angular spacing at
    |a_j|.  Those rows take max(1536, 2n + 64) angles per factor.

    The other angular counts only resolve smooth periodic integrands, on
    which the trapezoid rule converges geometrically in the bandwidth,
    and also double with the factor:

    - A patch takes 2n + 64 angles.  Its cutoff depends on rho alone;
      in phi, z^p conj(z)^q has harmonics up to n, the Gaussian Bessel
      harmonics in 2 N rho |a_j| <= 0.2 N, and the other points' powers
      harmonics in a ratio of at most 0.45.  From 384 angles this moved
      no moment of a fractional fixture, nor of the single point at
      n = 48/64/96, by more than 2e-15 (``moments_max_reldiff``).
    - A main-grid row outside every disk takes min(max(1536, 2n + 64),
      2n + K) angles.  There |z - a_j|^(2c_j) is analytic in theta, with
      harmonics below (|a_j| / (|a_j| + r_j))^k, so K = max_j
      log(1e4/eps) / log(1 + r_j/|a_j|) of them put what aliases onto
      the harmonics up to n under eps, even for entries 1e-4 below their
      Cauchy-Schwarz scale (the floor of ``moments_max_reldiff``).  On
      a = 0.6, n = 8 that is 310 angles in place of 1536, on 452 of the
      720 rows at factor 2.

    Integer exponents take one group of 2n + 2 sum(c) + 8 angles, which
    the weight's finite bandwidth makes exact.
    """
    n = size - 1
    N = config.N
    C = sum(config.c)
    R = math.sqrt((2 * n + 40) / N) * R_scale
    all_integer = all(cj == round(cj) and cj >= 1 for cj in config.c)

    radii = _cutoff_radii(config)

    # radial panels: Gauss-Legendre per panel sized to the Gaussian scale,
    # refined through the bump-transition annuli around each |a_j|
    h = min(0.2, 0.7 / math.sqrt(N)) / factor
    if all_integer:
        edges = np.linspace(0.0, R, max(8, int(math.ceil(R / h))) + 1)
    else:
        h_fine = min(rj for rj in radii) / 4.0 / factor
        breaks = {0.0, R}
        spans = []
        for aj, rj in zip(config.a, radii):
            lo = max(0.0, abs(aj) - 1.2 * rj)
            hi = min(R, abs(aj) + 1.2 * rj)
            breaks.update((lo, hi))
            spans.append((lo, hi))
        pts = sorted(breaks)
        edge_list = [0.0]
        for lo, hi in zip(pts[:-1], pts[1:]):
            if hi - lo <= 0:
                continue
            mid = 0.5 * (lo + hi)
            hh = h_fine if any(s0 <= mid <= s1 for s0, s1 in spans) else h
            m = max(1, int(math.ceil((hi - lo) / hh)))
            edge_list.extend(lo + (hi - lo) * (np.arange(m) + 1) / m)
        edges = np.array(edge_list)
    xg, wg = np.polynomial.legendre.leggauss(16)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    r = (mid + half * xg[None, :]).ravel()
    wr = (half * wg[None, :]).ravel()

    # (rows, angles) groups of the main grid
    if all_integer:
        groups = [(slice(None), 2 * n + 2 * int(round(C)) + 8)]
    else:
        full = max(1536, 2 * n + 64)
        K = max(math.ceil(math.log(1e4 / np.finfo(float).eps) / math.log1p(rj / abs(aj)))
                for aj, rj in zip(config.a, radii))
        far = np.all([np.abs(r - abs(aj)) >= rj for aj, rj in zip(config.a, radii)], axis=0)
        groups = [(far, min(full, 2 * n + K) * factor), (~far, full * factor)]

    M = np.zeros((size, size), dtype=complex)
    for rows, ntheta in groups:
        rg, wrg = r[rows], wr[rows]
        theta = 2.0 * math.pi * np.arange(ntheta) / ntheta
        wt = 2.0 * math.pi / ntheta
        # radial chunks of about 1e6 nodes bound the weight arrays, which
        # _grid_weight frees before the patches below
        chunk = max(1, int(1e6 // ntheta))
        for i0 in range(0, rg.size, chunk):
            rr = rg[i0:i0 + chunk]
            base = rr * wrg[i0:i0 + chunk] * np.exp(-N * rr * rr) * wt
            _angular_accumulate(M, rr, _grid_weight(config, radii, rr, base, theta,
                                                    not all_integer))

    if all_integer:
        return M

    # singular patches in local polar coordinates with Gauss-Jacobi radius
    from scipy.special import roots_jacobi
    nphi = (2 * n + 64) * factor
    phi = 2.0 * math.pi * np.arange(nphi) / nphi
    wphi = 2.0 * math.pi / nphi
    for aj, cj, rj in zip(config.a, config.c, radii):
        nodes = 64 * factor
        xj, wj = roots_jacobi(nodes, 0.0, 2.0 * cj + 1.0)
        rho = rj * 0.5 * (1.0 + xj)
        wrho = wj * (rj * 0.5) ** (2.0 * cj + 2.0)
        z = aj + rho[:, None] * np.exp(1j * phi)[None, :]
        chi = _patch_share(rho, rj)
        w = (wrho * chi)[:, None] * np.exp(-N * np.abs(z) ** 2) * wphi
        for am, cm in zip(config.a, config.c):
            if am != aj:
                w *= np.abs(z - am) ** (2.0 * cm)
        # blocks of radial rows hold the Vandermonde near 1e6 entries
        rows = max(1, int(1e6 // (size * nphi)))
        for k0 in range(0, nodes, rows):
            _vander_accumulate(M, z[k0:k0 + rows].ravel(), w[k0:k0 + rows].ravel(), size)
    return M


def moments_max_reldiff(A: np.ndarray, B: np.ndarray) -> float:
    """Entrywise relative difference with a Cauchy-Schwarz scale floor.

    Every entry is bounded by sqrt(M_jj M_kk); entries far below that
    scale are structural zeros seen through quadrature roundoff, so the
    denominator never drops below 1e-4 of the scale.
    """
    d = np.sqrt(np.abs(np.diag(B)))
    floor = 1e-4 * np.outer(d, d)
    denom = np.maximum(np.abs(B), floor)
    return float(np.max(np.abs(A - B) / denom))


def quad_moments(config: Configuration) -> MomentMatrix:
    """Moment matrix by polar quadrature, validated by mesh doubling."""
    size = config.n + 1
    coarse = _moments_mesh(config, size, 1)
    for factor in (2, 4):
        fine = _moments_mesh(config, size, factor)
        err = moments_max_reldiff(coarse, fine)
        if err <= QUAD_TARGET:
            break
        coarse = fine
    else:
        raise QuadratureNotConverged(
            f"mesh doubling stalled at relative difference {err:.3e} "
            f"(target {QUAD_TARGET:.1e})")
    best = 0.5 * (fine + fine.conj().T)
    return MomentMatrix(entries=best, entries_lo=np.zeros_like(best),
                        method="quadrature", band=size - 1)


# ---------------------------------------------------------------------------
# the Gram solve


def _scaled_cond(H: np.ndarray) -> float:
    """Condition of H after diagonal scaling; the raw one mostly measures m!/N^m."""
    d = H.diagonal().real
    if not np.all(d > 0):
        return math.inf
    if d.size == 0:
        return 1.0
    s = np.sqrt(d)
    return float(np.linalg.cond(H / np.outer(s, s)))


def monic_op(moments: MomentMatrix, n: int) -> MonicPolynomial:
    """Monic degree-n polynomial orthogonal to 1, z, ..., z^(n-1).

    Solves sum_k b_k <z^k, z^m> = -<z^n, z^m> and forms the squared
    norm h_n in double-double.  Quadrature moments are good to about
    1e-10 only, so a quadrature Gram matrix whose condition after
    diagonal scaling passes 1e13 is refused.
    """
    if n + 1 > moments.size:
        raise ValueError(f"moment matrix of size {moments.size} cannot build degree {n}")
    hi, lo = moments.entries, moments.entries_lo
    gram = hi[:n, :n]
    if n == 0:
        return MonicPolynomial(0, np.array([1.0 + 0j]), float(hi[0, 0].real),
                               np.zeros(1, dtype=complex), gram)
    if moments.method == "quadrature":
        cond = _scaled_cond(gram)
        if cond > 1e13:
            raise IllConditioned(
                f"quadrature Gram solve at degree {n} has condition ~{cond:.2e}; "
                "use the exact-moment path", cond)

    A = (gram.T, lo[:n, :n].T)
    rhs = dd.scale((hi[n, :n], lo[n, :n]), dd.dd(-1.0))
    try:
        x = dd.cholesky_solve_hermitian(A, rhs, band=moments.band)
    except ArithmeticError as exc:
        raise IllConditioned(str(exc), math.inf) from exc
    coeffs = (np.append(x[0], 1.0), np.append(x[1], 0.0))
    # h_n = sum_k b_k <z^k, z^n>: on one column Python scalars beat numpy's
    acc = (0j, 0j)
    for b, b_lo, g, g_lo in zip(*(v.tolist() for v in (*coeffs, hi[:n + 1, n], lo[:n + 1, n]))):
        acc = dd.add(acc, dd.cmul((b, b_lo), (g, g_lo)))
    h = dd.value(acc).real
    if not (h > 0):
        raise IllConditioned(f"nonpositive norm h_n = {h}", _scaled_cond(gram))
    return MonicPolynomial(n, coeffs[0], h, coeffs[1], gram)


def poly_eval(poly: MonicPolynomial, z):
    """Evaluate through the double-double coefficients (cancellation-safe)."""
    if np.ndim(z):
        return dd.value(dd.horner_stack((poly.coeffs[None], poly.coeffs_lo[None]), z))[0]
    # at one point, Python scalars run three times faster than numpy's
    return dd.value(dd.horner((poly.coeffs.tolist(), poly.coeffs_lo.tolist()), complex(z)))


def orthogonality_residuals(moments: MomentMatrix, poly: MonicPolynomial) -> np.ndarray:
    """Normalized |<p_n, z^m>| / (sqrt(h_n) sqrt(<z^m,z^m>)) for m < n."""
    n = poly.degree
    terms = dd.cmul((poly.coeffs[:, None], poly.coeffs_lo[:, None]),
                    (moments.entries[:n + 1, :n], moments.entries_lo[:n + 1, :n]))
    acc = (0j, 0j)
    for k in range(n + 1):
        acc = dd.add(acc, (terms[0][k], terms[1][k]))
    v = dd.value(acc)
    norms = dd.value((moments.entries.diagonal(), moments.entries_lo.diagonal()))[:n].real
    # np.hypot rounds like abs() of a Python complex; np.abs does not
    return np.hypot(v.real, v.imag) / np.sqrt(poly.h_n * norms)


# ---------------------------------------------------------------------------
# roots


def _aberth(z, newton, done):
    """Aberth-Ehrlich sweeps on all the points z at once.

    ``newton(z)`` gives (p(z), p'(z), *extra); the sweeps end after the
    one in which ``done(z, p, corr, *extra)`` holds, or after
    ABERTH_MAX_SWEEPS.
    """
    off = np.eye(z.size)
    for _ in range(ABERTH_MAX_SWEEPS):
        p, q, *extra = newton(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(q != 0, p / q, 0.0)
            S = np.sum(1.0 / (z[:, None] - z[None, :] + off), axis=1) - 1.0
            corr = w / (1.0 - w * S)
        corr = np.where(np.isfinite(corr), corr, 0.1 * (1 + np.abs(z)))
        z, stop = z - corr, done(z, p, corr, *extra)
        if stop:
            break
    return z


def _double_newton(b):
    """z -> (p(z), p'(z), sum |b_k| |z|^k) for ascending coefficients b.

    One loop of np.polyval's steps y = y*x + c runs the three as rows of
    one complex array: p' is padded by a zero leading coefficient, and
    the bound takes |b_k| and |z| as complex numbers with zero imaginary
    part, whose product and sum round the real part as the real ones do
    while it is finite.  Neither moves a bit.
    """
    desc = b[::-1]
    # np.abs of a complex array can round differently on a contiguous and
    # on a strided one; the bound takes |b_k| from the reversed view, as
    # np.polyval(np.abs(b[::-1]), |z|) does
    terms = np.stack([desc, np.append(0.0, (b[1:] * np.arange(1, len(b)))[::-1]),
                      np.abs(desc)]).T[:, :, None]

    def newton(z):
        x = np.stack([z, z, np.abs(z)])
        y = np.zeros_like(x)
        for c in terms:
            y *= x
            y += c
        return y[0], y[1], y[2].real
    return newton


def _dd_newton(poly: MonicPolynomial):
    """z -> (p(z), p'(z)) through the double-double coefficients, in one pass."""
    b, lo = poly.coeffs, poly.coeffs_lo
    dcoeffs = dd.scale((b[1:], lo[1:]), dd.dd(np.arange(1.0, poly.degree + 1)))
    stack = tuple(np.stack([c, np.append(d, 0.0)]) for c, d in zip((b, lo), dcoeffs))
    return lambda z: tuple(dd.value(dd.horner_stack(stack, z)))


def _newton_polygon_start(b):
    """Bini's starting points for Aberth's method (Numer. Algorithms 13, 1996).

    The upper convex hull of the points (k, log|b_k|) over the nonzero
    ascending coefficients b has edges [k_i, k_i+1]; each puts its
    m = k_i+1 - k_i starts on the circle |z| = (|b_k_i| / |b_k_i+1|)^(1/m),
    at angles 2 pi (j/m + k_i/n) + 0.42.  The k roots at 0 that zero low
    coefficients b_0 = ... = b_k-1 = 0 leave start on a circle of half
    the smallest hull radius, or of radius 1 when the hull has no edge.
    """
    n = len(b) - 1
    ks = np.flatnonzero(b)
    logs = np.log(np.abs(b[ks]))
    hull = []    # positions in ks of the hull's corners, left to right
    for i in range(ks.size):
        # drop the last corner while it lies on or below the chord to i
        while len(hull) >= 2:
            h0, h1 = hull[-2:]
            if (ks[h1] - ks[h0]) * (logs[i] - logs[h0]) < (logs[h1] - logs[h0]) * (ks[i] - ks[h0]):
                break
            hull.pop()
        hull.append(i)
    # the radius of an edge is e^(-slope)
    edges = [(ks[i], ks[j], math.exp((logs[i] - logs[j]) / (ks[j] - ks[i])))
             for i, j in zip(hull[:-1], hull[1:])]
    if ks[0] > 0:
        edges.insert(0, (0, ks[0], 0.5 * min(r for *_, r in edges) if edges else 1.0))
    return np.concatenate([
        r * np.exp(1j * (2.0 * math.pi * (np.arange(k1 - k0) / (k1 - k0) + k0 / n) + 0.42))
        for k0, k1, r in edges])


def roots(poly: MonicPolynomial):
    """All roots by Aberth-Ehrlich iteration, finished in double-double.

    The iteration starts on circles near the roots' moduli, read off the
    Newton polygon of the coefficients (``_newton_polygon_start``); on
    FIG4 at n = N = 64 the double stage takes 20 sweeps from there.  A
    double stage runs until every |p(z)| is down to the rounding level
    of its evaluation, then a double-double stage until every correction
    is below 4 eps (1 + |z|) or the largest has set no new minimum for
    ABERTH_STALL_SWEEPS sweeps.  Returns (roots, residuals), sorted by
    real part to 9 decimals, then by imaginary part; the residuals are
    double-double Newton steps |p/p'| / (1 + |root|), which estimate the
    forward error.  Raises NoConvergence if one is above ROOT_TOL.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("degree must be >= 1")
    b, eps = poly.coeffs, np.finfo(float).eps
    z = _aberth(_newton_polygon_start(b), _double_newton(b), lambda z, p, corr, bound:
                np.all(np.abs(p) <= 8 * (n + 1) * eps * bound))
    dd_newton = _dd_newton(poly)

    steps = []   # the largest relative correction of each double-double sweep

    def settled(z, p, corr):
        steps.append(np.max(np.abs(corr) / (1.0 + np.abs(z))))
        return (steps[-1] <= 4 * eps
                or len(steps) - 1 - np.argmin(steps) >= ABERTH_STALL_SWEEPS)

    z = _aberth(z, dd_newton, settled)
    p, q = dd_newton(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = np.where(p == 0, 0.0, np.abs(p / q)) / (1.0 + np.abs(z))
    bad = ~(resid <= ROOT_TOL)
    if np.any(bad):
        raise NoConvergence(f"{np.sum(bad)} of {n} roots keep a Newton step above "
                            f"{ROOT_TOL:.0e} (largest {np.max(resid):.1e})")
    # roots whose real parts differ only in the last bits, such as a
    # conjugate pair, are ordered by their imaginary parts
    order = np.lexsort((z.imag, np.round(z.real, 9)))
    return z[order], resid[order]


# ---------------------------------------------------------------------------
# curve comparison


def root_curve_distance(rts, curve: CurveSet, exclusion: float,
                        centers=()) -> RootDistanceSummary:
    """Distances from roots to the traced curve, outside exclusion disks.

    Roots within ``exclusion`` of any center (normally the singular
    points) are dropped; the rest are measured against every polyline
    segment of the curve.
    """
    w = np.asarray(rts, dtype=complex).ravel()
    if exclusion > 0:
        keep = np.ones(w.shape, dtype=bool)
        for aj in centers:
            keep &= np.abs(w - aj) > exclusion
        w = w[keep]
    if w.size == 0:
        return RootDistanceSummary(math.nan, math.nan, 0)
    p0 = np.concatenate([arc.points[:-1] for arc in curve.arcs])
    p1 = np.concatenate([arc.points[1:] for arc in curve.arcs])
    d = p1 - p0
    L2 = np.abs(d) ** 2
    t = ((w[:, None] - p0[None, :]) * d.conj()[None, :]).real / L2[None, :]
    t = np.clip(t, 0.0, 1.0)
    proj = p0[None, :] + t * d[None, :]
    dist = np.min(np.abs(w[:, None] - proj), axis=1)
    return RootDistanceSummary(float(dist.max()), float(dist.mean()), int(w.size))
