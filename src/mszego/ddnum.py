"""Double-double arithmetic (about 31 significant decimal digits).

Numbers are unevaluated sums ``(hi, lo)`` with ``|lo| <= 0.5 ulp(hi)``
whose parts are floats, complex numbers or numpy arrays; a complex value
keeps its real and imaginary double-doubles in the real and imaginary
parts of ``hi`` and ``lo``.  Sums are componentwise, so only products
and quotients split a value into its parts.  Products use Dekker
splitting (no FMA assumed); every step is one IEEE operation, so an
array call gives the bits of the scalar calls.  Only what the moment
oracle needs is implemented: field operations, square root, rounding,
a Hermitian Cholesky solve and polynomial evaluation, at one point
(``horner``) or for several polynomials at many points in one pass
(``horner_stack``, on real arrays).

On Python scalars a call costs more than the arithmetic, so ``add``,
``mul``, ``div``, ``horner`` and the Cholesky solve's products and
quotients are written out on floats: the same IEEE operations in the
same order as their compositions of two-sums, quick-sums and Dekker
products, with the same bits.  ``horner_stack`` keeps those bits with
few numpy calls per step.
"""

from __future__ import annotations

import math

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1


def _split(a):
    """Dekker's split of a into two halves of at most 26 significant bits."""
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    return ahi, a - ahi


def dd(x):
    """Promote an exact int, a float, a complex number or an array."""
    if isinstance(x, int):
        hi = float(x)
        return hi, float(x - int(hi))
    if isinstance(x, np.ndarray):
        return x, np.zeros_like(x)
    if isinstance(x, complex):
        return x, 0j
    return float(x), 0.0


def add(x, y):
    # written out, as are mul and div: on Python scalars calls cost more
    # than the arithmetic.  Two two-sums, of the hi and of the lo parts,
    # then two quick-sums.
    a, a_lo = x
    b, b_lo = y
    s = a + b
    v = s - a
    u = (a - (s - v)) + (b - v)
    t = a_lo + b_lo
    v = t - a_lo
    w = (a_lo - (t - v)) + (b_lo - v)
    u += t
    r = s + u
    u = u - (r - s)
    u += w
    s = r + u
    return s, u - (s - r)


def sub(x, y):
    return add(x, (-y[0], -y[1]))


def conj(x):
    return x[0].conjugate(), x[1].conjugate()


def value(x):
    """Round to the nearest double (complex or array alike)."""
    return x[0] + x[1]


def mul(x, y):
    """Product of real double-doubles."""
    a, a_lo = x
    b, b_lo = y
    p = a * b
    ca = _SPLIT * a
    ah = ca - (ca - a)
    at = a - ah
    cb = _SPLIT * b
    bh = cb - (cb - b)
    bt = b - bh
    e = ((ah * bh - p) + ah * bt + at * bh) + at * bt
    e += a * b_lo + a_lo * b
    s = p + e
    return s, e - (s - p)


def div(x, y):
    """Quotient of real double-doubles."""
    # q1 + q2 + q3, each the leading quotient of the remainder left by the
    # ones before, which is (a, a_lo) = sub((a, a_lo), mul((q, 0.0), y))
    a, a_lo = x
    b, b_lo = y
    c = _SPLIT * b
    bh = c - (c - b)
    bt = b - bh
    q = a / b
    quotients = []
    for _ in range(2):
        c = _SPLIT * q
        qh = c - (c - q)
        qt = q - qh
        p = q * b
        e = ((qh * bh - p) + qh * bt + qt * bh) + qt * bt
        e += q * b_lo + 0.0 * b
        s = p + e; e = -(e - (s - p)); p = -s
        s = a + p; v = s - a; u = (a - (s - v)) + (p - v)
        t = a_lo + e; v = t - a_lo; w = (a_lo - (t - v)) + (e - v)
        u += t; r = s + u; u = u - (r - s); u += w; a = r + u; a_lo = u - (a - r)
        quotients.append(q)
        q = a / b
    (q1, q2), q3 = quotients, q
    # add(quick_sum(q1, q2), (q3, 0.0))
    s = q1 + q2; e = q2 - (s - q1)
    r = s + q3; v = r - s; u = (s - (r - v)) + (q3 - v)
    t = e + 0.0; v = t - e; w = (e - (t - v)) + (0.0 - v)
    u += t; s = r + u; u = u - (s - r); u += w; r = s + u
    return r, u - (r - s)


def sqrt(x):
    if x[0] < 0:
        raise ValueError("sqrt of a negative double-double")
    if x[0] == 0:
        return 0.0, 0.0
    a = math.sqrt(x[0])
    q = sub(x, mul((a, 0.0), (a, 0.0)))[0] / (2.0 * a)
    s = a + q
    return s, q - (s - a)


PI = (3.141592653589793, 1.2246467991473532e-16)


def _parts(x):
    """The real and imaginary double-doubles of a complex one."""
    return (x[0].real, x[1].real), (x[0].imag, x[1].imag)


def _join(re, im):
    """A complex double-double from its real and imaginary double-doubles."""
    # re + 1j*im would turn a -0.0 real part into +0.0
    if isinstance(re[0], float):
        return complex(re[0], im[0]), complex(re[1], im[1])
    hi = np.empty(np.shape(re[0]), dtype=complex)
    lo = np.empty_like(hi)
    hi.real, hi.imag = re[0], im[0]
    lo.real, lo.imag = re[1], im[1]
    return hi, lo


def cmul(x, y):
    """Product of complex double-doubles."""
    (xr, xi), (yr, yi) = _parts(x), _parts(y)
    return _join(sub(mul(xr, yr), mul(xi, yi)), add(mul(xr, yi), mul(xi, yr)))


def _by_parts(op, x, s):
    re, im = _parts(x)
    return _join(op(re, s), op(im, s))


def scale(x, s):
    """Multiply a complex double-double by a real one."""
    return _by_parts(mul, x, s)


def poly_mul(p, q):
    """Product of coefficient lists (ascending powers) of complex double-doubles."""
    out = [(0j, 0j)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] = add(out[i + j], cmul(pi, qj))
    return out


def horner(coeffs, z):
    """Evaluate a polynomial at one double point z, on Python floats.

    ``coeffs`` is a pair of ascending coefficient sequences (hi, lo).
    Each step ``acc = add(cmul(acc, dd(z)), c)`` is written out on the
    real and imaginary parts, one IEEE operation per step in the order
    of ``mul`` and ``add``: z is split once and the accumulator once per
    step, and the products with z's zero low part are kept.
    """
    hi, lo = coeffs
    z = complex(z)
    x, y = z.real, z.imag
    c = _SPLIT * x
    xh = c - (c - x)
    xt = x - xh
    c = _SPLIT * y
    yh = c - (c - y)
    yt = y - yh
    a = a_lo = b = b_lo = 0.0           # acc = (a + ib, a_lo + ib_lo)
    for k in reversed(range(len(hi))):
        c = _SPLIT * a
        ah = c - (c - a)
        at = a - ah
        c = _SPLIT * b
        bh = c - (c - b)
        bt = b - bh
        # the four calls of mul, (p, e) each; b*y is negated for sub
        p1 = a * x
        e1 = ((ah * xh - p1) + ah * xt + at * xh) + at * xt
        e1 += a * 0.0 + a_lo * x
        s = p1 + e1; e1 = e1 - (s - p1); p1 = s
        p2 = b * y
        e2 = ((bh * yh - p2) + bh * yt + bt * yh) + bt * yt
        e2 += b * 0.0 + b_lo * y
        s = p2 + e2; e2 = -(e2 - (s - p2)); p2 = -s
        p3 = a * y
        e3 = ((ah * yh - p3) + ah * yt + at * yh) + at * yt
        e3 += a * 0.0 + a_lo * y
        s = p3 + e3; e3 = e3 - (s - p3); p3 = s
        p4 = b * x
        e4 = ((bh * xh - p4) + bh * xt + bt * xh) + bt * xt
        e4 += b * 0.0 + b_lo * x
        s = p4 + e4; e4 = e4 - (s - p4); p4 = s
        # the four calls of add, three lines each: re = (p1 + p2) + c.real
        # (p2 negated), im = (p3 + p4) + c.imag
        s = p1 + p2; v = s - p1; u = (p1 - (s - v)) + (p2 - v)
        t = e1 + e2; v = t - e1; w = (e1 - (t - v)) + (e2 - v)
        u += t; r = s + u; u = u - (r - s); u += w; a = r + u; a_lo = u - (a - r)
        s = p3 + p4; v = s - p3; u = (p3 - (s - v)) + (p4 - v)
        t = e3 + e4; v = t - e3; w = (e3 - (t - v)) + (e4 - v)
        u += t; r = s + u; u = u - (r - s); u += w; b = r + u; b_lo = u - (b - r)
        c, c_lo = hi[k], lo[k]
        p, e = c.real, c_lo.real
        s = a + p; v = s - a; u = (a - (s - v)) + (p - v)
        t = a_lo + e; v = t - a_lo; w = (a_lo - (t - v)) + (e - v)
        u += t; r = s + u; u = u - (r - s); u += w; a = r + u; a_lo = u - (a - r)
        p, e = c.imag, c_lo.imag
        s = b + p; v = s - b; u = (b - (s - v)) + (p - v)
        t = b_lo + e; v = t - b_lo; w = (b_lo - (t - v)) + (e - v)
        u += t; r = s + u; u = u - (r - s); u += w; b = r + u; b_lo = u - (b - r)
    return complex(a, b), complex(a_lo, b_lo)


def horner_stack(coeffs, z):
    """Evaluate P polynomials at the same points, with the bits of ``horner``.

    ``coeffs`` is a pair (hi, lo) of complex (P, d + 1) arrays, ascending;
    zero leading coefficients pad a shorter polynomial and move no bit.
    Returns the (hi, lo) pair of complex arrays of shape (P,) + z.shape.
    The accumulator's parts a = re, im run as one real (2, 1, P, m)
    array times y = ((zr, zi), (zi, zr)), so each step of ``cmul`` is
    one numpy call over its four partial products, and a double-double's
    hi and lo lie on a leading axis of one array, so the two two-sums of
    each ``add`` are one set of calls, and every step writes into buffers
    allocated once per call.  z is split once, and its zero low part is
    dropped from the products: the error of a Dekker product is never
    -0.0, so adding +-0 to it moves no bit.
    """
    z = np.asarray(z, dtype=complex)
    zr, zi = z.real.ravel(), z.imag.ravel()
    cs = np.stack([np.stack([c.real, c.imag]) for c in coeffs])     # (hi|lo, re|im, P, d + 1)
    P, m = cs.shape[2], zr.size
    cs = np.moveaxis(cs, 3, 0)[::-1, ..., None]     # one (hi|lo, re|im, P, 1) block per power
    y = np.empty((2, 2, P, m))              # [a, b]: the factor of part a in part b
    y[0, 0] = y[1, 1] = zr
    y[0, 1] = y[1, 0] = zi
    ys = np.stack(_split(y))                # [j]: head|tail of y
    acc = np.zeros((2, 2, 1, P, m))         # [hi|lo, a]
    prod = np.empty((2, 2, 2, P, m))        # [hi|lo, a, b]: acc * y, so (p, x_lo * y)
    xs = np.empty((2, 2, 1, P, m))          # [i]: head|tail of acc's hi part
    q = np.empty((2, 2, 2, 2, P, m))        # [i, j]: xs[i] * ys[j]
    qs = np.empty((2, 2, 2, P, m))          # [a, hi|lo, b]: the products in double-double
    mid = np.empty((2, 2, P, m))            # [hi|lo, b]: cmul(acc, z), before c is added
    s, v, u = np.empty((3, 2, 2, P, m))
    (s1, t1), (s2, t2), v1 = s, u, v[0]
    p, x_lo_y = prod
    acc_hi, (x_head, x_tail), xs_ = acc[0], xs, xs[:, None]
    (e, xh_yl), (xl_yh, xl_yl) = q
    qs_p, qs_e, acc_out = qs[:, 0], qs[:, 1], acc[:, :, 0]
    neg = qs[1, :, 0]                       # im * zi: re * zr - im * zi

    def add_into(x, y, out):
        # add on stacked (hi, lo) arrays
        np.add(x, y, out=s)
        np.subtract(s, x, out=v)
        np.subtract(s, v, out=u)
        np.subtract(x, u, out=u)
        np.subtract(y, v, out=v)
        np.add(u, v, out=u)
        np.add(s2, t1, out=s2)
        np.add(s1, s2, out=t1)
        np.subtract(t1, s1, out=v1)
        np.subtract(s2, v1, out=s2)
        np.add(s2, t2, out=s2)
        np.add(t1, s2, out=out[0])
        np.subtract(out[0], t1, out=out[1])
        np.subtract(s2, out[1], out=out[1])

    for c in cs:
        np.multiply(acc, y, out=prod)
        np.multiply(acc_hi, _SPLIT, out=x_tail)
        np.subtract(x_tail, acc_hi, out=x_head)
        np.subtract(x_tail, x_head, out=x_head)
        np.subtract(acc_hi, x_head, out=x_tail)
        np.multiply(xs_, ys, out=q)
        e -= p
        e += xh_yl
        e += xl_yh
        e += xl_yl
        e += x_lo_y
        np.add(p, e, out=qs_p)
        np.subtract(qs_p, p, out=qs_e)
        np.subtract(e, qs_e, out=qs_e)
        np.negative(neg, out=neg)
        add_into(qs[0], qs[1], mid)
        add_into(mid, c, acc_out)
    out = _join((acc[0, 0, 0], acc[1, 0, 0]), (acc[0, 1, 0], acc[1, 1, 0]))
    return tuple(part.reshape((P,) + z.shape) for part in out)


def cholesky_solve_hermitian(A, rhs, band: int):
    """Solve A x = rhs for a Hermitian positive definite double-double A.

    ``A`` is a pair (hi, lo) of complex square arrays, ``rhs`` a pair of
    vectors; entries more than ``band`` off the diagonal are skipped.
    Returns the solution pair.  Raises ArithmeticError on a nonpositive
    pivot.  The loops run on Python floats, faster here than numpy's:
    every complex double-double is held as its parts (re, im), no complex
    number is formed until the solution is returned, and each step
    sub(acc, cmul(x, y)) is written out.  Only the band of A is read.
    """
    m = len(A[0])
    # lower[d][k]: the parts of A[k + d, k]
    lower = [list(map(_parts, zip(np.diagonal(A[0], -d).tolist(),
                                  np.diagonal(A[1], -d).tolist())))
             for d in range(min(band, m - 1) + 1)]
    L = [[None] * m for _ in range(m)]
    diag = [None] * m

    def conj(x):
        re, (im, im_lo) = x
        return re, (-im, -im_lo)

    def solve_row(acc, terms, d):
        # (acc - sum of cmul(x, y)) / d part by part; each sub(acc, cmul(x, y))
        # is four calls of mul and four of add, written out
        (a, a_lo), (b, b_lo) = acc
        for ((xr, xr_lo), (xi, xi_lo)), ((yr, yr_lo), (yi, yi_lo)) in terms:
            c = _SPLIT * xr; xrh = c - (c - xr); xrt = xr - xrh
            c = _SPLIT * xi; xih = c - (c - xi); xit = xi - xih
            c = _SPLIT * yr; yrh = c - (c - yr); yrt = yr - yrh
            c = _SPLIT * yi; yih = c - (c - yi); yit = yi - yih
            p1 = xr * yr
            e1 = ((xrh * yrh - p1) + xrh * yrt + xrt * yrh) + xrt * yrt
            e1 += xr * yr_lo + xr_lo * yr
            s = p1 + e1; e1 = e1 - (s - p1); p1 = s
            p2 = xi * yi
            e2 = ((xih * yih - p2) + xih * yit + xit * yih) + xit * yit
            e2 += xi * yi_lo + xi_lo * yi
            s = p2 + e2; e2 = -(e2 - (s - p2)); p2 = -s
            p3 = xr * yi
            e3 = ((xrh * yih - p3) + xrh * yit + xrt * yih) + xrt * yit
            e3 += xr * yi_lo + xr_lo * yi
            s = p3 + e3; e3 = e3 - (s - p3); p3 = s
            p4 = xi * yr
            e4 = ((xih * yrh - p4) + xih * yrt + xit * yrh) + xit * yrt
            e4 += xi * yr_lo + xi_lo * yr
            s = p4 + e4; e4 = e4 - (s - p4); p4 = s
            # re = p1 + p2 and im = p3 + p4, each negated onto acc
            s = p1 + p2; v = s - p1; u = (p1 - (s - v)) + (p2 - v)
            t = e1 + e2; v = t - e1; w = (e1 - (t - v)) + (e2 - v)
            u += t; r = s + u; u = u - (r - s); u += w; q = r + u; e = -(u - (q - r)); p = -q
            s = a + p; v = s - a; u = (a - (s - v)) + (p - v)
            t = a_lo + e; v = t - a_lo; w = (a_lo - (t - v)) + (e - v)
            u += t; r = s + u; u = u - (r - s); u += w; a = r + u; a_lo = u - (a - r)
            s = p3 + p4; v = s - p3; u = (p3 - (s - v)) + (p4 - v)
            t = e3 + e4; v = t - e3; w = (e3 - (t - v)) + (e4 - v)
            u += t; r = s + u; u = u - (r - s); u += w; q = r + u; e = -(u - (q - r)); p = -q
            s = b + p; v = s - b; u = (b - (s - v)) + (p - v)
            t = b_lo + e; v = t - b_lo; w = (b_lo - (t - v)) + (e - v)
            u += t; r = s + u; u = u - (r - s); u += w; b = r + u; b_lo = u - (b - r)
        return div((a, a_lo), d), div((b, b_lo), d)

    for i in range(m):
        first = max(0, i - band)
        for k in range(first, i):
            L[i][k] = solve_row(lower[i - k][k],
                                ((L[i][t], conj(L[k][t]))
                                 for t in range(max(first, k - band), k)), diag[k])
        acc = lower[0][i][0]
        for t in range(first, i):
            re, im = L[i][t]
            acc = sub(acc, add(mul(re, re), mul(im, im)))
        if acc[0] <= 0.0:
            raise ArithmeticError(f"nonpositive Cholesky pivot at row {i}")
        diag[i] = sqrt(acc)

    # forward then adjoint-backward substitution
    y = [None] * m
    for i, b in enumerate(zip(rhs[0].tolist(), rhs[1].tolist())):
        y[i] = solve_row(_parts(b), ((L[i][t], y[t]) for t in range(max(0, i - band), i)),
                         diag[i])
    x = [None] * m
    for i in reversed(range(m)):
        x[i] = solve_row(y[i], ((conj(L[t][i]), x[t])
                                for t in range(i + 1, min(m, i + band + 1))), diag[i])
    return tuple(np.array([complex(re[j], im[j]) for re, im in x], dtype=complex)
                 for j in (0, 1))
