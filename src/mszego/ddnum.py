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
(``horner``, on Python scalars) or for several polynomials at many
points in one pass (``horner_stack``, on real arrays).
"""

from __future__ import annotations

import math

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _split(a):
    """Dekker's split of a into two halves of at most 26 significant bits."""
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    return ahi, a - ahi


def _two_prod(a, b):
    # the splits are written out: on Python scalars calls cost more than the arithmetic
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


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
    s1, s2 = _two_sum(x[0], y[0])
    t1, t2 = _two_sum(x[1], y[1])
    s2 += t1
    s1, s2 = _quick_sum(s1, s2)
    s2 += t2
    return _quick_sum(s1, s2)


def sub(x, y):
    return add(x, (-y[0], -y[1]))


def conj(x):
    return x[0].conjugate(), x[1].conjugate()


def value(x):
    """Round to the nearest double (complex or array alike)."""
    return x[0] + x[1]


def mul(x, y):
    """Product of real double-doubles."""
    p1, p2 = _two_prod(x[0], y[0])
    p2 += x[0] * y[1] + x[1] * y[0]
    return _quick_sum(p1, p2)


def div(x, y):
    """Quotient of real double-doubles."""
    q1 = x[0] / y[0]
    r = sub(x, mul((q1, 0.0), y))
    q2 = r[0] / y[0]
    r = sub(r, mul((q2, 0.0), y))
    q3 = r[0] / y[0]
    s, e = _quick_sum(q1, q2)
    return add((s, e), (q3, 0.0))


def sqrt(x):
    if x[0] < 0:
        raise ValueError("sqrt of a negative double-double")
    if x[0] == 0:
        return 0.0, 0.0
    a = math.sqrt(x[0])
    r = sub(x, mul((a, 0.0), (a, 0.0)))
    return _quick_sum(a, r[0] / (2.0 * a))


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
    """Evaluate a polynomial at one complex point.

    ``coeffs`` is a pair of ascending coefficient sequences (hi, lo).
    """
    hi, lo = coeffs
    z = dd(z)
    acc = (0j, 0j)
    for k in reversed(range(len(hi))):
        acc = add(cmul(acc, z), (hi[k], lo[k]))
    return acc


def horner_stack(coeffs, z):
    """Evaluate P polynomials at the same points, with the bits of ``horner``.

    ``coeffs`` is a pair (hi, lo) of complex (P, d + 1) arrays, ascending;
    zero leading coefficients pad a shorter polynomial and move no bit.
    Returns the (hi, lo) pair of complex arrays of shape (P,) + z.shape.
    The parts (re, im) run as one real (P, 2, 1, m) array times
    ((zr, zi), (zi, zr)), so each step of ``cmul`` is one numpy call over
    its four partial products.  z is split once, and its zero low part
    is dropped from the products: the error of ``_two_prod`` is never
    -0.0, so adding +-0 to it moves no bit.
    """
    z = np.asarray(z, dtype=complex)
    y = np.stack([z.real, z.imag, z.imag, z.real]).reshape(2, 2, -1)
    yh, yl = _split(y)
    sign = np.array([[-1.0], [1.0]])       # re*zr - im*zi, re*zi + im*zr
    # one (P, 2, 1) block of real and imaginary parts per power, descending
    hi, lo = (np.moveaxis(np.stack([c.real, c.imag], axis=1), 2, 0)[::-1, ..., None]
              for c in coeffs)
    acc = np.zeros((2,) + hi.shape[1:3] + y.shape[2:])
    for c in zip(hi, lo):
        x_hi, x_lo = acc[0][:, :, None], acc[1][:, :, None]
        p = x_hi * y
        xh, xl = _split(x_hi)
        e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
        e += x_lo * y
        p, e = _quick_sum(p, e)
        acc = add(add((p[:, 0], e[:, 0]), (sign * p[:, 1], sign * e[:, 1])), c)
    out = _join((acc[0][:, 0], acc[1][:, 0]), (acc[0][:, 1], acc[1][:, 1]))
    return tuple(part.reshape(hi.shape[1:2] + z.shape) for part in out)


def cholesky_solve_hermitian(A, rhs, band: int):
    """Solve A x = rhs for a Hermitian positive definite double-double A.

    ``A`` is a pair (hi, lo) of complex square arrays, ``rhs`` a pair of
    vectors; entries more than ``band`` off the diagonal are skipped.
    Returns the solution pair.  Raises ArithmeticError on a nonpositive
    pivot.  The loops run on Python scalars, faster here than numpy's.
    """
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
                acc = sub(acc, cmul(L[i][t], conj(L[k][t])))
            L[i][k] = _by_parts(div, acc, diag[k])
        acc_r = A_hi[i][i].real, A_lo[i][i].real
        for t in range(first, i):
            re, im = _parts(L[i][t])
            acc_r = sub(acc_r, add(mul(re, re), mul(im, im)))
        if acc_r[0] <= 0.0:
            raise ArithmeticError(f"nonpositive Cholesky pivot at row {i}")
        diag[i] = sqrt(acc_r)

    # forward then adjoint-backward substitution
    y = [(0j, 0j)] * m
    for i in range(m):
        acc = rhs[i]
        for t in range(max(0, i - band), i):
            acc = sub(acc, cmul(L[i][t], y[t]))
        y[i] = _by_parts(div, acc, diag[i])
    x = [(0j, 0j)] * m
    for i in reversed(range(m)):
        acc = y[i]
        for t in range(i + 1, min(m, i + band + 1)):
            acc = sub(acc, cmul(conj(L[t][i]), x[t]))
        x[i] = _by_parts(div, acc, diag[i])
    return (np.array([v[0] for v in x], dtype=complex),
            np.array([v[1] for v in x], dtype=complex))
