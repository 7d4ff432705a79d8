"""Double-double arithmetic (about 31 significant decimal digits).

Numbers are unevaluated sums of two IEEE doubles ``(hi, lo)`` with
``|lo| <= 0.5 ulp(hi)``; complex values are pairs of those.  Products
use Dekker splitting (no FMA assumed).  Only what the moment oracle
needs is implemented: field operations, square root, conversion, a
Hermitian Cholesky solve and polynomial evaluation.
"""

from __future__ import annotations

import math

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_sum(a: float, b: float):
    s = a + b
    return s, b - (s - a)


def _two_prod(a: float, b: float):
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def dd(x) -> tuple[float, float]:
    """Promote a float or exact int to a double-double."""
    if isinstance(x, tuple):
        return x
    if isinstance(x, int):
        hi = float(x)
        return hi, float(x - int(hi))
    return float(x), 0.0


def dd_add(x, y):
    s1, s2 = _two_sum(x[0], y[0])
    t1, t2 = _two_sum(x[1], y[1])
    s2 += t1
    s1, s2 = _quick_sum(s1, s2)
    s2 += t2
    return _quick_sum(s1, s2)


def dd_neg(x):
    return -x[0], -x[1]


def dd_sub(x, y):
    return dd_add(x, dd_neg(y))


def dd_mul(x, y):
    p1, p2 = _two_prod(x[0], y[0])
    p2 += x[0] * y[1] + x[1] * y[0]
    return _quick_sum(p1, p2)


def dd_div(x, y):
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul((q1, 0.0), y))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul((q2, 0.0), y))
    q3 = r[0] / y[0]
    s, e = _quick_sum(q1, q2)
    return dd_add((s, e), (q3, 0.0))


def dd_sqrt(x):
    if x[0] < 0:
        raise ValueError("dd_sqrt of a negative number")
    if x[0] == 0:
        return 0.0, 0.0
    a = math.sqrt(x[0])
    r = dd_sub(x, dd_mul((a, 0.0), (a, 0.0)))
    return _quick_sum(a, r[0] / (2.0 * a))


def dd_float(x) -> float:
    return x[0] + x[1]


DD_ZERO = (0.0, 0.0)
DD_ONE = (1.0, 0.0)
DD_PI = (3.141592653589793, 1.2246467991473532e-16)


# -- complex double-double: ((re_hi, re_lo), (im_hi, im_lo)) ---------------


def cdd(z) -> tuple:
    if isinstance(z, tuple) and isinstance(z[0], tuple):
        return z
    z = complex(z)
    return dd(z.real), dd(z.imag)


def cdd_add(x, y):
    return dd_add(x[0], y[0]), dd_add(x[1], y[1])


def cdd_sub(x, y):
    return dd_sub(x[0], y[0]), dd_sub(x[1], y[1])


def cdd_mul(x, y):
    re = dd_sub(dd_mul(x[0], y[0]), dd_mul(x[1], y[1]))
    im = dd_add(dd_mul(x[0], y[1]), dd_mul(x[1], y[0]))
    return re, im


def cdd_conj(x):
    return x[0], dd_neg(x[1])


def cdd_scale(x, s):
    """Multiply by a real double-double."""
    return dd_mul(x[0], s), dd_mul(x[1], s)


def cdd_abs2(x):
    return dd_add(dd_mul(x[0], x[0]), dd_mul(x[1], x[1]))


def cdd_complex(x) -> complex:
    return complex(dd_float(x[0]), dd_float(x[1]))


CDD_ZERO = (DD_ZERO, DD_ZERO)
CDD_ONE = (DD_ONE, DD_ZERO)


def cdd_poly_mul(p, q):
    """Product of coefficient lists (ascending powers) of cdd values."""
    out = [CDD_ZERO] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] = cdd_add(out[i + j], cdd_mul(pi, qj))
    return out


def cdd_horner(coeffs, z):
    """Evaluate an ascending-coefficient polynomial at a cdd point."""
    z = cdd(z)
    acc = CDD_ZERO
    for c in reversed(coeffs):
        acc = cdd_add(cdd_mul(acc, z), c)
    return acc


def cholesky_solve_hermitian(A, rhs, band: int | None = None):
    """Solve A x = rhs for Hermitian positive definite A of cdd entries.

    ``A`` is a full square list-of-lists (row major), ``rhs`` a list.
    ``band`` skips the zero blocks of banded matrices.  Returns the
    solution list and the diagonal of the Cholesky factor (hi parts)
    for conditioning diagnostics.  Raises ArithmeticError on a
    nonpositive pivot.
    """
    m = len(A)
    if band is None:
        band = m
    L = [[CDD_ZERO] * m for _ in range(m)]
    diag = [DD_ZERO] * m
    for i in range(m):
        lo = max(0, i - band)
        for k in range(lo, i):
            acc = A[i][k]
            for t in range(max(lo, k - band), k):
                acc = cdd_sub(acc, cdd_mul(L[i][t], cdd_conj(L[k][t])))
            L[i][k] = (dd_div(acc[0], diag[k]), dd_div(acc[1], diag[k]))
        acc_r = A[i][i][0]
        for t in range(lo, i):
            acc_r = dd_sub(acc_r, cdd_abs2(L[i][t]))
        if acc_r[0] <= 0.0:
            raise ArithmeticError(f"nonpositive Cholesky pivot at row {i}")
        diag[i] = dd_sqrt(acc_r)
        L[i][i] = (diag[i], DD_ZERO)

    # forward then adjoint-backward substitution
    y = [CDD_ZERO] * m
    for i in range(m):
        acc = rhs[i]
        for t in range(max(0, i - band), i):
            acc = cdd_sub(acc, cdd_mul(L[i][t], y[t]))
        y[i] = (dd_div(acc[0], diag[i]), dd_div(acc[1], diag[i]))
    x = [CDD_ZERO] * m
    for i in reversed(range(m)):
        acc = y[i]
        for t in range(i + 1, min(m, i + band + 1)):
            acc = cdd_sub(acc, cdd_mul(cdd_conj(L[t][i]), x[t]))
        x[i] = (dd_div(acc[0], diag[i]), dd_div(acc[1], diag[i]))
    return x, [d[0] for d in diag]
