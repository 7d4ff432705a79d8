import math
from fractions import Fraction

from hypothesis import given, strategies as st

from mszego import ddnum as dd

# products of subnormals underflow the Dekker split; the oracle never
# leaves the normal range, so neither does the property domain
finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False).filter(
    lambda x: x == 0.0 or abs(x) > 1e-140)


def to_fraction(x):
    return Fraction(x[0]) + Fraction(x[1])


@given(finite, finite)
def test_add_exact(a, b):
    s = dd.dd_add(dd.dd(a), dd.dd(b))
    assert to_fraction(s) == Fraction(a) + Fraction(b)


@given(finite, finite)
def test_mul_tight(a, b):
    p = dd.dd_mul(dd.dd(a), dd.dd(b))
    exact = Fraction(a) * Fraction(b)
    if exact == 0:
        assert p[0] == 0
        return
    err = abs(to_fraction(p) - exact) / abs(exact)
    assert err < Fraction(1, 10 ** 30)


@given(finite.filter(lambda x: abs(x) > 1e-6),
       finite.filter(lambda x: abs(x) > 1e-6))
def test_div_tight(a, b):
    q = dd.dd_div(dd.dd(a), dd.dd(b))
    exact = Fraction(a) / Fraction(b)
    assert abs(to_fraction(q) - exact) / abs(exact) < Fraction(1, 10 ** 29)


def test_sqrt():
    two = dd.dd(2.0)
    r = dd.dd_sqrt(two)
    sq = dd.dd_mul(r, r)
    assert abs(to_fraction(sq) - 2) < Fraction(1, 10 ** 30)


def test_pi_constant():
    # pi to ~32 digits: 3.14159265358979323846264338327950
    err = abs(to_fraction(dd.DD_PI)
              - Fraction(314159265358979323846264338327950, 10 ** 32))
    assert err < Fraction(1, 10 ** 31)


def test_big_int_promotion():
    x = math.factorial(40)
    assert to_fraction(dd.dd(x)) == Fraction(x) or \
        abs(to_fraction(dd.dd(x)) - x) / x < Fraction(1, 10 ** 30)


def test_complex_field_ops():
    z = dd.cdd(1.5 - 2.25j)
    w = dd.cdd(-0.75 + 4.0j)
    prod = dd.cdd_complex(dd.cdd_mul(z, w))
    assert abs(prod - (1.5 - 2.25j) * (-0.75 + 4.0j)) < 1e-15


def test_poly_mul_and_horner():
    # (1+z)(2-z) = 2 + z - z^2
    p = dd.cdd_poly_mul([dd.cdd(1), dd.cdd(1)], [dd.cdd(2), dd.cdd(-1)])
    vals = [dd.cdd_complex(c) for c in p]
    assert vals == [2 + 0j, 1 + 0j, -1 + 0j]
    at = dd.cdd_complex(dd.cdd_horner(p, 0.5 + 0.5j))
    z = 0.5 + 0.5j
    assert abs(at - (2 + z - z * z)) < 1e-15


def test_cholesky_solve_small():
    # hermitian positive definite 2x2 with a complex off-diagonal
    A = [[dd.cdd(2.0), dd.cdd(0.5 + 0.25j)],
         [dd.cdd(0.5 - 0.25j), dd.cdd(1.5)]]
    rhs = [dd.cdd(1.0), dd.cdd(-1j)]
    x, diag = dd.cholesky_solve_hermitian(A, rhs)
    import numpy as np
    An = np.array([[2.0, 0.5 + 0.25j], [0.5 - 0.25j, 1.5]])
    want = np.linalg.solve(An, np.array([1.0, -1j]))
    got = np.array([dd.cdd_complex(v) for v in x])
    assert np.max(np.abs(got - want)) < 1e-14
    assert all(d > 0 for d in diag)
