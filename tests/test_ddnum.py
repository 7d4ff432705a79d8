import math
from fractions import Fraction

import numpy as np
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
    s = dd.add(dd.dd(a), dd.dd(b))
    assert to_fraction(s) == Fraction(a) + Fraction(b)


@given(finite, finite)
def test_mul_tight(a, b):
    p = dd.mul(dd.dd(a), dd.dd(b))
    exact = Fraction(a) * Fraction(b)
    if exact == 0:
        assert p[0] == 0
        return
    err = abs(to_fraction(p) - exact) / abs(exact)
    assert err < Fraction(1, 10 ** 30)


@given(finite.filter(lambda x: abs(x) > 1e-6),
       finite.filter(lambda x: abs(x) > 1e-6))
def test_div_tight(a, b):
    q = dd.div(dd.dd(a), dd.dd(b))
    exact = Fraction(a) / Fraction(b)
    assert abs(to_fraction(q) - exact) / abs(exact) < Fraction(1, 10 ** 29)


def test_sqrt():
    two = dd.dd(2.0)
    r = dd.sqrt(two)
    sq = dd.mul(r, r)
    assert abs(to_fraction(sq) - 2) < Fraction(1, 10 ** 30)


def test_pi_constant():
    # pi to ~32 digits: 3.14159265358979323846264338327950
    err = abs(to_fraction(dd.PI)
              - Fraction(314159265358979323846264338327950, 10 ** 32))
    assert err < Fraction(1, 10 ** 31)


def test_big_int_promotion():
    x = math.factorial(40)
    assert to_fraction(dd.dd(x)) == Fraction(x) or \
        abs(to_fraction(dd.dd(x)) - x) / x < Fraction(1, 10 ** 30)


def test_complex_field_ops():
    z = dd.dd(1.5 - 2.25j)
    w = dd.dd(-0.75 + 4.0j)
    prod = dd.value(dd.cmul(z, w))
    assert abs(prod - (1.5 - 2.25j) * (-0.75 + 4.0j)) < 1e-15


def test_poly_mul_and_horner():
    # (1+z)(2-z) = 2 + z - z^2
    p = dd.poly_mul([dd.dd(1 + 0j), dd.dd(1 + 0j)], [dd.dd(2 + 0j), dd.dd(-1 + 0j)])
    vals = [dd.value(c) for c in p]
    assert vals == [2 + 0j, 1 + 0j, -1 + 0j]
    coeffs = ([c[0] for c in p], [c[1] for c in p])
    at = dd.value(dd.horner(coeffs, 0.5 + 0.5j))
    z = 0.5 + 0.5j
    assert abs(at - (2 + z - z * z)) < 1e-15


def test_cholesky_solve_small():
    # hermitian positive definite 2x2 with a complex off-diagonal
    An = np.array([[2.0, 0.5 + 0.25j], [0.5 - 0.25j, 1.5]])
    rhs = np.array([1.0, -1j])
    x = dd.cholesky_solve_hermitian(dd.dd(An), dd.dd(rhs), band=1)
    want = np.linalg.solve(An, rhs)
    got = dd.value(x)
    assert np.max(np.abs(got - want)) < 1e-14


# signed zeros are drawn often: a zero's sign is the bit two paths most
# easily disagree on
part = st.one_of(st.sampled_from([0.0, -0.0]),
                 st.floats(min_value=-1e3, max_value=1e3).filter(
                     lambda x: x == 0.0 or abs(x) > 1e-140))


def _bits(values):
    return np.array(values, dtype=complex).tobytes()


def _pairs(values):
    return np.array([v[0] for v in values]), np.array([v[1] for v in values])


@given(st.lists(st.tuples(part, part, part, part), min_size=1, max_size=6))
def test_array_add_mul_match_scalar_bits(rows):
    xs = [(a, 1e-17 * b) for a, b, _, _ in rows]
    ys = [(c, 1e-17 * d) for _, _, c, d in rows]
    for op in (dd.add, dd.mul):
        got = op(_pairs(xs), _pairs(ys))
        want = [op(x, y) for x, y in zip(xs, ys)]
        assert _bits(got[0]) == _bits([w[0] for w in want])
        assert _bits(got[1]) == _bits([w[1] for w in want])


@given(st.lists(st.tuples(part, part, part, part), min_size=1, max_size=6),
       st.lists(st.tuples(part, part), min_size=1, max_size=6))
def test_array_complex_product_and_horner_match_scalar_bits(rows, zs):
    coeffs = [(complex(a, b), 1e-17 * complex(c, d)) for a, b, c, d in rows]
    points = [complex(x, y) for x, y in zs]
    n = min(len(coeffs), len(points))
    got = dd.cmul(_pairs(coeffs[:n]), dd.dd(np.array(points[:n])))
    want = [dd.cmul(c, dd.dd(z)) for c, z in zip(coeffs, points)]
    assert _bits(got[0]) == _bits([w[0] for w in want])
    assert _bits(got[1]) == _bits([w[1] for w in want])
    # several polynomials in one pass: p, p reversed and p' padded by a zero
    # leading coefficient, each against scalar horner on its own coefficients
    deriv = [dd.scale(c, dd.dd(float(k))) for k, c in enumerate(coeffs)][1:]
    polys = [coeffs, coeffs[::-1], deriv]
    stacked = [poly + [(0j, 0j)] * (len(coeffs) - len(poly)) for poly in polys]
    got = dd.horner_stack(tuple(np.array([[c[i] for c in poly] for poly in stacked])
                                for i in (0, 1)), np.array(points))
    for k, poly in enumerate(polys):
        scalar_coeffs = ([c[0] for c in poly], [c[1] for c in poly])
        want = [dd.horner(scalar_coeffs, z) for z in points]
        assert _bits(got[0][k]) == _bits([w[0] for w in want])
        assert _bits(got[1][k]) == _bits([w[1] for w in want])
