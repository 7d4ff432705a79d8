import cmath
import math

import numpy as np
import pytest
from scipy.special import gamma

from mszego import specfun
from mszego.core import MAX_EXPONENT
from mszego.specfun import (ContourThroughZero, E_c, FcEvaluator,
                            OnNegativeAxis, f_c, zeros_E_c)

from support import alpha, f_contour

# frozen independent values: contour-integral quadrature cross-checked
# against a 40-digit arbitrary-precision incomplete-gamma evaluation
FROZEN_F = {
    (10.0 + 0j, 0.5): 0.05394141079847177 + 0j,
    (5 + 4j, 0.5): 0.06693641504597948 - 0.04951340626628176j,
    (-8 + 0.5j, 1.3): -0.1329823572429439 - 0.007877043724872053j,
    (20j, -0.4): -0.0009219539940190672 + 0.01332118747372534j,
    (6.0 + 0j, 2.5): 0.1591532408747593 + 0j,
    (9.5 + 0j, 0.5): 0.05665949210271228 + 0j,
    (14 + 3j, 1.5): 0.0794989960981477 - 0.0175900062803182j,
}
# one-sided boundary values on the negative axis at -3 (upper side)
FROZEN_F_UPPER = {
    0.5: -0.2371983414394262 - 0.02874457821103059j,
    1.3: -0.32087023072697723 + 0.009656428472967651j,
    -0.4: 0.1401859288659647 + 0.07348037831498494j,
}
# measured remainder of the 10-term inverse-power sum at zeta=10, c=0.5;
# the true asymptotic-series tail, not an evaluator artifact
S10_REMAINDER = 1.8026237693508085e-06


def test_integer_closed_forms():
    assert abs(f_c(2.0, 1.0) - 0.5) < 1e-12
    assert abs(f_c(1.0, 2.0) - 2.0) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(30):
        z = complex(rng.uniform(-20, 20), rng.uniform(0.5, 20))
        assert abs(f_c(z, 1.0) - 1.0 / z) < 1e-12 * abs(1 / z)
        ref2 = (1.0 + z) / z ** 2
        assert abs(f_c(z, 2.0) - ref2) < 1e-12 * abs(ref2)


def test_alpha_values():
    assert abs(alpha(1, 0.5) - 1 / math.sqrt(math.pi)) < 1e-15
    assert abs(alpha(2, 0.5) + 1 / (2 * math.sqrt(math.pi))) < 1e-15
    assert alpha(4, 3.0) == 0.0
    assert alpha(5, 2.0) == 0.0
    for c in (-0.5, 0.5, 1.5, 2.5):
        assert abs(alpha(1, c) - 1.0 / gamma(c)) < 1e-12 * abs(1 / gamma(c))


def test_alpha_matches_reflection_form():
    for i, c in ((2, 0.7), (3, 0.5), (5, 1.3), (2, -0.4), (7, 2.2)):
        ref = math.sin(c * math.pi) * gamma(i - c) / (math.pi * (-1) ** (i - 1))
        assert abs(alpha(i, c) - ref) < 1e-12 * abs(ref)


def test_frozen_values():
    for (zeta, c), want in FROZEN_F.items():
        got = f_c(zeta, c)
        tol = 2e-4 if abs(abs(zeta) - (8 + 2 * abs(c))) < 2.0 else 1e-7
        assert abs(got - want) <= tol * abs(want), (zeta, c, got, want)


def test_against_live_contour_oracle():
    rng = np.random.default_rng(1)
    for c in (0.5, 1.3, -0.4, 2.5):
        for _ in range(4):
            zeta = complex(rng.uniform(-6, 6), rng.uniform(1.0, 6))
            want = f_contour(zeta, c)
            assert abs(f_c(zeta, c) - want) < 1e-9 * abs(want)


def test_negative_axis_raises():
    with pytest.raises(OnNegativeAxis):
        f_c(-3.0, 0.5)
    with pytest.raises(OnNegativeAxis):
        f_c(0.0, 0.5)


def test_one_sided_values():
    x = -3.0
    eps = 1e-8 * (1.0 + abs(x))
    up, dn = f_c(complex(x, eps), 0.5), f_c(complex(x, -eps), 0.5)
    want = FROZEN_F_UPPER[0.5]
    assert abs(up - want) < 1e-7
    assert abs(dn - want.conjugate()) < 1e-7


def test_general_routes_collapse_for_integer_exponents():
    # rings from 0.5 to 35 off the axis cross every route of the evaluator;
    # at integer c each must give the truncated Taylor polynomial
    for c in (1, 2, 3):
        ev = FcEvaluator(float(c))
        for r in (0.5, 2.0, 5.0, 8.0, 15.0, 25.0, 35.0):
            for k in range(48):
                z = r * cmath.exp(1j * math.pi * (k + 0.5) / 24)
                closed = sum(z ** i / math.factorial(i) for i in range(c)) / z ** c
                entire = cmath.exp(z) * z ** -c - closed
                assert abs(ev.f(z) - closed) < 1e-12 * abs(closed), (c, z)
                assert abs(ev.entire(z) - entire) < 1e-12 * abs(entire), (c, z)


def test_asymptotic_series_consistency_at_20():
    # against the 8-term partial sum, within the next-coefficient bound
    for c in (-0.5, 0.5, 1.5):
        bound = 2 * abs(alpha(9, c)) / 20.0 ** 9 * 10
        for k in range(16):
            th = 2 * math.pi * k / 16
            if abs(th - math.pi) < 0.25:
                continue
            z = 20 * cmath.exp(1j * th)
            s8 = sum(alpha(i, c) / z ** i for i in range(1, 9))
            assert abs(f_c(z, c) - s8) <= bound


def test_ten_term_series_remainder_at_10():
    # the evaluator must sit closer to the truth than the series tail
    z, c = 10.0, 0.5
    s10 = sum(alpha(i, c) / z ** i for i in range(1, 11))
    truth = FROZEN_F[(10.0 + 0j, 0.5)].real
    assert abs(truth - s10) == pytest.approx(S10_REMAINDER, rel=1e-6)
    # the evaluator sits within ~1x the tail of the truth at the
    # crossover, hence within ~2x of the partial sum
    assert abs(f_c(z, c) - truth) < 1.2 * S10_REMAINDER
    assert abs(f_c(z, c) - s10) < 2.5 * S10_REMAINDER


def test_entire_series_values():
    assert abs(E_c(2j * math.pi, 1.0)) < 1e-12
    assert abs(E_c(0.0, 0.5) - 1 / gamma(1.5)) < 1e-14
    # large positive axis: the exponential part dominates
    z = 30.0
    assert abs(E_c(z, 0.5) - math.exp(z) * z ** -0.5) < 1e-6 * math.exp(z)


def test_entirety_one_sided_limits():
    # built from the frozen one-sided f values: the jump of exp(z)/z^c
    # cancels the jump of f, and the package value agrees with both
    z = -3.0
    for c, f_up in FROZEN_F_UPPER.items():
        up = cmath.exp(complex(z, 1e-8)) * complex(z, 1e-8) ** (-c) - f_up
        dn = cmath.exp(complex(z, -1e-8)) * complex(z, -1e-8) ** (-c) \
            - f_up.conjugate()
        assert abs(up - dn) < 1e-6 * abs(up)
        assert abs(E_c(z, c) - up) < 1e-6 * abs(up)


def test_entirety_along_negative_axis():
    # one-sided definition-route limits across (-10, 0), 50 points
    for c in (0.5, 1.3):
        ev = FcEvaluator(c)
        for x in np.linspace(-9.9, -0.2, 50):
            zp, zm = complex(x, 1e-8), complex(x, -1e-8)
            up = cmath.exp(zp) * zp ** (-c) - ev.f(zp)
            dn = cmath.exp(zm) * zm ** (-c) - ev.f(zm)
            assert abs(up - dn) < 1e-6 * abs(up)
            assert abs(ev.entire(complex(x, 0.0)) - up) < 1e-6 * abs(up)


def _mp_reference(z, c):
    """E_c from Kummer's 1F1(1; c+1; z) and f_c from Gamma(c, z), in mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        z, c = mp.mpc(z), mp.mpf(c)
        E = mp.hyp1f1(1, c + 1, z) / mp.gamma(c + 1)
        f = mp.exp(z) * z ** (-c) * mp.gammainc(c, z) / mp.gamma(c)
        return complex(E), complex(f)


@pytest.mark.parametrize("c", [-0.5, 0.5, 1.0, 2.5, 20.5])
def test_against_mpmath_on_rings(c):
    # at c = 20.5 the continued fraction is 6e-7 off at |z| = 5: f_c must
    # not take it that near the origin
    ev = FcEvaluator(c)
    for r in (5.0, 15.0, 25.0, 35.0):
        for k in range(48):
            z = r * cmath.exp(1j * math.pi * (k + 0.5) / 24)
            E, f = _mp_reference(z, c)
            assert abs(ev.entire(z) - E) <= 1e-12 * abs(E), (c, z)
            assert abs(ev.f(z) - f) <= 1e-12 * abs(f), (c, z)


@pytest.mark.parametrize("c", [-0.5, 0.5, 1.0, 2.5])
def test_far_entire_and_derivative_against_mpmath(c):
    # far out near the negative axis a Kummer series would overflow to NaN
    ev = FcEvaluator(c)
    for z in (complex(-100.0, 0.5), 800.0 * cmath.exp(2.8j)):
        E, _ = _mp_reference(z, c)
        assert abs(ev.entire(z) - E) <= 1e-13 * abs(E), (c, z)
    mp = pytest.importorskip("mpmath")
    for z in (0.0, 2j * math.pi, 20 + 5j):
        with mp.workdps(40):
            want = complex(mp.hyp1f1(2, c + 2, z) / mp.gamma(c + 2))
        assert abs(ev.entire_deriv(z) - want) <= 1e-13 * abs(want), (c, z)


@pytest.mark.parametrize("c", [40.5, 80.5, MAX_EXPONENT])
def test_past_the_series_disk_near_the_negative_axis(c):
    # an inverse-power sum cut at 30 terms was 3e-9 off at these points for
    # c = 40.5 and 2e-6 for c = 80.5; at c = MAX_EXPONENT the rim |z| = 5 + c
    # of the series disk is the worst point of the plane (3.6e-13)
    ev = FcEvaluator(c)
    for r in np.linspace(5.0 + c, 2.0 * c, 6):
        for theta in (2.6, 2.8, 3.0, 3.1, math.pi - 1e-9):
            z = r * cmath.exp(1j * theta)
            E, f = _mp_reference(z, c)
            assert abs(ev.entire(z) - E) <= 5e-13 * abs(E), (c, z)
            assert abs(ev.f(z) - f) <= 5e-13 * abs(f), (c, z)


@pytest.mark.parametrize("c", [-0.99, -0.5])
def test_slowest_points_of_the_fraction(c):
    # for c < 0 the fraction runs to CF_MAX_TERMS without meeting its stop
    # test near the negative axis at |z| = 40 .. 44
    ev = FcEvaluator(c)
    for r in (40.0, 41.0, 44.0):
        for theta in (3.05, math.pi - 1e-9):
            z = r * cmath.exp(1j * theta)
            E, f = _mp_reference(z, c)
            assert abs(ev.entire(z) - E) <= 5e-13 * abs(E), (c, z)
            assert abs(ev.f(z) - f) <= 5e-13 * abs(f), (c, z)


@pytest.mark.parametrize("c", [-0.99, -0.9, -0.7, -0.5, -0.3])
def test_kummer_wedge_inside_the_series_disk(c):
    # toward the negative axis the series sum z^k / Gamma(c + k + 1) cancels
    # terms of size ~exp(|z|) down to E_c ~ 1/(Gamma(c) |z|): for c < 0 it was
    # 3.8e-12 off at c = -0.99 and 7.9e-13 at c = -0.3 on 2 < |arg z| <= CF_ANGLE,
    # where Kummer's series is within 2e-14
    ev = FcEvaluator(c)
    for r in np.linspace(0.5, 5.0 + abs(c), 8):
        for theta in np.linspace(0.0, math.pi - 1e-9, 17):
            z = r * cmath.exp(1j * theta)
            E, f = _mp_reference(z, c)
            assert abs(ev.entire(z) - E) <= 5e-13 * abs(E), (c, z)
            assert abs(ev.f(z) - f) <= 5e-13 * abs(f), (c, z)


@pytest.mark.parametrize("c", [-0.99, -0.5, 0.5, 1.0, 1.3, 2.5, 40.5, MAX_EXPONENT])
def test_reciprocal_gamma_table_against_mpmath(c):
    mp = pytest.importorskip("mpmath")
    ev = FcEvaluator(c)
    # a Python float in place of the numpy scalar moves the bits of f_c
    assert type(ev._rgamma_c) is np.float64
    x = c + 1.0 + np.arange(specfun.SERIES_MAX_TERMS)
    with mp.workdps(40):
        for xk, got in zip(x.tolist(), ev._rgammas):
            if xk > specfun.GAMMA_MAX_ARG:
                assert got == 0.0, xk
                continue
            want = float(mp.rgamma(xk))
            # past x ~ 170.6 the value is subnormal: one ulp of slack there
            assert abs(got - want) <= 1e-15 * abs(want) + 5e-324, xk


def _numpy_table_series(table, zeta):
    """The series loop of FcEvaluator._series over a numpy table: every
    product is by a numpy scalar."""
    acc = 0j
    az = abs(zeta)
    pw = 1.0 + 0j
    for k in range(specfun.SERIES_MAX_TERMS):
        r = table[k]
        acc += pw * r
        pw *= zeta
        if abs(pw) * abs(r) < 1e-18 * (abs(acc) + 1e-300) and k > az:
            break
    return acc


@pytest.mark.parametrize("c", [-0.99, -0.4, 0.5, 1.0, 2.5, 40.5, MAX_EXPONENT])
def test_series_on_float_tables_keeps_the_numpy_bits(c):
    ev = FcEvaluator(c)
    k = np.arange(specfun.SERIES_MAX_TERMS)
    rgammas = specfun.rgamma(c + 1.0 + k)
    kummer = rgammas * np.cumprod(np.r_[1.0, (c + k[:-1]) / k[1:]])
    assert ev._rgammas == rgammas.tolist() and ev._kummer == kummer.tolist()
    rng = np.random.default_rng(5)
    for r in (0.3, 2.0, 5.0, 5.0 + abs(c)):
        for theta in rng.uniform(-math.pi, math.pi, 12):
            z = r * cmath.exp(1j * theta)
            for floats, arrays in ((ev._rgammas, rgammas), (ev._kummer, kummer)):
                got, want = ev._series(floats, z), _numpy_table_series(arrays, z)
                assert repr(complex(got)) == repr(complex(want)), (c, z)


def test_reciprocal_gamma_edges():
    assert np.all(specfun.rgamma([0.0, -0.0, -1.0, -2.0, -50.0]) == 0.0)
    assert np.all(specfun.rgamma([171.625, 172.0, 200.0, 485.0]) == 0.0)
    assert specfun.rgamma(specfun.GAMMA_MAX_ARG) > 0.0
    assert specfun.rgamma(np.nextafter(specfun.GAMMA_MAX_ARG, math.inf)) == 0.0
    assert specfun.rgamma(1.0) == 1.0 and specfun.rgamma(-0.5) < 0.0


def _count_windings(monkeypatch):
    calls = []
    winding = specfun._boundary_winding

    def counted(*args):
        calls.append(args)
        return winding(*args)

    monkeypatch.setattr(specfun, "_boundary_winding", counted)
    return calls


# -- zeros -------------------------------------------------------------------


def test_zeros_unit_exponent_box():
    zs = zeros_E_c(1.0, (-0.5, 1.0, 5.0, 8.0))
    assert len(zs) == 1
    assert abs(zs[0] - 2j * math.pi) < 1e-9


def test_zeros_split_when_newton_leaves_the_box(monkeypatch):
    # Newton from this box's centre leaves the box, so the one zero is
    # found only after the box is split
    calls = _count_windings(monkeypatch)
    zs = zeros_E_c(1.0, (-0.2, 5.0, 6.0, 12.0))
    assert len(zs) == 1
    assert abs(zs[0] - 2j * math.pi) < 1e-12
    assert len(calls) > 1


def test_zeros_polish_once_a_box_holds_one_zero(monkeypatch):
    # the benchmark box: polishing as soon as a box holds one zero keeps
    # the contour count well under the 100 of halving to the 0.05 floor
    calls = _count_windings(monkeypatch)
    zs = zeros_E_c(1.0, (-2.0, 6.0, 0.5, 25.0))
    assert len(zs) == 3
    assert len(calls) <= 30


def test_zeros_unit_exponent_ladder():
    zs = zeros_E_c(1.0, (-3.0, 3.0, -20.0, 20.0))
    want = sorted((2j * math.pi * k for k in (-3, -2, -1, 1, 2, 3)),
                  key=lambda v: v.imag)
    assert len(zs) == 6
    for z, w in zip(sorted(zs, key=lambda v: v.imag), want):
        assert abs(z - w) < 1e-7


def test_zeros_match_winding_count():
    zs = zeros_E_c(2.0, (-10.5, 10.5, -10.5, 10.5))
    assert len(zs) == 2  # the function validates the count internally
    frozen = 2.088843015613044 + 7.461489285654254j
    got = sorted(zs, key=lambda v: v.imag)[1]
    assert abs(got - frozen) < 1e-9


def test_zeros_negative_exponent_pattern():
    # conjugate-symmetric string with spacing ~ 2 pi; the real parts
    # drift leftward as the exponential must balance a growing algebraic
    # factor, so the locus bends around the zero-free right half plane
    zs = zeros_E_c(-0.5, (-6.0, 20.0, -21.0, 21.0))
    assert all(any(abs(z.conjugate() - w) < 1e-5 for w in zs) for z in zs)
    upper = sorted((z for z in zs if z.imag > 0.1), key=lambda v: v.imag)
    assert len(upper) >= 2
    gaps = np.diff([z.imag for z in upper])
    assert np.all((gaps > 4.5) & (gaps < 8.5))
    assert all(x.real > y.real for x, y in zip(upper, upper[1:]))


def test_zeros_nonpositive_integer_exponent():
    # E_{-m}(z) = z^m e^z: one zero at 0 of multiplicity m, which no box
    # split isolates
    assert zeros_E_c(-3.0, (-10.0, 10.0, -10.0, 10.0)) == [0j, 0j, 0j]
    assert zeros_E_c(-2.0, (0.0, 1.0, -1.0, 0.5)) == [0j, 0j]
    assert zeros_E_c(-3.0, (1.0, 2.0, -1.0, 1.0)) == []
    assert zeros_E_c(0.0, (-10.0, 10.0, -10.0, 10.0)) == []
    assert E_c(0j, -3.0) == 0
    assert abs(E_c(1.5 + 2j, -3.0) - (1.5 + 2j) ** 3 * cmath.exp(1.5 + 2j)) < 1e-12


def test_contour_through_zero_raises():
    # the unit-exponent zeros sit exactly on the imaginary axis
    with pytest.raises(ContourThroughZero):
        zeros_E_c(1.0, (0.0, 1.0, 5.0, 8.0))


def _mp_winding(c, box, h=0.1):
    """Winding number of E_c on the boundary of ``box``, sampled every ~h in mpmath."""
    mp = pytest.importorskip("mpmath")
    x0, x1, y0, y1 = box
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    pts = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        m = math.ceil(abs(b - a) / h)
        pts += [a + (b - a) * j / m for j in range(m)]
    with mp.workdps(30):
        vals = [complex(mp.hyp1f1(1, c + 1, p)) for p in pts]
    steps = [cmath.phase(w / v) for v, w in zip(vals, vals[1:] + vals[:1])]
    assert max(map(abs, steps)) < 0.5  # the sampling resolves the phase
    return round(sum(steps) / (2 * math.pi))


def test_no_zeros_where_E_c_is_tiny():
    # |E_20| ~ 1/Gamma(21) ~ 4e-19 on the first box; neither box is refused
    # for the size of E_c
    for box in ((-1.0, 1.0, 5.0, 8.0), (-30.0, 10.0, 0.5, 40.0)):
        assert zeros_E_c(20.0, box) == []
        assert _mp_winding(20.0, box) == 0


def test_unit_exponent_zeros_are_exact():
    # the zeros of E_1 = (exp(z) - 1)/z are 2 pi i k
    zs = sorted(zeros_E_c(1.0, (-1.0, 1.0, 5.0, 34.0)), key=lambda v: v.imag)
    assert len(zs) == 5
    for k, z in enumerate(zs, start=1):
        assert abs(z - 2j * math.pi * k) <= 1e-13


@pytest.mark.parametrize("c", [-0.5, 0.5, 1.3])
def test_zeros_against_mpmath_newton_step(c):
    mp = pytest.importorskip("mpmath")
    zs = zeros_E_c(c, (-6.0, 20.0, -21.0, 21.0))
    assert zs
    with mp.workdps(40):
        for z in zs:
            step = mp.hyp1f1(1, c + 1, z) * (c + 1) / mp.hyp1f1(2, c + 2, z)
            assert abs(step) <= 1e-12, (c, z)
