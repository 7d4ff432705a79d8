import cmath
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import gamma

from mszego.asym import build_model, chain_constant
from mszego.branches import ONCUT_TOL, BranchContext, OnCut
from mszego.core import Configuration, validate_config
from mszego.oracle import exact_moments, monic_op, poly_eval, quad_moments
from mszego.szego import NonGeneric, solve_structure, trace_curve

from conftest import A1, NON_GENERIC_A
from support import product_term, ray_distance, term_rays


def eq2_bounded_region(z, a, c, N):
    """Independent transcription of the single-point bounded-region form."""
    return (-a * (1 - abs(a) ** 2) ** (c - 1) * N ** (c - 1) / gamma(c)
            * cmath.exp(N * (a.conjugate() * z + cmath.log(a) - abs(a) ** 2))
            / (z - a))


@pytest.fixture(scope="module")
def model_single(cfg_single):
    return build_model(cfg_single)


@pytest.fixture(scope="module")
def model_level2(cfg_level2):
    return build_model(cfg_level2)


# -- chain constants -----------------------------------------------------------


def test_chain_constant_single_unit_exponent(model_single):
    assert abs(model_single.chain_const[0] - A1) < 1e-14


def test_chain_constant_scales_with_N(cfg_level2_frac):
    st = solve_structure(cfg_level2_frac)
    base = build_model(cfg_level2_frac, st)
    doubled_cfg = validate_config(Configuration(
        a=cfg_level2_frac.a, c=cfg_level2_frac.c, n=cfg_level2_frac.n,
        N=2 * cfg_level2_frac.N))
    doubled = build_model(doubled_cfg)
    for j in (1, 2):
        mu = sum(cfg_level2_frac.c[k - 1] - 1 for k in st.chains[j - 1])
        ratio = doubled.chain_const[j - 1] / base.chain_const[j - 1]
        assert abs(ratio - 2.0 ** mu) < 1e-12 * 2.0 ** mu


def test_chain_constant_integer_exponents_trivial_phases(cfg_level3):
    st = solve_structure(cfg_level3)
    branch = BranchContext(cfg_level3)
    for j in (1, 2, 3):
        assert abs(branch.eta_tilde(st.arrow(j), j) - 1.0) < 1e-10 \
            if st.arrow(j) != 0 else True
    v = chain_constant(cfg_level3, st, branch, 3)
    assert np.isfinite(v.real) and np.isfinite(v.imag) and v != 0


def test_non_generic_rejected():
    cfg = validate_config(Configuration(a=NON_GENERIC_A, c=(1.0, 1.0), n=8, N=None))
    with pytest.raises(NonGeneric):
        build_model(cfg)


# -- zooming coordinate ----------------------------------------------------------


def test_zeta_vanishes_at_points(model_single, model_level2):
    assert abs(model_single.zeta_map(A1, 1)) < 1e-12
    for j in (1, 2):
        aj = model_level2.config.a[j - 1]
        assert abs(model_level2.zeta_map(aj, j)) < 1e-12


def test_zeta_derivative_outer_case(model_single):
    N = model_single.N
    h = 1e-7
    d = (model_single.zeta_map(A1 + h, 1) - model_single.zeta_map(A1 - h, 1)) / (2 * h)
    want = N * (1 - A1 ** 2) / A1
    assert abs(d - want) < 1e-5 * abs(want)


def test_zeta_maps_interface_to_imaginary_axis(model_level2):
    st = model_level2.structure
    curve = trace_curve(st, grid=200, tol=1e-8)
    inner = [a for a in curve.arcs if a.j >= 1 and a.k >= 1]
    assert inner
    pts = inner[0].points
    N = model_level2.N
    for p in pts[:: max(1, len(pts) // 5)][:5]:
        zeta = model_level2.zeta_map(complex(p), 2)
        assert abs(zeta.real) < N * 1e-6


def test_zeta_inverse_round_trip(model_single, model_level2):
    for model, j in ((model_single, 1), (model_level2, 2)):
        for zeta in (3 + 4j, -10 + 2j, 15j, -6 - 9j):
            z = model.zeta_inverse(zeta, j)
            assert abs(model.zeta_map(z, j) - zeta) < 1e-9 * (1 + abs(zeta))


# -- regional evaluators -----------------------------------------------------------


def test_outer_region_single_unit_exponent(model_single, cfg_single):
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = 1.5 * cmath.exp(1j * rng.uniform(0.05, 2 * math.pi - 0.05))
        want = z ** (cfg_single.n + 1) / (z - A1)
        assert abs(model_single.eval_region(z, 0) - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("c1", [1.0, 2.0])
def test_bounded_region_matches_closed_form(c1):
    cfg = validate_config(Configuration(a=(A1,), c=(c1,), n=16, N=None))
    model = build_model(cfg)
    rng = np.random.default_rng(int(c1))
    for _ in range(20):
        z = A1 / 2 + 0.15 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        want = eq2_bounded_region(z, complex(A1), c1, cfg.N)
        got = model.eval_region(z, 1)
        assert abs(got - want) < 1e-12 * abs(want)


def test_region_value_continuous_along_loop(model_single):
    # smooth values along a small loop deep inside the outer region
    loop = 1.4 * np.exp(1j * (0.8 + 0.15 * np.exp(2j * math.pi
                                                  * np.linspace(0, 1, 120))))
    vals = np.array([model_single.eval_region(complex(z), 0) for z in loop])
    steps = np.abs(np.diff(vals) / vals[:-1])
    assert steps.max() < 0.2
    assert abs(vals[-1] - vals[0]) < 1e-9 * abs(vals[0])


def test_branch_rotation_leaves_moduli(cfg_level2_frac):
    st = solve_structure(cfg_level2_frac)
    base = build_model(cfg_level2_frac, st, BranchContext(cfg_level2_frac))
    rot = build_model(cfg_level2_frac, st,
                      BranchContext(cfg_level2_frac, branch_shift=(1, -1)))
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 12:
        z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        lab = base.classify(z)
        try:
            b = base.eval_region(z, lab)
            r = rot.eval_region(z, lab)
        except OnCut:
            continue
        assert abs(abs(b) - abs(r)) < 1e-10 * abs(b)
        checked += 1


# -- the terms as logarithms ---------------------------------------------------

EPS = sys.float_info.epsilon
# arg(a_2 - a_1) lies more than pi from arg a_2: the 1-anchored window of
# point 2 is lifted by a whole turn
LIFTED = Configuration(a=(0.41 - 0.27j, -0.48 - 0.08j), c=(0.5, 1.5), n=32, N=None)


@pytest.mark.parametrize("name, shift", [
    ("cfg_single", ()), ("cfg_pair", ()), ("cfg_level2", ()), ("cfg_level2_frac", ()),
    ("cfg_level3", ()), ("cfg_branchy", ()), ("lifted", ()), ("cfg_level2_frac", (1, -1))])
def test_log_terms_match_product_form(request, name, shift):
    # every label at seeded points, against the product of the single powers,
    # the plane wave, the chain constant and z^n, to 4 n eps where the value
    # is a normal double; both forms refuse the same points as on a cut
    base = validate_config(LIFTED) if name == "lifted" else request.getfixturevalue(name)
    rng = np.random.default_rng(11)
    compared = 0
    for n in (16, 64, 96, 700):
        cfg = base.replace_degree(n)
        model = build_model(cfg, branch=BranchContext(cfg, branch_shift=shift))
        for _ in range(30):
            z = 1.2 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            for label in range(cfg.nu + 1):
                try:
                    want = product_term(model, z, label)
                except OnCut:
                    with pytest.raises(OnCut):
                        model.eval_region(z, label)
                    continue
                got = model.eval_region(z, label)
                if abs(want) >= sys.float_info.min:
                    assert abs(got - want) <= 4 * n * EPS * abs(want), (n, z, label)
                    compared += 1
    assert compared >= 0.85 * 4 * 30 * (base.nu + 1)    # few values are subnormal


def _near_ray_points(cfg):
    """Points 0.5e-12 and 2e-12 to either side of every radial and re-anchored
    ray, at three places along each."""
    rays = [ray for label in range(cfg.nu + 1) for ray in term_rays(cfg, label)]
    for origin, direction in rays:
        u = direction / abs(direction)
        for t, off in itertools.product((0.2, 0.6, 1.3), (0.5e-12, -0.5e-12, 2e-12, -2e-12)):
            yield origin + t * u + off * 1j * u


@pytest.mark.parametrize("name", ["cfg_level2_frac", "cfg_branchy", "cfg_level3"])
def test_on_cut_rule_is_the_ray_distance(request, name):
    # the window residue decides OnCut exactly where the distance to the ray
    # does, for the terms, their sum and the single powers
    cfg = request.getfixturevalue(name)
    model = build_model(cfg)
    br = model.branch
    labels = range(cfg.nu + 1)
    points = range(1, cfg.nu + 1)

    def near(z, rays):
        return min(ray_distance(z, o, d) for o, d in rays) <= ONCUT_TOL

    outcomes = []
    for z in _near_ray_points(cfg):
        cases = [(lambda lab=lab: model.eval_region(z, lab), term_rays(cfg, lab))
                 for lab in labels]
        cases.append((lambda: model.eval_uniform(z),
                      [ray for lab in labels for ray in term_rays(cfg, lab)]))
        for j in points:
            aj = cfg.a[j - 1]
            cases.append((lambda j=j: br.pow_z(z, j), [(0j, aj)]))
            for k in points:
                rays = [(aj, aj)] if j == k else [(aj, aj - cfg.a[k - 1])]
                cases.append((lambda j=j, k=k: br.pow_a_Bk(z, j, k), rays))
        for call, rays in cases:
            try:
                call()
                raised = False
            except OnCut:
                raised = True
            assert raised == near(z, rays), (z, rays)
            outcomes.append(raised)
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("name", ["cfg_level2_frac", "cfg_pair"])
def test_the_pole_of_each_bounded_term_raises_one_error(request, name):
    # at a_j the term of region j has its simple pole: log 0 refuses it, with
    # no warning and no inf, whether C_j is a numpy or a Python complex; the
    # other terms read a cut through a_j, and z = 0 lies on every radial cut
    model = build_model(request.getfixturevalue(name))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j, aj in enumerate(model.config.a, start=1):
            with pytest.raises(ValueError):
                model.eval_region(aj, j)
            for label in range(model.config.nu + 1):
                if label != j:
                    with pytest.raises(OnCut):
                        model.eval_region(aj, label)
        with pytest.raises(OnCut):
            model.eval_region(0j, 0)
        with pytest.raises(OnCut):
            model.eval_uniform(0j)


# -- uniform evaluator ----------------------------------------------------------


def test_uniform_equals_region_deep_outside(model_single):
    # far side of the ring: the bounded-region term is below exp(-30)
    # of the dominant one there, so the threshold drops it entirely
    for th in (2.5, 3.14, 3.9):
        z = 1.5 * cmath.exp(1j * th)
        u = model_single.eval_uniform(z, tau=30.0)
        r = model_single.eval_region(z, 0)
        assert abs(u - r) < 1e-12 * abs(r)


def test_uniform_keeps_two_terms_on_interface(cfg_single, model_single):
    st = model_single.structure
    curve = trace_curve(st, grid=200, tol=1e-8)
    p = complex(curve.arcs[0].points[17])
    t0 = model_single.eval_region(p, 0)
    t1 = model_single.eval_region(p, 1)
    assert abs(math.log(abs(t0 / t1))) < 40.0  # comparable moduli
    assert abs(model_single.eval_uniform(p) - (t0 + t1)) < 1e-12 * abs(t0)


def test_uniform_zero_spacing_halves():
    # count sign changes of the two-term interference along the interface
    def crossings(n):
        cfg = validate_config(Configuration(a=(A1,), c=(1.0,), n=n, N=None))
        model = build_model(cfg)
        curve = trace_curve(model.structure, grid=300, tol=1e-10)
        pts = curve.arcs[0].points
        upper = pts[pts.imag > 0.05]
        args = []
        for z in upper:
            args.append(cmath.phase(model.eval_region(complex(z), 1)
                                    / model.eval_region(complex(z), 0)))
        arr = np.unwrap(np.array(args))
        return abs(arr[-1] - arr[0]) / (2 * math.pi)
    c16, c32 = crossings(16), crossings(32)
    assert 1.6 < c32 / c16 < 2.4


# -- local evaluator ---------------------------------------------------------------


def test_local_reduces_to_explicit_single_point_form(model_single, cfg_single):
    from mszego.specfun import E_c
    for zeta0 in (4 + 3j, -5 + 2j, 9j):
        z = model_single.zeta_inverse(zeta0, 1)
        zeta = model_single.zeta_map(z, 1)
        want = (z ** (cfg_single.n + 1) / (z - A1) * zeta ** 1.0
                * cmath.exp(-zeta) * E_c(zeta, 1.0))
        got = model_single.eval_local(z, 1)
        assert abs(got - want) < 1e-10 * abs(want)


def test_local_value_at_the_point_is_finite(model_single, model_level2):
    assert model_single.eval_local(complex(A1), 1) == 0.0  # c = 1 > 0
    v = model_level2.eval_local(model_level2.config.a[1], 2)
    assert v == 0.0


def test_local_matches_region_toward_neighbor(model_single):
    # far side of the local disk toward the outer region
    for zeta0 in (20.0 + 8j, 20.0 - 8j, 25.0 + 3j):
        z = model_single.zeta_inverse(zeta0, 1)
        lo = model_single.eval_local(z, 1)
        re = model_single.eval_region(z, 0)
        assert abs(lo / re - 1) < 2e-2


def test_local_matching_annulus(cfg_single):
    cfg = cfg_single.replace_degree(32)
    model = build_model(cfg)
    worst = 0.0
    for rad in (10.0, 15.0, 20.0, 25.0, 30.0):
        for deg in (-60, -45, -30, -15, 15, 30, 45, 60):
            zeta = rad * cmath.exp(1j * math.radians(deg))
            z = model.zeta_inverse(zeta, 1)
            ratio = model.eval_local(z, 1) / model.eval_uniform(z)
            worst = max(worst, abs(ratio - 1))
    assert worst <= 0.15


def test_local_matching_inward_shrinks_with_n(cfg_level2_frac):
    # the own-region side of the matching annulus closes the loop on the
    # phase constants: any wrong unit-modulus factor leaves an O(1) floor
    def worst_at(n):
        cfg = validate_config(Configuration(
            a=cfg_level2_frac.a, c=cfg_level2_frac.c, n=n, N=None))
        model = build_model(cfg)
        worst = 0.0
        for rad in (12.0, 18.0):
            for deg in (120, 150, 210, 240):
                zeta = rad * cmath.exp(1j * math.radians(deg))
                z = model.zeta_inverse(zeta, 2)
                worst = max(worst, abs(model.eval_local(z, 2)
                                       / model.eval_region(z, 2) - 1))
        return worst
    w200, w800 = worst_at(200), worst_at(800)
    assert w200 < 0.2
    assert w800 < 0.45 * w200


# -- against the exact polynomial ---------------------------------------------------


def test_outer_error_shrinks(cfg_single):
    errs = {}
    for n in (16, 32):
        cfg = cfg_single.replace_degree(n)
        model = build_model(cfg)
        p = monic_op(exact_moments(cfg), n)
        worst = 0.0
        for k in range(8):
            z = 1.5 * cmath.exp(1j * (0.2 + 2 * math.pi * k / 8))
            pv = poly_eval(p, z)
            worst = max(worst, abs(model.eval_region(z, 0) - pv) / abs(pv))
        errs[n] = worst
    assert errs[16] <= 1e-2
    assert errs[32] < errs[16]


def test_level2_region_error_shrinks(cfg_level2):
    errs = {}
    z = 0.18 + 0.02j  # deep in the region chained through the other point
    for n in (24, 48):
        cfg = cfg_level2.replace_degree(n)
        model = build_model(cfg)
        p = monic_op(exact_moments(cfg), n)
        pv = poly_eval(p, z)
        assert model.classify(z) == 2
        errs[n] = abs(model.eval_region(z, 2) - pv) / abs(pv)
    assert errs[48] < 0.5 * errs[24]


def test_fractional_exponent_region_error_small():
    # single-point fractional weight, quadrature oracle
    cfg = validate_config(Configuration(a=(0.6,), c=(0.5,), n=16, N=None))
    model = build_model(cfg)
    p = monic_op(quad_moments(cfg), 16)
    z = 1.5 * cmath.exp(0.7j)
    pv = poly_eval(p, z)
    assert abs(model.eval_region(z, 0) - pv) / abs(pv) < 2e-2
    z1 = 0.25 + 0.1j
    assert model.classify(z1) == 1
    pv1 = poly_eval(p, z1)
    assert abs(model.eval_region(z1, 1) - pv1) / abs(pv1) < 0.25


def test_lifted_window_region_term_against_quadrature():
    # arg(a_2 - a_1) lies more than pi from arg a_2, so the window of the
    # 1-anchored power of point 2 is lifted by a whole turn; a wrong turn
    # multiplies the region-1 term by exp(2*pi*i*1.5) = -1
    a1, a2 = 0.41 - 0.27j, -0.48 - 0.08j
    assert cmath.phase(a2 - a1) - cmath.phase(a2) > math.pi
    cfg = validate_config(Configuration(a=(a1, a2), c=(0.5, 1.5), n=32, N=None))
    assert cfg.N == 32
    model = build_model(cfg)
    z = 0.32 - 0.08j
    assert model.classify(z) == 1
    pv = poly_eval(monic_op(quad_moments(cfg), 32), z)
    assert abs(pv / model.eval_region(z, 1) - 1.0) <= 0.05
