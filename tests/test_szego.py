import math

import numpy as np
import pytest

from mszego.core import Configuration, validate_config
from mszego.szego import (MIN_GAP, NonGeneric, SzegoStructure, classify, classify_many,
                          compute_chains, levels_iterations, phi_L, plane_stack,
                          solve_levels, solve_structure, trace_curve)

from conftest import A1, NON_GENERIC_A, THIN_REGION_A
from support import random_generic_configs

L1 = math.log(A1) - 0.5  # level constant of the single-point picture


def _unit_cfg(a):
    return validate_config(Configuration(a=a, c=(1.0,) * len(a), n=20, N=None))


# -- phi_L -------------------------------------------------------------------


def test_phi_tie_at_singular_point():
    lam = [L1]
    value, labels = phi_L(A1, (A1,), lam)
    assert abs(value - math.log(A1)) < 1e-12
    assert labels == {0, 1}


def test_phi_label0_wins_on_unit_circle():
    # with solved levels the log candidate attains the max at |z| = 1
    for cfg in random_generic_configs(5, seed=11):
        L = solve_levels(cfg)
        for th in np.linspace(0.1, 2 * math.pi, 7):
            z = complex(np.cos(th), np.sin(th))
            _, labels = phi_L(z, cfg.a, L, tie_tol=1e-9)
            assert 0 in labels


def test_phi_all_planes_sunk():
    _, labels = phi_L(0.3 + 0.2j, (0.5, -0.4j), [-1e9, -1e9])
    assert labels == {0}


# -- level solver -------------------------------------------------------------


def test_single_point_level_closed_form(cfg_single):
    L = solve_levels(cfg_single)
    assert abs(L[0] - L1) < 1e-14


def test_levels_nondecreasing_and_fixed_point(cfg_pair):
    its = levels_iterations(cfg_pair)
    arr = np.array(its)
    assert np.all(np.diff(arr, axis=0) >= -1e-15)
    # one extra sweep moves nothing
    L = arr[-1]
    extra = [phi_L(z, cfg_pair.a, L)[0] - abs(z) ** 2 for z in cfg_pair.a]
    assert np.max(np.abs(np.array(extra) - L)) < 1e-12


def test_boundary_membership_random_configs():
    for cfg in random_generic_configs(8, seed=5):
        L = solve_levels(cfg)
        for j, aj in enumerate(cfg.a, start=1):
            value, _ = phi_L(aj, cfg.a, L)
            assert abs(value - abs(aj) ** 2 - L[j - 1]) < 1e-9


def test_maximality_of_solved_levels():
    # raising any single level detaches that point from its boundary
    for cfg in random_generic_configs(3, seed=21):
        L = list(solve_levels(cfg))
        for j in range(len(L)):
            bumped = list(L)
            bumped[j] += 1e-3
            value, labels = phi_L(cfg.a[j], cfg.a, bumped, tie_tol=1e-6)
            assert labels == {j + 1}  # strictly interior now


def test_sandwich_inequality():
    rng = np.random.default_rng(3)
    for cfg in random_generic_configs(4, seed=9):
        L = solve_levels(cfg)
        for _ in range(200):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(z) >= 1 or z == 0:
                continue
            value, _ = phi_L(z, cfg.a, L)
            assert math.log(abs(z)) <= value <= 0.5 * (abs(z) ** 2 - 1) + 1e-12


# -- classify ------------------------------------------------------------------


def test_classify_outside_disk(cfg_single):
    st = solve_structure(cfg_single)
    assert classify(1.5, st) == 0


def test_classify_radial_sides(cfg_single):
    st = solve_structure(cfg_single)
    assert classify(A1 * 1.001, st) == 0
    assert classify(A1 * 0.999, st) == 1


def test_classify_many_matches_scalar(cfg_pair):
    st = solve_structure(cfg_pair)
    rng = np.random.default_rng(7)
    zs = rng.uniform(-1.2, 1.2, 40) + 1j * rng.uniform(-1.2, 1.2, 40)
    vec = classify_many(zs, cfg_pair, st.L)
    assert all(vec[i] == classify(complex(zs[i]), st) for i in range(len(zs)))
    for z in (0.9 * cfg_pair.a[0], 0.9 * cfg_pair.a[1], 0.2j, 1.5):
        label = classify_many(np.asarray(z), cfg_pair, st.L)
        assert label.shape == () and label == classify(z, st)


# -- chains and ell ------------------------------------------------------------


def test_single_point_chain(cfg_single):
    st = solve_structure(cfg_single)
    assert st.chains == ((1,),)
    assert st.levels == (1,)


def test_chains_terminate_without_repetition():
    for cfg in random_generic_configs(8, seed=13):
        chains, levels = compute_chains(cfg, solve_levels(cfg))
        for ch in chains:
            assert len(set(ch)) == len(ch) <= cfg.nu


def test_pair_levels(cfg_pair):
    st = solve_structure(cfg_pair)
    assert all(lv <= 2 for lv in st.levels)


def test_level2_and_level3_chains(cfg_level2, cfg_level3):
    st2 = solve_structure(cfg_level2)
    assert st2.chains == ((1,), (2, 1))
    st3 = solve_structure(cfg_level3)
    assert st3.chains[2] == (3, 2, 1)


def test_chain_consistency_relation():
    for cfg in random_generic_configs(6, seed=17):
        st = solve_structure(cfg)
        for j in range(1, cfg.nu + 1):
            k = st.arrow(j)
            aj = cfg.a[j - 1]
            lhs = abs(aj) ** 2 + st.L[j - 1]
            if k == 0:
                rhs = math.log(abs(aj))
            else:
                rhs = (cfg.a[k - 1].conjugate() * aj).real + st.L[k - 1]
            assert abs(lhs - rhs) < 1e-9


def test_ell_single_point(cfg_single):
    st = solve_structure(cfg_single)
    assert abs(st.ell[0] - (-0.5 * math.log(2) - 0.5)) < 1e-14
    assert abs(st.ell[0].imag) == 0.0


def test_ell_real_parts_are_levels():
    for cfg in random_generic_configs(6, seed=29):
        st = solve_structure(cfg)
        for lj, ellj in zip(st.L, st.ell):
            assert abs(ellj.real - lj) < 1e-10


def test_ell_two_step_unrolled(cfg_level2):
    st = solve_structure(cfg_level2)
    a1, a2 = cfg_level2.a
    expect = (np.log(a1) - abs(a1) ** 2 + a1.conjugate() * a2 - abs(a2) ** 2)
    assert abs(st.ell[1] - expect) < 1e-12


def test_non_generic_detection():
    cfg = validate_config(Configuration(a=NON_GENERIC_A, c=(1.0, 1.0), n=20, N=None))
    with pytest.raises(NonGeneric) as info:
        solve_structure(cfg)
    report = info.value.report
    gaps = report["gaps"]
    assert gaps[report["point"] - 1] == min(gaps) < MIN_GAP
    assert min(gaps) == pytest.approx(2.5e-7, rel=1e-6)


@pytest.mark.parametrize("sep, generic", [(0.00999, False), (0.01001, True)])
def test_gap_threshold_bracket(sep, generic):
    # a_2 of NON_GENERIC_A moved away from a_1: a_1 sits on the tie of planes
    # 1 and 2, so the gap at a_2 is |a_2 - a_1|^2 and crosses MIN_GAP at 0.01
    a1, a2 = NON_GENERIC_A
    cfg = _unit_cfg((a1, a1 + sep * (a2 - a1) / abs(a2 - a1)))
    if generic:
        assert solve_structure(cfg).delta == pytest.approx(sep ** 2, rel=1e-9)
    else:
        with pytest.raises(NonGeneric) as info:
            solve_structure(cfg)
        assert info.value.report["point"] == 2
        assert info.value.report["gaps"][1] == pytest.approx(sep ** 2, rel=1e-9)


def test_two_regions_on_circles_sized_by_gap():
    # with gap_j and the largest gradient difference g at a_j, a third plane
    # stays 3 gap_j / 4 under the top two on the circle of radius
    # gap_j / (4 g), and the top two have different gradients, so each wins
    # on half of it (gap_j is capped at 0.1, where the logarithm's curvature
    # is still small, and one point has no third plane)
    theta = np.exp(2j * np.pi * np.arange(256) / 256)
    for cfg in random_generic_configs(60, seed=41):
        st = solve_structure(cfg)
        top = np.sort(plane_stack(cfg.a, cfg.a, st.L), axis=0)
        gaps = top[-1] - top[-3] if cfg.nu > 1 else [math.inf]
        for j, aj in enumerate(cfg.a, start=1):
            grads = np.array([1 / aj.conjugate(), *cfg.a])
            spread = np.max(np.abs(grads[:, None] - grads[None, :]))
            ring = aj + min(gaps[j - 1], 0.1) / (4 * spread) * theta
            assert set(classify_many(ring, cfg, st.L).tolist()) == {j, st.arrow(j)}


def test_thin_region_solves():
    # no lattice node of a 201 x 201 scan of [-1, 1]^2 falls in region 2
    cfg = validate_config(Configuration(a=THIN_REGION_A, c=(1.0,) * 3, n=20, N=None))
    st = solve_structure(cfg)
    assert st.chains == ((1, 3), (2, 1, 3), (3,))


@pytest.mark.parametrize("name, delta", [
    ("cfg_pair", 0.1400), ("cfg_level2", 0.1193), ("cfg_level3", 0.0369), ("thin", 0.00238)])
def test_delta_values(name, delta, request):
    # FIG4 and level3 are set by a third plane, level2 by its chain tail a_1
    cfg = _unit_cfg(THIN_REGION_A) if name == "thin" else request.getfixturevalue(name)
    assert solve_structure(cfg).delta == pytest.approx(delta, abs=5e-5)


def test_delta_single_point(cfg_single):
    # one point has no third plane; its tail rate is |a|^2 - 1 - log|a|^2
    assert abs(solve_structure(cfg_single).delta - (math.log(2) - 0.5)) <= 1e-15


# -- curve tracing ---------------------------------------------------------------


def test_single_point_curve_equation(cfg_single):
    st = solve_structure(cfg_single)
    cs = trace_curve(st, grid=200, tol=1e-8)
    assert len(cs.arcs) == 1
    pts = cs.arcs[0].points
    resid = np.abs(np.log(np.abs(pts)) - (np.conj(A1) * pts).real - L1)
    assert resid.max() < 1e-7
    assert np.abs(pts).max() < 1.0


def test_curve_points_inside_disk(cfg_pair):
    st = solve_structure(cfg_pair)
    cs = trace_curve(st, grid=250, tol=1e-8)
    for arc in cs.arcs:
        assert np.abs(arc.points).max() < 1.0


def test_interior_arcs_are_straight(cfg_pair):
    st = solve_structure(cfg_pair)
    cs = trace_curve(st, grid=250, tol=1e-8)
    inner = [a for a in cs.arcs if a.j >= 1 and a.k >= 1]
    assert inner, "expected an interface between the two bounded regions"
    for arc in inner:
        p, q = arc.points[0], arc.points[-1]
        d = (q - p) / abs(q - p)
        dev = np.abs((arc.points - p).imag * d.real - (arc.points - p).real * d.imag)
        assert dev.max() < 1e-7


def test_arc_orientation_left_side(cfg_pair, cfg_level3):
    for cfg in (cfg_pair, cfg_level3):
        st = solve_structure(cfg)
        cs = trace_curve(st, grid=250, tol=1e-8)
        for arc in cs.arcs:
            # probe at half step: beyond the chord sagitta, inside the regions
            good = 0
            for i in range(0, len(arc.points) - 1, 5):
                d = arc.points[i + 1] - arc.points[i]
                nrm = 1j * d / abs(d)
                delta = 0.5 * abs(d)
                mid = 0.5 * (arc.points[i] + arc.points[i + 1])
                left = classify(mid + delta * nrm, st)
                right = classify(mid - delta * nrm, st)
                if left == arc.j and right == arc.k:
                    good += 1
                else:
                    assert {left, right} != {arc.j, arc.k}, \
                        f"segment {i} of arc ({arc.j},{arc.k}) oriented backwards"
            assert good > 0.8 * len(range(0, len(arc.points) - 1, 5))


# Configurations whose 3-point arc once came back reversed at grid 20 / 19.
SHORT_ARC_CASES = [
    ((0.3223130714875922 - 0.03593156416874949j, -0.14208473239987907 + 0.21983954797935218j,
      -0.3413219138647612 + 0.6233474596729266j, -0.1956372569589491 - 0.39433978747556997j),
     20),
    ((0.1361212744624903 - 0.6996559972719819j, 0.17867038424248502 + 0.06320372028173377j,
      0.16111430845496097 + 0.4598816241397052j, 0.04025462154188196 - 0.2924942180560561j),
     19),
]


def _assert_left_side_rises(st, cs):
    """phi_j - phi_k grows across every step of every arc, right to left."""
    for arc in cs.arcs:
        d = np.diff(arc.points)
        mid = 0.5 * (arc.points[1:] + arc.points[:-1])
        off = 1e-6 * 1j * d / np.abs(d)
        left = plane_stack(mid + off, st.config.a, st.L)
        right = plane_stack(mid - off, st.config.a, st.L)
        rise = (left[arc.j] - left[arc.k]) - (right[arc.j] - right[arc.k])
        assert (rise > 0).all(), f"arc ({arc.j},{arc.k}) of {len(arc)} points reversed"


def test_arcs_oriented_by_plane_values():
    for cfg in random_generic_configs(10, seed=31):
        st = solve_structure(cfg)
        for grid in (40, 97):
            _assert_left_side_rises(st, trace_curve(st, grid=grid, tol=1e-8))
    for a, grid in SHORT_ARC_CASES:
        cfg = validate_config(Configuration(a=a, c=(1.0,) * 4, n=20, N=None))
        st = solve_structure(cfg)
        _assert_left_side_rises(st, trace_curve(st, grid=grid, tol=1e-8))


def test_traced_points_are_label_ties(cfg_pair, cfg_level3):
    # the level-3 chain has three-region junctions inside the disk
    for cfg in (cfg_pair, cfg_level3):
        st = solve_structure(cfg)
        cs = trace_curve(st, grid=200, tol=1e-8)
        for arc in cs.arcs:
            z = complex(arc.points[len(arc.points) // 3])
            _, labels = phi_L(z, cfg.a, st.L, tie_tol=1e-5)
            assert {arc.j, arc.k} <= labels


def _labels(cs):
    return {lab for arc in cs.arcs for lab in (arc.j, arc.k)}


def test_coarse_grid_borders_every_region(cfg_pair):
    st = solve_structure(cfg_pair)
    for grid in (0, 3, 6):
        cs = trace_curve(st, grid=grid, tol=1e-8)
        assert _labels(cs) == {0, 1, 2}
        assert min(len(arc) for arc in cs.arcs) >= 3


def test_short_arc_has_every_interface():
    cs = trace_curve(solve_structure(_unit_cfg(SHORT_ARC_CASES[0][0])), grid=20, tol=1e-8)
    assert [(arc.j, arc.k) for arc in cs.arcs] == [
        (0, 1), (0, 2), (0, 2), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4)]


def test_four_regions_at_one_point_refused():
    # not a valid configuration (a_1, a_3 and 0 are collinear); by symmetry
    # all four planes tie at the origin
    cfg = Configuration(a=(0.5 + 0j, 0.5j, -0.5 + 0j, -0.5j), c=(1.0,) * 4, n=20, N=None)
    st = SzegoStructure(config=cfg, L=solve_levels(cfg), ell=(), chains=(), levels=(),
                        delta=0.0)
    with pytest.raises(NonGeneric, match="four regions meet"):
        trace_curve(st, grid=40, tol=1e-8)


def _zero_mass(st, cs):
    """Sum over arcs of the integral of |grad phi_j - grad phi_k| / 2 pi (midpoint rule)."""
    total = 0.0
    for arc in cs.arcs:
        mid = 0.5 * (arc.points[1:] + arc.points[:-1])
        grad = [1.0 / np.conj(mid) if lab == 0 else st.config.a[lab - 1]
                for lab in (arc.j, arc.k)]
        total += np.sum(np.abs(np.diff(arc.points)) * np.abs(grad[0] - grad[1])) / (2 * math.pi)
    return total


def _assert_exact_curve(st, cs, tie=1e-7):
    """Every label borders an arc; every point ties its two planes, every
    triple point its three, with no other plane above."""
    assert _labels(cs) == set(range(st.config.nu + 1))
    for arc in cs.arcs:
        vals = plane_stack(arc.points, st.config.a, st.L)
        top = vals.max(axis=0)
        assert (top - vals[arc.j]).max() <= tie and (top - vals[arc.k]).max() <= tie
    for z in cs.triple_points:
        vals = plane_stack(z, st.config.a, st.L)
        assert np.sum(vals.max() - vals <= tie) == 3


EDGE_CASES = {"thin": THIN_REGION_A, "short_arc": SHORT_ARC_CASES[0][0]}


@pytest.mark.parametrize("name", ["cfg_single", "cfg_pair", "cfg_level2", "cfg_level2_frac",
                                  "cfg_level3", "cfg_branchy", *EDGE_CASES])
def test_curve_carries_unit_zero_mass(name, request):
    # the thin sliver and short_arc lost whole interfaces to the lattice tracer
    cfg = _unit_cfg(EDGE_CASES[name]) if name in EDGE_CASES else request.getfixturevalue(name)
    st = solve_structure(cfg)
    cs = trace_curve(st, grid=400, tol=1e-8)
    assert abs(_zero_mass(st, cs) - 1.0) < 1e-4
    _assert_exact_curve(st, cs)


def test_tolerance_below_float_spacing_ends(cfg_pair):
    st = solve_structure(cfg_pair)
    _assert_exact_curve(st, trace_curve(st, grid=50, tol=1e-20), tie=1e-14)


def test_random_curves_exact():
    for cfg in random_generic_configs(150, seed=5):
        st = solve_structure(cfg)
        cs = trace_curve(st, grid=400, tol=1e-8)
        assert abs(_zero_mass(st, cs) - 1.0) < 1e-4
        _assert_exact_curve(st, cs)
        assert _labels(trace_curve(st, grid=0, tol=1e-8)) == set(range(cfg.nu + 1))


def test_pair_curve_has_triple_points(cfg_pair):
    st = solve_structure(cfg_pair)
    cs = trace_curve(st, grid=250, tol=1e-8)
    assert len(cs.triple_points) == 2
