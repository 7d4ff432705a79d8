import cmath
import itertools
import math

import numpy as np
import pytest

from mszego.branches import BranchContext, OnCut
from mszego.core import ConfigError, Configuration, validate_config

from support import eta, eval_W, eval_Wk, ray_product, sampled_eta_tilde


@pytest.fixture(scope="module")
def ctx(cfg_branchy):
    return BranchContext(cfg_branchy)


@pytest.fixture(scope="module")
def random_ctxs():
    """Seeded non-collinear configurations, nu = 2..4, fractional exponents."""
    rng = np.random.default_rng(3)
    out = []
    while len(out) < 120:
        nu = int(rng.integers(2, 5))
        a = tuple(complex(p * np.exp(2j * np.pi * rng.random()))
                  for p in 0.15 + 0.75 * rng.random(nu))
        c = tuple(float(x) for x in rng.uniform(-0.9, 3.0, nu))
        try:
            cfg = validate_config(Configuration(a=a, c=c, n=20, N=None))
        except ConfigError:
            continue
        out.append(BranchContext(cfg))
    return out


@pytest.fixture(scope="module")
def ctx_int():
    cfg = validate_config(Configuration(
        a=(0.5 + 0.1j, -0.2 + 0.45j), c=(2.0, 1.0), n=10, N=None))
    return BranchContext(cfg)


def test_eta_values(ctx):
    # a unit branch shift of point j rotates its power by eta_j
    z = 0.3 - 0.9j
    for j in (1, 2, 3):
        shift = tuple(int(m == j) for m in (1, 2, 3))
        rotated = BranchContext(ctx.config, branch_shift=shift)
        ratio = rotated.pow_a(z, j) / ctx.pow_a(z, j)
        assert abs(ratio - eta(ctx)[j - 1]) < 1e-14
    # unit exponents give trivial monodromy
    cfg = validate_config(Configuration(a=(0.3,), c=(1.0,), n=4, N=None))
    unit = BranchContext(cfg)
    assert abs(eta(unit)[0] - 1.0) < 1e-15
    assert abs(BranchContext(cfg, branch_shift=(1,)).pow_a(z, 1) - unit.pow_a(z, 1)) < 1e-15


def test_integer_exponent_plain_products(ctx_int):
    a1, a2 = ctx_int.config.a
    for z in (0.3 + 0.8j, -1.2 + 0.3j, 2.0 - 1.0j, 0.05 - 0.9j):
        assert abs(ctx_int.pow_a(z, 1) - (z - a1) ** 2) < 1e-12 * abs(z - a1) ** 2
        assert abs(ctx_int.pow_a(z, 2) - (z - a2)) < 1e-14
        assert abs(ctx_int.pow_z(z, 1) - z * z) < 1e-12 * abs(z) ** 2
        for k in (1, 2):
            assert abs(eval_Wk(ctx_int, z, k) - eval_W(ctx_int, z)) \
                < 1e-12 * abs(eval_W(ctx_int, z))
            for j in (1, 2):
                assert abs(ctx_int.pow_a_Bk(z, j, k) - ctx_int.pow_a(z, j)) \
                    < 1e-12 * abs(ctx_int.pow_a(z, j))


def test_jump_across_outward_cut(ctx):
    # value on the + (left) side is eta_j times the value on the - side
    for j in (1, 2, 3):
        aj = ctx.config.a[j - 1]
        u = aj / abs(aj)
        p = 1.4 * aj
        ratio = ctx.pow_a(p + 1e-8j * u, j) / ctx.pow_a(p - 1e-8j * u, j)
        assert abs(ratio - eta(ctx)[j - 1]) < 1e-6


def test_oncut_raises(ctx):
    a1 = ctx.config.a[0]
    with pytest.raises(OnCut):
        ctx.pow_a(1.7 * a1, 1)
    with pytest.raises(OnCut):
        ctx.pow_z(0.5 * a1, 1)
    a2 = ctx.config.a[1]
    with pytest.raises(OnCut):
        ctx.pow_a_Bk(a1 + 0.7 * (a1 - a2), 1, 2)


def test_magnitude_at_infinity(ctx):
    # |(z-a_j)^(c_j)| ~ |z|^(c_j) far along the reversed inner-ray direction
    for j in (1, 2, 3):
        aj = ctx.config.a[j - 1]
        cj = ctx.config.c[j - 1]
        z = -50.0 * aj / abs(aj)
        assert abs(abs(ctx.pow_a(z, j)) / abs(z) ** cj - 1.0) < 0.05


def test_recut_power_boundary_ratio(ctx):
    # on the + side of the moved cut the ratio to the plain power is 1
    # or 1/eta_j depending on which angular half a_j/a_k falls in
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            if j == k:
                continue
            aj, ak = ctx.config.a[j - 1], ctx.config.a[k - 1]
            u = (aj - ak) / abs(aj - ak)
            z = aj + 0.6 * (aj - ak) + 1e-8j * u
            ratio = ctx.pow_a(z, j) / ctx.pow_a_Bk(z, j, k)
            phi = cmath.phase(aj / ak)
            expect = 1.0 if 0 < phi <= math.pi else 1.0 / eta(ctx)[j - 1]
            assert abs(ratio - expect) < 1e-6


def test_recut_power_equals_plain_on_anchor_ray(ctx, random_ctxs):
    for c in [ctx] + random_ctxs:
        nu = c.config.nu
        for j, k in itertools.permutations(range(1, nu + 1), 2):
            for t in np.linspace(0.05, 1.3, 6):
                z = t * c.config.a[k - 1]
                v = c.pow_a(z, j)
                assert abs(c.pow_a_Bk(z, j, k) - v) < 1e-12 * abs(v)


def test_wk_equals_w_near_anchor_ray(ctx):
    for k in (1, 2, 3):
        z = 0.6 * ctx.config.a[k - 1] + 1e-9j
        w = eval_W(ctx, z)
        assert abs(eval_Wk(ctx, z, k) - w) < 1e-12 * abs(w)


def test_continuation_crossing_products(ctx):
    # W_k(z)/W(z) equals the product of monodromy factors collected by
    # the segment from a_k to z, one signed factor per crossed cut
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 60:
        z = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
        for k in (1, 2, 3):
            try:
                got = eval_Wk(ctx, z, k) / eval_W(ctx, z)
            except OnCut:
                continue
            expect = ray_product(ctx, ctx.config.a[k - 1], z, skip=(k,))
            assert abs(got - expect) < 1e-9
            checked += 1


def test_boundary_values_on_moved_cut(ctx):
    # boundary values of W_k/W_j on the cut from a_j away from a_k; the
    # grazing crossing at a_j is accounted by the explicit eta_j factor
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            if j == k:
                continue
            aj, ak = ctx.config.a[j - 1], ctx.config.a[k - 1]
            u = (aj - ak) / abs(aj - ak)
            z0 = aj + 0.4 * (aj - ak)
            prod = ray_product(ctx, ak, z0, skip=(j, k))
            gp = eval_Wk(ctx, z0 + 1e-8j * u, k) / eval_Wk(ctx, z0 + 1e-8j * u, j)
            gm = eval_Wk(ctx, z0 - 1e-8j * u, k) / eval_Wk(ctx, z0 - 1e-8j * u, j)
            if 0 < cmath.phase(aj / ak) <= math.pi:
                assert abs(gp - prod) < 1e-6
                assert abs(gm - prod / eta(ctx)[j - 1]) < 1e-6
            else:
                assert abs(gp - eta(ctx)[j - 1] * prod) < 1e-6
                assert abs(gm - prod) < 1e-6


def test_eta_tilde_unit_modulus_and_constancy(ctx):
    # the ratio of powers sampled along the cut from a_j away from a_k is
    # one constant, and the closed form is that constant
    for j, k in ((1, 2), (2, 1), (2, 3), (3, 1)):
        vals = [sampled_eta_tilde(ctx, k, j, t) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert abs(abs(vals[0]) - 1.0) < 1e-10
        assert max(abs(v - vals[0]) for v in vals) < 1e-8
        assert abs(ctx.eta_tilde(k, j) - vals[2]) < 1e-8


def test_eta_tilde_equals_sampled_ratio_on_random_configs(random_ctxs):
    nontrivial = 0
    for c in random_ctxs:
        for j, k in itertools.permutations(range(1, c.config.nu + 1), 2):
            closed = c.eta_tilde(k, j)
            for t in (0.1, 0.5):
                assert abs(closed - sampled_eta_tilde(c, k, j, t)) < 1e-9
            nontrivial += abs(closed - 1.0) > 1e-3
    # the configurations reach windows a whole turn apart
    assert nontrivial > 10


def test_eta_tilde_trivial_for_integer_exponents(ctx_int, cfg_level2, cfg_level3):
    for c in (ctx_int, BranchContext(cfg_level2), BranchContext(cfg_level3)):
        for j, k in itertools.permutations(range(1, c.config.nu + 1), 2):
            assert c.eta_tilde(k, j) == 1


def test_eta_tilde_against_boundary_ratio(ctx):
    # eta_tilde equals W_j/W_k(+) exactly in one angular half and gains
    # the monodromy factor in the other
    for j, k in ((1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)):
        aj, ak = ctx.config.a[j - 1], ctx.config.a[k - 1]
        u = (aj - ak) / abs(aj - ak)
        z = aj + 0.45 * (aj - ak) + 1e-8j * u
        eta_kj = eval_Wk(ctx, z, j) / eval_Wk(ctx, z, k)
        expect = eta_kj if 0 < cmath.phase(aj / ak) <= math.pi \
            else eta(ctx)[j - 1] * eta_kj
        assert abs(ctx.eta_tilde(k, j) - expect) < 1e-6


def test_transport_around_closed_loop(ctx):
    # continuity along a polygonal loop that avoids the outward cut:
    # consecutive values never jump and the loop closes exactly
    j = 1
    aj = ctx.config.a[0]
    center = -0.4 * aj
    loop = center + 0.25 * np.exp(2j * np.pi * np.linspace(0, 1, 401))
    vals = np.array([ctx.pow_a(z, j) for z in loop])
    steps = np.abs(np.diff(vals) / vals[:-1])
    assert steps.max() < 0.05
    assert abs(vals[-1] - vals[0]) < 1e-10 * abs(vals[0])


def test_pow_z_normalization(ctx):
    # (z-a_j)^(c_j)/z^(c_j) -> 1 far out along the outward-ray direction
    for j in (1, 2, 3):
        aj = ctx.config.a[j - 1]
        u = aj / abs(aj)
        z = 50.0 * u + 1e-8j * u
        assert abs(ctx.pow_a(z, j) / ctx.pow_z(z, j) - 1.0) < 0.05


def test_pow_z_positive_real_point():
    # real positive singular point puts the cut on the positive axis, so
    # the ratio limit is exercised through one-sided values
    cfg = validate_config(Configuration(a=(1 / math.sqrt(2),), c=(1.5,), n=4, N=None))
    ctx = BranchContext(cfg)
    z = 50.0 + 1e-8j
    assert abs(ctx.pow_a(z, 1) / ctx.pow_z(z, 1) - 1.0) < 0.05
    with pytest.raises(OnCut):
        ctx.pow_z(50.0, 1)


def test_branch_shift_covariance(cfg_branchy):
    base = BranchContext(cfg_branchy)
    shifted = BranchContext(cfg_branchy, branch_shift=(1, 0, -1))
    z = 0.3 - 0.9j
    for j, s in ((1, 1), (2, 0), (3, -1)):
        factor = cmath.exp(-2j * math.pi * cfg_branchy.c[j - 1] * s)
        assert abs(shifted.pow_a(z, j) - factor * base.pow_a(z, j)) \
            < 1e-12 * abs(base.pow_a(z, j))
    # eta_tilde is invariant under the free branch rotations
    for j, k in ((1, 2), (2, 3)):
        assert abs(shifted.eta_tilde(k, j) - base.eta_tilde(k, j)) < 1e-8
