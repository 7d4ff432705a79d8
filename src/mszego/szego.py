"""Level constants, plane classification, chains and the curve tracer.

The central object is the continuous max-function

    Phi(z) = max( log|z|, Re(conj(a_1) z) + l_1, ..., Re(conj(a_nu) z) + l_nu )

whose argmax label partitions the disk into regions: label 0 where the
logarithm wins, label j where the j-th plane wins.  The level vector
L = (l_1..l_nu) is the unique one placing every a_j on the boundary of
its own region; it is found by a finite fixed-point iteration (nu
sweeps).  The configuration is generic when at every a_j no third
candidate comes within ``MIN_GAP`` of the two that tie there; the least
such gap, or the rate of a chain tail if smaller, is the margin
``delta`` that the asymptotic error decays with.  The union of the
bounded region boundaries is the curve the polynomial roots accumulate
on.  It is built here in closed form: the boundary of region 0 is a
polar graph r(theta), and two bounded regions meet on a straight
segment between exact triple points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import Configuration

__all__ = [
    "NonGeneric",
    "SzegoStructure",
    "Arc",
    "CurveSet",
    "phi_L",
    "solve_levels",
    "levels_iterations",
    "classify",
    "classify_many",
    "plane_stack",
    "compute_chains",
    "compute_ell",
    "solve_structure",
    "trace_curve",
]

TIE_TOL = 1e-12          # relative tie window for argmax label sets
BOUNDARY_TOL = 1e-9      # |Phi(a_j) - |a_j|^2 - l_j| tolerance for membership
MIN_GAP = 1e-4           # least third-plane gap at an a_j: below, n gap < 1 for n < 1e4


class NonGeneric(Exception):
    """A third plane comes within ``MIN_GAP`` of the top at some a_j, the
    arrows do not form chains, or four regions meet at one point of the curve.

    Carries the partial structure data available at detection time in
    ``self.report`` (a dict) so callers can still show diagnostics.
    """

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


@dataclass(frozen=True)
class Arc:
    """One labeled component of the curve.

    ``points`` are ordered so that region ``j`` lies on the left (+)
    side when walking along them; region ``k`` is on the right.
    """

    j: int
    k: int
    points: np.ndarray  # complex, ordered

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class CurveSet:
    arcs: tuple[Arc, ...]
    triple_points: tuple[complex, ...] = ()


@dataclass(frozen=True)
class SzegoStructure:
    """Solved levels plus everything derived from them."""

    config: Configuration
    L: tuple[float, ...]
    ell: tuple[complex, ...]
    chains: tuple[tuple[int, ...], ...]   # chains[j-1] = (j, ..., k_1), implicit 0 at the end
    levels: tuple[int, ...]
    delta: float   # genericity margin: the least third-plane gap or chain-tail rate

    def arrow(self, j: int) -> int:
        """The label k of the neighboring region at a_j (0 allowed)."""
        ch = self.chains[j - 1]
        return ch[1] if len(ch) > 1 else 0


# The max-function has two kernels.  ``_plane_values`` is the scalar one,
# used by the level solve, phi_L and classify: np.log differs from
# math.log in the last bit for about a third of inputs, which would move
# the solved levels and every artifact derived from them, and a numpy
# call on one point costs two to three times the scalar path.
# ``plane_stack`` is the array kernel for grids and point sets.


def _plane_values(z: complex, a, lam):
    vals = [math.log(abs(z)) if z != 0 else -math.inf]
    for aj, lj in zip(a, lam):
        vals.append((aj.conjugate() * z).real + lj)
    return vals


def phi_L(z: complex, a, lam, tie_tol: float = TIE_TOL):
    """Value of the max-function and the set of labels attaining it.

    Labels within ``tie_tol * (|value| + 1)`` of the maximum all count
    as attaining it; label 0 is the logarithm.
    """
    vals = _plane_values(z, a, lam)
    value = max(vals)
    window = tie_tol * (abs(value) + 1.0)
    labels = {i for i, v in enumerate(vals) if value - v <= window}
    return value, labels


def levels_iterations(config: Configuration):
    """All nu+1 successive level vectors of the fixed-point iteration.

    Entry 0 is the initialization ``log|a_j| - |a_j|^2``; entry ``i``
    results from ``i`` sweeps of ``lam_j <- Phi(a_j) - |a_j|^2``.  The
    sweep count equals nu because each sweep settles one more level of
    the arrow hierarchy.
    """
    a = config.a
    lam = [math.log(abs(z)) - abs(z) ** 2 for z in a]
    out = [tuple(lam)]
    for _ in range(config.nu):
        lam = [phi_L(z, a, lam)[0] - abs(z) ** 2 for z in a]
        out.append(tuple(lam))
    return out

def solve_levels(config: Configuration) -> tuple[float, ...]:
    """The unique level vector placing every a_j on its region boundary."""
    return levels_iterations(config)[-1]


def classify(z: complex, structure: SzegoStructure) -> int:
    """Region label of a point; smallest label wins ties, |z|>=1 is 0."""
    if abs(z) >= 1.0:
        return 0
    vals = _plane_values(z, structure.config.a, structure.L)
    return vals.index(max(vals))


def plane_stack(z, a, L) -> np.ndarray:
    """All candidates of Phi at an array of points, shape ``(nu+1, *z.shape)``.

    Row 0 is ``log|z|`` (``-inf`` at the origin), row ``j`` the plane
    ``Re(conj(a_j) z) + l_j``.
    """
    z = np.asarray(z, dtype=complex)
    stack = np.empty((len(a) + 1,) + z.shape)
    with np.errstate(divide="ignore"):
        stack[0] = np.log(np.abs(z))
    for j, (aj, lj) in enumerate(zip(a, L), start=1):
        stack[j] = (np.conj(aj) * z).real + lj
    return stack


def classify_many(z: np.ndarray, config: Configuration, L) -> np.ndarray:
    """Vectorized :func:`classify` on an arbitrary-shape complex array."""
    z = np.asarray(z, dtype=complex)
    return np.where(np.abs(z) >= 1.0, 0, np.argmax(plane_stack(z, config.a, L), axis=0))


def compute_chains(config: Configuration, L):
    """Arrow targets and chains for every singular point.

    For each j the unique other label attaining Phi at a_j gives the
    arrow j -> k; following arrows reaches 0 without repetition.  Raises
    :class:`NonGeneric` when the other label is not unique.
    """
    nu = config.nu
    arrows = {}
    for j in range(1, nu + 1):
        _, cands = phi_L(config.a[j - 1], config.a, L, tie_tol=BOUNDARY_TOL)
        others = [i for i in cands if i != j]
        if j not in cands:
            raise NonGeneric(
                f"a_{j} does not attain its own plane at the solved levels",
                {"L": tuple(L)},
            )
        if len(others) != 1:
            raise NonGeneric(
                f"a_{j} attains the maximum with labels {sorted(cands)}; "
                "expected exactly one neighbor",
                {"L": tuple(L), "labels": sorted(cands), "point": j},
            )
        arrows[j] = others[0]

    chains = []
    for j in range(1, nu + 1):
        chain = [j]
        k = arrows[j]
        while k != 0:
            if k in chain:
                raise NonGeneric(
                    f"arrow chain starting at a_{j} revisits a_{k}",
                    {"L": tuple(L), "chain": tuple(chain)},
                )
            chain.append(k)
            k = arrows[k]
        chains.append(tuple(chain))
    levels = tuple(len(ch) for ch in chains)
    return tuple(chains), levels


def compute_ell(config: Configuration, chains) -> tuple[complex, ...]:
    """Complex lifts of the levels along each chain.

    The chain tail k_1 points at region 0 and gets
    ``log a_{k_1} - |a_{k_1}|^2`` (principal log); each step up the chain
    adds ``conj(a_target) a_j - |a_j|^2``.  Points shared by several
    chains receive identical values because the recursion only depends
    on the arrows.
    """
    nu = config.nu
    ell: dict[int, complex] = {}
    order = sorted(range(1, nu + 1), key=lambda j: len(chains[j - 1]))
    for j in order:
        ch = chains[j - 1]
        aj = config.a[j - 1]
        if len(ch) == 1:
            ell[j] = complex(np.log(aj)) - abs(aj) ** 2
        else:
            k = ch[1]
            ell[j] = config.a[k - 1].conjugate() * aj - abs(aj) ** 2 + ell[k]
    return tuple(ell[j] for j in range(1, nu + 1))


def solve_structure(config: Configuration) -> SzegoStructure:
    """Solve levels, derive chains/ell, and check genericity.

    At each a_j its own plane and one neighbor tie on top; ``gap_j`` is
    how far the third-highest candidate lies below them (``inf`` for one
    point).  Raises :class:`NonGeneric`, reporting the gaps and the point
    of the least, when some ``gap_j`` is below ``MIN_GAP``.  A positive
    gap leaves only the two top labels near a_j, and their gradients
    differ, so a_j sits between exactly two regions and no region is
    empty.  ``delta`` is the least gap or tail rate
    ``|a|^2 - 1 - log|a|^2`` over the chain tails a_{k_1}: the error of
    the strong asymptotics falls like ``e^(-n delta)``.
    """
    L = solve_levels(config)
    top = np.sort(plane_stack(config.a, config.a, L), axis=0)
    gaps = tuple((top[-1] - top[-3]).tolist()) if config.nu > 1 else (math.inf,)
    point = 1 + int(np.argmin(gaps))
    if gaps[point - 1] < MIN_GAP:
        raise NonGeneric(f"a third plane lies {gaps[point - 1]:.2e} below the top at "
                         f"a_{point}, under MIN_GAP = {MIN_GAP:g}",
                         {"L": tuple(L), "gaps": gaps, "point": point})
    chains, levels = compute_chains(config, L)
    tails = [abs(config.a[ch[-1] - 1]) ** 2 for ch in chains]
    return SzegoStructure(
        config=config,
        L=tuple(L),
        ell=compute_ell(config, chains),
        chains=chains,
        levels=levels,
        delta=min(gaps + tuple(x - 1.0 - math.log(x) for x in tails)),
    )


# ---------------------------------------------------------------------------
# the curve in closed form
#
# On a ray, log r - plane_j(r e^{i theta}) increases on (0, 1] for every j
# (|a_j| < 1), so region 0 is bounded by one polar graph r(theta).  Two
# bounded regions meet on a straight segment of their tie line, and every
# interface ends at triple points.


def _bisect(f, lo, hi, tol):
    """Vectorised bisection of a sign change of ``f`` on each [lo, hi], to width ``tol``.

    The halvings are counted in advance: once no double lies between the
    ends they stop moving, so a ``tol`` below the float spacing still ends.
    """
    up = f(lo) > 0
    for _ in range(math.ceil(math.log2(max(np.max(hi - lo, initial=0.0), tol) / tol))):
        mid = 0.5 * (lo + hi)
        right = (f(mid) > 0) == up
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def _on_top(z, labels, a, L) -> bool:
    """Whether z lies in the unit disk with no plane but ``labels`` above them."""
    vals = plane_stack(z, a, L)
    top = vals[list(labels)].max()
    return abs(z) < 1.0 and np.delete(vals, labels).max(initial=-np.inf) <= top + BOUNDARY_TOL


def _triple_points(a, L, tol):
    """Points where three regions meet, as ``(labels, z)`` with sorted labels.

    Bounded labels (i, j, k) meet at the solution of two linear equations.
    Labels (0, i, j) meet at a root of ``plane_i - log|z|`` on the line
    ``plane_i = plane_j``.  Written ``z = s n + t i n`` with ``|n| = 1``, that
    difference is ``alpha + beta t - log(s^2 + t^2)/2``, whose derivative
    ``beta - t/(s^2 + t^2)`` vanishes where ``beta t^2 - t + beta s^2 = 0``.
    So the chord inside the unit disk splits into at most three monotone
    pieces, and each piece whose ends differ in sign is bisected to ``tol``.
    A candidate is kept only if no other plane lies above it.
    """
    bounded = range(1, len(a) + 1)
    found = []
    for i, j, k in combinations(bounded, 3):
        (p, b), (q, c) = ((a[i - 1] - a[m - 1], L[m - 1] - L[i - 1]) for m in (j, k))
        det = p.real * q.imag - p.imag * q.real
        if det != 0.0:   # else the two tie lines are parallel
            found.append(((i, j, k),
                          complex(b * q.imag - c * p.imag, p.real * c - q.real * b) / det))
    pieces = []   # (i, j, foot point, direction, alpha, beta, s^2, t_lo, t_hi)
    for i, j in combinations(bounded, 2):
        d = a[i - 1] - a[j - 1]
        n, s = d / abs(d), (L[j - 1] - L[i - 1]) / abs(d)
        if abs(s) >= 1.0:
            continue
        beta = (a[i - 1].conjugate() * 1j * n).real
        half = math.sqrt(1.0 - s * s)
        cuts = [-half, half]
        if beta == 0.0:
            cuts.append(0.0)
        elif 4.0 * beta * beta * s * s <= 1.0:
            w = 1.0 + math.sqrt(1.0 - 4.0 * beta * beta * s * s)
            cuts += [w / (2.0 * beta), 2.0 * beta * s * s / w]
        cuts = sorted(t for t in cuts if abs(t) <= half)
        alpha = (a[i - 1].conjugate() * s * n).real + L[i - 1]
        pieces += [(i, j, s * n, 1j * n, alpha, beta, s * s, lo, hi)
                   for lo, hi in zip(cuts, cuts[1:])]
    if pieces:
        i_, j_, foot, u, alpha, beta, s2, lo, hi = map(np.array, zip(*pieces))

        def gap(t):
            return alpha + beta * t - 0.5 * np.log(s2 + t * t)

        with np.errstate(divide="ignore"):
            crossed = (gap(lo) > 0) != (gap(hi) > 0)
            z = foot + _bisect(gap, lo, hi, tol) * u
        found += [((0, int(i_[m]), int(j_[m])), complex(z[m])) for m in np.flatnonzero(crossed)]
    return [(labels, z) for labels, z in found if _on_top(z, labels, a, L)]


def trace_curve(structure: SzegoStructure, grid: int = 400, tol: float = 1e-8) -> CurveSet:
    """The region-boundary curve in closed form, as label-pair-tagged polylines.

    The boundary of region 0 is the polar graph r(theta), each point
    bisected on its ray to width ``tol``.  The triple points with label 0,
    in angle order, split it into one arc per bounded neighbor; with none
    it is one closed loop whose first point equals its last.  Two bounded
    regions meet on the segment between the two triple points on their tie
    line.  Samples lie at most ``2/grid`` apart, in length along a segment
    and in angle along the graph, with at least 3 per arc; arc ends are the
    triple points themselves.  Each arc is oriented with its ``j`` region
    on the left.

    Raises :class:`NonGeneric` when a tie line carries other than 0 or 2
    triple points, which means four regions meet at one point.
    """
    a, L = structure.config.a, structure.L
    triples = _triple_points(a, L, tol)

    def samples(span):
        return max(3, 1 + math.ceil(grid * span / 2))

    ends: dict[tuple[int, int], list[complex]] = {}   # of the bounded interfaces
    for labels, z in triples:
        for pair in combinations(labels, 2):
            if pair[0] != 0:
                ends.setdefault(pair, []).append(z)
    pieces = []   # (pair, points)
    for pair, zs in ends.items():
        if len(zs) != 2:
            raise NonGeneric(f"the interface of regions {pair} has {len(zs)} ends; "
                             "four regions meet at one point", {"L": tuple(L), "pair": pair})
        p, q = zs
        pieces.append((pair, p + (q - p) * np.linspace(0.0, 1.0, samples(abs(q - p)))))

    corners = sorted(((math.atan2(z.imag, z.real) % (2 * math.pi), z)
                      for labels, z in triples if labels[0] == 0), key=lambda c: c[0])
    if corners:
        spans = list(zip(corners, corners[1:] + [(corners[0][0] + 2 * math.pi, corners[0][1])]))
    else:
        spans = [((0.0, None), (2 * math.pi, None))]
    thetas = [np.linspace(t0, t1, samples(t1 - t0)) for (t0, _), (t1, _) in spans]
    e = np.exp(1j * np.concatenate(thetas))
    slope = np.array([(np.conj(aj) * e).real for aj in a])

    def gap(r):
        return np.log(r) - np.max(r * slope + np.asarray(L)[:, None], axis=0)

    with np.errstate(divide="ignore"):
        graph = _bisect(gap, np.zeros(e.shape), np.ones(e.shape), tol) * e
    splits = np.cumsum([len(t) for t in thetas])[:-1]
    for ((_, z0), (_, z1)), pts in zip(spans, np.split(graph, splits)):
        pts[0], pts[-1] = (pts[0], pts[0]) if z0 is None else (z0, z1)
        label = 1 + int(np.argmax(plane_stack(pts[len(pts) // 2], a, L)[1:]))
        pieces.append(((0, label), pts))

    arcs = [Arc(j=pair[0], k=pair[1], points=_oriented(pts, pair, a)) for pair, pts in pieces]
    arcs.sort(key=lambda arc: (arc.j, arc.k, arc.points[0].real, arc.points[0].imag))
    return CurveSet(arcs=tuple(arcs), triple_points=tuple(z for _, z in triples))


def _oriented(pts, pair, a):
    """Order arc points so that region pair[0] sits on the left side.

    Each plane has a closed-form gradient: ``1/conj(z)`` for label 0 and
    ``a_i`` for label i.  Region pair[0] is on the left when
    ``phi_pair[0] - phi_pair[1]`` grows along the left normal ``i*dp``
    of the steps, summed over the arc.
    """
    d = np.diff(pts)
    mid = 0.5 * (pts[1:] + pts[:-1])
    grad = [1.0 / np.conj(mid) if lab == 0 else a[lab - 1] for lab in pair]
    rise = np.sum((np.conj(1j * d) * (grad[0] - grad[1])).real)
    return pts if rise >= 0 else pts[::-1].copy()
