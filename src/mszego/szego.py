"""Level constants, plane classification, chains and the curve tracer.

The central object is the continuous max-function

    Phi(z) = max( log|z|, Re(conj(a_1) z) + l_1, ..., Re(conj(a_nu) z) + l_nu )

whose argmax label partitions the disk into regions: label 0 where the
logarithm wins, label j where the j-th plane wins.  The level vector
L = (l_1..l_nu) is the unique one placing every a_j on the boundary of
its own region; it is found by a finite fixed-point iteration (nu
sweeps).  The union of the bounded region boundaries is the curve the
polynomial roots accumulate on; it is extracted here by grid labeling
plus edge bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Configuration

__all__ = [
    "NonGeneric",
    "DegenerateArc",
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
GENERIC_CIRCLE_RADIUS = 1e-4
GENERIC_CIRCLE_SAMPLES = 64
EMPTY_SCAN_GRID = 201


class NonGeneric(Exception):
    """A singular point touches more or fewer than two regions.

    Carries the partial structure data available at detection time in
    ``self.report`` (a dict) so callers can still show diagnostics.
    """

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


class DegenerateArc(Exception):
    """An extracted arc has fewer than 3 points, or a bounded region borders
    no arc; raise the grid resolution."""


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
    return int(np.argmax(vals))


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


def _genericity_flags(config: Configuration, L, chains):
    """Per-point circle test: label set around a_j must be exactly {j, k}."""
    flags = []
    theta = 2 * np.pi * np.arange(GENERIC_CIRCLE_SAMPLES) / GENERIC_CIRCLE_SAMPLES
    ring = GENERIC_CIRCLE_RADIUS * np.exp(1j * theta)
    for j in range(1, config.nu + 1):
        labels = set(classify_many(config.a[j - 1] + ring, config, L).tolist())
        k = chains[j - 1][1] if len(chains[j - 1]) > 1 else 0
        flags.append(labels == {j, k})
    return tuple(flags)


def _empty_regions(config: Configuration, L):
    """Labels never attained on a coarse scan grid, for the NonGeneric report."""
    xs = np.linspace(-1.0, 1.0, EMPTY_SCAN_GRID)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    labels = classify_many(X + 1j * Y, config, L)
    seen = set(np.unique(labels).tolist())
    return tuple(j for j in range(1, config.nu + 1) if j not in seen)


def solve_structure(config: Configuration) -> SzegoStructure:
    """Solve levels, derive chains/ell, and check genericity.

    Raises :class:`NonGeneric`, with the empty regions in its report,
    when some singular point does not sit between exactly two regions.
    Once every circle test holds, each label j is seen around a_j, so
    a returned structure has no empty region.
    """
    L = solve_levels(config)
    try:
        chains, levels = compute_chains(config, L)
        generic = _genericity_flags(config, L, chains)
        if not all(generic):
            raise NonGeneric(f"configuration is non-generic: generic={generic}",
                             {"L": tuple(L), "generic": generic})
    except NonGeneric as exc:
        exc.report["empty_regions"] = _empty_regions(config, L)
        raise
    return SzegoStructure(
        config=config,
        L=tuple(L),
        ell=compute_ell(config, chains),
        chains=chains,
        levels=levels,
    )


# ---------------------------------------------------------------------------
# curve extraction


def _bisect_edges(config, L, z1, z2, lab1, lab2, tol):
    """Vectorized bisection of label-changing lattice edges.

    A midpoint showing a third label replaces the far endpoint, so each
    edge converges to some label interface crossing within it.  The
    arrays are updated in place.
    """
    while np.max(np.abs(z2 - z1)) > tol:
        zm = 0.5 * (z1 + z2)
        lm = classify_many(zm, config, L)
        left = lm == lab1
        right = lm == lab2
        other = ~(left | right)
        z1[left] = zm[left]
        z2[right] = zm[right]
        z2[other] = zm[other]
        lab2[other] = lm[other]
    return 0.5 * (z1 + z2), lab1, lab2


def trace_curve(structure: SzegoStructure, grid: int = 400, tol: float = 1e-8) -> CurveSet:
    """Extract the region-boundary curve as label-pair-tagged polylines.

    Lattice nodes over [-1,1]^2 are labeled, every edge whose endpoints
    disagree is bisected down to ``tol``, and the crossing points are
    chained cell by cell.  Arcs end at lattice cells where three or more
    labels meet (recorded in ``triple_points``).  Each arc is oriented
    with its ``j`` region on the left.
    """
    config = structure.config
    L = structure.L
    xs = np.linspace(-1.0, 1.0, grid)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    Z = X + 1j * Y
    labels = classify_many(Z, config, L)

    crossings = {}  # ('h'|'v', i, j) -> (point, la, lb)

    # horizontal edges: (i,j)-(i+1,j); vertical: (i,j)-(i,j+1)
    for axis, key in ((0, "h"), (1, "v")):
        if axis == 0:
            la, lb = labels[:-1, :], labels[1:, :]
            za, zb = Z[:-1, :], Z[1:, :]
        else:
            la, lb = labels[:, :-1], labels[:, 1:]
            za, zb = Z[:, :-1], Z[:, 1:]
        ii, jj = np.nonzero(la != lb)
        if len(ii) == 0:
            continue
        pts, l1, l2 = _bisect_edges(
            config, L, za[ii, jj], zb[ii, jj], la[ii, jj], lb[ii, jj], tol,
        )
        for idx in range(len(ii)):
            crossings[(key, int(ii[idx]), int(jj[idx]))] = (
                complex(pts[idx]), int(l1[idx]), int(l2[idx]),
            )

    # cell-by-cell connectivity
    segments = []  # (edge_key_a, edge_key_b, pair)
    triple_cells = []
    c00, c10 = labels[:-1, :-1], labels[1:, :-1]
    c11, c01 = labels[1:, 1:], labels[:-1, 1:]
    mixed = (c00 != c10) | (c00 != c11) | (c00 != c01)
    ci_all, cj_all = np.nonzero(mixed)
    for ci, cj in zip(ci_all.tolist(), cj_all.tolist()):
        corner_labels = {
            int(labels[ci, cj]), int(labels[ci + 1, cj]),
            int(labels[ci + 1, cj + 1]), int(labels[ci, cj + 1]),
        }
        edge_keys = [
            ("h", ci, cj), ("v", ci + 1, cj), ("h", ci, cj + 1), ("v", ci, cj),
        ]
        present = [k for k in edge_keys if k in crossings]
        if len(corner_labels) >= 3:
            triple_cells.append(complex(Z[ci, cj] + Z[ci + 1, cj + 1]) / 2)
        by_pair: dict[tuple[int, int], list] = {}
        for k in present:
            _, l1, l2 = crossings[k]
            by_pair.setdefault((min(l1, l2), max(l1, l2)), []).append(k)
        for pair, keys in by_pair.items():
            if len(keys) == 2:
                segments.append((keys[0], keys[1], pair))
            elif len(keys) == 4:
                # ambiguous saddle: connect nearest two, then the rest
                keys = sorted(keys)
                p = [crossings[k][0] for k in keys]
                if abs(p[0] - p[1]) + abs(p[2] - p[3]) <= abs(p[0] - p[3]) + abs(p[1] - p[2]):
                    segments.append((keys[0], keys[1], pair))
                    segments.append((keys[2], keys[3], pair))
                else:
                    segments.append((keys[0], keys[3], pair))
                    segments.append((keys[1], keys[2], pair))
            # a single key happens at triple-point cells: the arc ends here

    arcs = _assemble_arcs(crossings, segments, config.a)
    if not arcs:
        raise DegenerateArc("no arcs extracted; raise the grid resolution")
    missing = set(range(1, config.nu + 1)) - {lab for a in arcs for lab in (a.j, a.k)}
    if missing:
        raise DegenerateArc(
            f"region(s) {sorted(missing)} border no arc at grid {grid}; "
            "raise the grid resolution"
        )
    short = [a for a in arcs if len(a.points) < 3]
    if short:
        raise DegenerateArc(
            f"{len(short)} arc(s) collapsed below 3 points at grid {grid}; "
            "raise the grid resolution"
        )
    return CurveSet(arcs=tuple(arcs), triple_points=tuple(triple_cells))


def _assemble_arcs(crossings, segments, a):
    adjacency: dict[tuple, list] = {}
    for ka, kb, pair in segments:
        adjacency.setdefault((pair, ka), []).append(kb)
        adjacency.setdefault((pair, kb), []).append(ka)

    visited = set()
    polylines = []  # (pair, [edge keys])
    nodes = sorted(adjacency.keys())
    # open paths first (endpoints have degree 1), then cycles
    for start in [n for n in nodes if len(adjacency[n]) == 1] + nodes:
        if start in visited:
            continue
        pair = start[0]
        path = [start[1]]
        visited.add(start)
        cur = start
        while True:
            nxt = [k for k in adjacency[cur] if (pair, k) not in visited]
            if not nxt:
                break
            cur = (pair, nxt[0])
            visited.add(cur)
            path.append(cur[1])
        if len(path) >= 2:
            polylines.append((pair, path))

    arcs = []
    for pair, path in polylines:
        pts = np.array([crossings[k][0] for k in path], dtype=complex)
        pts = _oriented(pts, pair, a)
        arcs.append(Arc(j=pair[0], k=pair[1], points=pts))
    arcs.sort(key=lambda a: (a.j, a.k, a.points[0].real, a.points[0].imag))
    return arcs


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
