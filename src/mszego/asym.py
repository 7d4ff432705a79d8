"""Strong-asymptotics evaluators for the orthogonal polynomials.

Away from the curve the polynomial is approximated by a single closed
form per region: the outer region uses ``z^(n + sum c) / W(z)``, a
bounded region j uses an exponential plane wave times the chain
constant divided by the simple pole at a_j.  Near the curve the valid
terms are summed; near a singular point the regional form is corrected
by the truncated-exponential factor in the local zooming coordinate.

Every term is formed as one complex logarithm,

    log T_0 = n log z + sum_j c_j (log z - log(z - a_j)),
    log T_j = log(-C_j) + N (conj(a_j) z + ell_j) - log(z - a_j)
              - sum_{i != j} c_i log(z - a_i),

from one modulus and one principal phase of z and of each z - a_i per
point.  The arguments of T_0 lie in the radial windows of
:mod:`.branches`, those of T_j in its j-anchored windows; the residue
that moves an argument into its window also gives the distance to the
window's cut, and a point within ONCUT_TOL of a cut that its term reads
raises OnCut.  Only the terms that are kept are exponentiated; one whose
modulus passes the double range raises :class:`TermOutOfRange`.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .branches import BranchContext, arg_cut, window_arg
from .core import Configuration
from .specfun import FcEvaluator
from .szego import SzegoStructure, classify, solve_structure

__all__ = ["AsymptoticModel", "ChainConstantOutOfRange", "TermOutOfRange", "build_model",
           "chain_constant"]

DISK_RADIUS_FACTOR = 0.3
DEFAULT_TAU = 40.0
LOG_MAX = math.log(sys.float_info.max)  # the largest real part exp keeps finite


def _gamma(x: float) -> np.float64:
    # a numpy float64: a Python float would change the complex division by it
    # and move the bits of the chain constants
    return np.float64(math.gamma(x))


class ChainConstantOutOfRange(ArithmeticError):
    """A chain constant is zero or not finite in double precision."""


class TermOutOfRange(ArithmeticError):
    """A kept term's modulus at the point exceeds the double range."""


def _exp(z: complex, log_t: complex) -> complex:
    """The term exp(log_t) at z, refused past the double range."""
    if log_t.real > LOG_MAX:
        raise TermOutOfRange(
            f"a term at {z} has modulus exp({log_t.real:.6g}), past the double range")
    return cmath.exp(log_t)


@dataclass(frozen=True)
class AsymptoticModel:
    """Everything needed to evaluate the asymptotic formulas at a point."""

    config: Configuration
    structure: SzegoStructure
    branch: BranchContext
    chain_const: tuple[complex, ...]
    fc: tuple[FcEvaluator, ...]
    disk_radii: tuple[float, ...]

    def __post_init__(self):
        # a cache, not a field: per bounded label j, the constant and the
        # slope of log(-C_j) + N (conj(a_j) z + ell_j)
        N = self.N
        object.__setattr__(self, "_plane", tuple(
            (cmath.log(-C) + N * ell, N * aj.conjugate())
            for C, aj, ell in zip(self.chain_const, self.config.a, self.structure.ell)))

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def N(self) -> float:
        return self.config.N

    def classify(self, z: complex) -> int:
        return classify(z, self.structure)

    # -- regional terms -----------------------------------------------------

    def _log_terms(self, z: complex, labels) -> list[complex]:
        """log T_k(z) for each label k, from one modulus and phase per z and z - a_i.

        Every window is read, and checked against its cut, before any
        logarithm is taken: a point on a cut raises OnCut even where one of
        the moduli is 0, and z = a_k, the pole of term k, raises ValueError.
        """
        windows = self.branch.windows
        pts = [z]                               # z, z - a_1, ..., z - a_nu
        for ai in self.config.a:
            pts.append(z - ai)
        mods = list(map(abs, pts))
        phases = list(map(cmath.phase, pts))
        # c times the windowed argument, for each window of each label in turn
        c_args = [c * (window_arg(z, mods[m], phases[m], phi, what) - turns)
                  for k in labels for m, c, phi, turns, what in windows[k]]
        log_w = list(map(math.log, mods[1:]))   # log|z - a_j| at j - 1
        out = []
        i = 0
        for k in labels:
            if k == 0:
                # n log z + sum_j c_j (log z - log(z - a_j)), radial windows
                log_z = math.log(mods[0])
                re = self.config.n * log_z
                im = self.config.n * phases[0]
                for j, (_, c, phi, _, _) in enumerate(windows[0], start=1):
                    re += c * (log_z - log_w[j - 1])
                    im += c_args[i] - c * arg_cut(phases[j], phi)
                    i += 1
                out.append(complex(re, im))
            else:
                # log(-C_k) + N (conj(a_k) z + ell_k) - log(z - a_k)
                #   - sum_{m != k} c_m log(z - a_m), k-anchored windows
                const, slope = self._plane[k - 1]
                re = log_w[k - 1]
                for m, c, _, _, _ in windows[k]:
                    re += c * log_w[m - 1]
                i_end = i + len(windows[k])
                im = phases[k] + sum(c_args[i:i_end])
                i = i_end
                out.append(const + slope * z - complex(re, im))
        return out

    def eval_region(self, z: complex, label: int | None = None) -> complex:
        """The label's closed form, evaluable wherever its own cuts allow.

        The label defaults to classify(z).  A bounded region j carries the
        plane wave exp(N (conj(a_j) z + ell_j)).
        """
        if label is None:
            label = self.classify(z)
        return _exp(z, self._log_terms(z, (label,))[0])

    def eval_uniform(self, z: complex, tau: float = DEFAULT_TAU) -> complex:
        """Sum of all terms within exp(-tau) of the dominant one.

        Valid off the cuts and away from the singular points; near an
        interface exactly the two interface terms survive the cut, deep
        inside a region only its own term does.  Only the kept terms are
        exponentiated.
        """
        logs = self._log_terms(z, range(self.config.nu + 1))
        top = max([t.real for t in logs])
        out = 0j
        for t in logs:
            if t.real >= top - tau:
                out += _exp(z, t)
        return out

    # -- local coordinate and formula ---------------------------------------

    def zeta_map(self, z: complex, j: int) -> complex:
        """Local zooming coordinate at a_j, determined by the arrow j -> k."""
        aj = self.config.a[j - 1]
        k = self.structure.arrow(j)
        N = self.N
        if k == 0:
            # -N(conj(a_j) z - log z + log a_j - |a_j|^2), log branch local to a_j
            return -N * (aj.conjugate() * z - abs(aj) ** 2 - cmath.log(z / aj))
        ak = self.config.a[k - 1]
        return -N * (aj.conjugate() - ak.conjugate()) * (z - aj)

    def zeta_inverse(self, zeta: complex, j: int) -> complex:
        """Point with the given local coordinate (Newton for the log case)."""
        aj = self.config.a[j - 1]
        k = self.structure.arrow(j)
        N = self.N
        if k != 0:
            ak = self.config.a[k - 1]
            return aj - zeta / (N * (aj.conjugate() - ak.conjugate()))
        z = aj + zeta * aj / (N * (1.0 - abs(aj) ** 2))
        for _ in range(60):
            f = self.zeta_map(z, j) - zeta
            df = -N * (aj.conjugate() - 1.0 / z)
            step = f / df
            z = z - step
            if abs(step) < 1e-14 * (1.0 + abs(z)):
                break
        return z

    def eval_local(self, z: complex, j: int) -> complex:
        """Near-a_j form: neighbor term times the truncated-exponential factor.

        It is ``exp(log T_k + c_j log zeta - zeta) E_c(zeta)``, with T_k the
        term of the arrow's target k and the principal log of zeta; the
        entire E_c keeps the value continuous across the local coordinate's
        negative axis.
        """
        k = self.structure.arrow(j)
        zeta = self.zeta_map(z, j)
        cj = self.config.c[j - 1]
        if zeta == 0:
            # the power factor wins against the finite entire part
            if cj > 0:
                return 0.0 + 0j
            raise ValueError(
                f"the local form diverges at a_{j} for negative exponents")
        log_t = self._log_terms(z, (k,))[0] + cj * cmath.log(zeta) - zeta
        try:
            entire = self.fc[j - 1].entire(zeta)
        except OverflowError as exc:
            raise TermOutOfRange(
                f"E_c at the local coordinate {zeta} of {z} is past the double range") from exc
        return _exp(z, log_t) * entire

    def disk_radius(self, j: int) -> float:
        return self.disk_radii[j - 1]


def chain_constant(config: Configuration, structure: SzegoStructure,
                   branch: BranchContext, j: int) -> complex:
    """The constant product along the chain of a_j.

    The tail point of the chain (the one whose region touches the outer
    one) contributes a Gamma-and-power factor; every arrow contributes
    a phase constant, two branched powers and a modulus power.
    """
    ch = structure.chains[j - 1]
    a = config.a
    c = config.c
    N = config.N
    k1 = ch[-1]
    a1 = a[k1 - 1]
    mu = sum(c[k - 1] - 1.0 for k in ch)
    lead = a1
    for i in range(1, config.nu + 1):
        if i != k1:
            lead *= branch.pow_z(a1, i)
    lead *= N ** mu / (_gamma(c[k1 - 1]) * (1.0 - abs(a1) ** 2) ** (1.0 - c[k1 - 1]))

    out = lead
    for t in range(len(ch) - 1):
        hi, lo = ch[t], ch[t + 1]       # arrow hi -> lo
        ahi, alo = a[hi - 1], a[lo - 1]
        out *= branch.eta_tilde(lo, hi)
        out *= branch.pow_a(ahi, lo)    # (a_hi - a_lo)^(c_lo)
        out *= abs(alo - ahi) ** (2.0 * (c[hi - 1] - 1.0))
        out /= _gamma(c[hi - 1]) * branch.pow_a(alo, hi)
    return out


def build_model(config: Configuration,
                structure: SzegoStructure | None = None,
                branch: BranchContext | None = None) -> AsymptoticModel:
    if structure is None:
        structure = solve_structure(config)
    if branch is None:
        branch = BranchContext(config)
    try:
        with np.errstate(over="raise"):
            consts = tuple(chain_constant(config, structure, branch, j)
                           for j in range(1, config.nu + 1))
    except (OverflowError, FloatingPointError) as exc:
        raise ChainConstantOutOfRange(f"a chain constant overflows: {exc}") from exc
    for j, v in enumerate(consts, start=1):
        if v == 0 or not cmath.isfinite(v):
            raise ChainConstantOutOfRange(
                f"chain constant {j} is {v}, outside the double range")
    fcs = tuple(FcEvaluator(cj) for cj in config.c)
    radii = []
    for j, aj in enumerate(config.a, start=1):
        d = min([abs(aj - ak) for k, ak in enumerate(config.a, start=1) if k != j]
                + [abs(aj), 1.0 - abs(aj)])
        radii.append(DISK_RADIUS_FACTOR * d)
    return AsymptoticModel(config=config, structure=structure, branch=branch,
                           chain_const=consts, fc=fcs, disk_radii=tuple(radii))
