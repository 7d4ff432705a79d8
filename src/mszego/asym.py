"""Strong-asymptotics evaluators for the orthogonal polynomials.

Away from the curve the polynomial is approximated by a single closed
form per region: the outer region uses ``z^(n + sum c) / W(z)``, a
bounded region j uses an exponential plane wave times the chain
constant divided by the simple pole at a_j.  Near the curve the valid
terms are summed; near a singular point the regional form is corrected
by the truncated-exponential factor in the local zooming coordinate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .branches import BranchContext
from .core import Configuration
from .specfun import FcEvaluator
from .szego import SzegoStructure, classify, solve_structure

__all__ = ["AsymptoticModel", "ChainConstantOutOfRange", "build_model", "chain_constant"]

DISK_RADIUS_FACTOR = 0.3
DEFAULT_TAU = 40.0


def _gamma(x: float) -> np.float64:
    # a numpy float64: a Python float would change the complex division by it
    # and move the bits of the chain constants
    return np.float64(math.gamma(x))


class ChainConstantOutOfRange(ArithmeticError):
    """A chain constant is zero or not finite in double precision."""


@dataclass(frozen=True)
class AsymptoticModel:
    """Everything needed to evaluate the asymptotic formulas at a point."""

    config: Configuration
    structure: SzegoStructure
    branch: BranchContext
    chain_const: tuple[complex, ...]
    fc: tuple[FcEvaluator, ...]
    disk_radii: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def N(self) -> float:
        return self.config.N

    def classify(self, z: complex) -> int:
        return classify(z, self.structure)

    # -- regional terms -----------------------------------------------------

    def eval_region(self, z: complex, label: int | None = None) -> complex:
        """The label's closed form, evaluable wherever its own cuts allow.

        The label defaults to classify(z).  A bounded region j carries the
        plane wave exp(N (conj(a_j) z + ell_j)).
        """
        if label is None:
            label = self.classify(z)
        if label == 0:
            out = complex(z) ** self.n
            for j in range(1, self.config.nu + 1):
                out *= self.branch.ratio_pow(z, j)
            return out
        j = label
        aj = self.config.a[j - 1]
        denom = z - aj
        for i in range(1, self.config.nu + 1):
            if i != j:
                denom *= self.branch.pow_a_Bk(z, i, j)
        wave = cmath.exp(self.N * (aj.conjugate() * z + self.structure.ell[j - 1]))
        return -wave * self.chain_const[j - 1] / denom

    def eval_uniform(self, z: complex, tau: float = DEFAULT_TAU) -> complex:
        """Sum of all terms within exp(-tau) of the dominant one.

        Valid off the cuts and away from the singular points; near an
        interface exactly the two interface terms survive the cut, deep
        inside a region only its own term does.
        """
        terms = [self.eval_region(z, lab) for lab in range(self.config.nu + 1)]
        top = max(abs(t) for t in terms)
        if top == 0.0:
            return 0.0 + 0j
        thresh = math.exp(-tau) * top
        return sum(t for t in terms if abs(t) >= thresh)

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

        The parenthesized entire combination keeps the value continuous
        across the local coordinate's negative axis.
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
        A = self.eval_region(z, k)
        return A * zeta ** cj * cmath.exp(-zeta) * self.fc[j - 1].entire(zeta)

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
