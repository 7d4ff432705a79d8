"""Multivalued powers with fixed cuts and the phase bookkeeping.

Every power ``(z - a_j)^(c_j)`` carries a ray cut; the whole calculus is
reduced to one primitive: a complex logarithm whose argument lies in the
window ``(phi - 2*pi, phi]`` so that the discontinuity sits exactly on
the ray of direction ``phi``.  Conventions used throughout:

* the radial cut of ``(z - a_j)^(c_j)`` starts at ``a_j`` and points away
  from the origin (direction ``arg a_j``); rays are oriented outward and
  their ``+`` side is the left side of that direction of travel;
* crossing a cut from the - side to the + side multiplies the power by
  ``eta_j = exp(-2*pi*i*c_j)``;
* the re-cut variant anchored on the a_k ray (``pow_a_Bk``) moves the
  discontinuity to the ray from ``a_j`` pointing away from ``a_k``; its
  window is that ray's angle lifted into ``[arg a_j - pi, arg a_j + pi)``,
  which makes it agree with the plain power on the whole ray through
  ``a_k``;
* the phase constant ``eta_tilde(k, j)`` is a whole number of turns,
  ``exp(2*pi*i*sum(c_m*n_m))``, with ``n_m`` the turns between the two
  windows of point m at ``a_j``.

Points within ``ONCUT_TOL`` of a relevant cut raise :class:`OnCut`.  The
distance comes from the residue that moves an argument into its window:
for ``w = z - origin`` and ``r = (phi - arg w) mod 2*pi`` it is
``|w| sin(min(r, 2*pi - r, pi/2))``.  The powers here and the logarithmic
terms of :mod:`.asym` share that one test (:func:`window_arg`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import Configuration

__all__ = ["OnCut", "BranchContext"]

ONCUT_TOL = 1e-12


class OnCut(Exception):
    """Evaluation point is within ONCUT_TOL of a branch cut."""


TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


def arg_cut(phase: float, phi: float) -> float:
    """A principal argument moved into the window (phi - 2*pi, phi]."""
    return phi - (phi - phase) % TWO_PI


def window_arg(z: complex, w_abs: float, w_phase: float, phi: float, what: str) -> float:
    """The argument of w in the window (phi - 2*pi, phi], off its cut.

    ``w = z - origin`` has modulus ``w_abs`` and principal argument
    ``w_phase``; the cut is the ray from the origin in direction ``phi``.
    The window residue ``r = (phi - w_phase) mod 2*pi`` also gives the
    distance from z to that ray, ``|w| sin(min(r, 2*pi - r, pi/2))``;
    within ONCUT_TOL it raises :class:`OnCut`.
    """
    r = (phi - w_phase) % TWO_PI
    angle = r if r < math.pi else TWO_PI - r    # between w and the ray
    if w_abs * (math.sin(angle) if angle < HALF_PI else 1.0) <= ONCUT_TOL:
        raise OnCut(f"{z} lies on {what}")
    return phi - r


@dataclass(frozen=True)
class BranchContext:
    """All cut geometry and branch windows for one configuration.

    ``branch_shift[j]`` rotates the free overall branch of the j-th
    power by ``exp(-2*pi*i*c_j*shift)``; results of the full asymptotic
    formulas are phase-covariant under it (moduli unchanged), which the
    test suite exercises.
    """

    config: Configuration
    branch_shift: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.branch_shift:
            object.__setattr__(self, "branch_shift", (0,) * self.config.nu)
        if len(self.branch_shift) != self.config.nu:
            raise ValueError("branch_shift length must equal nu")
        # caches, not fields: the constructor cannot set them.  The cut
        # angle of point j in the k branch system: arg a_j for k == j, else
        # arg(a_j - a_k) lifted into [arg a_j - pi, arg a_j + pi), so that
        # both windows hold the whole a_k ray, which meets neither cut
        a = self.config.a
        angles = {}
        for j, aj in enumerate(a, start=1):
            phi = cmath.phase(aj)
            for k, ak in enumerate(a, start=1):
                angles[(j, k)] = phi if j == k else \
                    phi - math.pi + (cmath.phase(aj - ak) - phi + math.pi) % TWO_PI
        object.__setattr__(self, "_cut_angle", angles)
        # the windows each regional term reads, as (m, c, cut angle, branch
        # turns, cut name) for a power w^c read by w = z (m = 0) or
        # w = z - a_m: system 0 holds the radial window of every point
        # j = 1..nu in order, read by z; system k the k-anchored windows of
        # the other points
        c = self.config.c
        windows = [tuple((0, c[j - 1], angles[(j, j)], 0.0, f"the radial cut through point {j}")
                         for j in range(1, len(a) + 1))]
        for k in range(1, len(a) + 1):
            windows.append(tuple(
                (j, c[j - 1], angles[(j, k)], TWO_PI * self.branch_shift[j - 1],
                 f"the cut of point {j} re-anchored at {k}")
                for j in range(1, len(a) + 1) if j != k))
        object.__setattr__(self, "windows", tuple(windows))

    # -- primitive powers ----------------------------------------------

    def _power(self, z: complex, w: complex, j: int, phi: float, what: str) -> complex:
        w_abs = abs(w)
        arg = window_arg(z, w_abs, cmath.phase(w), phi, what) \
            - TWO_PI * self.branch_shift[j - 1]
        return cmath.exp(self.config.c[j - 1] * complex(math.log(w_abs), arg))

    def pow_a(self, z: complex, j: int) -> complex:
        """(z - a_j)^(c_j), cut on the outward ray from a_j."""
        aj = self.config.a[j - 1]
        return self._power(z, z - aj, j, self._cut_angle[(j, j)],
                           f"the outward cut of point {j}")

    def pow_z(self, z: complex, j: int) -> complex:
        """z^(c_j), cut on the full radial ray through a_j.

        The branch is tied to :meth:`pow_a` by the same argument window,
        which makes ``pow_a(z, j)/pow_z(z, j) -> 1`` at infinity in every
        direction off the cut.
        """
        return self._power(z, complex(z), j, self._cut_angle[(j, j)],
                           f"the radial cut through point {j}")

    # -- re-cut powers ---------------------------------------------------

    def pow_a_Bk(self, z: complex, j: int, k: int) -> complex:
        """(z - a_j)^(c_j) continued so it matches pow_a on the a_k ray.

        The cut moves to the ray from a_j pointing away from a_k.  For
        j == k this is pow_a itself.
        """
        if j == k:
            return self.pow_a(z, j)
        aj = self.config.a[j - 1]
        return self._power(z, z - aj, j, self._cut_angle[(j, k)],
                           f"the cut of point {j} re-anchored at {k}")

    # -- phase constants ----------------------------------------------------

    def eta_tilde(self, k: int, j: int) -> complex:
        """The unit-modulus constant comparing the j and k branch systems.

        It is ``[B_jk/A_j] * [W_j/W_k]`` on the cut from a_j away from a_k,
        with ``W_k`` the product of the k-anchored powers.  The a_j powers
        cancel and every other power is continuous up to a_j, where the
        two windows of point m differ by ``n_m`` whole turns; the sum
        ``sum(c_m * n_m)`` is reduced by whole turns before ``exp``.
        """
        aj = self.config.a[j - 1]
        turns = 0.0
        for m in range(1, self.config.nu + 1):
            if m != j:
                phase = cmath.phase(aj - self.config.a[m - 1])
                d = arg_cut(phase, self._cut_angle[(m, j)]) \
                    - arg_cut(phase, self._cut_angle[(m, k)])
                turns += self.config.c[m - 1] * round(d / TWO_PI)
        return cmath.exp(2j * math.pi * (turns - round(turns)))
