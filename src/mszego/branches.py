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

Points within ``ONCUT_TOL`` of a relevant cut raise :class:`OnCut`.
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


def _arg_cut(w: complex, phi: float) -> float:
    """Argument of w in the half-open window (phi - 2*pi, phi]."""
    return phi - (phi - cmath.phase(w)) % (2.0 * math.pi)


def _ray_distance(z: complex, origin: complex, direction: complex) -> float:
    """Distance from z to the ray origin + t*direction, t >= 0."""
    d = direction / abs(direction)
    w = z - origin
    t = (w * d.conjugate()).real
    if t <= 0.0:
        return abs(w)
    return abs(w - t * d)


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
        # a cache, not a field: the constructor cannot set it.  The cut
        # angle of point j in the k branch system: arg a_j for k == j, else
        # arg(a_j - a_k) lifted into [arg a_j - pi, arg a_j + pi), so that
        # both windows hold the whole a_k ray, which meets neither cut
        a = self.config.a
        angles = {}
        for j, aj in enumerate(a, start=1):
            phi = cmath.phase(aj)
            for k, ak in enumerate(a, start=1):
                angles[(j, k)] = phi if j == k else \
                    phi - math.pi + (cmath.phase(aj - ak) - phi + math.pi) % (2.0 * math.pi)
        object.__setattr__(self, "_cut_angle", angles)

    # -- primitive powers ----------------------------------------------

    def _power(self, w: complex, cj: float, phi: float, shift: int) -> complex:
        arg = _arg_cut(w, phi) - 2.0 * math.pi * shift
        return cmath.exp(cj * complex(math.log(abs(w)), arg))

    def _check_ray(self, z: complex, origin: complex, direction: complex, what: str):
        if _ray_distance(z, origin, direction) <= ONCUT_TOL:
            raise OnCut(f"{z} lies on {what}")

    def pow_a(self, z: complex, j: int) -> complex:
        """(z - a_j)^(c_j), cut on the outward ray from a_j."""
        aj = self.config.a[j - 1]
        self._check_ray(z, aj, aj, f"the outward cut of point {j}")
        return self._power(z - aj, self.config.c[j - 1], cmath.phase(aj),
                           self.branch_shift[j - 1])

    def pow_z(self, z: complex, j: int) -> complex:
        """z^(c_j), cut on the full radial ray through a_j.

        The branch is tied to :meth:`pow_a` by the same argument window,
        which makes ``pow_a(z, j)/pow_z(z, j) -> 1`` at infinity in every
        direction off the cut.
        """
        aj = self.config.a[j - 1]
        self._check_ray(z, 0j, aj, f"the radial cut through point {j}")
        return self._power(z, self.config.c[j - 1], cmath.phase(aj),
                           self.branch_shift[j - 1])

    def ratio_pow(self, z: complex, j: int) -> complex:
        """z^(c_j) / (z - a_j)^(c_j), analytic off the segment [0, a_j].

        The two cuts on the outward ray cancel; computing the argument
        difference inside one exponential keeps the cancellation exact
        near that ray.
        """
        aj = self.config.a[j - 1]
        # the true cut is only the segment [0, a_j], but points within
        # ONCUT_TOL of the outward part can desynchronize the two
        # argument windows, so the whole radial ray is guarded
        self._check_ray(z, 0j, aj, f"the radial ray through point {j}")
        phi = cmath.phase(aj)
        cj = self.config.c[j - 1]
        d_arg = _arg_cut(z, phi) - _arg_cut(z - aj, phi)
        return cmath.exp(cj * complex(math.log(abs(z)) - math.log(abs(z - aj)), d_arg))

    # -- re-cut powers ---------------------------------------------------

    def pow_a_Bk(self, z: complex, j: int, k: int) -> complex:
        """(z - a_j)^(c_j) continued so it matches pow_a on the a_k ray.

        The cut moves to the ray from a_j pointing away from a_k.  For
        j == k this is pow_a itself.
        """
        if j == k:
            return self.pow_a(z, j)
        aj = self.config.a[j - 1]
        self._check_ray(z, aj, aj - self.config.a[k - 1],
                        f"the cut of point {j} re-anchored at {k}")
        return self._power(z - aj, self.config.c[j - 1], self._cut_angle[(j, k)],
                           self.branch_shift[j - 1])

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
                w = aj - self.config.a[m - 1]
                d = _arg_cut(w, self._cut_angle[(m, j)]) - _arg_cut(w, self._cut_angle[(m, k)])
                turns += self.config.c[m - 1] * round(d / (2.0 * math.pi))
        return cmath.exp(2j * math.pi * (turns - round(turns)))
