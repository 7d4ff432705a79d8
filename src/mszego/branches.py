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
* the re-cut variant anchored on the a_k ray (``pow_a_Bk``) agrees with
  the plain power on the whole ray through ``a_k`` and moves the
  discontinuity to the ray from ``a_j`` pointing away from ``a_k``.

Points within ``ONCUT_TOL`` of a relevant cut raise :class:`OnCut`;
callers needing boundary values offset by ~1e-8 to a chosen side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Configuration

__all__ = ["OnCut", "BranchContext"]

ONCUT_TOL = 1e-12
SIDE_OFFSET = 1e-8   # conventional boundary-value offset for callers


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
    """All cut geometry and branch anchors for one configuration.

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
        # a cache, not a field: the constructor cannot set it
        object.__setattr__(self, "_anchor_phase", {})
        for j in range(1, self.config.nu + 1):
            for k in range(1, self.config.nu + 1):
                if j != k:
                    self._anchor_phase[(j, k)] = self._compute_anchor_phase(j, k)

    # -- monodromy ----------------------------------------------------

    @property
    def eta(self) -> tuple[complex, ...]:
        """Monodromy factors exp(-2*pi*i*c_j)."""
        return tuple(cmath.exp(-2j * math.pi * cj) for cj in self.config.c)

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

    def _anchor_point(self, j: int, k: int) -> complex:
        """A point of the a_k ray well clear of the cuts tied to (j, k)."""
        a = self.config.a
        aj, ak = a[j - 1], a[k - 1]
        best, best_score = 0.5 * ak, -1.0
        for t in np.linspace(0.15, 0.95, 17):
            p = t * ak
            score = min(
                _ray_distance(p, aj, aj),
                _ray_distance(p, aj, aj - ak),
            )
            if score > best_score:
                best, best_score = p, score
        return best

    def _compute_anchor_phase(self, j: int, k: int) -> complex:
        p = self._anchor_point(j, k)
        aj = self.config.a[j - 1]
        base = self._power(p - aj, self.config.c[j - 1],
                           cmath.phase(aj - self.config.a[k - 1]), 0)
        return self.pow_a(p, j) / base

    def pow_a_Bk(self, z: complex, j: int, k: int) -> complex:
        """(z - a_j)^(c_j) continued so it matches pow_a on the a_k ray.

        The cut moves to the ray from a_j pointing away from a_k.  For
        j == k this is pow_a itself.
        """
        if j == k:
            return self.pow_a(z, j)
        aj = self.config.a[j - 1]
        ak = self.config.a[k - 1]
        self._check_ray(z, aj, aj - ak, f"the cut of point {j} re-anchored at {k}")
        base = self._power(z - aj, self.config.c[j - 1], cmath.phase(aj - ak), 0)
        return self._anchor_phase[(j, k)] * base

    # -- products ----------------------------------------------------------

    def eval_W(self, z: complex) -> complex:
        """Product of all plain powers; cuts on every outward ray."""
        out = 1.0 + 0j
        for j in range(1, self.config.nu + 1):
            out *= self.pow_a(z, j)
        return out

    def eval_Wk(self, z: complex, k: int) -> complex:
        """Product of the k-anchored powers; cuts on the k cut system."""
        out = 1.0 + 0j
        for j in range(1, self.config.nu + 1):
            out *= self.pow_a_Bk(z, j, k)
        return out

    # -- phase constants ----------------------------------------------------

    def eta_tilde(self, k: int, j: int) -> complex:
        """The unit-modulus constant comparing the j and k branch systems.

        Evaluated just off the cut from a_j away from a_k, on its + side;
        the value is independent of the sample point, which the tests
        check by sampling along the cut.
        """
        return self._eta_tilde_at(k, j, self._eta_tilde_point(k, j))

    def _eta_tilde_point(self, k: int, j: int, t: float | None = None) -> complex:
        a = self.config.a
        aj, ak = a[j - 1], a[k - 1]
        d = aj - ak
        u = d / abs(d)
        if t is None:
            # stay inside |z| <= 2 and clear of unrelated cuts
            t_cap = max(0.1, min(1.0, (2.0 - abs(aj)) / abs(d)))
            cand = [f * t_cap for f in (0.5, 0.35, 0.65, 0.2, 0.8)]
            others = [(a[m - 1], a[m - 1]) for m in range(1, self.config.nu + 1)]
            others += [(a[m - 1], a[m - 1] - ak) for m in range(1, self.config.nu + 1)
                       if m not in (j, k)]
            others += [(a[m - 1], a[m - 1] - aj) for m in range(1, self.config.nu + 1)
                       if m != j]

            def clearance(tv):
                p = aj + d * tv
                return min(_ray_distance(p, o, v) for o, v in others)

            t = max(cand, key=clearance)
        return aj + d * t + SIDE_OFFSET * 1j * u

    def _eta_tilde_at(self, k: int, j: int, z: complex) -> complex:
        return (self.pow_a_Bk(z, j, k) / self.pow_a(z, j)) \
            * (self.eval_Wk(z, j) / self.eval_Wk(z, k))
