"""Problem configuration, validation and JSON I/O.

A problem instance is a finite set of singular points ``a_j`` inside the
unit disk, real exponents ``c_j`` attached to them, a polynomial degree
``n`` and a scale parameter ``N``.  The planar weight they define is

    exp(-N|z|^2) * prod_j |z - a_j|^(2 c_j)

and everything downstream (curve geometry, asymptotics, the moment
oracle) consumes a validated, immutable :class:`Configuration`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

__all__ = [
    "Configuration",
    "ConfigError",
    "OriginSingularity",
    "OutsideDisk",
    "DuplicatePoint",
    "CollinearTriple",
    "BadExponent",
    "MAX_EXPONENT",
    "validate_config",
    "config_from_json",
    "config_to_json",
]

# Scaled-area threshold below which a triple counts as collinear.
COLLINEAR_TOL = 1e-10
# Two singular points closer than this are considered duplicates.
DUPLICATE_TOL = 1e-12
# Largest exponent.  Past it the series for E_c needs 1/Gamma(c + k + 1) beyond
# c + k = 170, where it is subnormal or 0: at c = 90 E_c is 2.5e-11 off on the
# rim |z| = 5 + c of the series disk (3.6e-13 at c = 85).
MAX_EXPONENT = 85.0


class ConfigError(ValueError):
    """Base class for configuration rejections."""


class OriginSingularity(ConfigError):
    """Some a_j coincides with the origin."""


class OutsideDisk(ConfigError):
    """Some a_j lies on or outside the unit circle."""


class DuplicatePoint(ConfigError):
    """Two singular points coincide."""


class CollinearTriple(ConfigError):
    """Three of {0, a_1, ..., a_nu} are collinear."""


class BadExponent(ConfigError):
    """Some exponent is <= -1, exactly 0 or above MAX_EXPONENT."""


@dataclass(frozen=True)
class Configuration:
    """Validated problem data.

    Immutable after construction; safe to share across threads.  Use
    :func:`validate_config` rather than constructing directly, so that
    the invariants below are guaranteed:

    * every ``|a_j| < 1`` and ``a_j != 0``, pairwise distinct,
    * every ``-1 < c_j <= MAX_EXPONENT`` and ``c_j != 0``,
    * no three of ``{0, a_1, ..., a_nu}`` collinear,
    * ``n >= 0`` integer, ``N > 0`` (defaulted to ``n`` when absent).
    """

    a: tuple[complex, ...]
    c: tuple[float, ...]
    n: int
    N: float | None = None

    @property
    def nu(self) -> int:
        return len(self.a)

    def replace_degree(self, n: int, N: float | None = None) -> "Configuration":
        """Same weight data at another degree, validated; N defaults to n again."""
        return validate_config(Configuration(self.a, self.c, n, n if N is None else N))


def _triple_is_collinear(p1: complex, p2: complex, p3: complex) -> bool:
    area2 = abs((p2 - p1).real * (p3 - p1).imag - (p2 - p1).imag * (p3 - p1).real)
    span = max(abs(p2 - p1), abs(p3 - p1), abs(p3 - p2))
    return area2 * 0.5 < COLLINEAR_TOL * span * span


def validate_config(raw: Configuration) -> Configuration:
    """Check all invariants and return the normalized configuration.

    Idempotent: a valid configuration is returned unchanged (up to the
    N-defaulting already applied).  Raises a subclass of
    :class:`ConfigError` naming the violated invariant otherwise.
    """
    a = tuple(complex(z) for z in raw.a)
    c = tuple(float(x) for x in raw.c)
    if len(a) != len(c):
        raise ConfigError(f"got {len(a)} points but {len(c)} exponents")
    if len(a) == 0:
        raise ConfigError("at least one singular point is required")
    n = int(raw.n)
    if n != raw.n or n < 0:
        raise ConfigError(f"degree must be a nonnegative integer, got {raw.n!r}")
    N = float(raw.N) if raw.N is not None else float(n)
    if not (math.isfinite(N) and N > 0):
        raise ConfigError(f"scale parameter must be positive and finite, got {N!r}")

    for j, z in enumerate(a):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ConfigError(f"a[{j}] has non-finite components")
        if z == 0:
            raise OriginSingularity(f"a[{j}] is at the origin")
        if abs(z) >= 1.0:
            raise OutsideDisk(f"a[{j}]={z} is not strictly inside the unit disk")
    for j in range(len(a)):
        for k in range(j + 1, len(a)):
            if abs(a[j] - a[k]) <= DUPLICATE_TOL:
                raise DuplicatePoint(f"a[{j}] and a[{k}] coincide")
    for j, x in enumerate(c):
        if not math.isfinite(x) or x <= -1.0:
            raise BadExponent(f"c[{j}]={x} must be > -1")
        if x == 0.0:
            raise BadExponent(f"c[{j}] is zero")
        if x > MAX_EXPONENT:
            raise BadExponent(f"c[{j}]={x} exceeds {MAX_EXPONENT:g}")

    pts = (0j,) + a
    m = len(pts)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                if _triple_is_collinear(pts[i], pts[j], pts[k]):
                    raise CollinearTriple(
                        f"points {pts[i]}, {pts[j]}, {pts[k]} of {{0, a_*}} are collinear"
                    )

    return Configuration(a=a, c=c, n=n, N=N)


def config_from_json(doc: Any) -> Configuration:
    """Build and validate a configuration from a parsed JSON document.

    Expected schema: ``{"a": [[re, im], ...], "c": [...], "n": int,
    "N": number (optional)}``.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    try:
        a = tuple(complex(float(p[0]), float(p[1])) for p in doc["a"])
        c = tuple(float(x) for x in doc["c"])
        n = doc["n"]
        N = None if doc.get("N") is None else float(doc["N"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigError(f"malformed configuration document: {exc}") from exc
    return validate_config(Configuration(a=a, c=c, n=n, N=N))


def config_to_json(cfg: Configuration) -> dict:
    return {
        "a": [[z.real, z.imag] for z in cfg.a],
        "c": list(cfg.c),
        "n": cfg.n,
        "N": cfg.N,
    }


def load_config(path: str) -> Configuration:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    return config_from_json(doc)
