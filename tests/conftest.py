import math

import pytest
from hypothesis import HealthCheck, settings

from mszego.core import Configuration, validate_config

settings.register_profile(
    "ci", max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow], derandomize=True,
)
settings.load_profile("ci")

A1 = 1 / math.sqrt(2)


@pytest.fixture(scope="session")
def cfg_single():
    """One real singular point, unit exponent (the classic picture)."""
    return validate_config(Configuration(a=(A1,), c=(1.0,), n=16, N=None))


@pytest.fixture(scope="session")
def cfg_pair():
    """The two-point configuration used for the root-cloud figures."""
    return validate_config(
        Configuration(a=(0.5 - 0.5j, -0.25 - 0.5j), c=(1.0, 1.0), n=16, N=None))


@pytest.fixture(scope="session")
def cfg_level2():
    """a_2 is adjacent to region 1, giving a two-step chain (2, 1)."""
    return validate_config(
        Configuration(a=(0.74 + 0.2j, 0.41 - 0.03j), c=(1.0, 1.0), n=24, N=None))


@pytest.fixture(scope="session")
def cfg_level2_frac():
    """Same geometry with non-integer exponents (phases become real work)."""
    return validate_config(
        Configuration(a=(0.74 + 0.2j, 0.41 - 0.03j), c=(0.7, 1.4), n=24, N=None))


@pytest.fixture(scope="session")
def cfg_level3():
    """Three-step chain (3, 2, 1)."""
    return validate_config(Configuration(
        a=(0.69 - 0.18j, 0.29 - 0.2j, 0.17 - 0.05j), c=(1.0, 1.0, 1.0),
        n=24, N=None))


@pytest.fixture(scope="session")
def cfg_branchy():
    """Three points, mixed non-integer exponents, for branch-cut tests."""
    return validate_config(Configuration(
        a=(0.5 + 0.1j, -0.2 + 0.45j, 0.1 - 0.55j), c=(0.5, 1.3, -0.4),
        n=20, N=None))


NON_GENERIC_A = (0.3794 - 0.2438j, 0.3797 - 0.2434j)

# Region 2 is a thin sliver: it holds no node of a 201 x 201 lattice on
# [-1,1]^2, yet its least third-plane gap is 2.4e-3, well above MIN_GAP;
# chains (1,3), (2,1,3), (3).
THIN_REGION_A = (-0.26603533053930284 - 0.2312551562679013j,
                 0.34438873360971434 + 0.23521115687641278j,
                 -0.5608668989154224 - 0.4136541410891054j)
