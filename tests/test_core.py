import json
import math

import pytest
from hypothesis import given, strategies as st

from mszego.core import (MAX_EXPONENT, BadExponent, CollinearTriple, ConfigError,
                         Configuration, DuplicatePoint, OriginSingularity,
                         OutsideDisk, config_from_json, config_to_json,
                         validate_config)


def test_single_point_config_valid():
    cfg = validate_config(Configuration(a=(1 / math.sqrt(2),), c=(1.0,), n=80, N=None))
    assert cfg.nu == 1
    assert cfg.N == 80.0  # defaults to the degree


def test_pair_config_valid():
    cfg = validate_config(Configuration(
        a=(0.5 - 0.5j, -0.25 - 0.5j), c=(1.0, 1.0), n=200, N=None))
    assert cfg.nu == 2


def test_collinear_real_triple_rejected():
    with pytest.raises(CollinearTriple):
        validate_config(Configuration(
            a=(0.5, 0.25, 0.75), c=(1.0, 1.0, 1.0), n=10, N=None))


def test_rejection_is_total():
    cases = [
        (Configuration(a=(0j,), c=(1.0,), n=4, N=None), OriginSingularity),
        (Configuration(a=(1.2,), c=(1.0,), n=4, N=None), OutsideDisk),
        (Configuration(a=(1.0,), c=(1.0,), n=4, N=None), OutsideDisk),
        (Configuration(a=(0.5 + 0.1j, 0.5 + 0.1j), c=(1.0, 1.0), n=4, N=None),
         DuplicatePoint),
        (Configuration(a=(0.3, 0.2 + 0.3j, 0.4 + 0.6j), c=(1.0,) * 3, n=4, N=None),
         CollinearTriple),
        (Configuration(a=(0.5,), c=(-1.5,), n=4, N=None), BadExponent),
        (Configuration(a=(0.5,), c=(0.0,), n=4, N=None), BadExponent),
    ]
    for raw, exc in cases:
        with pytest.raises(exc):
            validate_config(raw)


def test_exponent_bound():
    # past c = 85 the series for E_c loses digits to 1/Gamma(c + k + 1) underflowing
    assert validate_config(Configuration(a=(0.5,), c=(MAX_EXPONENT,), n=4, N=None))
    for c in (85.5, 170.5, 1000.0, 1e300):
        with pytest.raises(BadExponent):
            validate_config(Configuration(a=(0.5,), c=(c,), n=4, N=None))


def test_misc_config_errors():
    with pytest.raises(ConfigError):
        validate_config(Configuration(a=(0.5,), c=(1.0, 1.0), n=4, N=None))
    with pytest.raises(ConfigError):
        validate_config(Configuration(a=(), c=(), n=4, N=None))
    with pytest.raises(ConfigError):
        validate_config(Configuration(a=(0.5,), c=(1.0,), n=-2, N=None))
    with pytest.raises(ConfigError):
        validate_config(Configuration(a=(0.5,), c=(1.0,), n=4, N=-1.0))


def test_validate_idempotent(cfg_pair):
    again = validate_config(cfg_pair)
    assert again == cfg_pair


def test_json_round_trip(cfg_pair):
    doc = config_to_json(cfg_pair)
    back = config_from_json(json.dumps(doc))
    assert back == cfg_pair


def test_json_field_names():
    cfg = config_from_json({"a": [[0.5, -0.5], [-0.25, -0.5]],
                            "c": [1, 1], "n": 200})
    assert cfg.n == 200 and cfg.N == 200.0
    with pytest.raises(ConfigError):
        config_from_json({"points": [[0.5, 0.0]], "c": [1], "n": 2})


def test_complex_point_finite():
    for point in ([math.inf, 0.0], [0.5, math.nan]):
        with pytest.raises(ConfigError):
            config_from_json({"a": [point], "c": [1], "n": 4})


def test_degree_zero_needs_explicit_scale():
    cfg = validate_config(Configuration(a=(0.5,), c=(1.0,), n=0, N=1.0))
    assert cfg.N == 1.0
    with pytest.raises(ConfigError):
        validate_config(Configuration(a=(0.5,), c=(1.0,), n=0, N=None))


@given(st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
       st.floats(min_value=-0.9, max_value=3.0).filter(lambda x: abs(x) > 1e-3),
       st.integers(min_value=1, max_value=50))
def test_valid_configs_round_trip(a, c, n):
    if a == 0 or abs(a) < 1e-6:
        return
    cfg = validate_config(Configuration(a=(a,), c=(c,), n=n, N=None))
    assert validate_config(cfg) == cfg
    assert cfg.N == float(n)
