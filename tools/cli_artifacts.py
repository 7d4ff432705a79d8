"""Write a fixed set of CLI artifacts for byte-identity checks.

Usage::

    PYTHONPATH=src python tools/cli_artifacts.py OUTDIR

Runs the ``mszego`` command line (whichever package is first on
``PYTHONPATH``) on the test configurations and writes every CSV/JSON
output into OUTDIR, plus one ``<name>.stdout`` file per command holding
its exit code, stdout and stderr.  The ``*.manifest.json`` files are
deleted because they record wall time.  Two trees written from two
versions of the package compare with ``diff -r``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

from mszego.cli import main

A1 = 1 / math.sqrt(2)

# the configurations of tests/conftest.py, as JSON documents
CONFIGS = {
    "single": {"a": [[A1, 0.0]], "c": [1.0], "n": 16},
    "pair": {"a": [[0.5, -0.5], [-0.25, -0.5]], "c": [1.0, 1.0], "n": 16},
    "level2": {"a": [[0.74, 0.2], [0.41, -0.03]], "c": [1.0, 1.0], "n": 24},
    "level2_frac": {"a": [[0.74, 0.2], [0.41, -0.03]], "c": [0.7, 1.4], "n": 24},
    "level3": {"a": [[0.69, -0.18], [0.29, -0.2], [0.17, -0.05]],
               "c": [1.0, 1.0, 1.0], "n": 24},
    "branchy": {"a": [[0.5, 0.1], [-0.2, 0.45], [0.1, -0.55]],
                "c": [0.5, 1.3, -0.4], "n": 20},
}
INTEGER = ("single", "pair", "level2", "level3")
# the pair at n = N: at 40 the raw quadrature Gram condition is 2.4e16; at 128
# the double-double coefficients hold the roots to about 1e-10 only, so
# `oracle` refuses them (exit 4).  With the pair at 96, the single point and
# the three-point chain at n = N = 64 pin the cold start of `roots`.
# `asymp` on the pair at 700, the largest degree whose uniform field holds no
# value that underflows to 0, and at 2048, where the outer term at the grid
# corner passes the double range (exit 4).
LARGE_N = {f"pair_n{n}": {**CONFIGS["pair"], "n": n} for n in (40, 96, 128, 700, 2048)}
LARGE_N.update({f"{key}_n64": {**CONFIGS[key], "n": 64} for key in ("single", "level3")})
# two fractional points 0.05 apart, so r_j = 0.0225: the quadrature's cutoff
# must switch within these small disks and still let mesh doubling converge
CLOSE_PAIR = {"close_pair": {"a": [[0.5, 0.0], [0.53, 0.04]], "c": [0.5, 0.5], "n": 8}}
# one point near the origin: r_j/|a_j| is largest, so the main-grid rows
# outside the cutoff disk take the fewest angles, and in the patch, where rho
# reaches 2/3 of |a_j|, the powers z^p keep all their harmonics
NEAR_ORIGIN = {"near_origin": {"a": [[0.15, 0.0]], "c": [0.5], "n": 24}}
# region 2 of "thin" is a sliver that holds no node of a 201 x 201 lattice
# (its two arcs are 0.07 long); "short_arc" at grid 20 has a 2|4 interface
# 0.34 long and a 3-point 0|2 arc 0.008 long, oriented by the plane gradients
EDGE_CASES = {
    "thin": {"a": [[-0.26603533053930284, -0.2312551562679013],
                   [0.34438873360971434, 0.23521115687641278],
                   [-0.5608668989154224, -0.4136541410891054]],
             "c": [1.0, 1.0, 1.0], "n": 20},
    "short_arc": {"a": [[0.3223130714875922, -0.03593156416874949],
                        [-0.14208473239987907, 0.21983954797935218],
                        [-0.3413219138647612, 0.6233474596729266],
                        [-0.1956372569589491, -0.39433978747556997]],
                  "c": [1.0, 1.0, 1.0, 1.0], "n": 20},
}

# NON_GENERIC_A of tests/conftest.py: plane 2 lies 2.5e-7 below the top at
# a_2, under MIN_GAP, so `levels` refuses it (exit 3, the gaps on stderr)
NON_GENERIC = {"non_generic": {"a": [[0.3794, -0.2438], [0.3797, -0.2434]],
                               "c": [1.0, 1.0], "n": 20}}

# arg(a_2 - a_1) lies more than pi from arg a_2, so the window of the
# 1-anchored power of point 2 is lifted by a whole turn; a wrong turn flips
# the sign of the region-1 term (c_2 = 1.5)
LIFTED = {"lifted": {"a": [[0.41, -0.27], [-0.48, -0.08]], "c": [0.5, 1.5], "n": 32}}


# (c, box) of every `fc-zeros` run; tests/test_specfun.py checks the zeros
# against a bisection on winding counts on each valid box
ZERO_RUNS = [("1", ("-2", "6", "0.5", "25"))]
# 2.5: the ladder at c != 1; 10.5: four zeros far off the one-step seeds,
# found from the roots of the ladder equation; -0.5: the real zero
ZERO_RUNS += [(c, ("-6", "20", "-21", "21")) for c in ("0.5", "-0.5", "1.3", "2.5", "10.5")]
ZERO_RUNS += [("2", ("-10.5", "10.5", "-10.5", "10.5")), ("1", ("1", "-1", "5", "8"))]
ZERO_RUNS += [("1", ("-0.2", "5", "6", "12")), ("1", ("-1", "1", "5", "34"))]
# no zero, and |E_c| ~ 1/Gamma(21) on the whole box
ZERO_RUNS += [("20", ("-1", "1", "5", "8"))]


def commands(out: str, cfgs: dict[str, str]):
    """(name, argv) of every run; each name prefixes the files it writes."""
    def path(name):
        return os.path.join(out, name)

    for key in CONFIGS:
        cfg = cfgs[key]
        yield f"levels_{key}", ["levels", cfg]
        for grid in (400, 801):
            name = f"curve_{key}_{grid}"
            yield name, ["curve", cfg, "--grid", str(grid), "--out", path(name + ".csv")]
        for mode in ("region", "uniform", "local"):
            name = f"asymp_{key}_{mode}"
            yield name, ["asymp", cfg, "--mode", mode, "--out", path(name + ".csv")]
    for key in INTEGER:
        cfg = cfgs[key]
        for degree in (16, 32, 48):
            name = f"compare_{key}_{degree}"
            yield name, ["compare", cfg, "--degree", str(degree),
                         "--out", path(name + ".csv")]
        name = f"oracle_{key}"
        yield name, ["oracle", cfg, "--out", path(name + ".csv"),
                     "--moments-out", path(name + "_moments.json")]
        name = f"oracle_{key}_40"
        yield name, ["oracle", cfg, "--degree", "40", "--out", path(name + ".csv")]
    for key in ("pair_n96", "pair_n128", "single_n64", "level3_n64"):
        name = f"oracle_{key}"
        yield name, ["oracle", cfgs[key], "--out", path(name + ".csv")]
    # the pair at n = N = 96 again, through poly_eval at the sample points,
    # the Cholesky solve and roots, whose double-double stage takes 12 sweeps
    name = "compare_pair_n96"
    yield name, ["compare", cfgs["pair_n96"], "--out", path(name + ".csv")]
    for key, degree in (("branchy", 3), ("pair", 6), ("pair_n40", 40), ("close_pair", 8),
                        ("near_origin", 24)):
        name = f"oracle_quad_{key}_{degree}"
        yield name, ["oracle", cfgs[key], "--method", "quad", "--degree", str(degree),
                     "--out", path(name + ".csv")]
    # two non-integer points close enough that the main grid's cutoff
    # factor must follow every power: taken between them, it moves moment
    # bits here (not at degree 6, nor in any other run of this set)
    name = "oracle_quad_level2_frac_12"
    yield name, ["oracle", cfgs["level2_frac"], "--method", "quad", "--degree", "12",
                 "--out", path(name + ".csv"), "--moments-out", path(name + "_moments.json")]
    yield "levels_thin", ["levels", cfgs["thin"]]
    name = "curve_thin_400"
    yield name, ["curve", cfgs["thin"], "--grid", "400", "--out", path(name + ".csv")]
    yield "levels_lifted", ["levels", cfgs["lifted"]]
    yield "levels_non_generic", ["levels", cfgs["non_generic"]]
    name = "asymp_lifted_uniform"
    yield name, ["asymp", cfgs["lifted"], "--mode", "uniform", "--out", path(name + ".csv")]
    for key in ("pair_n700", "pair_n2048"):
        name = f"asymp_{key}_uniform"
        yield name, ["asymp", cfgs[key], "--mode", "uniform", "--out", path(name + ".csv")]
    # E_c alone passes the double range at the grid's left edge (zeta = 731-517i
    # at -1.2+0.42i), where the local form still takes a double
    name = "asymp_pair_n700_local"
    yield name, ["asymp", cfgs["pair_n700"], "--mode", "local", "--out", path(name + ".csv")]
    name = "curve_short_arc_20"
    yield name, ["curve", cfgs["short_arc"], "--grid", "20", "--out", path(name + ".csv")]
    name = "compare_quad_pair_6"
    yield name, ["compare", cfgs["pair"], "--method", "quad", "--degree", "6",
                 "--out", path(name + ".csv")]
    for c in ("0.5", "1", "2.5", "-0.5"):
        name = f"fc_{c}"
        yield name, ["fc", "--c", c, "--out", path(name + ".csv")]
    # out to |z| = 64, past KUMMER_RADIUS, so that each of the three routes of
    # the evaluator serves some point
    yield "fc_0.5_extent45", ["fc", "--c", "0.5", "--extent", "45",
                              "--out", path("fc_0.5_extent45.csv")]
    # a large exponent just past its series disk near the negative axis
    yield "fc_40.5_extent60", ["fc", "--c", "40.5", "--extent", "60",
                               "--out", path("fc_40.5_extent60.csv")]
    # the largest exponent out to the rim |z| = 90 of its series disk, where
    # the table 1/Gamma(c + k + 1) runs past the overflow of Gamma
    yield "fc_85_extent95", ["fc", "--c", "85", "--extent", "95",
                             "--out", path("fc_85_extent95.csv")]
    for c, box in ZERO_RUNS:
        name = f"fc_zeros_{c}_{'_'.join(box)}"
        yield name, ["fc-zeros", "--c", c, "--box", *box, "--out", path(name + ".csv")]


def run(out: str) -> None:
    os.makedirs(out, exist_ok=True)
    cfgs = {}
    for key, doc in {**CONFIGS, **LARGE_N, **CLOSE_PAIR, **NEAR_ORIGIN, **EDGE_CASES,
                     **LIFTED, **NON_GENERIC}.items():
        cfgs[key] = os.path.join(out, f"config_{key}.json")
        with open(cfgs[key], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    for name, argv in commands(out, cfgs):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        with open(os.path.join(out, name + ".stdout"), "w", encoding="utf-8") as fh:
            fh.write(f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
        print(f"{name}: exit {code}", file=sys.stderr)
    for fname in os.listdir(out):
        if fname.endswith(".manifest.json"):
            os.remove(os.path.join(out, fname))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    run(sys.argv[1])
