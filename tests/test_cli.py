import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mszego
from mszego.cli import main

from conftest import A1, NON_GENERIC_A, THIN_REGION_A


@pytest.fixture()
def single_cfg_path(tmp_path):
    p = tmp_path / "single.json"
    p.write_text(json.dumps({"a": [[A1, 0.0]], "c": [1.0], "n": 16}))
    return str(p)


@pytest.fixture()
def pair_cfg_path(tmp_path):
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(
        {"a": [[0.5, -0.5], [-0.25, -0.5]], "c": [1.0, 1.0], "n": 24}))
    return str(p)


def test_validate_ok(single_cfg_path, capsys):
    assert main(["validate", single_cfg_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and doc["N"] == 16.0


def test_validate_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"a": [[1.5, 0.0]], "c": [1.0], "n": 4}))
    assert main(["validate", str(p)]) == 2


def test_non_generic_exit_code(tmp_path, capsys):
    p = tmp_path / "ng.json"
    p.write_text(json.dumps({
        "a": [[NON_GENERIC_A[0].real, NON_GENERIC_A[0].imag],
              [NON_GENERIC_A[1].real, NON_GENERIC_A[1].imag]],
        "c": [1.0, 1.0], "n": 8}))
    assert main(["levels", str(p)]) == 3
    report = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert set(report) == {"L", "gaps", "point"} and report["point"] == 2


def test_thin_region_levels(tmp_path):
    p = tmp_path / "thin.json"
    p.write_text(json.dumps({"a": [[z.real, z.imag] for z in THIN_REGION_A],
                             "c": [1.0, 1.0, 1.0], "n": 20}))
    assert main(["levels", str(p)]) == 0


def test_chain_constant_out_of_range_exit_code(tmp_path, capsys):
    # Gamma(85) (1 - |a|^2)^(-84) ~ 1e353 overflows, so the constant would read 0
    p = tmp_path / "edge.json"
    p.write_text(json.dumps({"a": [[0.999, 0.0]], "c": [85.0], "n": 16}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["levels", str(p)]) == 4
    assert "ChainConstantOutOfRange" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["region", "uniform", "local"])
def test_term_past_the_double_range_exit_code(tmp_path, capsys, mode):
    # at n = N = 2048 the outer term at the grid corner -1.2-1.2i has modulus
    # exp(1083), and the local form's E_c overflows there too
    p = tmp_path / "pair2048.json"
    p.write_text(json.dumps({"a": [[0.5, -0.5], [-0.25, -0.5]], "c": [1.0, 1.0], "n": 2048}))
    out = tmp_path / "asymp.csv"
    assert main(["asymp", str(p), "--mode", mode, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "TermOutOfRange" in err and "(-1.2-1.2j)" in err


IMPORT_PATH = """
import sys
import mszego.cli
from mszego.asym import build_model
from mszego.core import Configuration, validate_config
from mszego.oracle import exact_moments, monic_op, quad_moments, roots
from mszego.specfun import FcEvaluator, zeros_E_c

build_model(validate_config(Configuration(
    a=(0.74 + 0.2j, 0.41 - 0.03j), c=(0.7, 1.4), n=24, N=None)))
FcEvaluator(0.5).f(2.0 + 1.0j)
zeros_E_c(1.0, (-2, 6, 0.5, 25))
pair = validate_config(Configuration(a=(0.5 - 0.5j, -0.25 - 0.5j), c=(1.0, 1.0), n=16, N=None))
roots(monic_op(exact_moments(pair), pair.n))
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
quad_moments(validate_config(Configuration(a=(0.6,), c=(0.5,), n=2, N=None)))
print("scipy.special" in sys.modules)
"""


def test_only_quadrature_imports_scipy():
    # scipy.special alone doubles the start-up time of every command
    src = os.path.dirname(os.path.dirname(os.path.abspath(mszego.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", IMPORT_PATH], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    assert out[:2] == ["[]", "True"]


def test_levels_json(single_cfg_path, capsys):
    assert main(["levels", single_cfg_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["L"][0] == pytest.approx(math.log(A1) - 0.5, abs=1e-12)
    assert doc["chains"] == [[1]]
    assert doc["levels"] == [1]
    assert set(doc) == {"L", "ell", "chains", "levels", "chain_constants", "delta"}
    assert doc["chain_constants"][0][0] == pytest.approx(A1, abs=1e-12)
    assert doc["delta"] == pytest.approx(math.log(2) - 0.5, abs=1e-15)


def test_curve_csv_deterministic(pair_cfg_path, tmp_path, capsys):
    out1 = str(tmp_path / "arcs1.csv")
    out2 = str(tmp_path / "arcs2.csv")
    assert main(["curve", pair_cfg_path, "--grid", "150",
                 "--tol", "1e-8", "--out", out1]) == 0
    assert main(["curve", pair_cfg_path, "--grid", "150",
                 "--tol", "1e-8", "--out", out2]) == 0
    b1, b2 = Path(out1).read_bytes(), Path(out2).read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "arc_id,j,k,re,im"
    labels = {tuple(map(int, line.split(",")[1:3]))
              for line in b1.decode().splitlines()[1:]}
    assert labels <= {(0, 1), (0, 2), (1, 2), (2, 1), (1, 0), (2, 0)}
    # manifest written beside the output
    man = json.loads(Path(out1 + ".manifest.json").read_text())
    assert man["command"] == "curve"
    assert os.path.basename(out1) in [os.path.basename(p) for p in man["outputs"]]


def test_curve_points_inside_disk(pair_cfg_path, tmp_path):
    out = str(tmp_path / "arcs.csv")
    svg = str(tmp_path / "arcs.svg")
    assert main(["curve", pair_cfg_path, "--grid", "150", "--out", out,
                 "--svg", svg]) == 0
    rows = Path(out).read_text().splitlines()[1:]
    for row in rows:
        _, _, _, re_, im_ = row.split(",")
        assert float(re_) ** 2 + float(im_) ** 2 < 1.0
    assert "<svg" in Path(svg).read_text()


def test_asymp_points_csv(single_cfg_path, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("re,im\n1.5,0.3\n\n0.2,0.1\n")  # the blank line is skipped
    out = str(tmp_path / "vals.csv")
    assert main(["asymp", single_cfg_path, "--mode", "region",
                 "--points", str(pts), "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "re,im,value_re,value_im,label,formula_used"
    assert len(lines) == 3
    assert lines[1].endswith("region")


def test_asymp_points_short_row_is_refused(single_cfg_path, tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("re,im\n1.5,0.3\n\n0.5\n0.2,0.1\n")
    assert main(["asymp", single_cfg_path, "--points", str(pts),
                 "--out", str(tmp_path / "vals.csv")]) == 2
    assert "line 4 of points file" in capsys.readouterr().err


def test_asymp_modes(single_cfg_path, tmp_path):
    for mode in ("uniform", "local"):
        out = str(tmp_path / f"{mode}.csv")
        assert main(["asymp", single_cfg_path, "--mode", mode,
                     "--grid", "7", "--out", out]) == 0


def test_fc_and_zeros(tmp_path, capsys):
    out = str(tmp_path / "fc.csv")
    assert main(["fc", "--c", "0.5", "--grid", "9", "--out", out]) == 0
    assert Path(out).read_text().splitlines()[0] == "re,im,f_re,f_im"
    outz = str(tmp_path / "zeros.csv")
    assert main(["fc-zeros", "--c", "1.0", "--box", "-0.5", "1", "5", "8",
                 "--out", outz]) == 0
    rows = Path(outz).read_text().splitlines()
    assert rows[0] == "re,im,abs_Ec"
    assert len(rows) == 2
    vals = rows[1].split(",")
    assert float(vals[1]) == pytest.approx(2 * math.pi, abs=1e-8)


def test_oracle_roots_csv(single_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "roots.csv")
    assert main(["oracle", single_cfg_path, "--degree", "12",
                 "--out", out]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["degree"] == 12
    assert doc["max_orthogonality_residual"] < 1e-8
    rows = Path(out).read_text().splitlines()
    assert rows[0] == "re,im,residual"
    assert len(rows) == 13
    for row in rows[1:]:
        assert float(row.split(",")[2]) < 1e-8


def test_compare_command(single_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", single_cfg_path, "--degree", "16",
                 "--grid", "150", "--out", out]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["root_curve_distance"]["count"] > 0
    rows = Path(out).read_text().splitlines()
    assert rows[0].startswith("re,im,label,oracle_re")
    outer = [r for r in rows[1:] if int(r.split(",")[2]) == 0]
    assert outer and all(float(r.split(",")[-1]) <= 1e-2 for r in outer)


def test_compare_deepest_point_per_region(pair_cfg_path, tmp_path, capsys):
    assert main(["levels", pair_cfg_path]) == 0
    L = json.loads(capsys.readouterr().out)["L"]
    a = [complex(0.5, -0.5), complex(-0.25, -0.5)]
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", pair_cfg_path, "--degree", "16",
                 "--grid", "150", "--out", out]) == 0
    rows = [r.split(",") for r in Path(out).read_text().splitlines()[1:]]
    bounded = [r for r in rows if int(r[2]) != 0]
    assert sorted(int(r[2]) for r in bounded) == [1, 2]
    for r in bounded:
        z, j = complex(float(r[0]), float(r[1])), int(r[2])
        cands = [math.log(abs(z))] + [(ai.conjugate() * z).real + li
                                      for ai, li in zip(a, L)]
        assert abs(z) < 1.0
        assert cands[j] > max(v for i, v in enumerate(cands) if i != j)


def test_exact_method_rejects_fractional_exponents(tmp_path, capsys):
    p = tmp_path / "branchy.json"
    p.write_text(json.dumps({"a": [[0.5, 0.1], [-0.2, 0.45], [0.1, -0.55]],
                             "c": [0.5, 1.3, -0.4], "n": 12}))
    out = str(tmp_path / "out.csv")
    assert main(["oracle", str(p), "--out", out]) == 2
    assert main(["compare", str(p), "--out", out]) == 2
    assert "not a positive integer" in capsys.readouterr().err


def test_oracle_past_factorial_limit_exit_code(tmp_path, capsys):
    p = tmp_path / "fig4.json"
    p.write_text(json.dumps(
        {"a": [[0.5, -0.5], [-0.25, -0.5]], "c": [1.0, 1.0], "n": 32}))
    out = str(tmp_path / "roots.csv")
    assert main(["oracle", str(p), "--degree", "169", "--out", out]) == 4
    assert "IllConditioned" in capsys.readouterr().err


def test_fc_zeros_box_without_zeros(tmp_path):
    # |E_20| ~ 1/Gamma(21) on this box: no zero, not a contour through one
    out = str(tmp_path / "z.csv")
    assert main(["fc-zeros", "--c", "20", "--box", "-1", "1", "5", "8",
                 "--out", out]) == 0
    assert Path(out).read_text().splitlines() == ["re,im,abs_Ec"]


def test_fc_zeros_multiple_zero_at_nonpositive_integer(tmp_path, capsys):
    out = str(tmp_path / "z.csv")
    assert main(["fc-zeros", "--c", "-3", "--box", "-10", "10", "-10", "10",
                 "--out", out]) == 0
    assert Path(out).read_text().splitlines() == ["re,im,abs_Ec"] + ["0.0,0.0,0.0"] * 3
    assert "3 zeros in box" in capsys.readouterr().out


def test_numerical_failure_exit_code(tmp_path):
    # a box edge running through a zero ladder trips the contour guard
    out = str(tmp_path / "z.csv")
    assert main(["fc-zeros", "--c", "1.0", "--box", "0", "1", "5", "8",
                 "--out", out]) == 4


def test_curve_coarse_grid_borders_every_region(pair_cfg_path, tmp_path, capsys):
    # at grid 3 every arc still has its 3 samples and region 2 its arcs
    out = str(tmp_path / "arcs.csv")
    assert main(["curve", pair_cfg_path, "--grid", "3", "--out", out]) == 0
    assert capsys.readouterr().out.startswith("3 arcs, ")
    rows = Path(out).read_text().splitlines()[1:]
    labels = {int(f) for row in rows for f in row.split(",")[1:3]}
    assert labels == {0, 1, 2}


def test_levels_manifest_beside_out(single_cfg_path, tmp_path):
    out = str(tmp_path / "levels.json")
    assert main(["levels", single_cfg_path, "--out", out]) == 0
    man = json.loads(Path(out + ".manifest.json").read_text())
    assert man["command"] == "levels" and man["outputs"] == [out]


@pytest.mark.parametrize("argv", [
    "oracle {cfg} --degree 0 --out {out}",
    "oracle {cfg} --degree -1 --out {out}",
    "compare {cfg} --degree 0 --out {out}",
    "levels {missing}",
    "levels {truncated}",
    "asymp {cfg} --points {missing} --out {out}",
    "asymp {cfg} --points {bad_points} --out {out}",
    "fc --c nan --out {out}",
    "fc --c inf --out {out}",
    "fc-zeros --c nan --box -0.5 1 5 8 --out {out}",
    "fc-zeros --c 1 --box -0.5 nan 5 8 --out {out}",
    "curve {cfg} --tol 0 --out {out}",
    "curve {cfg} --tol nan --out {out}",
    "fc-zeros --c 1 --box -2 6 0.5 25 --tol 0 --out {out}",
    "fc-zeros --c 1 --box -2 6 0.5 25 --tol nan --out {out}",
    "fc --c 1 --extent nan --grid 3 --out {out}",
    "asymp {cfg} --extent nan --grid 3 --out {out}",
    "asymp {cfg} --points {nan_points} --out {out}",
    "asymp {cfg} --mode uniform --tau nan --grid 3 --out {out}",
    "curve {cfg} --grid -3 --out {out}",
    "compare {cfg} --grid -3 --out {out}",
    "asymp {cfg} --grid -3 --out {out}",
    "fc --c 1 --grid -3 --out {out}",
    "fc-zeros --c 1 --box 1 -1 5 8 --out {out}",
    "fc-zeros --c 1 --box 1 -1 8 5 --out {out}",
    "fc --c 1e300 --out {out}",
    "fc-zeros --c 1e300 --box -0.5 1 5 8 --out {out}",
    "fc --c 1000 --out {out}",
    "levels {c1000}",
    "asymp {c1000} --out {out}",
    "levels {c200}",
    "fc --c 85.5 --out {out}",
    "levels {c86}",
    "asymp {cfg} --points {short_row} --out {out}",
])
def test_bad_input_exit_code(argv, single_cfg_path, tmp_path, capsys):
    text = Path(single_cfg_path).read_text()
    truncated = tmp_path / "truncated.json"
    truncated.write_text(text[: len(text) // 2])
    bad_points = tmp_path / "points.csv"
    bad_points.write_text("re,im\n0.2,0.1\n0.3,x\n")
    nan_points = tmp_path / "nan_points.csv"
    nan_points.write_text("re,im\n0.2,0.1\nnan,0.1\n")
    c1000 = tmp_path / "c1000.json"
    c1000.write_text(json.dumps({"a": [[A1, 0.0]], "c": [1000.0], "n": 16}))
    c200 = tmp_path / "c200.json"
    c200.write_text(json.dumps({"a": [[0.5, -0.5]], "c": [200.0], "n": 16}))
    c86 = tmp_path / "c86.json"
    c86.write_text(json.dumps({"a": [[0.5, -0.5]], "c": [86.0], "n": 16}))
    short_row = tmp_path / "short_row.csv"
    short_row.write_text("re,im\n0.2,0.1\n\n0.5\n")
    paths = {"cfg": single_cfg_path, "out": str(tmp_path / "out.csv"),
             "missing": str(tmp_path / "missing.json"),
             "truncated": str(truncated), "bad_points": str(bad_points),
             "nan_points": str(nan_points), "c1000": str(c1000), "c200": str(c200),
             "c86": str(c86), "short_row": str(short_row)}
    assert main(argv.format(**paths).split()) == 2
    assert capsys.readouterr().err.startswith("invalid configuration")
