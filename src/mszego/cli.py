"""Command-line front end producing reproducible CSV/JSON/SVG artifacts.

Subcommands
-----------
validate   check a configuration document
levels     solve the level structure, print it as JSON
curve      trace the region-boundary curve to CSV (and optional SVG)
asymp      evaluate the asymptotic formulas on a grid or point list
fc         tabulate the truncated-exponential function on a grid
fc-zeros   locate zeros of its entire companion in a box
oracle     build the exact polynomial, dump its roots
compare    asymptotics vs oracle error table plus root-curve distances

Every command writes a run manifest next to its outputs.  CSV files are
byte-deterministic: fixed column order, row order, and shortest
round-trip float formatting.

Exit codes: 0 ok, 2 invalid configuration, 3 non-generic configuration,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .asym import ChainConstantOutOfRange, TermOutOfRange, build_model
from .branches import OnCut
from .core import MAX_EXPONENT, ConfigError, load_config
from .oracle import (IllConditioned, NoConvergence, QuadratureNotConverged,
                     exact_moments, monic_op, orthogonality_residuals,
                     quad_moments, root_curve_distance, roots, poly_eval)
from .specfun import ContourThroughZero, E_c, FcEvaluator, zeros_E_c
from .szego import NonGeneric, classify_many, plane_stack, solve_structure, trace_curve

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_NON_GENERIC = 3
EXIT_NUMERICAL = 4


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form (never more than 17 digits)."""
    return repr(float(x))


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_manifest(out_path: str, args, outputs: list[str], t0: float) -> None:
    doc = {
        "command": args.command,
        "config": getattr(args, "config", None),
        "parameters": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("command", "func")},
        "outputs": sorted(outputs),
        "tool_version": __version__,
        "wall_time_s": time.time() - t0,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _svg_plot(path: str, arcs, dots) -> None:
    """Static plot of [-1.2, 1.2]^2: one polyline per arc, small circles for dots."""
    palette = ["#d95f02", "#1b9e77", "#7570b3", "#e7298a", "#66a61e", "#e6ab02"]
    size = 800
    extent = 1.2
    sc = size / (2 * extent)

    def xy(z):
        return (z.real + extent) * sc, (extent - z.imag) * sc

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{size/2}" cy="{size/2}" r="{sc}" fill="none" '
        'stroke="#bbbbbb" stroke-dasharray="4 4"/>',
    ]
    for i, arc in enumerate(arcs):
        color = palette[i % len(palette)]
        pts = " ".join(f"{xy(p)[0]:.2f},{xy(p)[1]:.2f}" for p in arc.points)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
    for z in dots:
        x, y = xy(z)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="#2166ac"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _json_complex(z: complex) -> list[float]:
    return [z.real, z.imag]


def _require_finite(flag: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{flag} must be finite, got {list(values)}")


def _require_positive(flag: str, value: float) -> None:
    _require_finite(flag, value)
    if value <= 0:
        raise ConfigError(f"{flag} must be positive, got {value}")


def _exponent(args) -> float:
    """The --c flag: finite and at most MAX_EXPONENT."""
    _require_finite("--c", args.c)
    if args.c > MAX_EXPONENT:
        raise ConfigError(f"--c must be <= {MAX_EXPONENT:g}, got {args.c}")
    return args.c


def _grid(args) -> int:
    """The --grid flag; a negative count is refused."""
    if args.grid < 0:
        raise ConfigError(f"--grid must be >= 0, got {args.grid}")
    return args.grid


def _degree(args, cfg) -> int:
    """The --degree flag, or the configuration's n; at least 1."""
    degree = cfg.n if args.degree is None else args.degree
    if degree < 1:
        raise ConfigError(f"degree must be >= 1, got {degree}")
    return degree


# -- subcommand implementations ---------------------------------------------
# Each returns the list of files it wrote; main writes the manifest.


def cmd_validate(args) -> list[str]:
    cfg = load_config(args.config)
    print(json.dumps({"ok": True, "nu": cfg.nu, "n": cfg.n, "N": cfg.N,
                      "a": [_json_complex(z) for z in cfg.a], "c": list(cfg.c)},
                     sort_keys=True))
    return []


def cmd_levels(args) -> list[str]:
    cfg = load_config(args.config)
    structure = solve_structure(cfg)
    model = build_model(cfg, structure)
    doc = {
        "L": list(structure.L),
        "ell": [_json_complex(v) for v in structure.ell],
        "chains": [list(ch) for ch in structure.chains],
        "levels": list(structure.levels),
        "chain_constants": [_json_complex(v) for v in model.chain_const],
        "delta": structure.delta,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if not args.out:
        return []
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return [args.out]


def cmd_curve(args) -> list[str]:
    cfg = load_config(args.config)
    _require_positive("--tol", args.tol)
    structure = solve_structure(cfg)
    curve = trace_curve(structure, grid=_grid(args), tol=args.tol)
    rows = []
    for i, arc in enumerate(curve.arcs):
        for p in arc.points:
            rows.append((i, arc.j, arc.k, float(p.real), float(p.imag)))
    _write_csv(args.out, ["arc_id", "j", "k", "re", "im"], rows)
    outputs = [args.out]
    if args.svg:
        _svg_plot(args.svg, curve.arcs, dots=cfg.a)
        outputs.append(args.svg)
    print(f"{len(curve.arcs)} arcs, {len(rows)} points, "
          f"{len(curve.triple_points)} triple points")
    return outputs


def _asymp_points(args):
    if not args.points:
        _require_finite("--extent", args.extent)
        xs = np.linspace(-args.extent, args.extent, _grid(args))
        return [complex(x, y) for x in xs for y in xs]
    try:
        with open(args.points, "r", encoding="utf-8") as fh:
            fh.readline()  # header
            lines = [line.strip() for line in fh]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read points file {args.points}: {exc}") from exc
    pts = []
    for i, line in enumerate(lines, start=2):
        try:
            if line:  # blank lines are skipped
                re_, im_ = line.split(",")[:2]
                pts.append(complex(float(re_), float(im_)))
        except ValueError as exc:
            raise ConfigError(f"line {i} of points file {args.points} is not "
                              f"'re,im': {line!r}") from exc
    for z in pts:
        _require_finite(f"a point of {args.points}", z.real, z.imag)
    return pts


def cmd_asymp(args) -> list[str]:
    cfg = load_config(args.config)
    _require_finite("--tau", args.tau)
    model = build_model(cfg)
    pts = _asymp_points(args)
    rows = []
    for z in pts:
        label = model.classify(z)
        try:
            if args.mode == "region":
                v = model.eval_region(z, label)
            elif args.mode == "uniform":
                v = model.eval_uniform(z, tau=args.tau)
            else:
                j = min(range(1, cfg.nu + 1), key=lambda i: abs(z - cfg.a[i - 1]))
                v = model.eval_local(z, j)
        except (OnCut, ValueError, ZeroDivisionError):
            continue  # cut rays and the origin are skipped, not padded
        rows.append((float(z.real), float(z.imag), float(v.real), float(v.imag),
                     label, args.mode))
    _write_csv(args.out, ["re", "im", "value_re", "value_im", "label",
                          "formula_used"], rows)
    print(f"{len(rows)} points evaluated ({args.mode})")
    return [args.out]


def cmd_fc(args) -> list[str]:
    c = _exponent(args)
    _require_finite("--extent", args.extent)
    ev = FcEvaluator(c)
    xs = np.linspace(-args.extent, args.extent, _grid(args))
    rows = []
    for x in xs:
        for y in xs:
            z = complex(x, y)
            if z.imag == 0.0 and z.real <= 0.0:
                continue
            v = ev.f(z)
            rows.append((float(x), float(y), float(v.real), float(v.imag)))
    _write_csv(args.out, ["re", "im", "f_re", "f_im"], rows)
    print(f"{len(rows)} samples of the truncated exponential (c={args.c})")
    return [args.out]


def cmd_fc_zeros(args) -> list[str]:
    c = _exponent(args)
    _require_finite("--box", *args.box)
    x0, x1, y0, y1 = args.box
    if not (x0 < x1 and y0 < y1):
        raise ConfigError(f"--box needs X0 < X1 and Y0 < Y1, got {args.box}")
    _require_positive("--tol", args.tol)
    zs = zeros_E_c(c, tuple(args.box), tol=args.tol)
    rows = [(float(z.real), float(z.imag), float(abs(E_c(z, c)))) for z in zs]
    _write_csv(args.out, ["re", "im", "abs_Ec"], rows)
    print(f"{len(zs)} zeros in box {args.box}")
    return [args.out]


def _oracle_poly(cfg, degree, method):
    run_cfg = cfg.replace_degree(degree, cfg.N)
    moments = (exact_moments if method == "exact" else quad_moments)(run_cfg)
    return moments, monic_op(moments, degree)


def cmd_oracle(args) -> list[str]:
    cfg = load_config(args.config)
    degree = _degree(args, cfg)
    moments, poly = _oracle_poly(cfg, degree, args.method)
    rts, resid = roots(poly)
    rows = [(float(r.real), float(r.imag), float(q)) for r, q in zip(rts, resid)]
    _write_csv(args.out, ["re", "im", "residual"], rows)
    outputs = [args.out]
    if args.moments_out:
        doc = {"method": moments.method, "size": moments.size,
               "entries": [[_json_complex(v) for v in row]
                           for row in moments.entries.tolist()]}
        with open(args.moments_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        outputs.append(args.moments_out)
    ortho = float(orthogonality_residuals(moments, poly).max())
    print(json.dumps({"degree": degree, "h_n": poly.h_n,
                      "max_orthogonality_residual": ortho,
                      "cond_estimate": poly.cond_estimate}, sort_keys=True))
    return outputs


def cmd_compare(args) -> list[str]:
    cfg = load_config(args.config)
    degree = _degree(args, cfg)
    grid = _grid(args)
    run_cfg = cfg.replace_degree(degree)
    structure = solve_structure(run_cfg)
    model = build_model(run_cfg, structure)
    _, poly = _oracle_poly(run_cfg, degree, args.method)

    # sample ring in the outer region plus the deepest grid node per region
    samples = [1.5 * np.exp(1j * (0.2 + 2 * np.pi * k / 8)) for k in range(8)]
    xs = np.linspace(-0.95, 0.95, 61)
    Z = np.array([[complex(x, y) for y in xs] for x in xs])
    labels = classify_many(Z, run_cfg, structure.L)
    stack = plane_stack(Z, run_cfg.a, structure.L)
    for j in range(1, run_cfg.nu + 1):
        mask = labels == j
        if not mask.any():
            continue
        # deepest point: maximize the margin over the runner-up plane;
        # argmax takes the first maximum in row-major order
        margin = stack[j] - np.delete(stack, j, axis=0).max(axis=0)
        samples.append(Z.flat[np.argmax(np.where(mask, margin, -np.inf))])

    rows = []
    for z in samples:
        z = complex(z)
        label = model.classify(z)
        try:
            approx = model.eval_region(z, label)
        except OnCut:
            continue
        exact = poly_eval(poly, z)
        rel = abs(approx - exact) / abs(exact) if exact != 0 else float("inf")
        rows.append((float(z.real), float(z.imag), label,
                     float(exact.real), float(exact.imag),
                     float(approx.real), float(approx.imag), float(rel)))
    _write_csv(args.out, ["re", "im", "label", "oracle_re", "oracle_im",
                          "asymp_re", "asymp_im", "rel_err"], rows)

    curve = trace_curve(structure, grid=grid, tol=1e-8)
    rts, _ = roots(poly)
    excl = max(model.disk_radius(j) for j in range(1, run_cfg.nu + 1))
    summary = root_curve_distance(rts, curve, excl, centers=run_cfg.a)
    print(json.dumps({
        "degree": degree,
        "max_rel_err": max(r[-1] for r in rows),
        "root_curve_distance": {"max": summary.max, "mean": summary.mean,
                                "count": summary.count},
    }, sort_keys=True))
    return [args.out]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mszego", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a configuration document")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("levels", help="solve levels, chains and constants")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("curve", help="trace the region-boundary curve")
    p.add_argument("config")
    p.add_argument("--grid", type=int, default=400)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("asymp", help="evaluate asymptotic formulas")
    p.add_argument("config")
    p.add_argument("--mode", choices=["region", "uniform", "local"],
                   default="region")
    p.add_argument("--points", default=None, help="CSV of re,im sample points")
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--extent", type=float, default=1.2)
    p.add_argument("--tau", type=float, default=40.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_asymp)

    p = sub.add_parser("fc", help="tabulate the truncated exponential")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--extent", type=float, default=10.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fc)

    p = sub.add_parser("fc-zeros", help="zeros of the entire companion")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--box", type=float, nargs=4, required=True,
                   metavar=("X0", "X1", "Y0", "Y1"))
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fc_zeros)

    p = sub.add_parser("oracle", help="exact polynomial and its roots")
    p.add_argument("config")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--method", choices=["exact", "quad"], default="exact")
    p.add_argument("--out", required=True)
    p.add_argument("--moments-out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="asymptotics vs oracle error table")
    p.add_argument("config")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--method", choices=["exact", "quad"], default="exact")
    p.add_argument("--grid", type=int, default=300)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        outputs = args.func(args)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except NonGeneric as exc:
        print(f"non-generic configuration: {exc}", file=sys.stderr)
        if exc.report:
            print(json.dumps(exc.report, sort_keys=True, default=str),
                  file=sys.stderr)
        return EXIT_NON_GENERIC
    except (QuadratureNotConverged, IllConditioned, NoConvergence,
            ContourThroughZero, OnCut, ChainConstantOutOfRange, TermOutOfRange) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if outputs:
        _write_manifest(outputs[0] + ".manifest.json", args, outputs, t0)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
