"""Benchmark of the mszego pipeline: one workload per run, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig4_compare --seed 1 --seconds 15 --trace 0

One client runs one operation at a time.  A run performs a fixed number
of whole rounds of operations, set from ``--seconds`` and the nominal
round time of the workload, and times every call into the package from
here.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3          # fewer operations would leave no median
SETUP_SAMPLES = 5       # fresh interpreters timed per run for setup_s
ERR_FLOOR = 2.0 ** -60  # ref_err_digits reads at most 18.06

# Run in a fresh interpreter: import what the workload uses, validate its
# configurations and print the monotonic clock, which Linux shares between
# processes.  argv: src dir, benchmark dir, workload name.
SETUP_SNIPPET = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import workloads; "
                 "workloads.WORKLOADS[sys.argv[3]]().configs(); print(time.monotonic())")
IMPORT_SNIPPET = ("import sys; sys.path[:0] = sys.argv[1:2]; import mszego.core, "
                  "mszego.szego, mszego.branches, mszego.specfun, mszego.asym, mszego.oracle")

# The public calls the workloads make, as the traced run names them.
LAYERS = (
    "szego.solve_structure", "szego.trace_curve", "szego.classify",
    "branches.BranchContext", "asym.build_model", "asym.eval_region",
    "asym.eval_uniform", "asym.eval_local", "specfun.zeros_E_c",
    "oracle.exact_moments", "oracle.quad_moments", "oracle.monic_op",
    "oracle.roots", "oracle.root_curve_distance", "oracle.poly_eval",
)
COUNTS = ("oracle.roots.returned", "asym.points_evaluated", "branches.oncut_skipped",
          "szego.trace_curve.points", "specfun.zeros_E_c.zeros")
MEMORY_TRACED = ("oracle.quad_moments",)


class Direct:
    """The untraced run: every call goes straight to the package."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans kept in memory: [name, start, end, parent span id, operation id].

    The span id is the index in ``spans``; every call span's parent is
    its operation's span.  tracemalloc runs around the calls named in
    MEMORY_TRACED and records their peak in ``peak_bytes``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.peak_bytes: dict[str, int] = {}
        self._op_span = None
        self._op = None

    def begin(self, op: int) -> None:
        self._op, self._op_span = op, len(self.spans)
        self.spans.append(["operation", time.perf_counter(), None, None, op])

    def end(self) -> None:
        self.spans[self._op_span][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        memory = name in MEMORY_TRACED
        if memory:
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.spans.append([name, t0, t1, self._op_span, self._op])
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)

    def per_op(self, ops: int) -> dict:
        busy = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for name, t0, t1, _, _ in self.spans:
            if name in busy:
                busy[name] += t1 - t0
                calls[name] += 1
        out = {}
        for name in LAYERS:
            out[f"{name}.s_per_op"] = (busy[name] / ops, "s/op")
            out[f"{name}.calls_per_op"] = (calls[name] / ops, "calls/op")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def setup_seconds(workload: str) -> float:
    """Median time from spawning a fresh interpreter until it has imported
    and validated, as read on the monotonic clock by the interpreter itself."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE), workload],
                              cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def import_seconds() -> dict:
    """Cumulative import times of the package and of scipy.special (-X importtime)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_SNIPPET, str(SRC)],
                          cwd=ROOT, check=True, timeout=120,
                          capture_output=True, text=True)
    package = scipy_special = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, module = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        name = module.strip()
        top_level = module == " " + name     # nested imports are indented further
        if top_level and (name == "mszego" or name.startswith("mszego.")):
            package += int(cumulative) * 1e-6
        elif name == "scipy.special" and scipy_special == 0.0:
            scipy_special = int(cumulative) * 1e-6
    return {"import.mszego.s": (package, "s"), "import.scipy.special.s": (scipy_special, "s")}


def timed(workload, tr, inp):
    t0 = time.perf_counter()
    out = workload.run(tr, inp)
    return out, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a nonnegative integer")

    if not (SRC / "mszego" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else setup_seconds(args.workload)
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare()
    ref_failures = reference.self_check()
    for what in ref_failures:
        print(f"reference self-check failed: {what}", file=sys.stderr)

    rounds = max(MIN_ROUNDS, round(args.seconds / workload.nominal_round_s))
    attempted = rounds * workload.ops_per_round
    tracer = Tracer() if args.trace else None
    times, traced_times, failures = [], [], {}
    worst_err = 0.0
    counts = dict.fromkeys(COUNTS, 0)
    for op in range(attempted):
        # a traced run traces every other round; the rounds between are
        # the untraced baseline for the tracing overhead
        traced = tracer is not None and (op // workload.ops_per_round) % 2 == 1
        inp = workload.inputs(np.random.default_rng([args.seed, op]), op)
        gc.collect()  # the checks' garbage is not the operation's to collect
        try:
            if traced:
                tracer.begin(op)
                out, dt = timed(workload, tracer, inp)
                tracer.end()
                traced_times.append(dt)
                for name, value in workload.counts(out).items():
                    counts[name] += value
            else:
                out, dt = timed(workload, Direct, inp)
                times.append(dt)
            chk = workload.check(inp, out)
            problems = chk.failures
        except Exception as exc:  # an operation that raises counts as failed
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures[problems[0]] = failures.get(problems[0], 0) + 1
        else:
            worst_err = max(worst_err, chk.err)
    failed = sum(failures.values())
    for what, k in failures.items():
        print(f"failed {k}x: {what}", file=sys.stderr)
    if not times or (tracer and not traced_times):
        print("no operation completed", file=sys.stderr)
        return 1

    if tracer:
        ops = len(traced_times)
        metrics = tracer.per_op(ops)
        for name in COUNTS:
            metrics[f"{name}_per_op"] = (counts[name] / ops, "count/op")
        peak = tracer.peak_bytes.get("oracle.quad_moments", 0)
        metrics["oracle.quad_moments.peak_mb"] = (peak / 2 ** 20, "MB")
        metrics.update(import_seconds())
        metrics["trace.overhead_s_per_op"] = (
            statistics.median(traced_times) - statistics.median(times), "s/op")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        passed = attempted - failed
        digits = -math.log10(max(worst_err, ERR_FLOOR)) if passed else 0.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ref_err_digits": (digits, "digits"),
        }
    print(json.dumps({
        "correct": not ref_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
