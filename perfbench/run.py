"""bandflow benchmark: one workload, one process, one thread, a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 0 --seconds 30 --trace 0

One caller submits the next item only after the previous one returns.  The
loop cycles through the workload's items until ``--seconds`` have passed
and every item has run at least once; each execution is timed on its own.
The outputs are checked after the loop, outside the timed region.

Each execution is bracketed by two timings of a fixed reference kernel,
and ``solve_s`` and ``item_p50_s`` are rescaled to the kernel's nominal
speed, so that a shared host's drifting speed does not read as a change
in bandflow; the raw wall times are kept beside them.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the first pass runs each item once plain and once traced, and the
per-layer metrics come from the traced executions.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (environment,
tolerance contract, per-item times, failures) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
# reference_kernel()'s time on the 2-vCPU Xeon VM the bounds were set on.
# Item times are rescaled to it, so solve_s and item_p50_s read as seconds
# on that machine at its usual speed, whatever its neighbours are doing.
REF_SECONDS = 0.02
# What a user pays before the first flow: a fresh interpreter, the import,
# and the 2x2 warm-up flow the acceptance suite also runs first.
SETUP_CODE = (
    "import bandflow\n"
    "bandflow.integrate_flow(bandflow.make_banded(2, 1, {(0, 1): 1.0}))\n"
)


def _use_checkout_sources() -> None:
    """Import bandflow from this checkout's src/, never from elsewhere."""
    if not (SRC / "bandflow" / "__init__.py").is_file():
        sys.exit(f"error: no bandflow sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import bandflow

    if Path(bandflow.__file__).resolve().parent != SRC / "bandflow":
        sys.exit(f"error: imported bandflow from {bandflow.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        # flow.py chooses its stencil at import time from this fact
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def contract() -> dict:
    import workloads
    from bandflow.flow import FlowConfig

    defaults = FlowConfig()
    return {
        "pinned": workloads.CONTRACT,
        "flowconfig_defaults": {f.name: getattr(defaults, f.name) for f in fields(defaults)
                                if f.name in workloads.CONTRACT},
        "spectrum_tol_rel": workloads.SPECTRUM_TOL,
        "drift_tol": workloads.DRIFT_TOL,
    }


def measure_setup(repeats: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(repeats + 1):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times[1:]  # the first start may still write bytecode caches


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of numpy work that shares no code with bandflow.

    On a shared host the same flow can take 0.8 s one minute and 1.6 s the
    next; this kernel slows down with it.  It mixes many calls on short
    arrays (like the N=60 stencil) with a few passes over long ones (like
    the N=1e4 stages).  Garbage collection is paused while it runs, so it
    never pays for the program's garbage.
    """
    import numpy as np

    short, long_ = np.linspace(0.0, 1.0, 60), np.linspace(0.0, 1.0, 20000)
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0.0
        for _ in range(4000):
            b = short * short
            b += short
            acc += float(b.sum())
        for _ in range(130):
            c = long_ * 1.0001
            c += long_
            acc += float(c @ long_)
        return perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


@dataclass
class Execution:
    item: int
    seconds: float  # wall time
    ref_seconds: float  # wall time at the reference speed, see REF_SECONDS
    output: Any
    error: str | None


def _execute(workload, index, item, failures) -> Execution:
    """Run one item between two reference-kernel timings."""
    ref_before = reference_kernel()
    t0 = perf_counter()
    try:
        out, error = workload.solve(item), None
    except failures as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    speed = REF_SECONDS / (0.5 * (ref_before + reference_kernel()))
    return Execution(index, seconds, seconds * speed, out, error)


def spread_order(n: int) -> list[int]:
    """A pass order that puts neighbouring items far apart in time.

    Items are listed roughly by cost, and the machine's speed drifts over
    seconds; visiting them with a golden-ratio stride lets the items near
    the median cost sample the whole pass instead of one stretch of it.
    """
    stride = max(1, round(0.618 * n))
    while math.gcd(stride, n) != 1:
        stride += 1
    return [k * stride % n for k in range(n)]


def measure(workload, items, seconds: float, tracer=None) -> dict:
    """Closed loop over the items; returns the executions, outputs unchecked."""
    import workloads

    n = len(items)
    order = spread_order(n)
    runs: list[Execution] = []
    traced: list[Execution] = []
    deadline = perf_counter() + seconds
    k = 0
    while k < n or perf_counter() < deadline:
        i = order[k % n]
        runs.append(_execute(workload, i, items[i], workloads.FAILURES))
        if tracer is not None and k < n:
            with tracer.item_span(i):
                traced.append(_execute(workload, i, items[i], workloads.FAILURES))
        k += 1
    return {"runs": runs, "traced": traced,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def check(workload, items, executions: list[Execution]) -> list[dict]:
    """Gate every execution.  An output byte-for-byte equal to one that
    already passed the gates for the same item passes without recomputing
    the reference spectrum."""
    failed, passed = [], set()
    for e in executions:
        if e.error:
            failed.append({"item": e.item, "gates": [e.error]})
            continue
        key = (e.item, pickle.dumps(e.output))
        if key in passed:
            continue
        gates = workload.check(items[e.item], e.output)
        if gates:
            failed.append({"item": e.item, "gates": gates})
        else:
            passed.add(key)
    return failed


def per_item_median(runs: list[Execution], n_items: int, attr: str) -> list[float]:
    return [statistics.median(getattr(e, attr) for e in runs if e.item == j)
            for j in range(n_items)]


def end_to_end(runs: list[Execution], n_items: int, setup: list[float], peak_rss_mb: float):
    per_item = per_item_median(runs, n_items, "ref_seconds")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (sum(per_item), "s"),
        "item_p50_s": (statistics.median(per_item), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    # Single-threaded BLAS, fixed before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    _use_checkout_sources()
    import bandflow
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    items = workload.inputs(args.seed)

    setup = [] if args.trace else measure_setup(SETUP_REPEATS)
    bandflow.integrate_flow(bandflow.make_banded(2, 1, {(0, 1): 1.0}))  # warm-up
    tracer = tracing.Tracer() if args.trace else None
    t0 = perf_counter()
    m = measure(workload, items, args.seconds, tracer)
    wall = perf_counter() - t0
    executions = m["runs"] + m["traced"]
    failed = check(workload, items, executions)
    OUT.mkdir(exist_ok=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items": len(items), "executions": len(executions),
        "measured_s": wall, "loop": "closed, 1 caller",
        "environment": environment(), "contract": contract(), "failures": failed,
    }
    if args.trace:
        plain = sum(e.seconds for e in m["runs"][: len(items)])  # the first pass
        overhead = sum(e.seconds for e in m["traced"]) / plain - 1.0
        layer = tracer.layer_metrics(overhead)
        metrics = {k: (v, tracing.LAYER_METRICS[k]) for k, v in layer.items()}
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = end_to_end(m["runs"], len(items), setup, m["peak_rss_mb"])
        wall_items = per_item_median(m["runs"], len(items), "seconds")
        record.update(setup_s_samples=setup, item_median_wall_s=wall_items,
                      item_median_ref_s=per_item_median(m["runs"], len(items), "ref_seconds"),
                      solve_wall_s=sum(wall_items))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{suffix}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# contract {json.dumps(record['contract'])}")
    print(f"# {args.workload} seed {args.seed}: {len(items)} items, "
          f"{len(executions)} executions in {wall:.2f} s, {len(failed)} failed")
    for f in failed:
        print(f"# FAILED item {f['item']}: {'; '.join(f['gates'])}")
    for k, (v, u) in metrics.items():
        note = ""
        if k == "solve_s":
            note = (f"  (at reference speed; over {len(items)} items, each the median of"
                    f" its executions; wall {record['solve_wall_s']:.6g} s)")
        elif k == "item_p50_s":
            note = f"  (at reference speed; median of {len(items)} items)"
        elif k == "setup_s":
            note = f"  (median of {len(setup)} fresh interpreters)"
        print(f"# {k:24s} {v:14.6g} {u}{note}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(executions),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
