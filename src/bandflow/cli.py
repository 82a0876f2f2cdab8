"""Command-line front end: run flows on matrix files, report model spectra
against oracle and asymptotic values, sweep the asymptotic-formula error
grid, and contrast the band-preserving generator with Wegner's.

All numeric CSV output uses repr() formatting, the shortest decimal string
that round-trips to the same float, so emitted files re-parse bit-exactly.

Exit codes: 0 success/converged; 2 flow not converged, either because it
reached ell_max or because it stalled (the step size underflowed; a
one-line message goes to stderr); 3 input error, reported as one line on
stderr; 4 truncation certification failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import math
import os
import sys
from typing import IO, Sequence

import numpy as np

from . import analytics, models
from .band import BandedSymmetricMatrix, read_matrix
from .flow import FlowConfig, FlowResult, GeneratorKind, StiffFlowError, integrate_flow
from .models import LipkinParams, SpinBosonParams, TruncationError
from .oracle import eigenvalues_dense, eigenvalues_tridiag

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INPUT = 3
EXIT_TRUNCATION = 4

# Default generator-contrast matrix: tridiagonal d=(1,2,4), e=(1,1).  A
# matrix with equidistant diagonal (like d=(1,2,3)) is a poor test case:
# reversal symmetry then keeps the corner entry exactly zero under either
# generator, hiding the fill-in that Wegner's generator produces generically.
_COMPARE_DEFAULT = {
    (0, 0): 1.0, (1, 1): 2.0, (2, 2): 4.0, (0, 1): 1.0, (1, 2): 1.0,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad usage is an input error per the exit contract
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(out: IO[str], header: Sequence[str], rows: Sequence[Sequence]) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _parse_levels(text: str) -> list[int]:
    levels: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            levels.extend(range(int(lo), int(hi) + 1))
        else:
            levels.append(int(part))
    if not levels or any(n < 0 for n in levels):
        raise ValueError(f"invalid level list {text!r}")
    return sorted(set(levels))


def _parse_ells(text: str) -> tuple[float, ...]:
    return tuple(sorted(float(p) for p in text.split(",") if p.strip()))


def _flow_config(args, snapshot_ells=(), record_steps=False) -> FlowConfig:
    return FlowConfig(
        generator=GeneratorKind(args.generator) if hasattr(args, "generator") else GeneratorKind.MIELKE,
        rel_tol=args.rtol,
        abs_tol=args.atol,
        convergence_tol=args.conv_tol,
        ell_max=args.ell_max,
        snapshot_ells=snapshot_ells,
        record_steps=record_steps,
    )


def _add_flow_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rtol", type=float, default=1e-10, help="per-step relative error tolerance")
    p.add_argument("--atol", type=float, default=1e-12, help="per-step absolute error tolerance")
    p.add_argument("--conv-tol", type=float, default=1e-10,
                   help="stop when ||offdiag|| <= conv-tol * ||H||")
    p.add_argument("--ell-max", type=float, default=None,
                   help="flow-parameter cap (default: auto from dimension and spread)")


def _threads(n_tasks: int) -> int:
    raw = os.environ.get("BANDFLOW_THREADS", "")
    try:
        cap = int(raw) if raw else (os.cpu_count() or 1)
    except ValueError:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


# -- flow ------------------------------------------------------------------


def _trace_rows_from_snapshots(result: FlowResult):
    rows = []
    for ell, mat in result.snapshots:
        rows.append(
            [ell, mat.trace(), mat.frobenius_norm_sq(), mat.offdiag_norm_sq()]
            + list(mat.diagonal())
        )
    return rows


def cmd_flow(args) -> int:
    try:
        with open(args.matrix) as f:
            h0 = read_matrix(f)
    except OSError as exc:
        print(f"error: cannot read {args.matrix}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {args.matrix}: {exc}", file=sys.stderr)
        return EXIT_INPUT

    record_steps = args.trace_at == "steps"
    try:
        snapshot_ells = _parse_ells(args.snapshot_ells) if args.snapshot_ells else ()
        config = _flow_config(args, snapshot_ells=snapshot_ells, record_steps=record_steps)
        result = integrate_flow(h0, config)
    except ValueError as exc:  # bad flags, or a Wegner flow over its size cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.trace_out:
        n = h0.dim
        header = ["ell", "trace", "frob_sq", "offdiag_sq"] + [f"h{i}{i}" for i in range(n)]
        if record_steps:
            rows = [
                [r.ell, r.trace, r.frob_sq, r.offdiag_sq] + list(r.diag)
                for r in result.step_trace
            ]
        else:
            rows = _trace_rows_from_snapshots(result)
        out, close = _open_out(args.trace_out)
        try:
            _write_csv(out, header, rows)
        finally:
            if close:
                out.close()

    print("final_diagonal " + " ".join(repr(float(d)) for d in result.final.diagonal()))
    print(f"ell_final {float(result.ell_final)!r}")
    print(f"converged {int(result.converged)}")
    d = result.diagnostics
    print(
        f"diagnostics trace_drift={float(d.trace_drift)!r} "
        f"frobenius_drift={float(d.frobenius_drift)!r} "
        f"partial_trace_violation={float(d.partial_trace_violation)!r}"
    )
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


# -- spectrum ----------------------------------------------------------------


def _rel_err(approx: float | None, ref: float) -> float | None:
    if approx is None or abs(ref) < 1e-300:
        return None
    return abs(approx - ref) / abs(ref)


def _spectrum_lipkin(args) -> tuple[list, int]:
    params = LipkinParams(xi0=args.xi0, v0=args.v0, two_j=args.two_j)
    block_a, block_b = models.build_lipkin_blocks(params)
    status = EXIT_OK
    flows = []
    for blk in (block_a, block_b):
        r = integrate_flow(blk, _flow_config(args))
        if not r.converged:
            status = EXIT_NOT_CONVERGED
        flows.append(r.final.diagonal())
    eps_flow = np.sort(np.concatenate(flows))
    ev = np.sort(
        np.concatenate(
            [
                eigenvalues_tridiag(b.band(0), b.band(1) if b.dim > 1 else np.zeros(0)).eigenvalues
                for b in (block_a, block_b)
            ]
        )
    )
    rpa_ok = 4.0 * params.j * abs(params.v0) < params.xi0
    rows = []
    for k in args.level_list:
        if k >= eps_flow.shape[0]:
            raise ValueError(f"level {k} out of range for 2J+1 = {eps_flow.shape[0]} levels")
        asym1 = None
        if rpa_ok:
            # interleaved blocks: even k -> block 1, odd k -> block 2
            asym1 = analytics.lipkin_rpa_spectrum(params, k // 2, 1 + (k % 2))
        rows.append(
            [k, eps_flow[k], ev[k], asym1, None, _rel_err(asym1, eps_flow[k]), None, None, None]
        )
    return rows, status


def _spectrum_spinboson(args) -> tuple[list, int]:
    n_max = max(args.level_list)
    base = SpinBosonParams(
        delta=args.delta,
        lam=args.lam,
        omega=args.omega,
        branch=args.branch,
        n_trunc=args.n_trunc or models.default_n_trunc(n_max, args.lam, args.omega),
    )
    params = models.certify_truncation(base, n_max, max_dim=args.n_trunc_max)
    h = models.build_spinboson(params)
    result = integrate_flow(h, _flow_config(args))
    status = EXIT_OK if result.converged else EXIT_NOT_CONVERGED
    eps_flow = result.final.diagonal()
    ev = eigenvalues_tridiag(h.band(0), h.band(1)).eigenvalues
    rows = []
    for n in args.level_list:
        asym1 = asym2 = cond_f = cond_order = None
        if n >= 1:
            a1 = analytics.spinboson_eps_asym(n, params, "bessel")
            asym1, cond_f, cond_order = a1.value, a1.cond_f, a1.cond_order
            if params.lam > 0.0:
                asym2 = analytics.spinboson_eps_asym(n, params, "cosine").value
        rows.append(
            [
                n,
                eps_flow[n],
                ev[n],
                asym1,
                asym2,
                _rel_err(asym1, eps_flow[n]),
                _rel_err(asym2, eps_flow[n]),
                cond_f,
                cond_order,
            ]
        )
    return rows, status


_SPECTRUM_HEADER = [
    "n", "eps_flow", "eps_oracle", "eps_asym1", "eps_asym2",
    "rel_err_asym1", "rel_err_asym2", "cond_f", "cond_order",
]


def cmd_spectrum(args) -> int:
    try:
        args.level_list = _parse_levels(args.levels)
        if args.model == "lipkin":
            rows, status = _spectrum_lipkin(args)
        else:
            rows, status = _spectrum_spinboson(args)
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out, close = _open_out(args.out)
    try:
        _write_csv(out, _SPECTRUM_HEADER, rows)
    finally:
        if close:
            out.close()
    return status


# -- fig1 ------------------------------------------------------------------


def _fig1_point(task) -> tuple[float, list[tuple[int, float]], bool]:
    """Worst-over-branches relative error of the Bessel-form eigenvalue
    estimate at one coupling point, for each requested level."""
    delta_over_omega, lam_over_omega, n_list, flow_kwargs = task
    omega = 1.0  # results depend only on the two ratios
    n_max = max(n_list)
    errs = {n: 0.0 for n in n_list}
    converged = True
    for branch in (+1, -1):
        base = SpinBosonParams(
            delta=delta_over_omega * omega,
            lam=lam_over_omega * omega,
            omega=omega,
            branch=branch,
            n_trunc=models.default_n_trunc(n_max, lam_over_omega * omega, omega),
        )
        params = models.certify_truncation(base, n_max)
        h = models.build_spinboson(params)
        result = integrate_flow(h, FlowConfig(**flow_kwargs))
        converged &= result.converged
        diag = result.final.diagonal()
        for n in n_list:
            asym = analytics.spinboson_eps_asym(n, params, "bessel").value
            errs[n] = max(errs[n], abs(asym - diag[n]) / abs(diag[n]))
    return delta_over_omega, [(n, errs[n]) for n in n_list], converged


def cmd_fig1(args) -> int:
    flow_kwargs = dict(
        rel_tol=args.rtol, abs_tol=args.atol, convergence_tol=args.conv_tol,
        ell_max=args.ell_max,
    )
    # Validate here, where an error is one line: the points run in worker processes.
    try:
        n_list = _parse_levels(args.n_list)
        if args.grid_points < 2:
            raise ValueError("grid must have at least 2 points")
        SpinBosonParams(delta=args.delta_max, lam=args.lambda_over_omega, omega=1.0)
        FlowConfig(**flow_kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    grid = np.linspace(0.0, args.delta_max, args.grid_points)
    tasks = [(float(d), args.lambda_over_omega, tuple(n_list), flow_kwargs) for d in grid]
    workers = _threads(len(tasks))
    try:
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_fig1_point, tasks))
        else:
            results = [_fig1_point(t) for t in tasks]
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION

    status = EXIT_OK
    rows = []
    for delta_over_omega, errs, converged in results:  # submission order: deterministic
        if not converged:
            status = EXIT_NOT_CONVERGED
        for n, err in errs:
            rows.append([delta_over_omega, n, err])
    out, close = _open_out(args.out)
    try:
        _write_csv(out, ["delta_over_omega", "n", "rel_err_asym1"], rows)
    finally:
        if close:
            out.close()
    return status


# -- compare-generators -------------------------------------------------------


def _offset_occupancy(mat: BandedSymmetricMatrix) -> list[float]:
    dense = mat.to_dense()
    return [float(np.max(np.abs(np.diagonal(dense, k)))) for k in range(mat.dim)]


def cmd_compare_generators(args) -> int:
    if args.matrix:
        try:
            with open(args.matrix) as f:
                h0 = read_matrix(f)
        except (OSError, ValueError) as exc:
            print(f"error: {args.matrix}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        from .band import make_banded

        h0 = make_banded(3, 1, _COMPARE_DEFAULT)
    if h0.dim > 64:
        print("error: comparison mode is capped at N <= 64", file=sys.stderr)
        return EXIT_INPUT

    try:
        if args.snapshot_ells:
            ells = _parse_ells(args.snapshot_ells)
        else:
            fro2 = h0.frobenius_norm_sq()
            if fro2 == 0.0:
                raise ValueError("default snapshot ells scale by 1/||H||^2, and ||H|| = 0; "
                                 "pass --snapshot-ells")
            ells = tuple(s / fro2 for s in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0))
        configs = [
            FlowConfig(
                generator=gen, rel_tol=args.rtol, abs_tol=args.atol,
                convergence_tol=args.conv_tol, ell_max=args.ell_max, snapshot_ells=ells,
            )
            for gen in (GeneratorKind.MIELKE, GeneratorKind.WEGNER)
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    status = EXIT_OK
    rows = []
    for config in configs:
        gen = config.generator
        result = integrate_flow(h0, config)
        if not result.converged:
            status = EXIT_NOT_CONVERGED
        for ell, mat in result.snapshots:
            for offset, occ in enumerate(_offset_occupancy(mat)):
                rows.append([gen.value, ell, offset, occ])
    out, close = _open_out(args.out)
    try:
        _write_csv(out, ["generator", "ell", "offset", "max_abs"], rows)
    finally:
        if close:
            out.close()
    return status


# -- entry -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="bandflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    kw = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = sub.add_parser("flow", help="flow a matrix file to diagonal form", **kw)
    p.add_argument("matrix", help="matrix file ('bandmat N M' header, 'n m value' lines)")
    p.add_argument("--generator", choices=[g.value for g in GeneratorKind], default="mielke")
    _add_flow_flags(p)
    p.add_argument("--snapshot-ells", default="", help="comma-separated ell values to record")
    p.add_argument("--trace-out", default=None, help="write flow trace CSV here")
    p.add_argument("--trace-at", choices=["steps", "snapshots"], default="snapshots",
                   help="trace rows per accepted step or per snapshot")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("spectrum", help="model spectrum report: flow vs oracle vs formulas", **kw)
    p.add_argument("--model", choices=["lipkin", "spinboson"], required=True)
    p.add_argument("--levels", default="0-5", help="levels, e.g. '0-5' or '0,2,10'")
    p.add_argument("--xi0", type=float, default=1.0)
    p.add_argument("--v0", type=float, default=0.0)
    p.add_argument("--two-j", type=int, default=2, help="twice the pseudo-spin")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--branch", choices=["+", "-"], default="+")
    p.add_argument("--n-trunc", type=int, default=None,
                   help="boson truncation (default: rule based on levels and coupling)")
    p.add_argument("--n-trunc-max", type=int, default=1 << 14,
                   help="largest truncation the certification loop may try")
    _add_flow_flags(p)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fig1", help="relative-error grid of the Bessel-form eigenvalues", **kw)
    p.add_argument("--lambda-over-omega", type=float, default=4.0)
    p.add_argument("--n-list", default="10,15,20")
    p.add_argument("--delta-max", type=float, default=5.0, help="grid spans delta/omega in [0, this]")
    p.add_argument("--grid-points", type=int, default=26)
    _add_flow_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser(
        "compare-generators",
        help="band occupancy per offset vs ell for both generators",
        **kw,
    )
    p.add_argument("matrix", nargs="?", default=None,
                   help="matrix file (default: built-in generic 3x3 tridiagonal)")
    _add_flow_flags(p)
    p.add_argument("--snapshot-ells", default="",
                   help="ell values (default: 6 points scaled by 1/||H||^2)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare_generators)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "branch", None) is not None:
        args.branch = +1 if args.branch == "+" else -1
    try:
        return args.func(args)
    except StiffFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
