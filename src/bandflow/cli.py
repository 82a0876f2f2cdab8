"""Command-line front end: run flows on matrix files, report model spectra
against oracle and asymptotic values, sweep the asymptotic-formula error
grid, and contrast the band-preserving generator with Wegner's.

All numeric CSV output uses repr() formatting, the shortest decimal string
that round-trips to the same float, so emitted files re-parse bit-exactly.

Exit codes: 0 success/converged; 2 flow not converged, either because it
reached ell_max or because it stalled (the step size underflowed; a
one-line message goes to stderr); 3 input or output error, including input
too large for memory on any command, reported as one line on stderr; 4
truncation certification failure.  The commands raise; main alone maps
their errors to these exit codes and prints the one line.  The --out and
--trace-out files are opened (and truncated) before any work runs, so an
unwritable path exits 3 at once.  Output that cannot be written later, to a
full device for one, also exits 3 with one line on stderr; a reader that
closes standard output early (``| head``) ends the run with 3 and no
message.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import os
import sys
from typing import IO, Sequence

import numpy as np

from . import analytics, models
from .band import BandedSymmetricMatrix, make_banded, read_matrix
from .flow import FlowConfig, GeneratorKind, StiffFlowError, integrate_flow
from .models import LipkinParams, SpinBosonParams, TruncationError
from .oracle import eigenvalues_tridiag

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


class _DefaultsFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends an option's default to its help, unless the default is None
    or "": such help states what happens without the option itself."""

    def _get_help_string(self, action):
        if action.default is None or action.default == "":
            return action.help
        return super()._get_help_string(action)


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


def _open_outputs(args, stack: contextlib.ExitStack) -> None:
    """Replace the --out / --trace-out paths in args by open files ('-' is
    stdout), so that an unwritable path is an input error before any work."""
    for name in ("out", "trace_out"):
        path = getattr(args, name, None)
        if path is not None:
            setattr(args, name, sys.stdout if path == "-" else stack.enter_context(open(path, "w")))


def _parse_levels(text: str, count: int | None = None) -> list[int]:
    """The sorted levels of a list like '0-5,8'.  Each range stays a (lo, hi)
    pair until every level is known to lie below count, the model's number
    of levels, so a range past the end costs nothing however long it is."""
    ranges: list[tuple[int, int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            pair = int(lo), int(hi)
        else:
            pair = int(part), int(part)
        if pair[0] <= pair[1]:
            ranges.append(pair)
    if not ranges or any(lo < 0 for lo, _ in ranges):
        raise ValueError(f"invalid level list {text!r}")
    if count is not None and any(hi >= count for _, hi in ranges):
        k = min(max(lo, count) for lo, hi in ranges if hi >= count)
        raise ValueError(f"level {k} out of range for {count} levels")
    return sorted({k for lo, hi in ranges for k in range(lo, hi + 1)})


def _parse_ells(text: str) -> tuple[float, ...]:
    return tuple(sorted(float(p) for p in text.split(",") if p.strip()))


def _flow_config(args, generator=GeneratorKind.MIELKE, snapshot_ells=()) -> FlowConfig:
    return FlowConfig(
        generator=generator,
        rel_tol=args.rtol,
        abs_tol=args.atol,
        convergence_tol=args.conv_tol,
        ell_max=args.ell_max,
        snapshot_ells=snapshot_ells,
    )


def _add_flow_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rtol", type=float, default=1e-10, help="per-step relative error tolerance")
    p.add_argument("--atol", type=float, default=1e-12, help="per-step absolute error tolerance")
    p.add_argument("--conv-tol", type=float, default=1e-10,
                   help="stop when ||offdiag|| <= conv-tol * ||H||")
    p.add_argument("--ell-max", type=float, default=None,
                   help="flow-parameter cap (default: auto from dimension and spread)")


def _read_matrix_file(path: str) -> BandedSymmetricMatrix:
    """Read a matrix file; an unreadable or malformed file is a ValueError
    naming the path."""
    try:
        with open(path) as f:
            return read_matrix(f)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _threads(n_tasks: int) -> int:
    raw = os.environ.get("BANDFLOW_THREADS", "")
    try:
        cap = int(raw) if raw else (os.cpu_count() or 1)
    except ValueError:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


# -- flow ------------------------------------------------------------------


def cmd_flow(args) -> int:
    h0 = _read_matrix_file(args.matrix)
    snapshot_ells = _parse_ells(args.snapshot_ells) if args.snapshot_ells else ()
    if args.trace_out and not snapshot_ells:
        raise ValueError("--trace-out writes one row per snapshot; give --snapshot-ells")
    result = integrate_flow(h0, _flow_config(args, GeneratorKind(args.generator), snapshot_ells))
    if args.trace_out:
        header = ["ell", "trace", "frob_sq", "offdiag_sq"] + [f"h{i}{i}" for i in range(h0.dim)]
        _write_csv(args.trace_out, header, [
            [ell, mat.trace(), mat.frobenius_norm_sq(), mat.offdiag_norm_sq(), *mat.diagonal()]
            for ell, mat in result.snapshots
        ])

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
    if args.levels is None:
        levels = list(range(min(6, params.two_j + 1)))
    else:
        levels = _parse_levels(args.levels, params.two_j + 1)
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
    for k in levels:
        asym1 = None
        if rpa_ok:
            # interleaved blocks: even k -> block 1, odd k -> block 2
            asym1 = analytics.lipkin_rpa_spectrum(params, k // 2, 1 + (k % 2))
        rows.append(
            [k, eps_flow[k], ev[k], asym1, None, _rel_err(asym1, eps_flow[k]), None, None, None]
        )
    return rows, status


def _spectrum_spinboson(args) -> tuple[list, int]:
    levels = _parse_levels("0-5" if args.levels is None else args.levels)
    n_max = levels[-1]
    base = SpinBosonParams(delta=args.delta, lam=args.lam, omega=args.omega, branch=args.branch)
    base = dataclasses.replace(  # the truncation rule reads validated parameters
        base, n_trunc=models.default_n_trunc(n_max, base.lam, base.omega)
        if args.n_trunc is None else args.n_trunc
    )
    # the oracle's levels are the ones certification solved the chain for
    params, ev = models._certify(base, n_max, max_dim=args.n_trunc_max)
    h = models.build_spinboson(params)
    result = integrate_flow(h, _flow_config(args))
    status = EXIT_OK if result.converged else EXIT_NOT_CONVERGED
    eps_flow = result.final.diagonal()
    rows = []
    for n in levels:
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
    report = _spectrum_lipkin if args.model == "lipkin" else _spectrum_spinboson
    rows, status = report(args)
    _write_csv(args.out or sys.stdout, _SPECTRUM_HEADER, rows)
    return status


# -- fig1 ------------------------------------------------------------------


def _fig1_point(task) -> tuple[float, list[tuple[int, float]], bool]:
    """Worst-over-branches relative error of the Bessel-form eigenvalue
    estimate at one coupling point, for each requested level."""
    delta_over_omega, lam_over_omega, n_list, config = task
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
        result = integrate_flow(h, config)
        converged &= result.converged
        diag = result.final.diagonal()
        for n in n_list:
            asym = analytics.spinboson_eps_asym(n, params, "bessel").value
            errs[n] = max(errs[n], abs(asym - diag[n]) / abs(diag[n]))
    return delta_over_omega, [(n, errs[n]) for n in n_list], converged


def cmd_fig1(args) -> int:
    # Check the flags before any worker process starts; an error a worker
    # raises reaches main through pool.map all the same.
    n_list = _parse_levels(args.n_list)
    if n_list[0] < 1:
        raise ValueError("fig1 levels must be >= 1: the asymptotic formulas start at n = 1")
    if args.grid_points < 2:
        raise ValueError("grid must have at least 2 points")
    SpinBosonParams(delta=args.delta_max, lam=args.lambda_over_omega, omega=1.0)
    config = _flow_config(args)

    grid = np.linspace(0.0, args.delta_max, args.grid_points)
    tasks = [(float(d), args.lambda_over_omega, tuple(n_list), config) for d in grid]
    workers = _threads(len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fig1_point, tasks))
    else:
        results = [_fig1_point(t) for t in tasks]

    status = EXIT_OK
    rows = []
    for delta_over_omega, errs, converged in results:  # submission order: deterministic
        if not converged:
            status = EXIT_NOT_CONVERGED
        for n, err in errs:
            rows.append([delta_over_omega, n, err])
    _write_csv(args.out or sys.stdout, ["delta_over_omega", "n", "rel_err_asym1"], rows)
    return status


# -- compare-generators -------------------------------------------------------


def _offset_occupancy(mat: BandedSymmetricMatrix) -> list[float]:
    dense = mat.to_dense()
    return [float(np.max(np.abs(np.diagonal(dense, k)))) for k in range(mat.dim)]


def cmd_compare_generators(args) -> int:
    h0 = _read_matrix_file(args.matrix) if args.matrix else make_banded(3, 1, _COMPARE_DEFAULT)
    if h0.dim > 64:
        raise ValueError("comparison mode is capped at N <= 64")
    if args.snapshot_ells:
        ells = _parse_ells(args.snapshot_ells)
    else:
        fro2 = h0.frobenius_norm_sq()
        if fro2 == 0.0:
            raise ValueError("default snapshot ells scale by 1/||H||^2, and ||H|| = 0; "
                             "pass --snapshot-ells")
        ells = tuple(s / fro2 for s in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0))
    # both configs are checked before either flow runs
    configs = [_flow_config(args, gen, ells)
               for gen in (GeneratorKind.MIELKE, GeneratorKind.WEGNER)]

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
    _write_csv(args.out or sys.stdout, ["generator", "ell", "offset", "max_abs"], rows)
    return status


# -- entry -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="bandflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    kw = dict(formatter_class=_DefaultsFormatter)

    p = sub.add_parser("flow", help="flow a matrix file to diagonal form", **kw)
    p.add_argument("matrix", help="matrix file ('bandmat N M' header, 'n m value' lines)")
    p.add_argument("--generator", choices=[g.value for g in GeneratorKind], default="mielke")
    _add_flow_flags(p)
    p.add_argument("--snapshot-ells", default="", help="comma-separated ell values to record")
    p.add_argument("--trace-out", default=None,
                   help="write one CSV row per snapshot ell here (needs --snapshot-ells)")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("spectrum", help="model spectrum report: flow vs oracle vs formulas", **kw)
    p.add_argument("--model", choices=["lipkin", "spinboson"], required=True)
    p.add_argument("--levels", default=None,
                   help="levels, e.g. '0-5' or '0,2,10' (default: 0-5, or for lipkin the "
                        "first min(6, 2J+1))")
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
    # The one place that maps errors to exit codes: the commands just raise.
    try:
        with contextlib.ExitStack() as stack:
            try:
                _open_outputs(args, stack)
            except OSError as exc:
                print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
                return EXIT_INPUT
            status = args.func(args)
        sys.stdout.flush()  # a closed or full stdout fails here, not at exit
        return status
    except StiffFlowError as exc:
        return _report(exc, EXIT_NOT_CONVERGED)
    except TruncationError as exc:
        return _report(exc, EXIT_TRUNCATION)
    except (ValueError, MemoryError) as exc:  # bad input, or input too large for memory
        return _report(exc, EXIT_INPUT)
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        _detach_stdout()
        return EXIT_INPUT
    except OSError as exc:  # a full device, say
        _detach_stdout()
        return _report(exc, EXIT_INPUT)


def _report(exc: Exception, status: int) -> int:
    print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
    return status


def _detach_stdout() -> None:
    """Point file descriptor 1 at os.devnull: a failed write leaves its data
    in the buffer, and the interpreter's flush at exit would fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
