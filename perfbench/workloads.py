"""The benchmark's workloads: inputs drawn from a seed, the timed call, the checks.

Seed 0 gives the canonical inputs; any other seed draws fresh inputs from
the same ranges.  bandflow sees only the generated matrices and parameters.
Every flow runs under the same pinned tolerance contract, so a later change
to a FlowConfig default cannot pass for a speed-up.

The timed call goes through module attributes (``flow.integrate_flow``,
``models.certify_truncation``, ...) so that the traced run can wrap them.
The checks run after the timed loop and share no code with ``flow`` or
``ode``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from bandflow import analytics, flow, models, oracle
from bandflow.band import BandedSymmetricMatrix

CONTRACT = dict(rel_tol=1e-10, abs_tol=1e-12, convergence_tol=1e-10, ell_max=None)
SPECTRUM_TOL = 1e-7  # relative to max|lambda|: acceptance criterion 02
DRIFT_TOL = 1e-9  # acceptance criterion 03

FAILURES = (flow.StiffFlowError, models.TruncationError)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], list]  # seed -> items
    solve: Callable[[Any], Any]  # one item; this is what is timed
    check: Callable[[Any, Any], list[str]]  # (item, output) -> failed gates


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """The seed's generator.  Seed 0 builds one too, though it draws nothing
    from it, so that every seed loads the same modules into peak_rss_mb."""
    return np.random.default_rng([seed, *stream])


def _flow_gates(h: BandedSymmetricMatrix, res: flow.FlowResult) -> list[str]:
    fails = []
    if not res.converged:
        fails.append("not converged")
    for mat in [res.final] + [m for _, m in res.snapshots]:
        if (mat.dim, mat.bandwidth) != (h.dim, h.bandwidth):
            fails.append("band profile changed")
            break
    return fails


def _spectrum_gate(diag: np.ndarray, reference: np.ndarray) -> list[str]:
    err = float(np.max(np.abs(np.sort(diag) - reference)))
    scale = float(np.max(np.abs(reference)))
    if not err <= SPECTRUM_TOL * scale:
        return [f"eigenvalue error {err:.3g} > {SPECTRUM_TOL:g} * {scale:.6g}"]
    return []


def _sturm_gate(h: BandedSymmetricMatrix, diag: np.ndarray) -> list[str]:
    """Each sorted diagonal entry d_i brackets eigenvalue i within the tolerance.

    One Sturm pass counts the eigenvalues below d_i - tol and d_i + tol;
    eigenvalue i lies in [d_i - tol, d_i + tol) iff the first count is at
    most i and the second exceeds i.  If every bracket holds, max|d| is
    within a relative 1e-7 of max|lambda|, so tol is criterion 02's bound.
    """
    d = np.sort(diag)
    n = d.size
    tol = SPECTRUM_TOL * float(np.max(np.abs(d)))
    off = h.band(1)
    counts = oracle.sturm_count(h.band(0), off * off, np.concatenate((d - tol, d + tol)))
    idx = np.arange(n)
    bad = int(np.count_nonzero((counts[:n] > idx) | (counts[n:] <= idx)))
    return [f"{bad} eigenvalues outside +-{tol:.3g}"] if bad else []


# -- ensemble: the acceptance suite's random banded matrices ---------------------

ENSEMBLE_N, ENSEMBLE_M, ENSEMBLE_SIZE = 60, 3, 20
ENSEMBLE_CONFIG = flow.FlowConfig(**CONTRACT, snapshot_ells=(0.5, 2.0, 8.0))


def random_banded(seed: int, k: int) -> BandedSymmetricMatrix:
    """Matrix k of the ensemble; seed 0 is the acceptance suite's recipe."""
    rng = np.random.default_rng(k) if seed == 0 else _rng(seed, k)
    bands = [rng.uniform(-1.0, 1.0, ENSEMBLE_N - j) for j in range(ENSEMBLE_M + 1)]
    return BandedSymmetricMatrix(ENSEMBLE_N, ENSEMBLE_M, bands)


def ensemble_inputs(seed: int) -> list[BandedSymmetricMatrix]:
    return [random_banded(seed, k) for k in range(ENSEMBLE_SIZE)]


def ensemble_solve(h: BandedSymmetricMatrix) -> flow.FlowResult:
    return flow.integrate_flow(h, ENSEMBLE_CONFIG)


def ensemble_check(h: BandedSymmetricMatrix, res: flow.FlowResult) -> list[str]:
    fails = _flow_gates(h, res)
    fails += _spectrum_gate(res.final.diagonal(), np.linalg.eigvalsh(h.to_dense()))
    d = res.diagnostics
    drift = max(d.trace_drift / max(1.0, abs(h.trace())), d.frobenius_drift,
                d.partial_trace_violation)
    if not drift <= DRIFT_TOL:
        fails.append(f"conservation drift {drift:.3g} > {DRIFT_TOL:g}")
    return fails


# -- fig1: the paper's spin-boson error grid -------------------------------------

FIG1_LAMBDA = 4.0  # lambda / omega
FIG1_LEVELS = (10, 15, 20)
FIG1_DELTA_MAX, FIG1_POINTS = 5.0, 26
FIG1_CONFIG = flow.FlowConfig(**CONTRACT)


@dataclass(frozen=True)
class Fig1Point:
    delta: float  # delta / omega
    lam: float  # lambda / omega


def fig1_inputs(seed: int) -> list[Fig1Point]:
    rng = _rng(seed)
    grid = np.linspace(0.0, FIG1_DELTA_MAX, FIG1_POINTS)
    if seed:
        half_cell = 0.5 * FIG1_DELTA_MAX / (FIG1_POINTS - 1)
        grid = np.clip(grid + rng.uniform(-half_cell, half_cell, grid.size),
                       0.0, FIG1_DELTA_MAX)
    return [Fig1Point(float(d), FIG1_LAMBDA) for d in grid]


def fig1_solve(p: Fig1Point) -> list[tuple]:
    """Both branches of one grid point, through the calls `bandflow fig1` makes."""
    omega = 1.0
    n_max = max(FIG1_LEVELS)
    branches = []
    for branch in (+1, -1):
        base = models.SpinBosonParams(
            delta=p.delta * omega, lam=p.lam * omega, omega=omega, branch=branch,
            n_trunc=models.default_n_trunc(n_max, p.lam * omega, omega),
        )
        params = models.certify_truncation(base, n_max)
        h = models.build_spinboson(params)
        res = flow.integrate_flow(h, FIG1_CONFIG)
        diag = res.final.diagonal()
        errs = [abs(analytics.spinboson_eps_asym(n, params, "bessel").value - diag[n])
                / abs(diag[n]) for n in FIG1_LEVELS]
        branches.append((h, res, errs))
    return branches


def fig1_check(p: Fig1Point, branches: list[tuple]) -> list[str]:
    fails = []
    for h, res, errs in branches:
        fails += _flow_gates(h, res)
        fails += _spectrum_gate(res.final.diagonal(), np.linalg.eigvalsh(h.to_dense()))
        if not np.all(np.isfinite(errs)):
            fails.append("non-finite error-grid value")
    return fails


# -- lipkin-chain: long tridiagonal parity blocks ---------------------------------

LIPKIN_TWO_J, LIPKIN_XI0 = 20000, 1.0
LIPKIN_COUPLINGS = (0.1, 0.3, 0.5, 0.7, 0.9)  # 4 J v0 / xi0
LIPKIN_JITTER = 0.02
LIPKIN_CONFIG = flow.FlowConfig(**CONTRACT)


def lipkin_inputs(seed: int) -> list[BandedSymmetricMatrix]:
    rng = _rng(seed)
    couplings = np.array(LIPKIN_COUPLINGS)
    if seed:
        couplings += rng.uniform(-LIPKIN_JITTER, LIPKIN_JITTER, couplings.size)
    blocks = []
    for c in couplings:
        v0 = float(c) * LIPKIN_XI0 / (2.0 * LIPKIN_TWO_J)  # 4 J v0 = c xi0
        params = models.LipkinParams(xi0=LIPKIN_XI0, v0=v0, two_j=LIPKIN_TWO_J)
        blocks.extend(models.build_lipkin_blocks(params))
    return blocks


def lipkin_solve(h: BandedSymmetricMatrix) -> flow.FlowResult:
    return flow.integrate_flow(h, LIPKIN_CONFIG)


def lipkin_check(h: BandedSymmetricMatrix, res: flow.FlowResult) -> list[str]:
    return _flow_gates(h, res) + _sturm_gate(h, res.final.diagonal())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ensemble", ensemble_inputs, ensemble_solve, ensemble_check),
        Workload("fig1", fig1_inputs, fig1_solve, fig1_check),
        Workload("lipkin-chain", lipkin_inputs, lipkin_solve, lipkin_check),
    )
}
