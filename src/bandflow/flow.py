"""Flow-equation diagonalization dH/dl = [eta, H] for banded symmetric matrices.

The sign generator eta_nm = sign(n - m) h_nm drives any bounded-below real
symmetric matrix to diagonal form while exactly preserving its band profile;
the right-hand side is evaluated directly on the diagonal-major band storage,
so entries outside the band never exist at any point of the integration.
Wegner's classic generator [H_d, H] is also provided as the contrast case
that fills the band in.  Both generators run through the same driver: a
Wegner flow is a banded flow at full bandwidth M = N - 1, so its results
are full-band BandedSymmetricMatrix objects, and it integrates as one
undeflated system.

Convergence of off-diagonal entries toward zero is asymptotically
exponential with rate |h_nn(inf) - h_mm(inf)|, so near-degenerate pairs
dominate the run time.  The integrator therefore deflates: once every
coupling across a block boundary has decayed below a budgeted threshold
(and the boundary is correctly ordered), those couplings are set to zero
and the blocks continue independently, each with its own step size.  The
total perturbation is kept below half the convergence tolerance.

The integrator is the DOP853 pair (see :mod:`bandflow.ode`).  It replaced
Dormand-Prince 5(4) because at the default rel_tol of 1e-10 the step is
limited by accuracy, not stability, so the 8th-order step needs about a
quarter of the steps and half the RHS evaluations per flow.

Every flow runs on H / 2^k, with 2^k the binary exponent of max|h_nm|, so
that squared entries and norms neither overflow nor underflow at any
representable scale.  The flow is covariant under that rescaling (ell
carries units of 1/energy, 1/energy^2 for Wegner's generator) and scaling
by a power of two is exact, so results are mapped back exactly; abs_tol
is taken in units of 2^k.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import sys
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .band import BandedSymmetricMatrix, split_irreducible
from .ode import Dop853 as Dopri54  # perfbench/tracing.py patches this name
from .ode import StepSizeUnderflow

__all__ = [
    "GeneratorKind",
    "FlowConfig",
    "FlowResult",
    "FlowStats",
    "ConservationReport",
    "TraceRow",
    "StiffFlowError",
    "mielke_eta",
    "mielke_rhs",
    "wegner_eta",
    "wegner_rhs",
    "integrate_flow",
    "decay_rate_estimate",
]

_WEGNER_CAP = 256
_DECAY_FIT_FLOOR = 1e-12  # times ||H||_F; below this, roundoff dominates log fits
_DEFLATE_EVERY = 4  # accepted steps between boundary scans

try:  # hot loop only; the numpy stencil below is the reference implementation
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False


class GeneratorKind(enum.Enum):
    MIELKE = "mielke"
    WEGNER = "wegner"


class StiffFlowError(RuntimeError):
    """Step-size underflow; carries the flow parameter and current norms."""

    def __init__(self, ell: float, frob_sq: float, offdiag_sq: float):
        super().__init__(
            f"flow integration stalled at ell={ell:.6g} "
            f"(frob_sq={frob_sq:.6g}, offdiag_sq={offdiag_sq:.6g})"
        )
        self.ell = ell
        self.frob_sq = frob_sq
        self.offdiag_sq = offdiag_sq

    def __reduce__(self):  # rebuild from the fields, e.g. across a process pool
        return type(self), (self.ell, self.frob_sq, self.offdiag_sq)


@dataclass(frozen=True)
class FlowConfig:
    """Integration controls for :func:`integrate_flow`.

    ell_max=None derives a generous cap from the matrix dimension and its
    Gershgorin spread; the flow stops at convergence long before reaching it
    unless the final spectrum has pathologically close gaps.  The flow
    parameter carries units of inverse energy for the sign generator (the
    Wegner generator scales as inverse energy squared), so ell_max should be
    scaled accordingly when overridden.  abs_tol is in units of 2^k, the
    binary exponent of max|h_nm| (see :func:`integrate_flow`), so the
    per-step tolerance scales with the matrix.  Tolerances and ell_max must
    be finite and positive, snapshot ells finite, non-negative and sorted.

    record_steps logs every accepted step.  Steps mode integrates the whole
    matrix as one undeflated system (as every Wegner flow does), so it is
    not the same run as the untraced sign-generator flow.
    """

    generator: GeneratorKind = GeneratorKind.MIELKE
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    convergence_tol: float = 1e-10
    ell_max: float | None = None
    snapshot_ells: tuple[float, ...] = ()
    record_steps: bool = False

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "convergence_tol", "ell_max"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        ells = tuple(float(s) for s in self.snapshot_ells)
        if not all(math.isfinite(s) and s >= 0.0 for s in ells):
            raise ValueError(f"snapshot ells must be finite and non-negative, got {ells!r}")
        if list(ells) != sorted(ells):
            raise ValueError("snapshot_ells must be sorted ascending")
        object.__setattr__(self, "snapshot_ells", ells)


@dataclass
class ConservationReport:
    """Invariant drift accumulated over all recorded integration steps.

    trace_drift and frobenius_drift are summed per-block maxima, i.e. upper
    bounds on the drift of the assembled matrix.  partial_trace_violation is
    the largest single-step increase of any partial trace sum(h_nn, n < r);
    the sign flow decreases these monotonically, so anything above
    integration noise indicates a defect.  Wegner flows report the same
    quantity but carry no monotonicity guarantee.
    """

    trace_drift: float = 0.0
    frobenius_drift: float = 0.0
    partial_trace_violation: float = 0.0


@dataclass(frozen=True)
class TraceRow:
    """Per-step record of the flowing matrix (record_steps mode)."""

    ell: float
    trace: float
    frob_sq: float
    offdiag_sq: float
    diag: np.ndarray


@dataclass(frozen=True)
class FlowStats:
    """Work done by one flow.  Counts only, so equal inputs give equal stats.

    n_tasks counts block integrations that built a stepper (blocks that
    arrive converged cost nothing and are not counted); n_deflations counts
    block boundaries zeroed.  Every attempted step costs 12 RHS evaluations,
    every stepper one more, and every automatic initial-step estimate one
    more; only the input's irreducible blocks estimate their first step,
    blocks split off later inherit it.
    """

    n_rhs: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    n_tasks: int = 0
    n_deflations: int = 0


@dataclass
class FlowResult:
    # Same bandwidth as the input for the sign generator, M = N - 1 for Wegner's.
    final: BandedSymmetricMatrix
    ell_final: float
    converged: bool
    snapshots: list[tuple[float, BandedSymmetricMatrix]]
    diagnostics: ConservationReport
    step_trace: list[TraceRow] = field(default_factory=list)
    stats: FlowStats = field(default_factory=FlowStats)


# -- generators and right-hand sides ------------------------------------------


def mielke_eta(h: BandedSymmetricMatrix) -> np.ndarray:
    """Antisymmetric generator eta_nm = sign(n - m) h_nm as a dense array."""
    a = h.to_dense()
    n = h.dim
    sign = np.sign(np.subtract.outer(np.arange(n), np.arange(n)))
    return sign * a


def _band_slices(n: int, m: int) -> list[slice]:
    slices = []
    offset = 0
    for k in range(m + 1):
        slices.append(slice(offset, offset + n - k))
        offset += n - k
    return slices


def _banded_rhs_inplace(e: list[np.ndarray], r: list[np.ndarray], n: int, m: int) -> None:
    """dH/dl = [eta, H] for the sign generator, as a band-array stencil.

    For n < m the commutator reduces to
        (h_nn - h_mm) h_nm + 2 sum_{k<n} h_nk h_km - 2 sum_{k>m} h_nk h_km
    and the diagonal to 2 (sum_{k<n} - sum_{k>n}) h_nk^2; terms with
    |n - m| > M vanish identically, so the band profile is preserved
    exactly rather than to tolerance.
    """
    r0 = r[0]
    r0[:] = 0.0
    for j in range(1, m + 1):
        ej2 = e[j] * e[j]
        ej2 += ej2
        r0[j:] += ej2
        r0[: n - j] -= ej2
    for d in range(1, m + 1):
        rd = r[d]
        np.multiply(e[0][: n - d] - e[0][d:], e[d], out=rd)
        for i in range(1, m - d + 1):
            w = n - d - i  # valid stencil width
            t = e[i][:w] * e[d + i][:w]
            t += t
            rd[i:] += t
            t = e[d + i][:w] * e[i][d : n - i]
            t += t
            rd[:w] -= t


def _rhs_kernel_py(y: np.ndarray, out: np.ndarray, n: int, m: int) -> None:
    """Flat-vector form of the stencil; band k starts at k*n - k(k-1)/2."""
    for i in range(n):
        out[i] = 0.0
    for j in range(1, m + 1):
        oj = j * n - j * (j - 1) // 2
        for i in range(n - j):
            v = 2.0 * y[oj + i] * y[oj + i]
            out[j + i] += v
            out[i] -= v
    for d in range(1, m + 1):
        od = d * n - d * (d - 1) // 2
        for i in range(n - d):
            out[od + i] = (y[i] - y[i + d]) * y[od + i]
        for i2 in range(1, m - d + 1):
            oi = i2 * n - i2 * (i2 - 1) // 2
            odi = (d + i2) * n - (d + i2) * (d + i2 - 1) // 2
            for a in range(n - d - i2):
                out[od + i2 + a] += 2.0 * y[oi + a] * y[odi + a]
                out[od + a] -= 2.0 * y[odi + a] * y[oi + d + a]


if _HAVE_NUMBA:
    # no fastmath: structural zeros must stay exact
    _rhs_kernel = _njit(cache=True)(_rhs_kernel_py)
else:  # pragma: no cover
    _rhs_kernel = None


def mielke_rhs(h: BandedSymmetricMatrix) -> BandedSymmetricMatrix:
    """Right-hand side of the sign-generator flow, same band profile as h."""
    n, m = h.dim, h.bandwidth
    e = [h.band(k) for k in range(m + 1)]
    r = [np.zeros(n - k) for k in range(m + 1)]
    _banded_rhs_inplace(e, r, n, m)
    return BandedSymmetricMatrix(n, m, r)


def wegner_eta(h_dense: np.ndarray) -> np.ndarray:
    """Wegner generator [H_d, H]; equivalently eta_nm = (h_nn - h_mm) h_nm."""
    h = np.asarray(h_dense, dtype=float)
    d = np.diag(np.diag(h))
    return d @ h - h @ d


def wegner_rhs(h_dense: np.ndarray) -> np.ndarray:
    """dH/dl = [[H_d, H], H]; generically fills entries outside any band."""
    h = np.asarray(h_dense, dtype=float)
    eta = wegner_eta(h)
    return eta @ h - h @ eta


# -- integration ---------------------------------------------------------------


def _wegner_band_rhs(nb: int, mb: int):
    """Wegner's dH/dl on diagonal-major band storage of a full-band matrix.

    Scatters the state into a dense symmetric matrix, evaluates
    :func:`wegner_rhs` and gathers its upper triangle back, so the state
    stays exactly symmetric.
    """
    rows = np.concatenate([np.arange(nb - k) for k in range(mb + 1)])
    cols = rows + np.repeat(np.arange(mb + 1), nb - np.arange(mb + 1))
    h = np.zeros((nb, nb))

    def rhs(y: np.ndarray) -> np.ndarray:
        h[rows, cols] = y
        h[cols, rows] = y
        return wegner_rhs(h)[rows, cols]

    return rhs


def _auto_ell_max(diag: np.ndarray, bands_norm1: np.ndarray, power: int) -> float:
    """Generous flow-parameter cap: 1e5 * N / (Gershgorin spread)^power.

    power is 1 for the sign generator and 2 for Wegner's, whose flow
    parameter carries units of inverse energy squared.  Deflation makes a
    large cap cheap; the heuristic only needs to exceed ~25 / (smallest
    final gap) for typical spectra.
    """
    lo = float(np.min(diag - bands_norm1))
    hi = float(np.max(diag + bands_norm1))
    spread = hi - lo
    if spread <= 0.0:
        return 1.0
    return 1e5 * diag.shape[0] / spread**power


def _gershgorin_radii(e: list[np.ndarray], n: int, m: int) -> np.ndarray:
    radii = np.zeros(n)
    for j in range(1, m + 1):
        radii[: n - j] += np.abs(e[j])
        radii[j:] += np.abs(e[j])
    return radii


def _sub_bands(bands: list[np.ndarray], start: int, size: int, m: int) -> list[np.ndarray]:
    """Private copies of the bands of the diagonal block [start, start + size)."""
    return [bands[k][start : start + size - k].copy() for k in range(min(m, size - 1) + 1)]


@dataclass
class _Task:
    start: int
    bands: list[np.ndarray]  # private copies for this block
    ell: float
    h0: float | None = None  # step size inherited across a split


class _BandedFlow:
    """Flow driver for both generators.

    The sign generator flows with dynamic block deflation.  Wegner's
    generator, whose input arrives widened to M = N - 1, and steps mode
    integrate the whole matrix as one undeflated system.
    """

    def __init__(self, h0: BandedSymmetricMatrix, config: FlowConfig):
        self.h0 = h0
        self.config = config
        self.n_total = h0.dim
        self.m = h0.bandwidth
        self.wegner = config.generator is GeneratorKind.WEGNER
        self.single = self.wegner or config.record_steps
        self.frob0_sq = h0.frobenius_norm_sq()
        frob0 = math.sqrt(self.frob0_sq)
        # Per-block convergence and deflation budgets chosen so the sum over
        # (at most N) blocks stays inside the global convergence contract.
        blocks_cap = 1 if self.single else h0.dim
        self.conv_off_sq = (
            (config.convergence_tol**2) * max(self.frob0_sq, 1e-300) / blocks_cap
        )
        self.theta_sq = (config.convergence_tol**2) * max(self.frob0_sq, 1e-300) / (
            8.0 * h0.dim
        )
        # Second-order budget: zeroing a coupling block B across a diagonal
        # gap d shifts eigenvalues by at most ~2||B||^2/d, so well-separated
        # boundaries may deflate long before ||B|| reaches sqrt(theta_sq).
        self.shift_budget = config.convergence_tol * max(frob0, 1e-300) / (2.0 * h0.dim)
        self.order_slack = config.convergence_tol * max(frob0, 1e-300)
        e0 = [h0.band(k) for k in range(self.m + 1)]
        if config.ell_max is not None:
            self.ell_max = config.ell_max
        else:
            self.ell_max = _auto_ell_max(
                e0[0], _gershgorin_radii(e0, h0.dim, self.m), 2 if self.wegner else 1
            )
        self.snap_ells = list(config.snapshot_ells)
        self.snap_bands = {s: h0.copy_bands() for s in self.snap_ells}
        self.report = ConservationReport()
        self.step_rows: list[TraceRow] = []
        self.converged = True
        self.ell_final = 0.0
        self._final_bands = h0.copy_bands()
        self.n_rhs = self.n_accepted = self.n_rejected = 0
        self.n_tasks = self.n_deflations = 0
        if config.record_steps:
            self._emit_step_row(0.0, e0)

    # -- helpers ----------------------------------------------------------

    def _write_region(self, target: list[np.ndarray], start: int, bands: list[np.ndarray]) -> None:
        nb = bands[0].shape[0]
        for k in range(len(bands)):
            if nb - k > 0:
                target[k][start : start + nb - k] = bands[k]

    def _record_snapshot(self, ell: float, start: int, bands: list[np.ndarray]) -> None:
        self._write_region(self.snap_bands[ell], start, bands)

    def _emit_step_row(self, ell: float, e: list[np.ndarray]) -> None:
        # Steps mode runs one task, so its bands are the full matrix state.
        off_sq = 2.0 * sum(float(np.dot(b, b)) for b in e[1:])
        frob_sq = float(np.dot(e[0], e[0])) + off_sq
        self.step_rows.append(TraceRow(ell, float(e[0].sum()), frob_sq, off_sq, e[0].copy()))

    def _deflation_cuts(self, e: list[np.ndarray], nb: int, mb: int) -> list[int]:
        """Boundaries that may be zeroed now without leaving the error budget.

        A cut at c is allowed when the Gershgorin enclosures of the two
        would-be blocks are already ordered (so the exact flow could not
        revive the coupling to reorder across c later), and the coupling is
        small enough under one of two rules: the Weyl rule ||B|| <= theta
        (eigenvalue shift at most ||B||), or the quadratic-residual rule
        2 ||B||^2 / sep <= shift_budget valid once ||B|| <= sep/4, with sep
        the certified spectral separation of the blocks.
        """
        if self.single or nb < 2:
            return []
        cross = np.zeros(nb)
        for j in range(1, mb + 1):
            ej2 = e[j] * e[j]
            cs = np.concatenate(([0.0], np.cumsum(ej2)))
            c = np.arange(1, nb)
            cross[1:] += cs[np.minimum(c, nb - j)] - cs[np.maximum(c - j, 0)]
        # coarse prefilter: neither rule can fire above this bound
        d = e[0]
        spread = float(d.max() - d.min())
        cap = max(self.theta_sq, self.shift_budget * (spread + 1.0))
        if not np.any(cross[1:] <= cap):
            return []
        radii = _gershgorin_radii(e, nb, mb)
        hi = np.maximum.accumulate(d + radii)  # spectral ceiling of 0..c-1
        lo = np.minimum.accumulate((d - radii)[::-1])[::-1]  # floor of c..nb-1
        sep = lo[1:] - hi[:-1]  # per cut c = 1..nb-1
        cr = cross[1:]
        ordered = sep >= -self.order_slack
        weyl = cr <= self.theta_sq
        with np.errstate(divide="ignore", invalid="ignore"):
            quad = (sep > 0.0) & (cr <= (0.25 * sep) ** 2) & (
                2.0 * cr <= self.shift_budget * sep
            )
        return [int(c) + 1 for c in np.nonzero(ordered & (weyl | quad) & (cr <= cap))[0]]

    def _zero_boundary(self, e: list[np.ndarray], start: int, cut: int, nb: int, mb: int, ell: float) -> None:
        """Zero every coupling crossing the cut, in the task state and in all
        assembled views of the matrix from this ell on."""
        removed = 0.0
        for j in range(1, mb + 1):
            for a in range(max(cut - j, 0), min(cut, nb - j)):
                removed += 2.0 * float(e[j][a]) ** 2
                e[j][a] = 0.0
                self._final_bands[j][start + a] = 0.0
                for s in self.snap_ells:
                    if s > ell:
                        self.snap_bands[s][j][start + a] = 0.0
        self.report.frobenius_drift += removed / max(self.frob0_sq, 1e-300)
        self.n_deflations += 1

    # -- main loop ----------------------------------------------------------

    def run(self) -> FlowResult:
        if self.single:
            tasks = deque([_Task(0, self.h0.copy_bands(), 0.0)])
        else:
            # Exactly-zero couplings split the input up front; the stencil
            # never regenerates them, so each block flows independently.
            bands0 = [self.h0.band(k) for k in range(self.m + 1)]
            tasks = deque(
                _Task(b.start, _sub_bands(bands0, b.start, b.size, self.m), 0.0)
                for b in split_irreducible(self.h0)
            )

        while tasks:
            self._run_task(tasks.popleft(), tasks)

        final = BandedSymmetricMatrix(self.n_total, self.m, self._final_bands)
        snapshots = [
            (s, BandedSymmetricMatrix(self.n_total, self.m, self.snap_bands[s]))
            for s in self.snap_ells
        ]
        return FlowResult(
            final=final,
            ell_final=self.ell_final,
            converged=self.converged,
            snapshots=snapshots,
            diagnostics=self.report,
            step_trace=self.step_rows,
            stats=FlowStats(self.n_rhs, self.n_accepted, self.n_rejected,
                            self.n_tasks, self.n_deflations),
        )

    def _run_task(self, task: _Task, tasks: deque) -> None:
        cfg = self.config
        nb = task.bands[0].shape[0]
        mb = len(task.bands) - 1
        # Snapshots at or before this task's start ell were already written
        # (initialization covers ell <= 0, the parent covers a split point).
        pending = [s for s in self.snap_ells if s > task.ell]

        def finish(ell: float, bands: list[np.ndarray], converged: bool) -> None:
            for s in pending:
                self._record_snapshot(s, task.start, bands)
            self._write_region(self._final_bands, task.start, bands)
            self.ell_final = max(self.ell_final, ell)
            if not converged:
                self.converged = False

        if nb == 1:
            finish(task.ell, task.bands, True)
            return

        # Converged on arrival (common for post-split fragments): no stepper.
        off0 = 2.0 * sum(float(np.dot(b, b)) for b in task.bands[1:])
        if off0 <= self.conv_off_sq:
            finish(task.ell, task.bands, True)
            return

        y0 = np.concatenate(task.bands)
        slices = _band_slices(nb, mb)

        if self.wegner:
            wegner = _wegner_band_rhs(nb, mb)

            def rhs(_ell: float, y: np.ndarray) -> np.ndarray:
                self.n_rhs += 1
                return wegner(y)

        elif _rhs_kernel is not None:

            def rhs(_ell: float, y: np.ndarray) -> np.ndarray:
                self.n_rhs += 1
                out = np.empty_like(y)
                _rhs_kernel(y, out, nb, mb)
                return out

        else:  # pragma: no cover - numpy fallback

            def rhs(_ell: float, y: np.ndarray) -> np.ndarray:
                self.n_rhs += 1
                e = [y[s] for s in slices]
                out = np.empty_like(y)
                _banded_rhs_inplace(e, [out[s] for s in slices], nb, mb)
                return out

        def frob(y: np.ndarray) -> float:
            e0 = y[slices[0]]
            total = float(np.dot(e0, e0))
            for s in slices[1:]:
                b = y[s]
                total += 2.0 * float(np.dot(b, b))
            return math.sqrt(total)

        def off_sq(y: np.ndarray) -> float:
            total = 0.0
            for s in slices[1:]:
                b = y[s]
                total += 2.0 * float(np.dot(b, b))
            return total

        stepper = Dopri54(
            rhs,
            task.ell,
            y0,
            rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol,
            scale=frob,
            first_step=task.h0,
        )
        self.n_tasks += 1

        trace0 = float(y0[slices[0]].sum())
        frob0_sq_b = frob(y0) ** 2
        max_tr = 0.0
        max_fr = 0.0
        max_pt = 0.0
        prev_cum = np.cumsum(y0[slices[0]])
        since_scan = 0

        def close_stats() -> None:
            self.n_accepted += stepper.n_accepted
            self.n_rejected += stepper.n_rejected
            self.report.trace_drift += max_tr
            self.report.frobenius_drift += max_fr / max(self.frob0_sq, 1e-300)
            self.report.partial_trace_violation = max(
                self.report.partial_trace_violation, max_pt
            )

        while True:
            e = [stepper.y[s] for s in slices]
            if off_sq(stepper.y) <= self.conv_off_sq:
                close_stats()
                finish(stepper.t, e, True)
                return
            if stepper.t >= self.ell_max:
                close_stats()
                finish(stepper.t, e, False)
                return
            t_cap = min([s for s in pending if s > stepper.t] + [self.ell_max])
            try:
                stepper.step(t_cap)
            except StepSizeUnderflow as exc:
                close_stats()
                raise StiffFlowError(exc.t, frob(stepper.y) ** 2, off_sq(stepper.y)) from exc

            e = [stepper.y[s] for s in slices]
            diag = e[0]
            max_tr = max(max_tr, abs(float(diag.sum()) - trace0))
            max_fr = max(max_fr, abs(frob(stepper.y) ** 2 - frob0_sq_b))
            cum = np.cumsum(diag)
            max_pt = max(max_pt, float(np.max(cum - prev_cum)))
            prev_cum = cum
            if cfg.record_steps:
                self._emit_step_row(stepper.t, e)
            if stepper.t in pending and stepper.t < self.ell_max:
                self._record_snapshot(stepper.t, task.start, e)
                pending = [s for s in pending if s > stepper.t]

            since_scan += 1
            if since_scan < _DEFLATE_EVERY:
                continue
            since_scan = 0
            cuts = self._deflation_cuts(e, nb, mb)
            if cuts:
                for c in cuts:
                    self._zero_boundary(e, task.start, c, nb, mb, stepper.t)
                close_stats()
                edges = [0] + cuts + [nb]
                for lo, hi in zip(edges[:-1], edges[1:]):
                    sub = _sub_bands(e, lo, hi - lo, mb)
                    tasks.append(_Task(task.start + lo, sub, stepper.t, stepper.h))
                return


def _ldexp(x, e: int):
    """x * 2^e (exact), saturating to 0 or inf outside the float range."""
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(x, e)


def integrate_flow(h0: BandedSymmetricMatrix, config: FlowConfig | None = None) -> FlowResult:
    """Flow h0 toward diagonal form; see :class:`FlowConfig` for controls.

    Returns a :class:`FlowResult` whose ``final`` matrix satisfies
    offdiag_norm_sq <= convergence_tol**2 * frobenius_norm_sq when
    ``converged`` is set.  Hitting ell_max first is reported through the
    flag, not an exception.  For any integer j, flowing 2^j h0 with ell_max
    and snapshot ells scaled by 2^-j (2^-2j for Wegner) returns 2^j times
    the same matrices, bit for bit.
    """
    config = config or FlowConfig()
    wegner = config.generator is GeneratorKind.WEGNER
    n, m = h0.dim, h0.bandwidth
    bands = [h0.band(j) for j in range(m + 1)]
    if wegner:  # Wegner's generator fills the band: flow at full bandwidth
        if n > _WEGNER_CAP:
            raise ValueError(
                f"Wegner generator runs dense and is capped at N <= {_WEGNER_CAP}"
            )
        bands += [np.zeros(n - j) for j in range(m + 1, n)]
        m = n - 1
    # Flow H / 2^k with max|h_nm| / 2^k in [0.5, 1); ell scales as 2^k
    # (2^2k for Wegner).
    k = int(np.frexp(max(float(np.max(np.abs(b))) for b in bands))[1])
    k_ell = 2 * k if wegner else k

    def scale_ell(ell: float) -> float:  # an ell past the float range is never reached
        return min(float(_ldexp(ell, k_ell)), sys.float_info.max)

    scaled_ells = tuple(scale_ell(s) for s in config.snapshot_ells)
    scaled = dataclasses.replace(
        config,
        ell_max=None if config.ell_max is None else scale_ell(config.ell_max),
        snapshot_ells=scaled_ells,
    )
    h = BandedSymmetricMatrix(n, m, [_ldexp(b, -k) for b in bands])
    try:
        res = _BandedFlow(h, scaled).run()
    except StiffFlowError as exc:
        raise StiffFlowError(
            float(_ldexp(exc.ell, -k_ell)),
            float(_ldexp(exc.frob_sq, 2 * k)),
            float(_ldexp(exc.offdiag_sq, 2 * k)),
        ) from exc.__cause__

    def unscale(mat: BandedSymmetricMatrix) -> BandedSymmetricMatrix:
        return BandedSymmetricMatrix(n, m, [_ldexp(mat.band(j), k) for j in range(m + 1)])

    original_ell = dict(zip(scaled_ells, config.snapshot_ells))
    d = res.diagnostics
    return FlowResult(
        final=unscale(res.final),
        ell_final=float(_ldexp(res.ell_final, -k_ell)),
        converged=res.converged,
        snapshots=[(original_ell[ell], unscale(mat)) for ell, mat in res.snapshots],
        diagnostics=ConservationReport(
            trace_drift=float(_ldexp(d.trace_drift, k)),
            frobenius_drift=d.frobenius_drift,
            partial_trace_violation=float(_ldexp(d.partial_trace_violation, k)),
        ),
        step_trace=[
            TraceRow(
                float(_ldexp(r.ell, -k_ell)),
                float(_ldexp(r.trace, k)),
                float(_ldexp(r.frob_sq, 2 * k)),
                float(_ldexp(r.offdiag_sq, 2 * k)),
                _ldexp(r.diag, k),
            )
            for r in res.step_trace
        ],
        stats=res.stats,
    )


def decay_rate_estimate(
    snapshots: list[tuple[float, BandedSymmetricMatrix]], n: int, m: int
) -> float:
    """Asymptotic decay rate of |h_nm| from late-flow snapshots.

    Fits ln|h_nm| against ell over the trailing half of the snapshots whose
    magnitude is still above the numeric floor, and returns the negated
    slope; for the sign generator this estimates |h_nn(inf) - h_mm(inf)|.
    """
    if not snapshots:
        raise ValueError("no snapshots supplied")
    floor = _DECAY_FIT_FLOOR * max(math.sqrt(snapshots[0][1].frobenius_norm_sq()), 1e-300)
    pts = [(ell, abs(mat.get(n, m))) for ell, mat in snapshots if abs(mat.get(n, m)) >= floor]
    if len(pts) < 3:
        raise ValueError(
            f"entry ({n}, {m}) is above the numeric floor in only {len(pts)} "
            "snapshots; need at least 3 late-flow points to fit a rate"
        )
    pts.sort(key=lambda p: p[0])
    tail = pts[-max(3, len(pts) // 2) :]
    ells = np.array([p[0] for p in tail])
    logs = np.log([p[1] for p in tail])
    slope = np.polyfit(ells, logs, 1)[0]
    return float(-slope)
