"""Flow-equation diagonalization dH/dl = [eta, H] for banded symmetric matrices.

The sign generator eta_nm = sign(n - m) h_nm drives any bounded-below real
symmetric matrix to diagonal form while exactly preserving its band profile;
the right-hand side is evaluated directly on the band storage, so entries
outside the band never exist at any point of the integration.

Every matrix flows in one layout, the (M+1) x N row array of
:class:`~bandflow.band.BandedSymmetricMatrix`: row k holds h_{n,n+k}
followed by k zeros, and the integrator's state is that array flattened, so
band k starts at offset k*N.  A block [a, b) is the column slice [:, a:b],
already zero-padded once nothing couples across b; deflation zeroes the
crossing slots, writes the rows and queues only the pieces that need work.
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
Dormand-Prince 5(4) because on the spin-boson chains at the default
rel_tol of 1e-10 the step is limited by accuracy, not stability, so the
8th-order step needs about a quarter of the steps and half the RHS
evaluations per flow.  On long Lipkin blocks the early transient is
limited by stability instead (see :mod:`bandflow.ode`).  Deflation
splits off 2x2 blocks more than any other size, and the sign flow of a
2x2 block (the Toda flow of a pair) has an exact solution, so such blocks
are evaluated in closed form and build no stepper.  The sign flow of any
block is the symmetric QR flow, so a larger block can advance by exact QR
jumps instead of steps.  One loop advances such a block by a jump or a
step a pass, as :func:`_jumps_pay` chooses anew as it flows, and switches
in place.  Wegner flows always step.

Every flow runs on H / 2^k, with 2^k the binary exponent of max|h_nm|, so
that squared entries and norms neither overflow nor underflow at any
representable scale.  The flow is covariant under that rescaling (ell
carries units of 1/energy, 1/energy^2 for Wegner's generator) and scaling
by a power of two is exact, so results are mapped back exactly, unless
they leave the float range (a ValueError); abs_tol is taken in units of
2^k.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import sys
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .band import BandedSymmetricMatrix, boundary_coupling_sq, split_irreducible, uncoupled_cuts
from .ode import Dop853 as Dopri54  # perfbench/tracing.py patches this name
from .ode import StepSizeUnderflow

__all__ = [
    "GeneratorKind",
    "FlowConfig",
    "FlowResult",
    "FlowStats",
    "ConservationReport",
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
_STEP_RATE = 0.4  # guess at DOP853's step times the block's rate r (see _jumps_pay)
_JUMP_ROWS = 48  # block size whose jump is priced at one step at M = 3 (see _jumps_pay)
_JUMP_BISECTIONS = 2  # halvings that place a deflation inside a jump
_UNIT_ROUNDOFF = 2.0**-53
# 1/k! for k = 0..15, the Taylor polynomial of the jump's exponential, as
# its cubic pieces in B from the highest: row r holds k = 12-4r .. 15-4r.
_TAYLOR_PIECES = (1.0 / np.cumprod([1.0, *range(1, 16)])).reshape(4, 4)[::-1].copy()


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
    unless the final spectrum has pathologically close gaps.  That cap only
    bounds work, so a 2x2 block of the sign flow, solved in closed form at
    O(1) cost, runs past it to its analytic convergence ell; an ell_max the
    caller sets caps every block.  The flow
    parameter carries units of inverse energy for the sign generator (the
    Wegner generator scales as inverse energy squared), so ell_max should be
    scaled accordingly when overridden.  abs_tol is in units of 2^k, the
    binary exponent of max|h_nm| (see :func:`integrate_flow`), so the
    per-step tolerance scales with the matrix.  Tolerances and ell_max must
    be finite and positive, snapshot ells finite, non-negative and sorted;
    generator may be given by its value, "mielke" or "wegner".
    """

    generator: GeneratorKind = GeneratorKind.MIELKE
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    convergence_tol: float = 1e-10
    ell_max: float | None = None
    snapshot_ells: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "generator", GeneratorKind(self.generator))  # or ValueError
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

    trace_drift and frobenius_drift are summed maxima over each block's
    runs of steps or of jumps, i.e. upper bounds on the drift of the
    assembled matrix.  partial_trace_violation is the largest single-step
    increase of any partial trace sum(h_nn, n < r); the sign flow
    decreases these monotonically, so anything above integration noise
    indicates a defect.  Wegner flows report the same quantity but carry
    no monotonicity guarantee.
    """

    trace_drift: float = 0.0
    frobenius_drift: float = 0.0
    partial_trace_violation: float = 0.0


@dataclass(frozen=True)
class FlowStats:
    """Work done by one flow, in counts only.

    Equal inputs give equal stats, and bit-identical results, only at a
    fixed BLAS thread count: the stepper's stage combinations are BLAS
    gemv and gemm products, whose summation order can follow the number of
    threads.  For example, the benchmark's lipkin-chain blocks at seed 0
    build 24 steppers with one OpenBLAS thread and 25 with two.

    n_tasks counts steppers built: one per block that starts by stepping,
    and one more each time a sign-flow block switches from jumps to steps.
    n_exact counts 2x2 blocks of the sign flow solved in closed form, and
    n_jumps the exact QR jumps that advance sign-flow blocks of 3 or more
    rows, neither of which builds a stepper (blocks that arrive converged
    cost nothing and count nowhere).  n_deflations counts block boundaries
    zeroed.  Each stepper counts its own RHS evaluations (n_rhs sums them):
    every attempted step costs 12, every stepper one more, and every
    automatic initial-step estimate one more.  A
    stepper estimates its first step only if no stepper ran before it in
    its block's history: blocks split off, and blocks that switch from
    jumps back to steps, start at the last step size.  So an irreducible
    input that steps from the start estimates once, and one that never
    steps (see :func:`_jumps_pay`) costs no RHS evaluation.  A jump
    halved and retried counts once.
    """

    n_rhs: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    n_tasks: int = 0
    n_deflations: int = 0
    n_exact: int = 0
    n_jumps: int = 0


@dataclass
class FlowResult:
    # Same bandwidth as the input for the sign generator, M = N - 1 for Wegner's.
    final: BandedSymmetricMatrix
    ell_final: float
    converged: bool
    snapshots: list[tuple[float, BandedSymmetricMatrix]]
    diagnostics: ConservationReport
    stats: FlowStats = field(default_factory=FlowStats)


# -- generators and right-hand sides ------------------------------------------


def mielke_eta(h: BandedSymmetricMatrix) -> np.ndarray:
    """Antisymmetric generator eta_nm = sign(n - m) h_nm as a dense array."""
    a = h.to_dense()
    n = h.dim
    sign = np.sign(np.subtract.outer(np.arange(n), np.arange(n)))
    return sign * a


class _Stencil:
    """dH/dl = [eta, H] for the sign generator, as a band-array stencil
    that the stepper calls as fun(ell, y, out).

    y and out are flattened (M+1) x N row arrays: band k starts at offset
    k*n.  For n < m the commutator reduces to
        (h_nn - h_mm) h_nm + 2 sum_{k<n} h_nk h_km - 2 sum_{k>m} h_nk h_km
    and the diagonal to 2 (sum_{k<n} - sum_{k>n}) h_nk^2; terms with
    |n - m| > M vanish identically, so the band profile is preserved
    exactly rather than to tolerance.  Every one of the n-k valid slots of
    band k is overwritten and no padding slot is written, so out need not
    arrive zeroed, and its padding keeps whatever it held.  The first term
    of each slot is assigned and later terms are added in the order a
    zeroed out would sum them, so the result is the same to the bit.

    The first call on a pair of buffers (y, out) compiles the stencil into
    a program of (ufunc, a, b, o) calls over views of y, out and the
    stencil's one scratch row; every later call on the same pair replays
    it, and allocates nothing.  :class:`~bandflow.ode.Dop853` calls fun on
    one argument buffer and its 13 stage rows, so a stepper's stencil
    compiles at most 13 programs.  The stencil keeps every pair it has
    seen, so a one-off call belongs to a stencil of its own.
    """

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        # The scratch row t = [0, 2 h_{k,k+1}^2, 0] of the diagonal, with t[1]
        # on a 64-byte boundary: at N = 10^4, writing the squares one float off
        # that boundary took twice as long.  Only t[1:n] is ever written.
        scratch = np.zeros(n + 9)
        p = (-scratch.ctypes.data // 8) % 8 or 8
        self._t = scratch[p - 1 : p + n]
        self._programs: dict[tuple[int, int], tuple] = {}
        # the buffers whose ids key the programs, kept so no other object takes an id
        self._pairs: list[tuple[np.ndarray, np.ndarray]] = []

    def __call__(self, _ell: float, y: np.ndarray, out: np.ndarray) -> None:
        program = self._programs.get((id(y), id(out)))
        if program is None:
            program = self._compile(y, out)
        for f, a, b, o in program:
            f(a, b, o)

    def _compile(self, y: np.ndarray, out: np.ndarray) -> tuple:
        n, m, t = self.n, self.m, self._t
        mul, add, sub = np.multiply, np.add, np.subtract
        band = [y[k * n : (k + 1) * n - k] for k in range(m + 1)]
        res = [out[k * n : (k + 1) * n - k] for k in range(m + 1)]
        r0, calls = res[0], []
        if m:
            sq = t[1:n]
            calls += [(mul, band[1], band[1], sq), (add, sq, sq, sq)]
        # 0 - 2 b_0^2, then 2 b_{k-1}^2 - 2 b_k^2, then 2 b_{n-2}^2 - 0: the
        # signed zeros of a sum into a zeroed row
        calls.append((sub, t[:n], t[1:], r0))
        for j in range(2, m + 1):
            sq = t[1 : n - j + 1]
            calls += [(mul, band[j], band[j], sq), (add, sq, sq, sq),
                      (add, r0[j:], sq, r0[j:]), (sub, r0[: n - j], sq, r0[: n - j])]
        for d in range(1, m + 1):
            rd = res[d]
            calls += [(sub, band[0][: n - d], band[0][d:], rd), (mul, rd, band[d], rd)]
            for i in range(1, m - d + 1):
                w = n - d - i  # valid stencil width
                s = t[1 : w + 1]
                calls += [(mul, band[i][:w], band[d + i], s), (add, s, s, s),
                          (add, rd[i:], s, rd[i:]),
                          (mul, band[d + i], band[i][d:], s), (add, s, s, s),
                          (sub, rd[:w], s, rd[:w])]
        program = self._programs[id(y), id(out)] = tuple(calls)
        self._pairs.append((y, out))
        return program


def mielke_rhs(h: BandedSymmetricMatrix) -> BandedSymmetricMatrix:
    """Right-hand side of the sign-generator flow, same band profile as h."""
    rows = h.rows()
    out = np.zeros(rows.size)
    _Stencil(h.dim, h.bandwidth)(0.0, rows.ravel(), out)
    return BandedSymmetricMatrix.from_rows(out.reshape(rows.shape))


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


@functools.lru_cache(maxsize=64)
def _band_slots(n: int, rows: int):
    """The slots of a flattened rows x n row array inside the matrix, and
    the (i, j) of each: slot k*n + i holds h_{i,i+k}.  Cached per shape,
    so the arrays are read-only."""
    k, i = np.divmod(np.arange(rows * n), n)
    slots = np.flatnonzero(i + k < n)
    out = slots, i[slots], i[slots] + k[slots]
    for a in out:
        a.flags.writeable = False
    return out


def _wegner_band_rhs(n: int):
    """Wegner's dH/dl on the flattened N x N row array of a full-band
    matrix, as the stepper calls it: fun(ell, y, out).

    Scatters the state into a dense symmetric matrix, evaluates
    :func:`wegner_rhs` and gathers its upper triangle back into out, so the
    state stays exactly symmetric.  Only the matrix's slots of out are
    written, so its padding keeps whatever it held.
    """
    slots, rows, cols = _band_slots(n, n)
    h = np.zeros((n, n))

    def rhs(_ell: float, y: np.ndarray, out: np.ndarray) -> None:
        h[rows, cols] = h[cols, rows] = y[slots]
        out[slots] = wegner_rhs(h)[rows, cols]

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


def _gershgorin_radii(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[1]
    radii = np.zeros(n)
    for j in range(1, rows.shape[0]):
        a = np.abs(rows[j, : n - j])
        radii[: n - j] += a
        radii[j:] += a
    return radii


def _coupling_rate(rows: np.ndarray) -> float:
    """Largest |h_nn - h_mm| + 4 |h_nm| over the nonzero couplings of the
    block rows: the rates at which a coupling decays and a pair turns."""
    d, nb = rows[0], rows.shape[1]
    rate = 0.0
    for k in range(1, rows.shape[0]):
        b = np.abs(rows[k, : nb - k])
        r = np.abs(d[: nb - k] - d[k:])
        r += 4.0 * b
        rate = max(rate, float(r.max(initial=0.0, where=b != 0.0)))
    return rate


def _jumps_pay(state: _State, span: float, step: float | None = None,
               rate: float = _STEP_RATE) -> bool:
    """Whether exact QR jumps beat DOP853 steps for a sign-flow block in
    state: the one rule by which a block of 3 or more rows chooses, when it
    starts, at every deflation scan while it steps and at every landing
    while it jumps.

    Jumps pay where the steps over one jump span, span / (s h) for the
    block's Gershgorin spread s and step h, reach the price of a jump,
    (N / 48)^3 * 4 / (M + 1) steps (_JUMP_ROWS = 48).  A stepping block
    passes the step it judges by, the longer of its stepper's next step
    and the mean step of its run so far.  Any other block passes its rate:
    the h r of its last stepper at the hand-over or split that dropped it
    or, if none has run, the guess _STEP_RATE (DOP853 kept h r at 0.37 to
    0.80 over the scans of flows that only step), and h is rate / r for r
    its :func:`_coupling_rate`.  In this order:
    - the cap: a block too large for a jump to pay at _STEP_RATE / (2 s),
      the shortest step the guess predicts (r <= 2 s), steps whatever its
      step, and s and r are not computed: above about 160 to 200 rows;
    - the shortcut: r >= 4 max|h_nm| in rounded arithmetic too, since
      rounding is monotone, so where jumps pay at rate / (4 max|h_nm|)
      they pay at rate / r, and r is computed only where they do not;
    - the prediction rate / r.

    So a block with no stepper in its history whose couplings connect it
    jumps at the default rel_tol if it has at most 32 rows: s <=
    (N - 1 + M) r, since a path of at most N - 1 couplings joins the
    extreme diagonal entries and every radius is at most M r / 2.  A piece
    of a stepping block carries that stepper's h r at the split, 2.6 in
    the median on fig1's chains, and may step: a 26-row piece does on fig1
    at seed 7, and two 28-row pieces at seed 4.

    Each part pays, as measured with one BLAS thread on 2 vCPUs:
    - handing back from jumps to steps: without it, chains of 96 rows at
      delta 1.0 to 1.2 take 2.4 times as long, and random bands of M = 1,
      N = 96 and of M = 2, N = 128 about 1.35 and 1.4 times;
    - handing over from steps to jumps: without it, random bands of 128
      rows take 21%, 41% and 26% longer at M = 2, 3 and 4;
    - choosing anew as the block flows: one choice at its start, even with
      the better mode forced, costs 3%, 25% and 42% there;
    - the carried h r: with the guess in its place, chains of 64 and 80
      rows run 1.29 to 1.35 times as long;
    - the mean step: the step dips where a pair turns, and judged by the
      dip a block near the crossover hands over for a single jump and
      back.  Random bands of M = 1, N = 128 then build 45 steppers, not 18,
      and run 6% longer;
    - the shortcut settles 1,451 of the ensemble's 1,462 choices at seed 0.
    The price was fitted before jumps factored through LAPACK's gufuncs;
    a jump now costs about 0.6 of it at 48 rows and M = 3.  It stays until
    a workload whose blocks it decides can measure a refit.
    """
    rows = state.rows
    cost = (rows.shape[1] / _JUMP_ROWS) ** 3 * 4.0 / rows.shape[0]
    if cost > 2.0 * span / _STEP_RATE:
        return False
    if step is None:
        longest = rate / (4.0 * float(np.abs(rows[1:]).max()))
        if span / (state.spread() * longest) >= cost:
            return True
        step = rate / _coupling_rate(rows)
    return span / (state.spread() * step) >= cost


def _has_unsorted_pair(rows: np.ndarray) -> bool:
    """Whether some n < m with h_nm != 0 has h_nn > h_mm.

    h_mm beside each slot (k, n) of bands k = 1..M is read from M + 1
    copies of the diagonal through a reshape with a row stride of N + 1:
    row k - 1 of that view is the diagonal moved k to the left, and its
    padding slots (n + k >= N) read other diagonal entries, masked out by
    h_nm = 0."""
    m, n = rows.shape[0] - 1, rows.shape[1]
    copies = np.empty((m + 1, n))
    copies[:] = rows[0]
    partner = copies.ravel()[1 : 1 + m * (n + 1)].reshape(m, n + 1)[:, :n]
    return bool(((rows[1:] != 0.0) & (rows[0] > partner)).any())


def _off_sq(y: np.ndarray, n: int) -> float:
    """Off-diagonal norm squared of a flattened row array of width n."""
    off = y[n:]
    return 2.0 * float(np.dot(off, off))


def _pair_flow(rows: np.ndarray, ell0: float, conv_off_sq: float):
    """Exact sign flow of the 2x2 block with row array rows from ell0.

    The sign flow is the symmetric Toda flow (Moser 1975; Deift, Nanda &
    Tomei 1983).  For [[a, b], [b, c]] with D = a - c it reads D' = -4 b^2,
    b' = D b at fixed trace T, so R^2 = D^2 + 4 b^2 is conserved and
        D = -R tanh(u),  b = sign(b0) (R/2) sech(u),  u = R (ell - ell0) + phi0,
    with phi0 = atanh(-D0 / R).  Returns state(ell), the flattened row
    array [a, c, b, 0] at ell, and the analytic ell at which 2 b^2 falls to
    conv_off_sq, from cosh(u) = R / sqrt(2 conv_off_sq) (inf if never).
    """
    (a0, c0), (b0, _) = rows
    t, d0 = a0 + c0, a0 - c0
    r = math.hypot(d0, 2.0 * b0)
    # phi0 = log((R - D0) / (R + D0)) / 2, the side that cancels formed as
    # 4 b0^2 / (R + |D0|); taken apart in logs, no square can underflow.
    phi0 = math.copysign(math.log(r + abs(d0)) - math.log(2.0 * abs(b0)), -d0)

    def state(ell: float) -> np.ndarray:
        u = r * (ell - ell0) + phi0
        e = math.exp(-abs(u))  # tanh and sech through e^2 = e^{-2|u|}: no overflow
        q = e * e
        d = -math.copysign(r * (1.0 - q) / (1.0 + q), u)
        return np.array([0.5 * (t + d), 0.5 * (t - d), math.copysign(r * e / (1.0 + q), b0), 0.0])

    x = r / math.sqrt(2.0 * conv_off_sq) if conv_off_sq > 0.0 else math.inf
    return state, ell0 + (math.acosh(max(x, 1.0)) - phi0) / r


def _expm(a: np.ndarray):
    """exp(a) by scaling and squaring a degree-15 Taylor polynomial.

    a is divided by 2^j so that its 1-norm B is at most 1/2, where the
    dropped terms stay below 1e-18 relative.  The polynomial is evaluated by
    Paterson-Stockmeyer: its four cubic pieces in B at once, then Horner in
    B^4 (six products in all); the result is squared j times.  Returns
    exp(a) and its last two squarings' inputs, exp(a / 2) and exp(a / 4)
    (None where j < 1, j < 2): a / 2 scales by 2^(j - 1) to the same B, so
    these are what this function returns for a / 2 and a / 4, bit for bit.
    """
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=0).max())
    frac, exp = math.frexp(norm)  # norm = frac 2^exp, 1/2 <= frac < 1
    j = max(0, exp if frac == 0.5 else exp + 1) if norm > 0.0 else 0
    powers = np.empty((4, n, n))  # I, B, B^2, B^3
    powers[0] = 0.0
    powers[0].flat[:: n + 1] = 1.0
    b, b2 = powers[1], powers[2]
    np.multiply(a, 2.0**-j, out=b)  # exact
    np.matmul(b, b, out=b2)
    np.matmul(b2, b, out=powers[3])
    pieces = (_TAYLOR_PIECES @ powers.reshape(4, n * n)).reshape(4, n, n)
    b4 = b2 @ b2
    e = pieces[0]
    for piece in pieces[1:]:
        e = e @ b4
        e += piece
    half = quarter = None
    for _ in range(j):
        quarter, half = half, e
        e = e @ e
    return e, half, quarter


def _lapack_qr():
    """numpy.linalg.qr's own gufuncs for a square matrix: qr_r_raw(a), which
    factors a in place (dgeqrf) and returns tau, and qr_reduced(a, tau),
    which forms Q (dorgqr).  numpy 1.x may name them by their core
    dimension, qr_r_raw_m and qr_reduced_m for m <= n, so each name is
    looked up in both spellings.  They are private to numpy: a numpy that
    has neither fails here, at import, and the QR tests in test_flow.py
    pin what they return to numpy.linalg.qr's results."""
    from numpy.linalg import _umath_linalg as lapack

    found = [next((getattr(lapack, name) for name in (base, base + "_m")
                   if hasattr(lapack, name)), None)
             for base in ("qr_r_raw", "qr_reduced")]
    if None in found:
        raise ImportError(f"bandflow needs numpy.linalg's LAPACK QR gufuncs, "
                          f"which numpy {np.__version__} does not have")
    return found


_qr_r_raw, _qr_reduced = _lapack_qr()


def _qr_jump(h: np.ndarray, dl: float, sigma: float, expms: dict) -> np.ndarray:
    """Exact sign flow of the dense block h over dl: Q^T h Q.

    The sign flow is the symmetric QR (Toda) flow (Symes 1982; Deift, Nanda
    & Tomei 1983): H(ell + dl) = Q^T H Q with e^{-dl H} = QR and diag(R) > 0.
    The shift sigma only rescales e^{-dl H}, which leaves Q unchanged; at
    the centre of a Gershgorin interval of width s it keeps the
    exponential's eigenvalues in [e^{-dl s / 2}, e^{dl s / 2}].  Columns of
    Q are accurate to about u * cond(e^{-dl H}), u the unit roundoff.

    The QR is LAPACK's dgeqrf then dorgqr, through the two gufuncs that
    numpy.linalg.qr calls (see :func:`_lapack_qr`), on one copy of the
    exponential: dgeqrf leaves R in the copy's upper triangle, so the
    signs of its diagonal are read there and no R is formed.  Q is the
    one numpy.linalg.qr returns, bit for bit, without its wrapper's
    checks, casts, errstate blocks and triu: on 2 vCPUs with one BLAS
    thread, numpy.linalg.qr took 33 µs at 5 rows and 112 µs at 60, the
    two gufuncs 7 µs and 89 µs.

    expms maps a step to e^{-step (h - sigma)} for this h and sigma.  A
    step found there costs no exponential; one that is not leaves its
    exponential there, and the halves :func:`_expm` returns with it under
    dl / 2 and dl / 4.
    """
    e = expms.get(dl)
    if e is None:
        a = h.copy()
        a.flat[:: h.shape[0] + 1] -= sigma
        a *= -dl
        e, half, quarter = _expm(a)
        for part, step in ((e, dl), (half, 0.5 * dl), (quarter, 0.25 * dl)):
            if part is not None:
                expms[step] = part
    a = e.copy()  # e stays in expms
    q = _qr_reduced(a, _qr_r_raw(a))
    q *= np.where(a.diagonal() < 0.0, -1.0, 1.0)
    return q.T @ h @ q


def _flow_pattern(h: np.ndarray) -> np.ndarray:
    """Entries of the dense block h that its sign flow can make nonzero.

    h_nm must join n and m within one connected component of the coupling
    graph, whose edges are the nonzero entries (for M >= 2 components can
    interleave), and, for n < m, lie inside that component's staircase
    envelope: some n' <= n of the component has a nonzero h_{n'j} with
    j >= m.  The stencil keeps every other entry exactly zero, and so does
    the exact flow (the QR algorithm preserves staircase shapes; Arbenz &
    Golub 1995); the envelope lies inside the band.  A block whose first
    superdiagonal has no zero is one component, whose envelope is a running
    maximum; any other block finds its components by boolean products.
    """
    n = h.shape[0]
    idx = np.arange(n)
    last = np.max(np.where(h != 0.0, idx, idx[:, None]), axis=1)  # last nonzero column
    if np.diagonal(h, 1).all():
        keep = (idx >= idx[:, None]) & (idx <= np.maximum.accumulate(last)[:, None])
        return keep | keep.T
    same = (h != 0.0) | np.eye(n, dtype=bool)
    for _ in range(math.ceil(math.log2(n))):  # joined by paths of length <= 2^i
        same = (same.astype(float) @ same) > 0.0
    reach = np.max(np.where(same & (idx[:, None] <= idx), last[:, None], -1), axis=0)
    keep = np.triu(same & (idx <= reach[:, None]))
    return keep | keep.T


class _State:
    """One state y of a block, its flattened row array, and what the flow loop
    reads off it, each taken at most once.

    The squared norms of the diagonal and the off-diagonals are taken at
    once: the stepper's error scale, the drift tracking and the convergence
    check all read them.  The Gershgorin edges and the enclosure [lo, hi]
    are taken when first asked for: a jump reads its span and shift from
    them, a deflation scan its ordering test, and the choice between jumps
    and steps the spread.  expms holds the exponentials that jumps from y
    computed (see :func:`_qr_jump`), and cuts its deflation scan.
    """

    __slots__ = ("y", "rows", "diag_sq", "off_sq", "expms", "cuts", "_edges")

    def __init__(self, y: np.ndarray, nb: int):
        self.y = y
        self.rows = y.reshape(-1, nb)
        self.diag_sq = float(np.dot(y[:nb], y[:nb]))
        self.off_sq = _off_sq(y, nb)
        self.expms: dict = {}
        self.cuts: list[int] | None = None
        self._edges = None

    def edges(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """The Gershgorin edges d -+ radii of every row, then their min and max."""
        if self._edges is None:
            d, radii = self.rows[0], _gershgorin_radii(self.rows)
            lo, hi = d - radii, d + radii
            self._edges = lo, hi, float(lo.min()), float(hi.max())
        return self._edges

    def spread(self) -> float:
        _, _, lo, hi = self.edges()
        return hi - lo


class _BandedFlow:
    """Flow driver for both generators.

    The sign generator flows with dynamic block deflation; the queue holds
    one :class:`_Block` per block, and 2x2 blocks flow in closed form.  A
    larger block advances in one loop, one exact QR jump or one DOP853
    step a pass, as :func:`_jumps_pay` chooses.  It switches in place: a
    stepper that hands over to jumps is dropped, and a block that hands
    back to steps builds a new stepper that starts at the dropped one's
    step (see :class:`_Block`).  Under the automatic ell_max a 2x2 block
    runs to its convergence ell even past the cap.
    Wegner's generator, whose input arrives widened to M = N - 1,
    integrates the whole matrix as one undeflated system, never scanned.

    Each block's state is its row array flattened; the assembled final and
    snapshot matrices are (M+1) x N row arrays.  A block writes its column
    slice into final and every later snapshot once, where it stops; one
    that deflates does so before it queues its pieces, and only pieces of
    2 or more rows that are not converged are queued.

    A jump spans dl = ln(rel_tol / u) / s for the block's Gershgorin spread
    s (u the unit roundoff), so cond(e^{-dl H}) <= rel_tol / u and the jump
    is accurate to about rel_tol; it is clipped at snapshot ells and
    ell_max, where it lands exactly.  What the exact flow keeps zero (see
    :func:`_flow_pattern`) is dropped from Q^T H Q and counted in
    frobenius_drift; a jump that would drop more than abs_tol + rel_tol
    ||H_b||_F is halved and retried, as the stepper rejects a step, and
    one that shrinks below 16 eps max(ell, 1) raises StiffFlowError, as a
    step that does.  Before the first jump of a run and after each one,
    ell_max included, the block is checked for convergence, then scanned
    for deflation; a stepping block's scan comes every _DEFLATE_EVERY
    steps, before its convergence check; no state is scanned twice (see
    :meth:`_Block.cuts`).  A landing that may deflate where the flow is
    growing a coupling is bisected back: each bisection jumps half of the
    step that remains to the landing, exactly, so one from the landing's
    own origin reuses an exponential that the landing's jump kept (see
    :func:`_qr_jump`).  ell_final of a jumped block is the landing ell of
    its first converged jump.
    """

    def __init__(self, h0: BandedSymmetricMatrix, config: FlowConfig):
        self.h0 = h0
        self.config = config
        self.wegner = config.generator is GeneratorKind.WEGNER
        self.frob0_sq = h0.frobenius_norm_sq()
        frob0 = math.sqrt(self.frob0_sq)
        # Per-block convergence and deflation budgets chosen so the sum over
        # (at most N) blocks stays inside the global convergence contract.
        blocks_cap = 1 if self.wegner else h0.dim
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
        rows0 = h0.rows()
        if config.ell_max is not None:
            self.ell_max = config.ell_max
        else:
            self.ell_max = _auto_ell_max(
                rows0[0], _gershgorin_radii(rows0), 2 if self.wegner else 1
            )
        # A jump spans dl = span / s for the block's Gershgorin spread s.
        self.span = math.log(max(config.rel_tol / _UNIT_ROUNDOFF, math.e))
        self.snap_ells = list(config.snapshot_ells)
        self.snaps = {s: rows0.copy() for s in self.snap_ells}
        self.report = ConservationReport()
        self.converged = True
        self.ell_final = 0.0
        self.final = rows0.copy()
        self.n_rhs = self.n_accepted = self.n_rejected = 0
        self.n_tasks = self.n_deflations = self.n_exact = self.n_jumps = 0

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _write(target: np.ndarray, start: int, block: np.ndarray) -> None:
        """Store a block's rows in an assembled row array.  The rows past the
        block's own bandwidth couple across its end, so they are zero."""
        rows, nb = block.shape
        target[:rows, start : start + nb] = block
        target[rows:, start : start + nb] = 0.0

    def _finish(self, start: int, rows: np.ndarray, ell: float, converged: bool) -> None:
        """Write the rows of a block that stops at ell into final and every later snapshot."""
        for s, snap in self.snaps.items():
            if s > ell:
                self._write(snap, start, rows)
        self._write(self.final, start, rows)
        self.ell_final = max(self.ell_final, ell)
        self.converged = self.converged and converged

    def _push_blocks(self, tasks: deque, rows: np.ndarray, start: int, cuts, ell: float,
                     parent: _Block | None = None) -> None:
        """Queue the blocks between cuts that have 2 or more rows and are not
        converged, with parent's step history; nothing may couple across a cut."""
        edges = [0, *cuts, rows.shape[1]]
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo > 1:
                block = rows[: hi - lo, lo:hi].copy()
                if _off_sq(block.ravel(), hi - lo) > self.conv_off_sq:
                    tasks.append(_Block(self, start + lo, block, ell, parent))

    def _split(self, tasks: deque, parent: _Block, e: np.ndarray, cuts, ell: float) -> None:
        """Deflate parent's rows e at cuts, write them at ell and queue the pieces."""
        # Zero every coupling that crosses a cut: slot (k, c) does when
        # c + k reaches the end of the sub-block holding c.
        edges = [0, *cuts, e.shape[1]]
        ends = np.repeat(edges[1:], np.diff(edges))
        crossing = np.add.outer(np.arange(e.shape[0]), np.arange(e.shape[1])) >= ends
        removed = e[crossing]
        self.report.frobenius_drift += (
            2.0 * float(np.dot(removed, removed)) / max(self.frob0_sq, 1e-300)
        )
        e[crossing] = 0.0
        self.n_deflations += len(cuts)
        self._finish(parent.start, e, ell, True)  # the queued pieces overwrite theirs
        self._push_blocks(tasks, e, parent.start, cuts, ell, parent)

    def _deflation_cuts(self, state: _State) -> list[int]:
        """Boundaries of the block in state that may be zeroed now without
        leaving the error budget.

        A cut that no nonzero coupling crosses is always allowed: the flow
        keeps its two sides apart for all ell, as the up-front split in
        :meth:`run` relies on.  Any other cut at c is allowed when the
        Gershgorin enclosures of the two would-be blocks are already ordered
        (so the exact flow could not revive the coupling to reorder across c
        later), and the coupling is small enough under one of two rules: the
        Weyl rule ||B|| <= theta (eigenvalue shift at most ||B||), or the
        quadratic-residual rule 2 ||B||^2 / sep <= shift_budget valid once
        ||B|| <= sep/4, with sep the certified spectral separation of the
        blocks.
        """
        e = state.rows
        if e.shape[1] < 2:
            return []
        cr = boundary_coupling_sq(e)  # per cut c = 1..nb-1
        # coarse prefilter: neither rule can fire above this bound
        d = e[0]
        spread = float(d.max() - d.min())
        cap = max(self.theta_sq, self.shift_budget * (spread + 1.0))
        small = cr <= cap
        if not small.any():
            return []
        floors, ceilings = state.edges()[:2]
        hi = np.maximum.accumulate(ceilings)  # spectral ceiling of 0..c-1
        lo = np.minimum.accumulate(floors[::-1])[::-1]  # floor of c..nb-1
        sep = lo[1:] - hi[:-1]  # per cut c = 1..nb-1
        ordered = sep >= -self.order_slack
        if (~ordered & (cr == 0.0)).any():  # only there can nothing cross
            ordered |= uncoupled_cuts(e)
        weyl = cr <= self.theta_sq
        quad = (sep > 0.0) & (cr <= (0.25 * sep) ** 2) & (2.0 * cr <= self.shift_budget * sep)
        return (np.flatnonzero(ordered & (weyl | quad) & small) + 1).tolist()

    # -- main loop ----------------------------------------------------------

    def run(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Flow every block.  Returns the final row array and the snapshots',
        in snapshot order; ell_final, converged, report and the counts stay
        on the driver."""
        tasks: deque = deque()
        # Exactly-zero couplings split the input up front; the stencil never
        # regenerates them, so each block flows independently, and a block
        # with no work already stands in final and the snapshots.
        cuts = [] if self.wegner else [b.start for b in split_irreducible(self.h0)[1:]]
        self._push_blocks(tasks, self.h0.rows(), 0, cuts, 0.0)
        while tasks:
            tasks.popleft().run(tasks)
        return self.final, [self.snaps[s] for s in self.snap_ells]


class _Block:
    """A block of the flow queued at ell: rows start .. start + N_b - 1 of the
    matrix, as its own (M_b+1) x N_b row array.

    h is the step of the last stepper in the block's history, kept by
    :meth:`close_run`, and rate the h r that :func:`_jumps_pay` predicts
    steps from while the block does not step, set at a hand-over to jumps
    and at a split of a stepping block; a piece starts with both of its
    parent's.  Until a stepper has run, h is None and rate is _STEP_RATE.

    :meth:`run` flows the block by :meth:`pair` or :meth:`advance`, then
    cuts it and queues its pieces or writes it where it stops; :meth:`cuts`
    judges each state, and scans it at most once.  The block keeps one
    per-state cache (:class:`_State`) of the state last measured, the drift
    of its current run of steps or jumps, and its stepper while it steps or
    the flow pattern of the run while it jumps.
    """

    def __init__(self, flow: _BandedFlow, start: int, rows: np.ndarray, ell: float,
                 parent: _Block | None):
        self.flow, self.start, self.rows, self.ell = flow, start, rows, ell
        self.mb, self.nb = rows.shape[0] - 1, rows.shape[1]
        self.h, self.rate = (None, _STEP_RATE) if parent is None else (parent.h, parent.rate)
        self.last = self.stepper = self.pattern = None

    def run(self, tasks: deque) -> None:
        """Flow the block, then write it, or cut it and queue its pieces."""
        # A queued block has 2 or more rows and is not converged.  Snapshots
        # at or before its start ell were already written (initialization
        # covers ell <= 0, the block it split from covers the split point).
        flow, y = self.flow, self.rows.ravel()
        self.start_run(y)
        if self.nb == 2 and not flow.wegner:
            ell, y, cuts = self.pair()
        else:
            ell, y, cuts = self.advance(y)
        e = y.reshape(self.rows.shape)
        if cuts and self.stepper is not None:  # the pieces judge by its h r
            self.rate = self.stepper.h * _coupling_rate(e)
        self.close_run(y)
        if cuts:
            flow._split(tasks, self, e, cuts, ell)
        else:
            flow._finish(self.start, e, ell, self.measured(y).off_sq <= flow.conv_off_sq)

    def cuts(self, state: _State, scan: bool = False) -> list[int]:
        """Where state may be cut, by one scan kept on it: nowhere if it is
        converged, unless scan is set (a stepping block scans first)."""
        if not scan and state.off_sq <= self.flow.conv_off_sq:
            return []
        if state.cuts is None:
            state.cuts = self.flow._deflation_cuts(state)
        return state.cuts

    def measured(self, y: np.ndarray) -> _State:
        """The state y, measured once while it is the last one asked for."""
        if self.last is None or self.last.y is not y:
            self.last = _State(y, self.nb)
        return self.last

    def frob(self, y: np.ndarray) -> float:
        state = self.measured(y)
        return math.sqrt(state.diag_sq + state.off_sq)

    def start_run(self, y: np.ndarray) -> None:
        """Measure the drift of a run of steps or jumps from y."""
        diag = y[: self.nb]
        self.trace0, self.frob0_sq = float(diag.sum()), self.frob(y) ** 2
        self.max_tr = self.max_fr = self.max_pt = 0.0
        self.prev_cum = diag.cumsum()

    def track(self, y: np.ndarray) -> None:
        """Take the next state y of the run into its drift."""
        diag = y[: self.nb]
        self.max_tr = max(self.max_tr, abs(float(diag.sum()) - self.trace0))
        self.max_fr = max(self.max_fr, abs(self.frob(y) ** 2 - self.frob0_sq))
        cum = diag.cumsum()  # ndarray methods: no fromnumeric wrappers per state
        self.max_pt = max(self.max_pt, float((cum - self.prev_cum).max()))
        self.prev_cum = cum

    def close_run(self, y: np.ndarray) -> None:
        """Add the drift of the run of steps or jumps that ends at y, and its
        stepper's counts, to the flow's; the next run drifts from y."""
        flow, report = self.flow, self.flow.report
        if self.stepper is not None:
            flow.n_rhs += self.stepper.n_rhs
            flow.n_accepted += self.stepper.n_accepted
            flow.n_rejected += self.stepper.n_rejected
            self.h = self.stepper.h  # where the next stepper, or a piece's, starts
            self.stepper = None  # it calls back into this block: free it now, not at a gc
        report.trace_drift += self.max_tr
        report.frobenius_drift += self.max_fr / max(flow.frob0_sq, 1e-300)
        report.partial_trace_violation = max(report.partial_trace_violation, self.max_pt)
        self.start_run(y)

    def pair(self) -> tuple[float, np.ndarray, list[int]]:
        """Flow a 2x2 block in closed form (the Toda flow), with no stepper."""
        flow = self.flow
        state, end = _pair_flow(self.rows, self.ell, flow.conv_off_sq)
        # The automatic ell_max bounds work, and a pair costs O(1): run it
        # to its crossing unless the caller capped ell.
        cap = math.inf if flow.config.ell_max is None and math.isfinite(end) else flow.ell_max
        nudge = math.ulp(end)
        while end < cap:  # step past rounding at the crossing
            y = state(end)
            if self.measured(y).off_sq <= flow.conv_off_sq:
                break
            end, nudge = end + nudge, 2.0 * nudge
        else:  # cut short: evaluate at ell_max, where a deflation may fire
            end = flow.ell_max
            y = state(end)
        flow.n_exact += 1
        for s in flow.snap_ells:  # ascending, so drifts are tracked in ell order
            if self.ell < s <= end:
                snap = state(s)
                self.track(snap)
                flow._write(flow.snaps[s], self.start, snap.reshape(2, 2))
        self.track(y)
        return end, y, self.cuts(self.measured(y))

    def advance(self, y: np.ndarray) -> tuple[float, np.ndarray, list[int]]:
        """Flow a block of 3 or more rows, or a Wegner flow, from its state y
        by one exact QR jump or one step a pass (see :class:`_BandedFlow`)."""
        flow, ell = self.flow, self.ell
        run_ell = ell  # where the current run of jumps or steps started
        if not flow.wegner and _jumps_pay(self.measured(y), flow.span, rate=self.rate):
            self.jump_from(y)
        else:
            self.step_from(ell, y)
        while True:
            state = self.measured(y)
            converged = state.off_sq <= flow.conv_off_sq
            stepper = self.stepper
            if stepper is None:  # a run of jumps starts, or a jump landed
                cuts = self.cuts(state)
                if converged or cuts or ell >= flow.ell_max:
                    return ell, y, cuts
                if ell > run_ell and not _jumps_pay(state, flow.span, rate=self.rate):
                    self.close_run(y)  # steps pay now
                    self.step_from(ell, y)
                    run_ell = ell
            elif (not flow.wegner and stepper.n_accepted > 0
                  and stepper.n_accepted % _DEFLATE_EVERY == 0):
                # a scan, every _DEFLATE_EVERY steps: cuts, then the choice
                cuts = self.cuts(state, scan=True)
                if cuts:
                    return ell, y, cuts
                # judged by the mean step too (see _jumps_pay)
                step = max(stepper.h, (ell - run_ell) / stepper.n_accepted)
                if _jumps_pay(state, flow.span, step):
                    self.rate = step * _coupling_rate(state.rows)
                    self.close_run(y)
                    self.jump_from(y)
                    run_ell = ell
                    continue
            if self.stepper is not None and (converged or ell >= flow.ell_max):
                return ell, y, []
            t_cap = min([s for s in flow.snap_ells if s > ell] + [flow.ell_max])
            try:
                if self.stepper is not None:
                    self.stepper.step(t_cap)
                    ell, y = self.stepper.t, self.stepper.y
                else:
                    end, landing, rest = self.jump(state, ell, t_cap)
                    if self.cuts(landing) and _has_unsorted_pair(landing.rows):
                        # Deflatable at the landing, where the flow is growing
                        # a coupling (an unsorted pair; every other one
                        # shrinks): bisect back, to within a quarter of the
                        # jump, toward the earliest ell that converges or
                        # deflates, so that the cut leaves that coupling small.
                        # rest is the step from ell to the landing; each
                        # bisection jumps half of it, so a jump from the
                        # landing's own origin finds its exponential kept.
                        for _ in range(_JUMP_BISECTIONS):
                            rest *= 0.5
                            mid_ell, mid, _ = self.jump(state, ell, end, rest)
                            if self.cuts(mid) or mid.off_sq <= flow.conv_off_sq:
                                end, landing = mid_ell, mid
                            else:  # the origin moves forward
                                ell, state, y = mid_ell, mid, mid.y
                                self.track(y)
                    ell, y, self.last = end, landing.y, landing
            except StepSizeUnderflow as exc:
                raise StiffFlowError(ell, self.frob(y) ** 2, self.measured(y).off_sq) from exc
            self.track(y)
            if ell in flow.snaps:
                flow._write(flow.snaps[ell], self.start, y.reshape(self.rows.shape))

    def jump_from(self, y: np.ndarray) -> None:
        """Start a run of jumps at y: keep the slots that the run's exact
        flow can fill, and the dense entries that the run drops."""
        band, bi, bj = _band_slots(self.nb, self.mb + 1)
        h = np.zeros((self.nb, self.nb))
        h[bi, bj] = h[bj, bi] = y[band]
        dropped = ~_flow_pattern(h)
        kept = ~dropped[bi, bj]
        bi, bj = bi[kept], bj[kept]
        # as flat indices of the dense block: kept slots above and below
        # the diagonal, and the dropped entries in row-major order
        self.pattern = (band[kept], bi * self.nb + bj, bj * self.nb + bi,
                        np.flatnonzero(dropped))

    def jump(self, state: _State, ell: float, t_cap: float,
             dl: float | None = None) -> tuple[float, _State, float]:
        """Land one jump from state at ell, of dl (default: one span,
        span / s) or at t_cap if that comes first; returns the landing ell,
        the landing state and the step taken."""
        flow, cfg = self.flow, self.flow.config
        slots, upper, lower, dropped = self.pattern
        h = np.zeros(self.nb * self.nb)
        h[upper] = h[lower] = state.y[slots]
        h = h.reshape(self.nb, self.nb)
        _, _, lo, hi = state.edges()
        if dl is None:
            dl = flow.span / (hi - lo)
        tol = cfg.abs_tol + cfg.rel_tol * math.sqrt(state.diag_sq + state.off_sq)
        while True:
            if dl <= 16.0 * sys.float_info.epsilon * max(abs(ell), 1.0):
                raise StepSizeUnderflow(ell, f"jump underflow at ell={ell:.6g}")
            clipped = ell + dl >= t_cap
            step = t_cap - ell if clipped else dl
            g = _qr_jump(h, step, 0.5 * (lo + hi), state.expms)
            removed = g.take(dropped)
            removed_sq = float(np.dot(removed, removed))
            if math.sqrt(removed_sq) <= tol:
                break
            dl = 0.5 * step
        flow.report.frobenius_drift += removed_sq / max(flow.frob0_sq, 1e-300)
        flow.n_jumps += 1
        y = np.zeros_like(state.y)
        y[slots] = g.take(upper)
        return (t_cap if clipped else ell + step), self.measured(y), step

    def step_from(self, ell: float, y: np.ndarray) -> None:
        """Start a run of steps at ell from y with a new stepper, which starts
        at the step of the last one in the block's history."""
        flow, cfg = self.flow, self.flow.config
        flow.n_tasks += 1
        rhs = _wegner_band_rhs(self.nb) if flow.wegner else _Stencil(self.nb, self.mb)
        self.stepper = Dopri54(rhs, ell, y, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                               scale=self.frob, first_step=self.h)


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
    the same matrices, bit for bit, as long as they fit the float range:
    an eigenvalue can exceed every entry of h0, and a result past the
    range raises ValueError.
    """
    config = config or FlowConfig()
    wegner = config.generator is GeneratorKind.WEGNER
    n = h0.dim
    rows = h0.rows()
    if wegner:  # Wegner's generator fills the band: flow at full bandwidth
        if n > _WEGNER_CAP:
            raise ValueError(
                f"Wegner generator runs dense and is capped at N <= {_WEGNER_CAP}"
            )
        rows = np.vstack([rows, np.zeros((n - rows.shape[0], n))])
    # Flow H / 2^k with max|h_nm| / 2^k in [0.5, 1); ell scales as 2^k
    # (2^2k for Wegner).
    k = int(np.frexp(float(np.max(np.abs(rows))))[1])
    k_ell = 2 * k if wegner else k

    def scale_ell(ell: float) -> float:
        # Saturate at the float range: an ell past its top is never reached,
        # and a positive ell must not underflow to an invalid 0.
        scaled = min(float(_ldexp(ell, k_ell)), sys.float_info.max)
        return max(scaled, math.ulp(0.0)) if ell > 0.0 else scaled

    scaled = dataclasses.replace(
        config,
        ell_max=None if config.ell_max is None else scale_ell(config.ell_max),
        snapshot_ells=tuple(scale_ell(s) for s in config.snapshot_ells),
    )
    flow = _BandedFlow(BandedSymmetricMatrix.from_rows(_ldexp(rows, -k)), scaled)
    try:
        final, snaps = flow.run()
    except StiffFlowError as exc:
        raise StiffFlowError(
            float(_ldexp(exc.ell, -k_ell)),
            float(_ldexp(exc.frob_sq, 2 * k)),
            float(_ldexp(exc.offdiag_sq, 2 * k)),
        ) from exc.__cause__

    def unscale(rows: np.ndarray) -> BandedSymmetricMatrix:
        rows = _ldexp(rows, k)
        if not np.all(np.isfinite(rows)):
            raise ValueError(f"flow result exceeds the float range (max {sys.float_info.max:.4g})")
        return BandedSymmetricMatrix.from_rows(rows)

    ell_final = float(_ldexp(flow.ell_final, -k_ell))
    if config.ell_max is not None:  # a saturated ell_max maps back past the caller's
        ell_final = min(ell_final, config.ell_max)
    report = flow.report  # its frobenius_drift is already relative
    report.trace_drift = float(_ldexp(report.trace_drift, k))
    report.partial_trace_violation = float(_ldexp(report.partial_trace_violation, k))
    return FlowResult(
        final=unscale(final),
        ell_final=ell_final,
        converged=flow.converged,
        snapshots=[(ell, unscale(rows)) for ell, rows in zip(config.snapshot_ells, snaps)],
        diagnostics=report,
        stats=FlowStats(flow.n_rhs, flow.n_accepted, flow.n_rejected, flow.n_tasks,
                        flow.n_deflations, flow.n_exact, flow.n_jumps),
    )


def decay_rate_estimate(
    snapshots: list[tuple[float, BandedSymmetricMatrix]], n: int, m: int
) -> float:
    """Asymptotic decay rate of |h_nm| from late-flow snapshots.

    Fits ln|h_nm| against ell over the trailing half of the snapshots whose
    magnitude is still above the numeric floor, and returns the negated
    slope; for the sign generator this estimates |h_nn(inf) - h_mm(inf)|.
    """
    if n == m:
        raise ValueError(f"({n}, {m}) is a diagonal entry; the rate is defined for n != m")
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
