"""Embedded adaptive Runge-Kutta integration (Dormand-Prince 8(5,3), DOP853).

Exposes a resumable stepper rather than a solve-to-end routine: the flow
engine interleaves convergence checks, snapshot capture and block deflation
between accepted steps, so it needs to drive the integration itself.

DOP853 replaced the earlier Dormand-Prince 5(4) pair.  On the spin-boson
chains at the tolerance the flows run at (rel_tol 1e-10), accuracy and
not stability limits the step: the flow's off-diagonals decay like
exp(-|h_nn - h_mm| ell), the 5(4) pair took steps of ~0.016 against a
stability limit of ~0.5, and almost never rejected one.  An 8th-order
step is 12 RHS evaluations instead of 6 but covers about four times the
distance, so a flow costs about half the evaluations.  That does not
hold for every flow: on a Lipkin block of 10^4 rows the Jacobian's
eigenvalues at ell = 0 lie near the imaginary axis, of modulus about
4 max|b|, and most steps of the early transient sit at DOP853's stability
limit there (|h lambda| about 5.96).  On one such input 612 of 700
accepted steps do, and the step count barely moves with rel_tol.

The tableau constants below are transcribed unchanged; only the way a step
reads them is arranged for long states.  The 13 stage rows are stored in
the order of ``_ROW`` (stages 0 and 2 swapped), so that every stage
combination and the final product read one contiguous slice that holds all
their nonzero weights and only rows already written in the same attempt.
A step then reads 52 stage rows for its 11 stage arguments and 10 for one
stacked (3, 10) product that gives y_new - y and both error estimates,
against 66 + 36 rows for the plain sums (16 of whose weights are zero).
The per-stage slices and weights are built once at import from ``_A``,
``_B``, ``_E5`` and ``_E3``; the 11 stage weight vectors sit in one
zero-padded (11, 13) matrix, so a step scales them all by h in one product.

The step size follows DOP853's own I-controller (Hairer, Norsett & Wanner,
section II.4, and the DOP853 code's defaults): after an accepted step the
next is h * 0.9 (err / tol)^(-1/8), at most 5 times longer, and never
longer than the accepted step when the same call rejected an attempt; a
rejected attempt is retried at h * max(0.2, 0.9 (err / tol)^(-1/8)).  On a
smooth flow it settles where err / tol = 0.9^8 = 0.43.  It replaced a PI
controller that paired Gustafsson's gains (0.7/8 and 0.4/8) with the same
safety factor 0.9: that one settles at err / tol = 0.9^(1 / (0.3/8)) = 0.06,
and on the fig1 flows accepted steps sat at a median err / tol of 0.04, so
every step was about a quarter shorter than the tolerance allows.  PI
control damps the step-size oscillation of stability-limited steps; the
fig1 flows are accuracy-limited and reject no step under either controller,
and the I-controller takes a quarter fewer steps there at the same accept
test.  The Lipkin chains, whose long blocks run near the stability limit,
take about as many steps as before and reject about 2 attempts in 100.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["Dop853", "StepSizeUnderflow"]

# Prince & Dormand 1981, 12 stages, order 8 with embedded 5th- and
# 3rd-order error estimators, FSAL; coefficients as in Hairer, Norsett &
# Wanner, Solving ODEs I, section II.10 (code DOP853).
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
_A = [
    np.array([]),
    np.array([5.26001519587677318785587544488e-2]),
    np.array([1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]),
    np.array([2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]),
    np.array([
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ]),
    np.array([
        3.7037037037037037037037037037e-2, 0.0, 0.0,
        1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1,
    ]),
    np.array([
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ]),
    np.array([
        3.70920001185047927108779319836e-2, 0.0, 0.0,
        1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
        -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3,
    ]),
    np.array([
        6.24110958716075717114429577812e-1, 0.0, 0.0,
        -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
        2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
        -4.34898841810699588477366255144e1,
    ]),
    np.array([
        4.77662536438264365890433908527e-1, 0.0, 0.0,
        -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
        2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
        -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2,
    ]),
    np.array([
        -9.3714243008598732571704021658e-1, 0.0, 0.0,
        5.18637242884406370830023853209, 1.09143734899672957818500254654,
        -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
        2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
        -3.0467644718982195003823669022,
    ]),
    np.array([
        2.27331014751653820792359768449, 0.0, 0.0,
        -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
        -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
        -2.85899827713502369474065508674, -8.87285693353062954433549289258,
        1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1,
    ]),
]
# 8th-order weights; the FSAL evaluation at the new point is not weighted.
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])
# Error weights: _E5 against the embedded 5th-order solution, _E3 = b - bhh
# against the 3rd-order one (bhh nonzero only at stages 0, 8 and 11).
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])
_BHH = np.zeros(12)
_BHH[[0, 8, 11]] = [
    0.244094488188976377952755905512,
    0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
]
_E3 = _B - _BHH

_STAGES = 12

# Storage order of the stage matrix: stage s lives in row _ROW[s], so stages
# 0 and 2 swap places.  Then each combination's weighted rows form one slice,
# and no slice reaches a row this attempt has not yet written (a zero weight
# times a stale or uninitialised NaN is NaN): stages 1-4 read the rows of
# stages {0}, {1, 0}, {2, 1, 0} and {2, 1, 0, 3}, stage i >= 5 reads
# {0, 3, ..., i-1}, and the final product reads {0, 3, ..., 11}.
_ROW = (2, 1, 0) + tuple(range(3, _STAGES + 1))


def _in_rows(weights: np.ndarray) -> np.ndarray:
    """The weights laid out over all 13 stage rows in row order, zero where
    a row holds no weighted stage."""
    w = np.zeros(weights.shape[:-1] + (_STAGES + 1,))
    w[..., list(_ROW[: weights.shape[-1]])] = weights
    return w


def _row_slice(weights: np.ndarray) -> tuple[int, int, np.ndarray]:
    """The rows lo:hi that hold every stage with a nonzero weight, and the
    weights laid out in row order over that slice."""
    w = _in_rows(weights)
    used = np.flatnonzero(np.any(w.reshape(-1, _STAGES + 1) != 0.0, axis=0))
    lo, hi = int(used[0]), int(used[-1]) + 1
    return lo, hi, w[..., lo:hi].copy()


# Stage i's weights over all 13 rows, in row i - 1: one product scales
# every stage's weights by h, and stage i reads row i - 1's slice lo:hi.
_STAGE_W = np.stack([_in_rows(_A[i]) for i in range(1, _STAGES)])
# Per stage: the row it is stored in, its node c_i, and the rows lo:hi it reads.
_STAGE_PLAN = tuple((_ROW[i], float(_C[i]), *_row_slice(_A[i])[:2])
                    for i in range(1, _STAGES))
# y_new - y, e5 and e3 in one (3, w) @ (w, n) product; row 0 is scaled by h.
_FINAL_ROWS = _row_slice(np.stack((_B, _E5, _E3)))
_H_MIN = 16.0 * np.finfo(float).eps  # smallest step, relative to max(|t|, 1)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


class StepSizeUnderflow(RuntimeError):
    """Raised when the controller drives the step below resolvable size."""

    def __init__(self, t: float, message: str):
        super().__init__(message)
        self.t = t


class Dop853:
    """Resumable DOP853 stepper with DOP853's I step-size control.

    ``fun(t, y, out)`` writes dy/dt at (t, y) into ``out`` and returns
    nothing.  Each attempted step costs 12 evaluations of ``fun``: 11 new
    stages and the FSAL evaluation at the new point, which becomes the next
    step's first stage.  Construction costs one more, plus one for the
    automatic initial step when ``first_step`` is not given.  ``n_rhs``
    counts them.

    The error estimate is ``|h| ||e5||^2 / sqrt(||e5||^2 + 0.01 ||e3||^2)``,
    and the accept/reject test is ``||err||_2 <= abs_tol + rel_tol * scale(y)``
    where ``scale`` defaults to the Euclidean norm of the state.  ``step``
    advances exactly one accepted step, clipped so it never crosses the
    supplied cap; hitting the cap exactly is how callers land on snapshot
    times.  ``h`` is the next attempt: 0.9 (err / tol)^(-1/8) times the
    accepted step, at most 5 times it, and no longer than it if the call
    rejected an attempt; a clipped step leaves a longer plan in place.

    The stepper keeps three buffers across steps: the (13, n) stage matrix
    in ``_ROW`` order (the FSAL carry sits in stage 0's row), one n-vector
    for the arguments of ``fun``, and a (3, n) block for the stacked
    product of y_new - y, e5 and e3.  ``fun`` writes each stage straight
    into its row of the stage matrix, and the FSAL evaluation into the last
    row, which the automatic initial step also uses as scratch.  The stage
    matrix starts zeroed, so a slot that ``fun`` never writes stays 0.
    Every evaluation, the first and the initial step's included, reads its
    argument from the one kept buffer and writes one of the 13 stage rows,
    each the same view on every call: ``fun`` may keep views of its
    argument and ``out``, but not their values, which change between calls.
    The only state-sized array a step allocates is the new state, plus
    whatever ``fun`` allocates as temporaries: ``y`` is a fresh copy after
    every accepted step, so callers may keep it.
    """

    def __init__(
        self,
        fun: Callable[[float, np.ndarray, np.ndarray], None],
        t0: float,
        y0: np.ndarray,
        rel_tol: float = 1e-10,
        abs_tol: float = 1e-12,
        scale: Callable[[np.ndarray], float] | None = None,
        first_step: float | None = None,
    ):
        if not (rel_tol > 0 and abs_tol > 0):
            raise ValueError("tolerances must be positive")
        self.fun = fun
        self.t = float(t0)
        self.y = np.asarray(y0, dtype=float).copy()
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y0 must be finite")
        self._scale = scale if scale is not None else lambda y: float(np.linalg.norm(y))
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        n = self.y.size
        k = np.zeros((_STAGES + 1, n))  # the stage matrix
        self._rows = rows = tuple(k)  # the only outs fun sees
        self._yi = yi = self.y.copy()  # the only argument fun sees
        fun(self.t, yi, rows[_ROW[0]])  # the FSAL carry
        self.n_rhs = 1
        self._dy = np.empty((3, n))  # y_new - y, e5 and e3
        self._wf = _FINAL_ROWS[2].copy()  # the final weights, row 0 times h
        self._hw = np.empty_like(_STAGE_W)  # every stage's weights times h
        # Per stage: the product of its weights and the rows they weight, its
        # node and its row.  One weight is a multiply: numpy 2.4's matmul
        # skips BLAS on one row and runs 7x slower.
        self._stages = tuple(
            (np.multiply, self._hw[i, lo:hi], k[lo], c, rows[row]) if hi - lo == 1
            else (np.matmul, self._hw[i, lo:hi], k[lo:hi], c, rows[row])
            for i, (row, c, lo, hi) in enumerate(_STAGE_PLAN))
        self._k_final = k[_FINAL_ROWS[0]:_FINAL_ROWS[1]]
        if first_step is not None:
            if not first_step > 0.0:
                raise ValueError("first_step must be positive")
            self.h = float(first_step)
        else:
            self.h = self._initial_step()
        self.n_accepted = 0
        self.n_rejected = 0

    def _tol(self, y: np.ndarray) -> float:
        return self.abs_tol + self.rel_tol * self._scale(y)

    def _initial_step(self) -> float:
        # Hairer-Norsett-Wanner automatic initial step (simplified).
        k1, f1, y1 = self._rows[_ROW[0]], self._rows[_STAGES], self._yi
        tol = self._tol(self.y)
        d0 = float(np.linalg.norm(self.y))
        d1 = float(np.linalg.norm(k1))
        h0 = 1e-6 if d1 <= 1e-300 else 0.01 * max(d0, 1.0) / d1
        np.multiply(k1, h0, out=y1)
        y1 += self.y
        self.fun(self.t + h0, y1, f1)
        self.n_rhs += 1
        d2 = float(np.linalg.norm(f1 - k1)) / h0
        rate = max(d1, d2, 1e-300)
        h1 = (tol / rate) ** 0.125 if tol > 0 else h0
        return float(min(100.0 * h0, h1))

    def step(self, t_cap: float) -> None:
        """Advance one accepted step, never beyond ``t_cap``."""
        if t_cap <= self.t:
            raise ValueError("t_cap must exceed current time")
        y, t, fun, yi, dy, wf, hw = self.y, self.t, self.fun, self._yi, self._dy, self._wf, self._hw
        rows, w_f = self._rows, _FINAL_ROWS[2]
        rejected = False
        while True:
            h = self.h
            if not h > _H_MIN * max(abs(t), 1.0):  # NaN too
                raise StepSizeUnderflow(t, f"step size underflow at t={t:.6g} (h={h:.3g})")
            clipped = t + h >= t_cap
            if clipped:
                h = t_cap - t

            np.multiply(_STAGE_W, h, out=hw)
            for product, w, ks, c, out in self._stages:
                product(w, ks, yi)
                yi += y
                fun(t + c * h, yi, out)
            np.multiply(w_f[0], h, out=wf[0])
            np.matmul(wf, self._k_final, out=dy)
            np.add(y, dy[0], out=yi)
            y_new = yi.copy()  # fresh: callers keep self.y across steps
            fun(t + h, yi, rows[_STAGES])  # FSAL
            self.n_rhs += _STAGES
            e5_sq = float(np.dot(dy[1], dy[1]))
            denom = e5_sq + 0.01 * float(np.dot(dy[2], dy[2]))
            err = abs(h) * e5_sq / math.sqrt(denom) if denom > 0.0 else 0.0
            tol = self._tol(y_new)
            ratio = err / tol if tol > 0 else math.inf
            factor = _SAFETY * max(ratio, 1e-10) ** -0.125

            if ratio <= 1.0:
                self.t = t_cap if clipped else t + h
                self.y = y_new
                rows[_ROW[0]][:] = rows[_STAGES]
                self.n_accepted += 1
                # after a rejection the step may not grow
                h_next = h * min(factor, 1.0 if rejected else _MAX_FACTOR)
                # a clipped step must not shrink the controller's plan
                self.h = max(self.h, h_next) if clipped else h_next
                return
            self.n_rejected += 1
            rejected = True
            self.h = h * max(_MIN_FACTOR, factor)
