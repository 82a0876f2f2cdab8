"""Model builders: Lipkin pseudo-spin blocks and the spin-boson chain.

Both models are tridiagonal in the bases used here, so they exercise the
band-preserving flow directly.  The module also exposes the small reduced
ODE systems that admit closed-form treatment: the large-J linear-diagonal
reduction of the Lipkin flow and the per-level deviation functions of the
spin-boson flow in the compactified variable x = 1 - exp(-2 omega ell).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .band import BandedSymmetricMatrix
from .ode import Dop853
from .oracle import eigenvalues_tridiag

__all__ = [
    "LipkinParams",
    "SpinBosonParams",
    "LipkinReducedState",
    "SpinBosonReducedState",
    "ReducedSpinBosonResult",
    "TruncationError",
    "build_lipkin_blocks",
    "build_spinboson",
    "lipkin_reduced_initial",
    "lipkin_reduced_rhs",
    "lipkin_reduced_conserved",
    "integrate_lipkin_reduced",
    "spinboson_reduced_rhs",
    "integrate_spinboson_reduced",
    "spinboson_delta0_flow",
    "default_n_trunc",
    "certify_truncation",
]

_X_SINGULARITY_FLOOR = 1e-12  # reject RHS evaluation closer to x = 1 than this
_X_END = 1.0 - 1e-8  # integration stop; f(1) is then a linear extrapolation


class TruncationError(RuntimeError):
    """Raised when no tested truncation stabilizes the reported levels."""


# -- Lipkin model ---------------------------------------------------------------


@dataclass(frozen=True)
class LipkinParams:
    """Pseudo-spin parameters: xi0 * Jz + v0 * (J+^2 + J-^2) at spin j = two_j / 2.

    two_j keeps half-integer spins exact; v0 may be negative (the spectrum
    is symmetric under v0 -> -v0, which the tests assert).
    """

    xi0: float
    v0: float
    two_j: int

    def __post_init__(self):
        if self.xi0 <= 0.0:
            raise ValueError(f"xi0 must be positive, got {self.xi0}")
        if not (isinstance(self.two_j, int) and self.two_j >= 1):
            raise ValueError(f"two_j must be a positive integer, got {self.two_j!r}")
        if not (math.isfinite(self.xi0) and math.isfinite(self.v0)):
            raise ValueError("parameters must be finite")

    @property
    def j(self) -> float:
        return self.two_j / 2.0


def _lipkin_block(params: LipkinParams, shift: int, dim: int) -> BandedSymmetricMatrix:
    # shift = 0 or 1 selects the two parity blocks:
    #   diagonal  xi0 * (-J + 2n + shift)
    #   coupling  v0 * sqrt(J(J+1) - (J-2n-shift)(J-2n-shift-1))
    #                * sqrt(J(J+1) - (J-2n-shift-1)(J-2n-shift-2))
    J = params.j
    n = np.arange(dim, dtype=float)
    diag = params.xi0 * (-J + 2.0 * n + shift)
    if dim == 1:
        return BandedSymmetricMatrix(1, 0, [diag])
    nc = n[:-1]
    jj = J * (J + 1.0)
    m0 = J - 2.0 * nc - shift
    off = params.v0 * np.sqrt(jj - m0 * (m0 - 1.0)) * np.sqrt(jj - (m0 - 1.0) * (m0 - 2.0))
    return BandedSymmetricMatrix(dim, 1, [diag, off])


def build_lipkin_blocks(
    params: LipkinParams,
) -> tuple[BandedSymmetricMatrix, BandedSymmetricMatrix]:
    """The two tridiagonal parity blocks of the pseudo-spin Hamiltonian.

    For integer J the blocks have dimensions J+1 and J; for half-integer J
    both have dimension J + 1/2.  Their combined spectrum is the full
    (2J+1)-level spectrum.
    """
    if params.two_j % 2 == 0:
        dim_a = params.two_j // 2 + 1
        dim_b = params.two_j // 2
    else:
        dim_a = dim_b = (params.two_j + 1) // 2
    if dim_b == 0:  # two_j == 0 is excluded by validation; guard anyway
        raise ValueError("two_j must be at least 1")
    return _lipkin_block(params, 0, dim_a), _lipkin_block(params, 1, dim_b)


@dataclass
class LipkinReducedState:
    """Linear-diagonal reduction: eps_n = a*n + b, delta_n = f * delta_n(0)."""

    a: float
    b: float
    f: float


def lipkin_reduced_initial(params: LipkinParams, block: int) -> LipkinReducedState:
    _check_block(block)
    b0 = params.xi0 * (-params.j + (0.0 if block == 1 else 1.0))
    return LipkinReducedState(a=2.0 * params.xi0, b=b0, f=1.0)


def _check_block(block: int) -> None:
    if block not in (1, 2):
        raise ValueError(f"block must be 1 or 2, got {block!r}")


def lipkin_reduced_rhs(
    state: LipkinReducedState, params: LipkinParams, block: int
) -> tuple[float, float, float]:
    """(da/dl, db/dl, df/dl) of the large-J reduced flow.

    da/dl = -64 v0^2 J^2 f^2, df/dl = -a f, and db/dl is a quarter of da/dl
    in block 1 and three quarters in block 2.  The combination
    a^2 - 64 v0^2 J^2 f^2 is conserved.
    """
    _check_block(block)
    da = -64.0 * params.v0**2 * params.j**2 * state.f**2
    db = (0.25 if block == 1 else 0.75) * da
    df = -state.a * state.f
    return da, db, df


def lipkin_reduced_conserved(state: LipkinReducedState, params: LipkinParams) -> float:
    return state.a**2 - 64.0 * params.v0**2 * params.j**2 * state.f**2


def integrate_lipkin_reduced(
    params: LipkinParams,
    block: int = 1,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-14,
) -> tuple[LipkinReducedState, float]:
    """Integrate the reduced flow until f has decayed to the numeric floor.

    Returns the final state and the largest drift of the conserved quantity
    observed at any accepted step (absolute units of a0^2).
    """
    _check_block(block)
    s0 = lipkin_reduced_initial(params, block)
    y0 = np.array([s0.a, s0.b, s0.f])

    def rhs(_ell: float, y: np.ndarray) -> np.ndarray:
        da, db, df = lipkin_reduced_rhs(LipkinReducedState(*y), params, block)
        return np.array([da, db, df])

    stepper = Dop853(rhs, 0.0, y0, rel_tol=rel_tol, abs_tol=abs_tol)
    c0 = lipkin_reduced_conserved(s0, params)
    drift = 0.0
    # f decays like exp(-a ell); 2000 caps runaway for pathological inputs
    for _ in range(2000):
        if abs(stepper.y[2]) <= 1e-12:
            break
        if stepper.y[0] <= 0.0:
            break  # a crossed zero: outside the 4*J*v0 < xi0 regime
        stepper.step(stepper.t + max(1.0 / stepper.y[0], 1e-3))
        drift = max(
            drift,
            abs(lipkin_reduced_conserved(LipkinReducedState(*stepper.y), params) - c0),
        )
    state = LipkinReducedState(*stepper.y)
    return state, drift


# -- spin-boson model -----------------------------------------------------------


@dataclass(frozen=True)
class SpinBosonParams:
    """Two-level system coupled to one boson mode, in the displaced-parity basis.

    branch (+1 or -1) selects which of the two tridiagonal matrices is
    built: diagonal n*omega + branch*(-1)^n * delta/2, coupling
    (lam/2) sqrt(n+1).  n_trunc is the truncation dimension standing in for
    the semi-infinite chain.
    """

    delta: float
    lam: float
    omega: float
    branch: int = +1
    n_trunc: int = 64

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.delta < 0.0 or self.lam < 0.0:
            raise ValueError("delta and lam must be non-negative")
        if self.branch not in (+1, -1):
            raise ValueError(f"branch must be +1 or -1, got {self.branch!r}")
        if not (isinstance(self.n_trunc, int) and self.n_trunc >= 2):
            raise ValueError(f"n_trunc must be an integer >= 2, got {self.n_trunc!r}")
        if not all(map(math.isfinite, (self.delta, self.lam, self.omega))):
            raise ValueError("parameters must be finite")


def spinboson_diag(params: SpinBosonParams, n: np.ndarray | int):
    n = np.asarray(n, dtype=float)
    return n * params.omega + params.branch * np.power(-1.0, n) * params.delta / 2.0


def build_spinboson(params: SpinBosonParams) -> BandedSymmetricMatrix:
    """Truncated tridiagonal matrix of the selected branch."""
    n = np.arange(params.n_trunc)
    diag = spinboson_diag(params, n)
    off = 0.5 * params.lam * np.sqrt(np.arange(1, params.n_trunc, dtype=float))
    return BandedSymmetricMatrix(params.n_trunc, 1, [diag, off])


def default_n_trunc(n_target: int, lam: float, omega: float) -> int:
    """Starting truncation for reporting levels up to n_target."""
    return max(4 * n_target, n_target + math.ceil(40.0 * lam / omega) + 20, 2)


def certify_truncation(
    params: SpinBosonParams,
    n_report: int,
    tol: float | None = None,
    max_dim: int = 1 << 14,
) -> SpinBosonParams:
    """Double n_trunc until the reported levels stop moving.

    The lowest n_report+1 eigenvalues must change by less than tol
    (default 1e-8 * omega) when the dimension doubles; returns params with
    the certified n_trunc.
    """
    if tol is None:
        tol = 1e-8 * params.omega
    n_dim = max(params.n_trunc, n_report + 2)
    while n_dim <= max_dim:
        p1 = dataclasses.replace(params, n_trunc=n_dim)
        p2 = dataclasses.replace(params, n_trunc=2 * n_dim)
        h1, h2 = build_spinboson(p1), build_spinboson(p2)
        ev1 = eigenvalues_tridiag(h1.band(0), h1.band(1)).eigenvalues
        ev2 = eigenvalues_tridiag(h2.band(0), h2.band(1)).eigenvalues
        if np.max(np.abs(ev1[: n_report + 1] - ev2[: n_report + 1])) < tol:
            return p1
        n_dim *= 2
    raise TruncationError(
        f"levels 0..{n_report} not stable below dimension {max_dim}; "
        "increase n_trunc (or max_dim) and retry"
    )


def spinboson_delta0_flow(
    n: int, ell: float, params: SpinBosonParams
) -> tuple[float, float]:
    """Closed-form flow of level n for delta = 0.

    eps_n(ell) = n*omega - (lam^2 / 4 omega)(1 - exp(-2 omega ell)),
    delta_n(ell) = (lam/2) sqrt(n+1) exp(-omega ell).
    """
    if params.delta != 0.0:
        raise ValueError("closed-form flow requires delta = 0")
    if n < 0:
        raise ValueError("level index must be non-negative")
    if ell < 0.0:
        raise ValueError("ell must be non-negative")
    w = params.omega
    eps = n * w - params.lam**2 / (4.0 * w) * (1.0 - math.exp(-2.0 * w * ell))
    delta_n = 0.5 * params.lam * math.sqrt(n + 1.0) * math.exp(-w * ell)
    return eps, delta_n


@dataclass
class SpinBosonReducedState:
    """Deviation functions f_n, g_n for the level window n_lo .. n_lo+len(f)-1.

    f_n measures the delta-linear deviation of eps_n from the delta=0 flow,
    g_n the matching deviation of delta_n^2; initial conditions are
    f = 1, g = 0 at x = 0.
    """

    n_lo: int
    x: float
    f: np.ndarray
    g: np.ndarray


def spinboson_reduced_rhs(
    state: SpinBosonReducedState, params: SpinBosonParams
) -> tuple[np.ndarray, np.ndarray]:
    """(df/dx, dg/dx) of the exact coupled deviation system.

        omega (1-x) f_n' = -g_n - g_{n-1}
        2 omega (1-x) g_n' = (lam^2/2)(n+1)(1-x)(f_{n+1} + f_n)
                             - 2 omega g_n - branch * delta (-1)^n g_n (f_{n+1} + f_n)

    Window closure: f_{n_hi+1} is frozen to f_{n_hi}; the missing g_{n_lo-1}
    is frozen to the nearest interior value of the same parity (adjacent g's
    of equal parity agree at large n), and is exactly zero for n_lo = 0.
    """
    x = state.x
    if x < 0.0 or x >= 1.0 - _X_SINGULARITY_FLOOR:
        raise ValueError(
            f"x must lie in [0, 1 - {_X_SINGULARITY_FLOOR:g}); got {x!r}"
        )
    f, g = state.f, state.g
    if f.shape != g.shape or f.ndim != 1 or f.shape[0] < 1:
        raise ValueError("f and g must be matching 1-d level vectors")
    n = state.n_lo + np.arange(f.shape[0], dtype=float)
    w = params.omega
    one_m_x = 1.0 - x

    g_prev = np.empty_like(g)
    g_prev[1:] = g[:-1]
    if state.n_lo == 0:
        g_prev[0] = 0.0
    else:
        g_prev[0] = g[1] if g.shape[0] > 1 else g[0]
    f_next = np.empty_like(f)
    f_next[:-1] = f[1:]
    f_next[-1] = f[-1]

    pair = f_next + f
    sign = np.power(-1.0, n)
    df = -(g + g_prev) / (w * one_m_x)
    dg = (
        0.5 * params.lam**2 * (n + 1.0) * one_m_x * pair
        - 2.0 * w * g
        - params.branch * params.delta * sign * g * pair
    ) / (2.0 * w * one_m_x)
    return df, dg


@dataclass
class ReducedSpinBosonResult:
    """Target-level deviation function sampled on a grid, plus its x -> 1 limit."""

    n_target: int
    x_values: np.ndarray
    f_target: np.ndarray
    f_target_at_1: float
    state: SpinBosonReducedState


def integrate_spinboson_reduced(
    params: SpinBosonParams,
    n_target: int,
    window: int = 10,
    x_eval: tuple[float, ...] = (),
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
) -> ReducedSpinBosonResult:
    """Integrate the deviation system for a window of levels around n_target.

    Runs from x = 0 to 1 - 1e-8 and extrapolates f(1) linearly in (1 - x)
    using the end-point derivative (the x coordinate is singular at 1).
    Evaluation points in x_eval are hit exactly.

    The window closure (see :func:`spinboson_reduced_rhs`) is an
    approximation whose error grows with n_target.  Against the exact
    x = 1 value exp(-1/2) L_n(1), the default window=10 is off by 2.5e-4
    at n = 200 and 3.4e-4 at n = 800; window=40 stays within 6.2e-7 at
    n = 50, 200 and 800.  Widen the window for large n.
    """
    if n_target < 0:
        raise ValueError("n_target must be non-negative")
    if window < 0:
        raise ValueError("window must be non-negative")
    n_lo = max(n_target - window, 0)
    n_hi = n_target + window
    count = n_hi - n_lo + 1
    target = n_target - n_lo
    x_eval = tuple(sorted(set(float(x) for x in x_eval)))
    if any(x < 0.0 or x > _X_END for x in x_eval):
        raise ValueError(f"x_eval points must lie in [0, {_X_END!r}]")

    def rhs(x: float, y: np.ndarray) -> np.ndarray:
        state = SpinBosonReducedState(n_lo, x, y[:count], y[count:])
        df, dg = spinboson_reduced_rhs(state, params)
        return np.concatenate((df, dg))

    y0 = np.concatenate((np.ones(count), np.zeros(count)))
    stepper = Dop853(rhs, 0.0, y0, rel_tol=rel_tol, abs_tol=abs_tol)
    xs: list[float] = []
    fs: list[float] = []
    if x_eval and x_eval[0] == 0.0:
        xs.append(0.0)
        fs.append(1.0)
    pending = [x for x in x_eval if x > 0.0]
    while stepper.t < _X_END:
        cap = min([x for x in pending if x > stepper.t] + [_X_END])
        stepper.step(cap)
        if stepper.t in pending:
            xs.append(stepper.t)
            fs.append(float(stepper.y[target]))
            pending = [x for x in pending if x > stepper.t]

    df_end = rhs(stepper.t, stepper.y)[:count]
    f_end = stepper.y[:count]
    f_at_1 = float(f_end[target] + (1.0 - stepper.t) * df_end[target])
    return ReducedSpinBosonResult(
        n_target=n_target,
        x_values=np.array(xs),
        f_target=np.array(fs),
        f_target_at_1=f_at_1,
        state=SpinBosonReducedState(n_lo, stepper.t, f_end.copy(), stepper.y[count:].copy()),
    )
