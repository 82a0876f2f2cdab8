"""Reference eigensolvers used to verify flow results.

Two deliberately independent algorithms: Sturm-sequence multisection for
symmetric tridiagonal matrices and cyclic Jacobi rotations for small dense
symmetric matrices.  Neither shares any code with the flow engine, so they
can serve as oracles for it (and for each other).

Multisection (Lo, Philippe & Sameh 1987) is bisection that puts many
shifts into each Sturm sweep: a sweep's cost is mostly per-row interpreter
overhead, so counting up to max(N, _PASS_SHIFTS) shifts at once costs about
what counting N does, and a solve needs about a third of bisection's
sweeps.  A solve for only the lowest k eigenvalues (``k=...``) opens only
their k brackets, each starting below a Courant-Fischer ceiling on the
k-th eigenvalue: the same sweeps then spread their shifts over fewer,
narrower brackets.  A sweep stops at the first row past which no pivot
can turn negative (see :func:`sturm_count`), so on a chain whose diagonal
rises, as the spin-boson chains' does, a lowest-k solve costs the rows
that can hold its k levels, not N: the lowest 21 levels of the fig1 chain
take 5 sweeps of 51 to 78 rows each, at N = 200 and at N = 400 alike.
Both solvers, and the bracket test :func:`brackets_hold`, run on the input
divided by 2^e, 2^e the binary exponent of its largest entry, and map the
result back exactly, so their results scale bit for bit with any power of
two and do not overflow or underflow at entries of 1e200 or 1e-200.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SpectrumResult", "eigenvalues_tridiag", "brackets_hold", "eigenvalues_dense"]

_DENSE_CAP = 512
# Shifts per multisection pass (at least N).  Below a few thousand shifts a
# Sturm sweep costs about the same per-row interpreter overhead whatever it
# carries, so wider passes mean fewer of them.
_PASS_SHIFTS = 2048
# Relative widening of the Gershgorin radii behind sturm_count's early exit:
# far above the few roundings of eps = 2^-52 its proof must absorb.
_WIDEN = 1.0 + 2.0**-40


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues plus an absolute accuracy bound."""

    eigenvalues: np.ndarray
    residual_bound: float


def sturm_count(diag: np.ndarray, offdiag_sq: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift, via the LDL^T pivot recurrence.

    Vectorized over shifts.  A zero coupling starts a new block whose first
    pivot is ``diag[i] - shift``, with no division.  Across a nonzero
    coupling a zero pivot is handled through IEEE infinities: it sends the
    next pivot to -inf, which is counted and then self-heals
    (b^2 / -inf == -0).  With every b^2 finite no NaN can arise.

    The sweep stops as soon as no later pivot can be negative, so its cost
    scales with the rows that can hold eigenvalues below the largest shift,
    not with N.  Let r be the first row from which every Gershgorin floor
    ``diag[j] - |b[j-1]| - |b[j]|`` (radius widened by a relative 2^-40)
    lies above the largest shift, and say row j >= r - 1 has, for every
    shift, a pivot d_j < 0 or d_j >= |b_j|.  Then for every shift
    ``d_{j+1} = diag[j+1] - shift - b_j^2 / d_j >= diag[j+1] - shift - |b_j|
    >= |b_{j+1}|``, so by induction no pivot after row j is negative; the
    widening covers the rounding of the computed recurrence, so the counts
    equal the full sweep's bit for bit.
    """
    shifts = np.asarray(shifts, dtype=float)
    reach = np.sqrt(offdiag_sq) * _WIDEN  # |b_j|, widened
    floor = np.minimum.accumulate((diag - _radius(reach))[::-1])[::-1]  # suffix minima
    below = np.nonzero(~(floor > shifts.max(initial=-np.inf)))[0]
    start = below[-1] if below.size else -1  # r - 1: every row from r on lies above
    d = diag[0] - shifts
    count = (d < 0.0).astype(np.int64)
    quot = np.empty_like(d)
    with np.errstate(divide="ignore", over="ignore"):
        for j, (a, b_sq, b) in enumerate(zip(diag[1:].tolist(), offdiag_sq.tolist(),
                                             reach.tolist())):
            if j >= start and ((d < 0.0) | (d >= b)).all():
                break
            if b_sq == 0.0:
                np.subtract(a, shifts, out=d)
            else:
                np.divide(b_sq, d, out=quot)
                np.subtract(a, shifts, out=d)
                d -= quot
            count += d < 0.0
    return count


def eigenvalues_tridiag(diag, offdiag, k=None) -> SpectrumResult:
    """The lowest k (default: all N) eigenvalues of a symmetric tridiagonal
    matrix, by multisection.

    Parameters
    ----------
    diag : array of N diagonal entries.
    offdiag : array of N-1 off-diagonal entries.
    k : number of eigenvalues to return, the lowest ones in ascending
        order; an integer with 0 <= k <= N.  None means N.

    Eigenvalues are located to an absolute tolerance of 1e-12 times the
    matrix scale (the Gershgorin enclosure), which is the returned
    ``residual_bound`` whatever k is; multiplicities are counted correctly
    because the search brackets eigenvalue counts, not roots.  A diagonal
    input (every coupling exactly zero, as at N <= 1) returns its sorted
    diagonal exactly, with ``residual_bound`` 0.

    Each pass finds the distinct open brackets among the lowest k
    eigenvalues, spreads at most max(N, _PASS_SHIFTS) shifts evenly over
    them (p >= 1 interior points each) and counts all of them in one Sturm
    sweep, so a pass narrows every open bracket p + 1 fold; bisection is
    p = 1.  A sweep costs about the same for any number of shifts up to
    that budget, so the cost of a solve scales with the number of passes
    times the rows a sweep visits before it stops (:func:`sturm_count`),
    and fewer brackets (smaller k) get more shifts each and need fewer
    passes.  For k < N every bracket starts at the top of the Gershgorin
    enclosure or, if lower, at the top Gershgorin edge of the principal
    submatrix on the k smallest diagonal entries, an upper bound on the
    k-th eigenvalue by Courant-Fischer; then no shift lies above it and
    even the first pass's sweep stops early.  Eigenvalue i's bracket keeps
    count(lo) < i <= count(hi) by construction, even where rounding makes
    counts non-monotone.  An exactly-zero coupling starts a new block in
    the sweep.  The search runs on the input divided by 2^e, 2^e the binary
    exponent of the largest entry, and maps the result back exactly.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = diag.shape[0]
    if offdiag.shape != (max(n - 1, 0),):
        raise ValueError(f"offdiag must have length {n - 1}, got {offdiag.shape}")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
        raise ValueError("non-finite entry in tridiagonal input")
    if k is None:
        k = n
    elif not (isinstance(k, (int, np.integer)) and not isinstance(k, bool) and 0 <= k <= n):
        raise ValueError(f"k must be an integer with 0 <= k <= N = {n}, got {k!r}")
    if not offdiag.any():  # diagonal: its entries are the eigenvalues, exactly
        return SpectrumResult(np.sort(diag)[:k], 0.0)
    e = _binary_exponent(diag, offdiag)
    diag, offdiag = np.ldexp(diag, -e), np.ldexp(offdiag, -e)

    # Gershgorin enclosure of the whole spectrum.
    radius = _radius(np.abs(offdiag))
    lo_all = float(np.min(diag - radius))
    hi_all = float(np.max(diag + radius))
    scale = max(abs(lo_all), abs(hi_all), 1e-300)
    tol = 1e-12 * scale

    off_sq = offdiag * offdiag
    lo = np.full(k, lo_all)
    top = min(hi_all, _lowest_k_ceiling(diag, offdiag, k)) if 0 < k < n else hi_all
    hi = np.full(k, top)
    budget = max(n, _PASS_SHIFTS)
    while True:
        open_ = np.nonzero(hi - lo > 2.0 * tol)[0]
        if open_.size == 0:
            break
        # The distinct open brackets, each split by p evenly spaced shifts.
        pairs, owner = np.unique(
            np.stack((lo[open_], hi[open_]), axis=1), axis=0, return_inverse=True
        )
        owner = owner.reshape(-1)  # numpy 2.0.0 returns it 2-D
        p = max(1, budget // pairs.shape[0])
        frac = np.arange(1, p + 1) / (p + 1)
        blo, bhi = pairs[:, :1], pairs[:, 1:]
        shifts = blo + (bhi - blo) * frac  # (brackets, p)
        cnt = sturm_count(diag, off_sq, shifts.reshape(-1)).reshape(shifts.shape)
        # Eigenvalue i's new hi is its bracket's first shift whose count is
        # >= i (the old hi if none is), its new lo the point before that.
        # A running max makes each row sorted without moving that first
        # shift, so one searchsorted over the rows, offset by n + 1 per
        # row (a count runs to n whatever k is), finds it even where
        # rounding makes counts non-monotone.
        np.maximum.accumulate(cnt, axis=1, out=cnt)
        row = np.arange(pairs.shape[0])[:, None] * (n + 1)
        first = np.searchsorted((cnt + row).reshape(-1), open_ + 1 + row[owner, 0])
        first -= owner * p
        grid = np.concatenate((blo, shifts, bhi), axis=1)  # (brackets, p + 2)
        lo[open_] = grid[owner, first]
        hi[open_] = grid[owner, first + 1]
    eig = 0.5 * (lo + hi)
    return SpectrumResult(np.ldexp(np.sort(eig), e), float(np.ldexp(tol, e)))


def brackets_hold(diag, offdiag, lo, hi) -> np.ndarray:
    """Whether the i-th lowest eigenvalue of a symmetric tridiagonal matrix
    lies in [lo[i], hi[i]), for each i < k = len(lo), by one Sturm sweep.

    Eigenvalue i (0-based, ascending) lies in [lo, hi) exactly when fewer
    than i + 1 eigenvalues lie below lo and more than i lie below hi, so
    bracket i holds when ``count(lo[i]) <= i < count(hi[i])``.  One
    :func:`sturm_count` sweep counts all 2k ends, and it stops at the rows
    that can hold eigenvalues below max(hi), not at N.  Like the solvers it
    runs on the input divided by 2^e, 2^e the binary exponent of the
    largest matrix entry, so b^2 cannot overflow or underflow.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = diag.shape[0]
    if offdiag.shape != (max(n - 1, 0),):
        raise ValueError(f"offdiag must have length {n - 1}, got {offdiag.shape}")
    if lo.ndim != 1 or lo.shape != hi.shape or lo.shape[0] > n:
        raise ValueError(f"lo and hi must have one equal length <= N = {n}, "
                         f"got {lo.shape} and {hi.shape}")
    if not all(np.all(np.isfinite(a)) for a in (diag, offdiag, lo, hi)):
        raise ValueError("non-finite entry in tridiagonal input or brackets")
    k = lo.shape[0]
    if k == 0:
        return np.zeros(0, dtype=bool)
    e = _binary_exponent(diag, offdiag)
    diag, offdiag = np.ldexp(diag, -e), np.ldexp(offdiag, -e)
    count = sturm_count(diag, offdiag * offdiag, np.ldexp(np.concatenate((lo, hi)), -e))
    i = np.arange(k)
    return (count[:k] <= i) & (i < count[k:])


def _lowest_k_ceiling(diag: np.ndarray, offdiag: np.ndarray, k: int) -> float:
    """Top Gershgorin edge of the principal submatrix on the k smallest
    diagonal entries: an upper bound on the k-th smallest eigenvalue, by
    Courant-Fischer (1 <= k < N)."""
    inside = np.zeros(diag.shape[0], dtype=bool)
    inside[np.argsort(diag, kind="stable")[:k]] = True
    coupling = np.where(inside[:-1] & inside[1:], np.abs(offdiag), 0.0)
    return float(np.max((diag + _radius(coupling))[inside]))


def _radius(coupling: np.ndarray) -> np.ndarray:
    """Each row's Gershgorin radius |b_{i-1}| + |b_i|, from the N - 1
    coupling magnitudes |b_i|."""
    radius = np.zeros(coupling.shape[0] + 1)
    radius[:-1] += coupling
    radius[1:] += coupling
    return radius


def _binary_exponent(*arrays) -> int:
    """e such that the largest |entry| / 2^e lies in [0.5, 1) (0 if all are 0)."""
    return int(np.frexp(max(float(np.max(np.abs(a), initial=0.0)) for a in arrays))[1])


def eigenvalues_dense(matrix) -> SpectrumResult:
    """All eigenvalues of a dense symmetric matrix by cyclic Jacobi sweeps.

    Rotations are applied until the off-diagonal Frobenius norm falls below
    1e-13 times the matrix norm.  Input asymmetry beyond 1e-12 (relative to
    the largest entry) is rejected.  The sweeps run on the input divided by
    2^e, as in :func:`eigenvalues_tridiag`.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > _DENSE_CAP:
        raise ValueError(f"dense oracle capped at N <= {_DENSE_CAP}, got {n}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entry in dense input")
    if n == 0:
        return SpectrumResult(np.empty(0), 0.0)
    scale = max(float(np.max(np.abs(a))), 1e-300)
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("input is not symmetric within 1e-12")
    if n == 1:
        return SpectrumResult(a[0:1, 0].copy(), 0.0)
    e = _binary_exponent(a)
    a = np.ldexp(a, -e)
    a = 0.5 * (a + a.T)

    norm = np.sqrt(np.sum(a * a))
    target = 1e-13 * max(norm, 1e-300)

    off = np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
    for _ in range(60):  # sweeps; quadratic convergence ends this early
        if off <= target:
            break
        skip = off / (n * n)  # entries below this cannot matter yet
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= min(skip, target / n):
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta)) if theta != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # two-sided rotation on rows/columns p and q
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                a[p, q] = 0.0
                a[q, p] = 0.0
        off = np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
    else:  # pragma: no cover - defensive
        raise RuntimeError("Jacobi iteration failed to converge in 60 sweeps")

    bound = float(off) + 1e-15 * norm
    return SpectrumResult(np.ldexp(np.sort(np.diag(a)), e), float(np.ldexp(bound, e)))
