"""Banded real symmetric matrix storage with exact structural zeros."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

__all__ = [
    "BandedSymmetricMatrix",
    "IrreducibleBlock",
    "make_banded",
    "split_irreducible",
    "read_matrix",
    "write_matrix",
]


@dataclass(frozen=True)
class IrreducibleBlock:
    """Half-open index range [start, end) that no nonzero coupling crosses."""

    start: int
    end: int


class BandedSymmetricMatrix:
    """Real symmetric N x N matrix with h_nm = 0 enforced for |n - m| > M.

    Storage is LAPACK's lower symmetric band layout: one (M+1) x N float
    array whose row k holds h_{n,n+k} for n = 0..N-1-k followed by k zero
    padding slots.  Only one triangle is stored, so symmetry holds by
    construction, and entries outside the band are structural zeros:
    reading them yields exactly 0.0 and there is no way to write them.

    A column slice [:, a:b] of the rows is the row array of the diagonal
    block [a, b), already zero-padded wherever no coupling crosses b; the
    flow integrator works on private copies of such slices.  Instances are
    immutable from the outside.
    """

    __slots__ = ("dim", "bandwidth", "_rows")

    def __init__(self, dim: int, bandwidth: int, bands: Iterable[np.ndarray]):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        if not 0 <= bandwidth < dim:
            raise ValueError(
                f"bandwidth must satisfy 0 <= M < N, got M={bandwidth}, N={dim}"
            )
        bands = [np.asarray(b, dtype=float) for b in bands]
        if len(bands) != bandwidth + 1:
            raise ValueError(
                f"expected {bandwidth + 1} bands, got {len(bands)}"
            )
        rows = np.zeros((bandwidth + 1, dim))
        for k, b in enumerate(bands):
            if b.shape != (dim - k,):
                raise ValueError(
                    f"band {k} must have length {dim - k}, got {b.shape}"
                )
            if not np.all(np.isfinite(b)):
                raise ValueError(f"non-finite entry in band {k}")
            rows[k, : dim - k] = b
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bandwidth", bandwidth)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BandedSymmetricMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "BandedSymmetricMatrix":
        """Build from an (M+1) x N row array laid out as :meth:`rows`.

        The padding slots (row k, columns N-k..N-1) must be exactly zero.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"expected an (M+1) x N row array, got shape {rows.shape}")
        n = rows.shape[1]
        if np.any(rows[np.add.outer(np.arange(rows.shape[0]), np.arange(n)) >= n]):
            raise ValueError("nonzero entry in a padding slot of the row array")
        return cls(n, rows.shape[0] - 1, [rows[k, : n - k] for k in range(rows.shape[0])])

    # -- element access -----------------------------------------------------

    def get(self, n: int, m: int) -> float:
        """Entry h_nm; exactly 0.0 outside the band."""
        if not (0 <= n < self.dim and 0 <= m < self.dim):
            raise IndexError(f"index ({n}, {m}) outside {self.dim}x{self.dim}")
        k = abs(n - m)
        if k > self.bandwidth:
            return 0.0
        return float(self._rows[k, min(n, m)])

    def rows(self) -> np.ndarray:
        """Read-only view of the (M+1) x N row array, padding included."""
        view = self._rows.view()
        view.setflags(write=False)
        return view

    def band(self, k: int) -> np.ndarray:
        """Read-only view of band k (entries h_{n,n+k}, no padding)."""
        return self.rows()[k, : self.dim - k]

    def diagonal(self) -> np.ndarray:
        return self.band(0)

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for k in range(self.bandwidth + 1):
            idx = np.arange(self.dim - k)
            a[idx, idx + k] = self._rows[k, : self.dim - k]
            a[idx + k, idx] = self._rows[k, : self.dim - k]
        return a

    # -- scalar functionals ---------------------------------------------------

    def trace(self) -> float:
        return float(self._rows[0].sum())

    def frobenius_norm_sq(self) -> float:
        """Sum of h_nm^2 over all n, m (both symmetric copies counted)."""
        return float(np.dot(self._rows[0], self._rows[0])) + self.offdiag_norm_sq()

    def offdiag_norm_sq(self) -> float:
        off = self._rows[1:].ravel()
        return 2.0 * float(np.dot(off, off))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BandedSymmetricMatrix(dim={self.dim}, bandwidth={self.bandwidth})"


def make_banded(
    dim: int, bandwidth: int, entries: Mapping[tuple[int, int], float]
) -> BandedSymmetricMatrix:
    """Construct a banded symmetric matrix from an (n, m) -> value map.

    Unspecified in-band entries are zero.  An entry with |n - m| > bandwidth
    or a non-finite value is rejected.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not 0 <= bandwidth < dim:
        raise ValueError(f"bandwidth must satisfy 0 <= M < N, got M={bandwidth}, N={dim}")
    bands = [np.zeros(dim - k) for k in range(bandwidth + 1)]
    for (n, m), value in entries.items():
        if not (0 <= n < dim and 0 <= m < dim):
            raise ValueError(f"entry ({n}, {m}) outside {dim}x{dim} matrix")
        k = abs(n - m)
        if k > bandwidth:
            raise ValueError(f"entry ({n}, {m}) outside band |n-m| <= {bandwidth}")
        if not math.isfinite(value):
            raise ValueError(f"non-finite value at ({n}, {m}): {value!r}")
        bands[k][min(n, m)] = value
    return BandedSymmetricMatrix(dim, bandwidth, bands)


def boundary_coupling_sq(rows: np.ndarray) -> np.ndarray:
    """Coupling across every cut of an (M+1) x N row array.

    Entry c-1 (c = 1..N-1) is the sum of h_nm^2 over the stored entries
    with n < c <= m, the couplings a split after index c-1 would remove.
    Band k crosses cut c in rows[k, c-k:c]; grouping by the shift s = c - n
    makes each cut a sum of shifted suffix sums t_s[n] = sum_{k>=s}
    rows[k, n]^2.  Every term is a non-negative square, so a cut reads
    exactly 0 only where each crossing entry squares to 0 (a difference of
    running sums would round a 1e-10 coupling next to a coupling of 1 to 0).
    """
    n = rows.shape[1]
    cross = np.zeros(max(n - 1, 0))
    t = np.zeros(n)
    for s in range(rows.shape[0] - 1, 0, -1):
        t += rows[s] * rows[s]
        cross[s - 1 :] += t[: n - s]
    return cross


def uncoupled_cuts(rows: np.ndarray) -> np.ndarray:
    """Whether each cut c = 1..N-1 of an (M+1) x N row array is crossed by
    no nonzero entry (n < c <= m <= n + M).

    :func:`boundary_coupling_sq` counts the nonzero crossing entries here,
    not their squares, so a coupling of 1e-170 whose square underflows
    still joins the two sides.
    """
    return boundary_coupling_sq((rows != 0.0).astype(float)) == 0.0


def split_irreducible(h: BandedSymmetricMatrix) -> list[IrreducibleBlock]:
    """Decompose into maximal blocks separated by exactly-zero couplings.

    A cut after index c-1 requires every stored entry crossing the boundary
    to be exactly zero (see :func:`uncoupled_cuts`).  Tolerance-based
    splitting is deliberately not offered here.  The blocks are contiguous, so for M >= 2 one block
    can hold several connected components of the coupling graph:
    h01 = h12 = 0 with h02 != 0 is one block in which index 1 couples to
    nothing.
    """
    cuts = np.flatnonzero(uncoupled_cuts(h.rows())) + 1
    edges = [0, *(int(c) for c in cuts), h.dim]
    return [IrreducibleBlock(a, b) for a, b in zip(edges[:-1], edges[1:])]


# -- plain-text matrix format -------------------------------------------------
#
# Header line "bandmat N M", then one line "n m value" per nonzero stored
# entry, with values in round-trip decimal precision.

def write_matrix(h: BandedSymmetricMatrix, f: IO[str]) -> None:
    f.write(f"bandmat {h.dim} {h.bandwidth}\n")
    for k in range(h.bandwidth + 1):
        b = h.band(k)
        for n in np.nonzero(b)[0]:
            f.write(f"{int(n)} {int(n) + k} {float(b[n])!r}\n")


def read_matrix(f: IO[str]) -> BandedSymmetricMatrix:
    """Parse the text format; errors carry the offending line number."""
    header = f.readline()
    parts = header.split()
    if len(parts) != 3 or parts[0] != "bandmat":
        raise ValueError("line 1: expected header 'bandmat N M'")
    try:
        dim, bandwidth = int(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError("line 1: N and M must be integers") from None
    entries: dict[tuple[int, int], float] = {}
    for lineno, line in enumerate(f, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'n m value'")
        try:
            n, m, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed entry {line!r}") from None
        if (n, m) in entries or (m, n) in entries:
            raise ValueError(f"line {lineno}: duplicate entry ({n}, {m})")
        entries[(n, m)] = value
    try:
        return make_banded(dim, bandwidth, entries)
    except ValueError as exc:
        raise ValueError(f"invalid matrix data: {exc}") from None
    except MemoryError:  # N and M too large for this machine: bad input too
        raise ValueError(f"line 1: no memory for N={dim}, M={bandwidth}") from None
